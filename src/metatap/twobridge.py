"""2-bridge knot combinatorics.

A 2-bridge knot is indexed by a fraction r = beta/alpha with alpha, beta odd,
coprime and 0 < beta < alpha.  This module builds the standard 2-generator
Wirtinger presentation <x, y | W x W^-1 y^-1>, evaluates continued fractions
of the form [a1, ..., am] = 1/(a1 + 1/(a2 + ... + 1/am)), searches for the
special expansion [3k1, 2m1, ..., 2m_{q-1}, 3kq] whose existence puts the
knot group onto Z/2 * Z/3, and computes untwisted Alexander polynomials by
Fox calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, log2
from typing import Optional

from .exactalg import ExactnessError, LaurentPoly, canonical
from .groupcalc import Presentation, Word, fox_determinant, fox_tally


class CFError(ValueError):
    """Continued-fraction evaluation hit an intermediate zero denominator."""


@dataclass(frozen=True)
class FractionR:
    """The fraction beta/alpha indexing a 2-bridge knot (both odd, coprime)."""

    beta: int
    alpha: int

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if not (0 < b < a):
            raise ValueError(f"need 0 < beta < alpha, got {b}/{a}")
        if a % 2 == 0 or b % 2 == 0:
            raise ValueError(f"alpha and beta must both be odd, got {b}/{a}")
        if gcd(a, b) != 1:
            raise ValueError(f"beta/alpha must be reduced, got {b}/{a}")

    @staticmethod
    def parse(text: str) -> "FractionR":
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise ValueError(f"expected 'beta/alpha', got {text!r}")
        return FractionR(int(parts[0]), int(parts[1]))

    def as_fraction(self) -> Fraction:
        return Fraction(self.beta, self.alpha)

    def __str__(self) -> str:
        return f"{self.beta}/{self.alpha}"


@dataclass(frozen=True)
class ContinuedFraction:
    """Entry list of a continued fraction; entries must be nonzero."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or any(a == 0 for a in self.entries):
            raise ValueError("entries must be a nonempty sequence of nonzero ints")

    def __str__(self) -> str:
        return "[" + ", ".join(str(a) for a in self.entries) + "]"


def cf_evaluate(cf: ContinuedFraction) -> Fraction:
    """Exact value 1/(a1 + 1/(a2 + ... + 1/am)), bottom up."""
    value = Fraction(0)
    for a in reversed(cf.entries):
        denom = a + value
        if denom == 0:
            raise CFError(f"intermediate zero denominator in {cf}")
        value = Fraction(1, 1) / denom
    return value


@dataclass(frozen=True)
class H3Form:
    """Certificate that r = [3k1, 2m1, ..., 2m_{q-1}, 3kq]."""

    ks: tuple[int, ...]
    ms: tuple[int, ...]

    def __post_init__(self):
        if not self.ks or any(k == 0 for k in self.ks):
            raise ValueError("ks must be nonempty and nonzero")
        if len(self.ms) != len(self.ks) - 1 or any(m == 0 for m in self.ms):
            raise ValueError("ms must be nonzero with len(ms) == len(ks) - 1")

    @property
    def q(self) -> int:
        return len(self.ks)

    def continued_fraction(self) -> ContinuedFraction:
        entries = []
        for i, k in enumerate(self.ks):
            entries.append(3 * k)
            if i < len(self.ms):
                entries.append(2 * self.ms[i])
        return ContinuedFraction(tuple(entries))

    def value(self) -> Fraction:
        return cf_evaluate(self.continued_fraction())

    def __str__(self) -> str:
        return str(self.continued_fraction())


_SEARCH_NODE_BUDGET = 1 << 17


def h3_expand(r: FractionR) -> Optional[H3Form]:
    """Search for an H3Form of r; every hit is certified by re-evaluation.

    Depth-first search over entry candidates: multiples of 3 at odd
    positions, even numbers at even positions, the four candidates nearest
    to the reciprocal of the remaining tail.  Since every allowed entry has
    magnitude >= 2, any genuine expansion keeps all tails within [-1, 1],
    so branches leaving that interval are pruned.  Absence means "not found
    within bounds", never a proof of non-membership.

    The search runs on integer pairs; only the certificate is evaluated in
    Fraction.
    """
    max_depth = 2 * ceil(log2(r.alpha)) + 4
    budget = [_SEARCH_NODE_BUDGET]
    entries = _h3_dfs(r.beta, r.alpha, position=1, depth=max_depth, budget=budget)
    if entries is None:
        return None
    ks = tuple(a // 3 for a in entries[0::2])
    ms = tuple(a // 2 for a in entries[1::2])
    form = H3Form(ks, ms)
    if form.value() != r.as_fraction():
        raise ExactnessError(f"search certificate failed for {r}")
    return form


def _h3_dfs(num: int, den: int, position: int, depth: int,
            budget: list[int]) -> Optional[list[int]]:
    """The search below the reduced tail num/den (den > 0).

    With the reciprocal written as rn/rd (rd > 0), each new tail
    (rn - a*rd)/rd stays reduced without a gcd, since
    gcd(rn - a*rd, rd) = gcd(rn, rd) = 1.
    """
    if depth <= 0 or budget[0] <= 0 or num == 0:
        return None
    budget[0] -= 1
    rn, rd = (den, num) if num > 0 else (-den, -num)
    step = 3 if position % 2 == 1 else 2
    if position % 2 == 1 and rd == 1 and rn % 3 == 0:
        return [rn]
    for a in _nearest_candidates(rn, rd, step):
        tail = rn - a * rd
        if tail == 0 or abs(tail) > rd:
            continue
        rest = _h3_dfs(tail, rd, position + 1, depth - 1, budget)
        if rest is not None:
            return [a] + rest
    return None


def _nearest_candidates(num: int, den: int, step: int, count: int = 4) -> list[int]:
    """The `count` nonzero multiples of `step` nearest to num/den (den > 0).

    The base is num/(den*step) truncated toward zero, and ties go to the
    smaller candidate: |num/den - c| orders as |num - c*den| since den > 0.
    """
    base = abs(num) // (den * step)
    if num < 0:
        base = -base
    cands = {step * (base + d) for d in range(-3, 4)}
    cands.discard(0)
    return sorted(cands, key=lambda c: (abs(num - c * den), c))[:count]


# ---------------------------------------------------------------------------
# Wirtinger presentation and the classical Alexander polynomial
# ---------------------------------------------------------------------------


def wirtinger_presentation(r: FractionR) -> Presentation:
    """<x, y | W x W^-1 y^-1> with W = x^e1 y^e2 ... y^e_{alpha-1},
    e_i = (-1)^floor(i*beta/alpha).

    W alternates x and y, starting with x and (alpha being odd) ending
    with y, so every junction of the relator joins an x-letter to a
    y-letter and the letters are already freely reduced."""
    a, b = r.alpha, r.beta
    w = [(-1 if (i * b // a) % 2 else 1) * (1 if i % 2 else 2) for i in range(1, a)]
    relator = Word(w + [1] + [-x for x in reversed(w)] + [-2])
    return Presentation(("x", "y"), (relator,), name=str(r))


class NotAKnotGroupError(ValueError):
    """The presentation failed the Delta(1) = +-1 sanity check."""


def alexander_poly(p: Presentation) -> LaurentPoly:
    """Classical Alexander polynomial from the abelianized Fox Jacobian.

    Needs a deficiency-one presentation whose generators are all meridians
    (each abelianizes to t).  Under the trivial representation every prefix
    has the image 1, so the relator walk names them all 0, and the Fox
    determinant is that of the trivial block (`fox_determinant`).  The
    last generator's column is deleted; the result is unit-normalized and
    must satisfy Delta(1) = +-1.
    """
    if not p.deficiency_one():
        raise ValueError("presentation must have one fewer relator than generators")
    n = p.num_generators
    one = [(0, 0, 1)]
    walks = [[(g, counts, one) for (g, _), counts in fox_tally(rel, lambda x, letter: 0).items()]
             for rel in p.relators]
    det = fox_determinant(walks, n, 1) if n > 1 else LaurentPoly.one()
    if det.is_zero():
        raise NotAKnotGroupError("Alexander matrix is singular")
    delta = canonical(det)
    if delta.evaluate(1) not in (1, -1):
        raise NotAKnotGroupError(
            f"Delta(1) = {delta.evaluate(1)}, not a knot-group presentation")
    return delta


def enumerate_fractions(alpha_max: int):
    """All valid beta/alpha with alpha <= alpha_max, sorted by (alpha, beta)."""
    for alpha in range(3, alpha_max + 1, 2):
        for beta in range(1, alpha, 2):
            if gcd(alpha, beta) == 1:
                yield FractionR(beta, alpha)
