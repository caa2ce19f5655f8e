"""2-bridge knot combinatorics.

A 2-bridge knot is indexed by a fraction r = beta/alpha with alpha, beta odd,
coprime and 0 < beta < alpha.  This module builds the standard 2-generator
Wirtinger presentation <x, y | W x W^-1 y^-1>, decides whether r has the
special continued-fraction expansion [3k1, 2m1, ..., 2m_{q-1}, 3kq] =
1/(3k1 + 1/(2m1 + ... + 1/(3kq))) whose existence puts the knot group onto
Z/2 * Z/3 (the class H(3); the expansion is unique when it exists) or
generates every such fraction up to a bound (`h3_forms`), and computes
untwisted Alexander polynomials: a 2-bridge knot's in closed form
from its fraction (`alexander_closed_form`), any other knot's by Fox
calculus on its presentation (`alexander_poly`, whose NotAKnotGroupError
can therefore only come from a presentation the user gave).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .exactalg import ONE, ExactnessError, LaurentPoly, canonical, poly_from_coeffs
from .groupcalc import InputError, Presentation, Word, fox_determinant, fox_tally

# The largest alpha of a knot the commands build (`compute`, `find-reps`
# and `scan`; `h3` builds none).  The relator of beta/alpha has 2 alpha
# letters, and everything downstream grows with it.
ALPHA_MAX = 2**15


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
        """'beta/alpha', or an InputError."""
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise InputError(f"expected 'beta/alpha', got {text!r}")
        try:
            return FractionR(int(parts[0]), int(parts[1]))
        except ValueError as e:
            raise InputError(str(e)) from None

    def as_fraction(self) -> Fraction:
        return Fraction(self.beta, self.alpha)

    def __str__(self) -> str:
        return f"{self.beta}/{self.alpha}"


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

    @property
    def entries(self) -> tuple[int, ...]:
        """3k1, 2m1, 3k2, ..., 2m_{q-1}, 3kq."""
        entries = [3 * self.ks[0]]
        for m, k in zip(self.ms, self.ks[1:]):
            entries += [2 * m, 3 * k]
        return tuple(entries)

    def value(self) -> Fraction:
        """1/(a1 + 1/(a2 + ... + 1/am)) over the entries, bottom up.  Every
        |a| >= 2, so each partial value v has |v| < 1 and no denominator
        a + v is zero."""
        value = Fraction(0)
        for a in reversed(self.entries):
            value = 1 / (a + value)
        return value

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self.entries)) + "]"


def h3_expand(r: FractionR) -> Optional[H3Form]:
    """The H3Form of r, or None when r has none; the form is unique.

    Every tail of an expansion [3k1, 2m1, ..., 2m_{q-1}, 3kq] lies strictly
    inside (-1, 1): the last tail is 1/(3kq), and 1/(a + t) with |a| >= 2
    and |t| < 1 is again inside.  With x the reciprocal of the current
    tail, the next entry a must make x - a a tail, that is lie in the open
    interval (x - 1, x + 1).  Its integers are floor(x) and floor(x) + 1,
    or x alone when x is an integer, and none is 0 since |x| > 1.  So each
    step has at most one admissible entry (a multiple of 3 at odd
    positions, an even number at even ones), and the loop below takes it.
    The expansion is thereby unique, and None proves that r is not in
    H(3).  Tails' denominators strictly decrease, so the loop ends; a zero
    tail is success only after an odd position.

    The loop runs on integer pairs: with the reciprocal written as rn/rd
    (rd > 0), each new tail (rn - a*rd)/rd stays reduced without a gcd,
    since gcd(rn - a*rd, rd) = gcd(rn, rd) = 1.  Only the certificate is
    evaluated in Fraction.
    """
    entries = []
    num, den = r.beta, r.alpha
    while num:
        rn, rd = (den, num) if num > 0 else (-den, -num)
        step = 3 if len(entries) % 2 == 0 else 2
        a = rn // rd  # floor(x); the interval's integers are a and a + 1
        if a % step:
            a += 1
            if rd == 1 or a % step:
                return None
        entries.append(a)
        num, den = rn - a * rd, rd
    if len(entries) % 2 == 0:
        return None
    form = _form_of(entries)
    if form.value() != r.as_fraction():
        raise ExactnessError(f"the H(3) certificate {form} does not evaluate to {r}")
    return form


def _form_of(entries) -> H3Form:
    return H3Form(tuple(a // 3 for a in entries[0::2]),
                  tuple(a // 2 for a in entries[1::2]))


def h3_forms(alpha_max: int) -> dict[FractionR, H3Form]:
    """Every fraction with alpha <= alpha_max that is in H(3), with its
    form: the members that `h3_expand`, its oracle in the tests, finds
    among `enumerate_fractions(alpha_max)`, generated instead of tested.

    The forms are built bottom up, from the last entry, on integer pairs.
    Prepending an entry a with |a| >= 2 to a tail of value p/q (|p| < q)
    gives q/(a q + p), still reduced, whose denominator |a q + p| >
    (|a| - 1) q exceeds q.  So every tail of a member has a denominator
    of at most alpha_max, and extending the tails depth first, keeping
    only those within the bound, misses nothing.  Entries at odd positions
    are nonzero multiples of 3, at even ones nonzero even numbers; a tail
    of odd length is a whole form, and a member when its value beta/alpha
    has 0 < beta and both odd.  By `h3_expand`'s uniqueness, no fraction
    is reached twice.
    """
    forms = {}
    # (p, q, entries): a tail p/q, q > 0, and its entries from the front
    tails = [(s, a, (s * a,)) for a in range(3, alpha_max + 1, 3) for s in (1, -1)]
    while tails:
        p, q, entries = tails.pop()
        step = 2 if len(entries) % 2 else 3  # of the entry that goes before it
        if step == 2 and p > 0 and p % 2 and q % 2:
            forms[FractionR(p, q)] = _form_of(entries)
        # the nonzero multiples a of step with |a q + p| <= alpha_max
        first = -((alpha_max + p) // q // step) * step
        for a in range(first, (alpha_max - p) // q + 1, step):
            if a:
                d = a * q + p
                tails.append((q, d, (a,) + entries) if d > 0 else (-q, -d, (a,) + entries))
    return forms


# ---------------------------------------------------------------------------
# Wirtinger presentation and the classical Alexander polynomial
# ---------------------------------------------------------------------------


def wirtinger_signs(r: FractionR) -> list[int]:
    """e_i = (-1)^floor(i*beta/alpha) for i = 1, ..., alpha - 1: the
    exponents of the Wirtinger word W and the steps of the closed-form
    Alexander polynomial."""
    a, b = r.alpha, r.beta
    return [-1 if (i * b // a) % 2 else 1 for i in range(1, a)]


def wirtinger_presentation(r: FractionR) -> Presentation:
    """<x, y | W x W^-1 y^-1> with W = x^e1 y^e2 ... y^e_{alpha-1}
    (`wirtinger_signs`).

    W alternates x and y, starting with x and (alpha being odd) ending
    with y, so every junction of the relator joins an x-letter to a
    y-letter and the letters are already freely reduced."""
    w = wirtinger_signs(r)
    w[1::2] = [e + e for e in w[1::2]]
    relator = Word(w + [1] + [-x for x in reversed(w)] + [-2])
    return Presentation(("x", "y"), (relator,), name=str(r))


def alexander_closed_form(r: FractionR) -> LaurentPoly:
    """The unit-normalized Alexander polynomial of the 2-bridge knot of r,
    from the fraction alone (R. Hartley, J. Austral. Math. Soc. 27 (1979);
    Minkus, Mem. AMS 255 (1982)):

        Delta(t) = sum_{i < alpha} (-1)^i t^(sigma_i),
        sigma_i = e_1 + ... + e_i  (`wirtinger_signs`).

    It equals alexander_poly(wirtinger_presentation(r)), its oracle in the
    tests, without walking the relator.  Delta(1) = +-1 is checked; a
    failure is an ExactnessError.
    """
    a = r.alpha
    coeffs = [0] * (2 * a - 1)  # degrees 1 - alpha .. alpha - 1: |sigma_i| <= i
    at, sign = a - 1, 1  # at = sigma_i + alpha - 1
    coeffs[at] = 1
    for e in wirtinger_signs(r):
        at += e
        sign = -sign
        coeffs[at] += sign
    if sum(coeffs) not in (1, -1):
        raise ExactnessError(
            f"the closed form for {r} has Delta(1) = {sum(coeffs)}, not +-1")
    return canonical(poly_from_coeffs(coeffs, 1 - a))


class NotAKnotGroupError(ValueError):
    """Not a deficiency-one presentation with Delta(1) = +-1."""


def alexander_poly(p: Presentation) -> LaurentPoly:
    """Classical Alexander polynomial from the abelianized Fox Jacobian,
    for a presentation the user gave (a 2-bridge fraction's is
    `alexander_closed_form`).

    Needs a deficiency-one presentation whose generators are all meridians
    (each abelianizes to t).  Under the trivial representation every prefix
    has the image 1, so the relator walk names them all 0, and the Fox
    determinant is that of the trivial block (`fox_determinant`).  The
    last generator's column is deleted; the result is unit-normalized and
    must satisfy Delta(1) = +-1.  A presentation that fails either check
    raises NotAKnotGroupError.
    """
    if not p.deficiency_one():
        raise NotAKnotGroupError("presentation must have one fewer relator than generators")
    n = p.num_generators
    one = [(0, 0, 1)]
    walks = [[(g, counts, one)
              for (g, _), counts in fox_tally(rel, lambda x, letter: 0, {})[0].items()]
             for rel in p.relators]
    det = fox_determinant(walks, n, 1) if n > 1 else ONE
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
