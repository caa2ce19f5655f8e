"""Twisted Alexander polynomials and verdicts on their factorized form.

The invariant of a deficiency-one presentation P and a representation rho
is computed as a determinant ratio: map each Fox derivative dR_i/dx_j
through Phi(w) = rho(w) * t^(exponent sum of w), assemble the block matrix,
delete the column of one generator g whose denominator det Phi(g - 1) is
nonzero, and divide:

    invariant = det(remaining blocks) / det(Phi(g - 1))

Both determinants are taken as integers at t = 2^B with a proven bound on
their coefficients and read back digit by digit; the Fox matrix is
evaluated straight from the relator walks (`groupcalc.fox_determinant`).
The ratio is well defined up to +-t^k and is independent of the deleted
column; both facts are exercised by the test suite rather than assumed.
For representations of dimension > 1 the division is exact in Z[t, 1/t].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .characters import Representation
from .exactalg import (
    LaurentPoly,
    ONE,
    ZERO,
    canonical,
    exact_div,
    kronecker_readback,
    poly_from_coeffs,
    supported_on_multiples,
)
from .groupcalc import Presentation, fox_determinant
from .intmat import Mat, int_det
from .metabelian import MetaElem, MetaGroup


def _denominator(m: Mat) -> LaurentPoly:
    """det Phi(g - 1) = det(M t - I) for the image M of g.  Row i of
    M t - I has sum_j |a_ij|_1 = sum_j |m_ij| + 1, so the product of these
    bounds every coefficient, and one int_det at t = 2^B is read back
    (`kronecker_readback`)."""
    n = len(m)
    if n == 1:
        return poly_from_coeffs((-1, m[0][0]))
    bound = 1
    for row in m:
        bound *= sum(map(abs, row)) + 1
    shift = (4 * bound).bit_length()
    evaluated = [[(v << shift) - (i == j) for j, v in enumerate(row)]
                 for i, row in enumerate(m)]
    return kronecker_readback(int_det(evaluated), shift, bound, n + 1, 0)


@dataclass(frozen=True)
class TwistedResult:
    """Determinant ratio for (presentation, representation).

    numerator and denominator are unit-normalized; `invariant` is the exact
    quotient when the division lands in Z[t, 1/t] (always the case for the
    integral representations this package constructs with dim > 1), else
    None and the value is the fraction numerator/denominator.
    """

    numerator: LaurentPoly
    denominator: LaurentPoly
    invariant: Optional[LaurentPoly]
    deleted_generator: str


class NoUsableColumnError(RuntimeError):
    """Every candidate denominator det Phi(g - 1) vanished."""


def twisted_alexander(p: Presentation, rho: Representation,
                      delete: Optional[str] = None) -> TwistedResult:
    """Wada-style determinant ratio; deletes `delete` (default: the last
    generator, falling back to any generator with nonzero denominator).

    `rho` is a direct sum of character blocks.  The invariant is
    multiplicative over a direct sum, so the numerator and the denominator
    are the products of the blocks' determinants, all with the same
    deleted generator.  Each relator is walked once (`fox_walk`), and each
    block's numerator is evaluated from the walks (`fox_determinant`)."""
    if not p.deficiency_one():
        raise ValueError("presentation must have one fewer relator than generators")
    if delete is not None:
        order = [p.gen_index(delete)]
    else:
        order = list(range(p.num_generators, 0, -1))
    walks = [rho.fox_walk(rel) for rel in p.relators]
    for gen in order:
        den = _product(_denominator(m) for m in rho.block_images[gen])
        if den.is_zero():
            continue
        num = _product(
            fox_determinant([[(g, counts, entries[b]) for g, counts, entries in walk]
                             for walk in walks], gen, dim)
            for b, dim in enumerate(rho.dims))
        invariant = None
        if not num.is_zero():
            q = exact_div(num, den)
            if q is not None:
                invariant = canonical(q)
        elif sum(rho.dims) > 1:
            invariant = ZERO
        name = p.generators[gen - 1]
        return TwistedResult(
            numerator=canonical(num) if not num.is_zero() else ZERO,
            denominator=canonical(den),
            invariant=invariant,
            deleted_generator=name,
        )
    raise NoUsableColumnError("no generator has nonzero det Phi(g - 1)")


def _product(factors) -> LaurentPoly:
    """The product of the factors, stopping at the first zero."""
    out = ONE
    for f in factors:
        if f.is_zero():
            return ZERO
        out = out * f
    return out


# ---------------------------------------------------------------------------
# Verdicts on the factorized form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of testing twisted = [Delta/(1-t)] * (polynomial in t^n)."""

    holds: bool
    phi: Optional[LaurentPoly]
    n: int
    details: str = ""


def check_factorization(twisted: LaurentPoly, delta: LaurentPoly, n: int) -> Verdict:
    """Extract phi = twisted * (1-t) / delta and test its t^n support.

    All equalities are up to +-t^k: phi is unit-normalized before the
    support test, so a stray unit never causes a false negative.
    """
    if delta.is_zero():
        raise ValueError("delta must be nonzero")
    if n < 2:
        raise ValueError("need n >= 2")
    one_minus_t = LaurentPoly([(0, 1), (1, -1)])
    quotient = exact_div(twisted * one_minus_t, delta)
    if quotient is None:
        return Verdict(False, None, n, "Delta/(1-t) does not divide the invariant")
    if quotient.is_zero():
        return Verdict(False, None, n, "invariant is zero")
    phi = canonical(quotient)
    if not supported_on_multiples(phi, n):
        bad = next(d for d, _ in phi.terms if d % n)
        return Verdict(False, phi, n, f"phi has a term of degree {bad} not divisible by {n}")
    return Verdict(True, phi, n, "")


def standard_assignment(group: MetaGroup, p: Presentation) -> dict[str, MetaElem]:
    """f(x) = s, f(y) = s b1 for a 2-generator presentation; over A4 the
    3-dimensional block sends them to `twinring.X` and `twinring.Y`."""
    if p.num_generators != 2:
        raise ValueError("standard assignment applies to 2-generator presentations")
    return {p.generators[0]: group.s(),
            p.generators[1]: group.mul(group.s(), group.b(1))}
