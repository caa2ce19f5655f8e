"""Twisted Alexander polynomials and verdicts on their factorized form.

The invariant of a deficiency-one presentation P and a representation rho
is computed as a determinant ratio: map each Fox derivative dR_i/dx_j
through Phi(w) = rho(w) * t^(exponent sum of w), assemble the block matrix,
delete the column of one generator g, and divide by its denominator
det Phi(g - 1), which is never zero for an image in GL(dim, Z):

    invariant = det(remaining blocks) / det(Phi(g - 1))

Each determinant is one call of `exactalg.kronecker_det`: an int_det at
t = 2^B with a proven bound on the coefficients, read back
(`exactalg.kronecker_readback`).
The Fox matrix goes to it straight from the relator walks
(`groupcalc.fox_determinant`), and M t - I as the two terms M t and -I.
The ratio is well defined up to +-t^k and is independent of the deleted
column; both facts are exercised by the test suite rather than assumed.
For representations of dimension > 1 the division is exact in Z[t, 1/t].

Over the character blocks of a knot group's representation, the trivial
block contributes +-t^k Delta / (1 - t), so the paper's form
twisted = [Delta/(1-t)] * phi(t^n) is read off the blocks: phi is the ratio
of the other blocks (`block_verdict`), and Delta is never divided out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .characters import Representation
from .exactalg import (
    ExactnessError,
    LaurentPoly,
    ONE,
    ZERO,
    canonical,
    exact_div,
    kronecker_det,
    poly_from_coeffs,
    supported_on_multiples,
)
from .groupcalc import Presentation, fox_determinant
from .metabelian import NotHomomorphismError


def _denominator(entries, dim: int) -> LaurentPoly:
    """det Phi(g - 1) = det(M t - I) for the image M of g, given by its
    nonzero entries (row, column, value) (`kronecker_det`)."""
    return kronecker_det([[(0, {1: 1}, entries),
                           (0, {0: -1}, [(i, i, 1) for i in range(dim)])]], dim)


@dataclass(frozen=True)
class TwistedResult:
    """Determinant ratio for (presentation, representation), block by block.

    `nums` and `dens` are the blocks' numerator and denominator
    determinants, in the order of the representation's blocks.  `rest` is
    the ratio of every block after the first, prod_{b>=1} nums_b /
    prod_{b>=1} dens_b, when it lands in Z[t, 1/t], else None.
    `invariant` is the unit-normalized exact quotient of the whole ratio
    when it lands in Z[t, 1/t] (always the case for the integral
    representations this package constructs with dim > 1), else None.
    `numerator` and `denominator`, the unit-normalized products, are
    computed when read.
    """

    nums: tuple[LaurentPoly, ...]
    dens: tuple[LaurentPoly, ...]
    rest: Optional[LaurentPoly]
    invariant: Optional[LaurentPoly]
    deleted_generator: str

    @property
    def numerator(self) -> LaurentPoly:
        num = _product(self.nums)
        return canonical(num) if not num.is_zero() else ZERO

    @property
    def denominator(self) -> LaurentPoly:
        return canonical(_product(self.dens))


def twisted_alexander(p: Presentation, rho: Representation,
                      delete: Optional[str] = None) -> TwistedResult:
    """Wada-style determinant ratio; deletes `delete` (default: the last
    generator).

    `rho` is a direct sum of character blocks, the trivial block first.
    The invariant is multiplicative over a direct sum, so it is the product
    of the blocks' ratios, all with the same deleted generator.  Each
    relator is walked once (`fox_walk`), and each block's numerator is
    evaluated from the walks (`fox_determinant`).  The same walk checks
    that rho is a homomorphism, for a search result and an --assign alike:
    a relator whose image is not the identity (element index 0) raises
    NotHomomorphismError (`NotHomomorphismError.naming`), and the tests
    check it against `oracles.check_homomorphism`.
    The ratio of the blocks after the first (`rest`) is divided out first,
    and the invariant is nums_0 * rest / dens_0; only when `rest` is not a
    polynomial is the whole ratio divided out.

    The denominators depend only on the representation and the deleted
    generator's image, so they are taken once per image and kept on
    `rho` (`Representation.denominators`).  No denominator det(M t - I)
    is zero: its leading coefficient is det M = +-1, since
    `Representation` checks image * inverse = I, and its constant term is
    (-1)^dim.  Every call checks it; a zero one is an ExactnessError."""
    if not p.deficiency_one():
        raise ValueError("presentation must have one fewer relator than generators")
    gen = p.num_generators if delete is None else p.gen_index(delete)
    walks = []
    for i, rel in enumerate(p.relators):
        walk, image = rho.fox_walk(rel)
        if image:
            raise NotHomomorphismError.naming(p, i)
        walks.append(walk)
    x = rho.letters[gen]
    dens = rho.denominators.get(x)
    if dens is None:
        dens = rho.denominators[x] = tuple(
            _denominator(entries, dim) for entries, dim in zip(rho.entries(x), rho.dims))
    if any(f.is_zero() for f in dens):
        raise ExactnessError(f"det Phi({p.generators[gen - 1]} - 1) is zero")
    nums = tuple(
        fox_determinant([[(g, counts, entries[b]) for g, counts, entries in walk]
                         for walk in walks], gen, dim)
        for b, dim in enumerate(rho.dims))
    rest = exact_div(_product(nums[1:]), _product(dens[1:]))
    if any(f.is_zero() for f in nums):
        invariant = ZERO if sum(rho.dims) > 1 else None
    else:
        # rest is mostly zeros when it is phi(t^n): it goes on the right,
        # where the coefficient loop of a small product skips them
        q = (exact_div(nums[0] * rest, dens[0]) if rest is not None
             else exact_div(_product(nums), _product(dens)))
        invariant = None if q is None else canonical(q)
    return TwistedResult(nums, dens, rest, invariant, p.generators[gen - 1])


def _product(factors) -> LaurentPoly:
    """The product of the factors (ONE for none), stopping at the first
    zero."""
    out = None
    for f in factors:
        if f.is_zero():
            return ZERO
        out = f if out is None else out * f
    return ONE if out is None else out


# ---------------------------------------------------------------------------
# Verdicts on the factorized form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of testing twisted = [Delta/(1-t)] * (polynomial in t^n)."""

    holds: bool
    phi: Optional[LaurentPoly]
    details: str = ""


_ONE_MINUS_T = poly_from_coeffs((1, -1))


def block_verdict(result: TwistedResult, delta: LaurentPoly, n: int) -> Verdict:
    """The factorization verdict read off the blocks: phi = rest, the
    ratio of the non-trivial blocks, must be a polynomial in t^n.

    The trivial block contributes +-t^k Delta / +-t^j (1 - t) to a knot
    group's invariant, so twisted = [Delta/(1-t)] * rest up to +-t^k and
    no division by Delta is needed.  That the first block is this one is
    checked, not assumed: a failure is an ExactnessError.  All equalities
    are up to +-t^k, as in `oracles.check_factorization`, the division by
    Delta that this verdict replaces.
    """
    trivial_num, trivial_den = result.nums[0], result.dens[0]
    if (trivial_num.is_zero() or canonical(trivial_num) != canonical(delta)
            or canonical(trivial_den) != _ONE_MINUS_T):
        raise ExactnessError(
            f"the trivial block gives {trivial_num} / {trivial_den}, "
            f"not +-t^k ({delta}) / +-t^j (1 - t)")
    if result.rest is None:
        return Verdict(False, None, "Delta/(1-t) does not divide the invariant")
    if result.rest.is_zero():
        return Verdict(False, None, "invariant is zero")
    phi = canonical(result.rest)
    if not supported_on_multiples(phi, n):
        bad = next(d for d, _ in phi.terms if d % n)
        return Verdict(False, phi, f"phi has a term of degree {bad} not divisible by {n}")
    return Verdict(True, phi, "")

