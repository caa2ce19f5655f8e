"""The deliberate oracles: slow, independent algorithms that the tests
compare with the production code.  No production module imports this one.

    oracle                      production counterpart
    GroupRingElem,              groupcalc.fox_tally (the one relator walk)
      fox_derivative
    fox_derivative_recursive    fox_derivative (the product rule, letter by letter)
    fox_images                  characters.Representation.fox_walk (prefixes
                                named by interned matrices, not element indices)
    fox_tables, block_matrix,   groupcalc.fox_determinant (each block's Fox
      fox_jacobian              matrix as a matrix polynomial, not evaluated
                                from the walk)
    phi_generator_minus_one     twisted._denominator's det(M t - I)
    twisted_alexander_tables    twisted.twisted_alexander (the determinant
                                ratio from Fox tables, for any representation)
    MatrixRep                   characters.Representation (one block of
                                explicit matrices, no character basis)
    phi_map, word_image         fox_images, phi_generator_minus_one
    trivial_rep                 twobridge.alexander_poly's trivial block
    perm_rep, perm_matrix       characters.representation_blocks (the full
                                p^k-dimensional permutation path)
    group_word_image            metabelian.find_homs and check_homomorphism
                                (relators on the coset tables)
    det_bareiss                 exactalg.kronecker_det, the one evaluated
                                determinant (Kronecker substitution) of the
                                Fox numerators, the denominators and
                                PolyMatrix.det
    check_factorization         twisted.block_verdict (phi = twisted (1 - t) /
                                Delta, not the ratio of the non-trivial blocks)

The Fox derivative follows the left-to-right product rule
d(uv)/dg = du/dg + u * dv/dg  with  d(g)/dg = 1  and  d(g^-1)/dg = -g^-1.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .exactalg import (
    ONE, ZERO, ExactnessError, LaurentPoly, PolyMatrix, canonical, exact_div,
    supported_on_multiples)
from .groupcalc import Presentation, Word, fox_tally
from .intmat import Mat, identity, mat_inverse, mat_mul, mat_neg, mat_scale, zeros
from .metabelian import MetaElem, MetaGroup, check_homomorphism
from .twisted import TwistedResult, Verdict, _product

IDENTITY = Word()


class GroupRingElem:
    """A finite Z-linear combination of freely reduced words."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[Word, int]] = ()):
        acc: dict[Word, int] = {}
        for w, c in terms:
            if c:
                acc[w] = acc.get(w, 0) + c
        self.terms = {w: c for w, c in acc.items() if c}

    @staticmethod
    def zero() -> "GroupRingElem":
        return GroupRingElem()

    @staticmethod
    def of(word: Word, coef: int = 1) -> "GroupRingElem":
        return GroupRingElem([(word, coef)])

    @staticmethod
    def one() -> "GroupRingElem":
        return GroupRingElem([(IDENTITY, 1)])

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(
            list(self.terms.items()) + list(other.terms.items())
        )

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(
            list(self.terms.items()) + [(w, -c) for w, c in other.terms.items()]
        )

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        acc: list[tuple[Word, int]] = []
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                acc.append((w1 * w2, c1 * c2))
        return GroupRingElem(acc)

    def left_mul_word(self, w: Word) -> "GroupRingElem":
        return GroupRingElem([(w * v, c) for v, c in self.terms.items()])

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElem) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupRingElem(0)"
        parts = [f"{c}*{w.letters}" for w, c in sorted(
            self.terms.items(), key=lambda item: item[0].letters)]
        return "GroupRingElem(" + " + ".join(parts) + ")"


def fox_derivative(w: Word, gen: int) -> GroupRingElem:
    """Fox free derivative of w with respect to generator `gen` (1-based).

    Single left-to-right pass: the letter at position i contributes
    prefix * d(letter)/dg.
    """
    acc: list[tuple[Word, int]] = []
    prefix: list[int] = []
    for x in w:
        if x == gen:
            acc.append((Word(tuple(prefix)), 1))
            prefix.append(x)
        elif x == -gen:
            prefix.append(x)
            acc.append((Word(tuple(prefix)), -1))
        else:
            prefix.append(x)
    return GroupRingElem(acc)


def fox_derivative_recursive(w: Word, gen: int) -> GroupRingElem:
    """Brute-force oracle: peel off one letter and apply the product rule."""
    letters = w.letters
    if not letters:
        return GroupRingElem.zero()
    head, rest = letters[0], Word(letters[1:])
    if head == gen:
        d_head = GroupRingElem.one()
    elif head == -gen:
        d_head = GroupRingElem.of(Word((head,)), -1)
    else:
        d_head = GroupRingElem.zero()
    return d_head + fox_derivative_recursive(rest, gen).left_mul_word(Word((head,)))


def fox_images(rel: Word, images: Mapping[int, Mat], inv_images: Mapping[int, Mat],
               dim: int) -> dict[int, PolyMatrix]:
    """Phi(dR/dg) for every generator g at once, one pass over the relator.

    Phi sends a word w to (its image under `images`) * t^(exponent sum of w).
    Returns generator -> PolyMatrix, its degrees in increasing order, for
    every generator the relator uses; these equal the images of
    `fox_derivative(rel, g)`.

    The prefixes are named by interned matrices: each distinct prefix
    matrix gets a small id the first time it appears, and `fox_tally`
    takes each step (id, letter) -> id once, so each product is computed
    once: a finite image has few prefixes.  Each matrix of the tally is
    built once at the end.
    """
    prefixes: list[Mat] = [identity(dim)]
    ids: dict[Mat, int] = {prefixes[0]: 0}

    def step(cur: int, letter: int) -> int:
        factor = images[letter] if letter > 0 else inv_images[-letter]
        m = mat_mul(prefixes[cur], factor)
        nxt = ids.get(m)
        if nxt is None:
            nxt = ids[m] = len(prefixes)
            prefixes.append(m)
        return nxt

    sums: dict[int, dict[int, list[list[int]]]] = {}
    for (gen, pid), counts in fox_tally(rel, step).items():
        for d, count in counts.items():
            acc = sums.setdefault(gen, {}).get(d)
            if acc is None:
                acc = sums[gen][d] = [[0] * dim for _ in range(dim)]
            if count:
                for arow, mrow in zip(acc, prefixes[pid]):
                    for j, x in enumerate(mrow):
                        if x:
                            arow[j] += count * x
    return {gen: PolyMatrix(((d, tuple(map(tuple, m))) for d, m in sorted(series.items())),
                            dim)
            for gen, series in sums.items()}


class MatrixRep:
    """Generator images in GL(dim, Z) as one block: the oracle counterpart
    of `characters.Representation`, with the same `dims` and
    `block_images`.  Each inverse image is supplied or computed."""

    def __init__(self, dim: int, images: dict[int, Mat],
                 inv_images: Optional[dict[int, Mat]] = None):
        self.dim = dim
        self.images = images
        self.inv_images = inv_images or {g: mat_inverse(m) for g, m in images.items()}
        self.dims = [dim]
        self.block_images = {g: [m] for g, m in images.items()}


def fox_tables(rho, rel: Word) -> list[dict[int, PolyMatrix]]:
    """Phi(dR/dg) of each block of rho for every generator g the relator
    uses, its degrees in increasing order: for a MatrixRep from the
    interned-matrix walk (`fox_images`), for a `characters.Representation`
    from its walk on element indices, each (generator, degree) summing
    count * Q(prefix) restricted to the blocks."""
    if isinstance(rho, MatrixRep):
        return [fox_images(rel, rho.images, rho.inv_images, rho.dim)]
    series: list[dict[int, list]] = [{} for _ in rho.dims]
    for gen, counts, entries in rho.fox_walk(rel):
        for table, block, n in zip(series, entries, rho.dims):
            pairs = table.setdefault(gen, [])
            for d, count in counts.items():
                acc = [[0] * n for _ in range(n)]
                for w, u, v in block:
                    acc[w][u] = count * v
                pairs.append((d, tuple(map(tuple, acc))))
    return [{gen: PolyMatrix(sorted(pairs, key=lambda pair: pair[0]), n)
             for gen, pairs in table.items()}
            for table, n in zip(series, rho.dims)]


def block_matrix(grid) -> PolyMatrix:
    """The block matrix of a square grid of equal-size PolyMatrix blocks."""
    if not grid:
        raise ValueError("a block matrix needs at least one block")
    size = grid[0][0].dim
    zero = zeros(size)
    degrees = set().union(*(blk.series for brow in grid for blk in brow))
    series = {}
    for d in degrees:
        rows = []
        for brow in grid:
            coeffs = [blk.series.get(d, zero) for blk in brow]
            rows.extend(sum(parts, ()) for parts in zip(*coeffs))
        series[d] = tuple(rows)
    return PolyMatrix(series, size * len(grid))


def fox_jacobian(tables, num_generators: int, dim: int, delete: int) -> PolyMatrix:
    """The Fox matrix with generator `delete`'s column removed: one row of
    blocks per relator's Fox table (generator -> PolyMatrix of Phi(dR/dg)),
    one column of blocks per kept generator, and a zero block where a
    relator does not use a generator."""
    zero = PolyMatrix({}, dim)
    kept = [g for g in range(1, num_generators + 1) if g != delete]
    return block_matrix([[table.get(g, zero) for g in kept] for table in tables])


def phi_generator_minus_one(m: Mat) -> PolyMatrix:
    """Phi(g - 1) = M t - I for the image M of g."""
    return PolyMatrix({0: mat_neg(identity(len(m))), 1: m}, len(m))


def twisted_alexander_tables(p: Presentation, rho, delete: Optional[str] = None,
                             det=PolyMatrix.det) -> TwistedResult:
    """The determinant ratio of `twisted.twisted_alexander` from Fox tables
    (`fox_tables`) for a MatrixRep or a `characters.Representation`: each
    block's Fox matrix (`fox_jacobian`) and Phi(g - 1) are built as matrix
    polynomials, and `det` (PolyMatrix.det or det_bareiss) takes their
    determinants.  As there, `delete` defaults to the last generator, and
    a zero denominator is an ExactnessError."""
    if not p.deficiency_one():
        raise ValueError("presentation must have one fewer relator than generators")
    gen = p.num_generators if delete is None else p.gen_index(delete)
    tables = [fox_tables(rho, rel) for rel in p.relators]
    dens = tuple(det(phi_generator_minus_one(m)) for m in rho.block_images[gen])
    den = _product(dens)
    if den.is_zero():
        raise ExactnessError(f"det Phi({p.generators[gen - 1]} - 1) is zero")
    nums = tuple(
        det(fox_jacobian([table[b] for table in tables], p.num_generators, dim, gen))
        for b, dim in enumerate(rho.dims))
    num = _product(nums)
    invariant = None
    if not num.is_zero():
        q = exact_div(num, den)
        if q is not None:
            invariant = canonical(q)
    elif sum(rho.dims) > 1:
        invariant = ZERO
    return TwistedResult(nums, dens, exact_div(_product(nums[1:]), _product(dens[1:])),
                         invariant, p.generators[gen - 1])


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


def word_image(rho: MatrixRep, word: Word) -> Mat:
    """rho(word), one matrix product per letter."""
    out = identity(rho.dim)
    for letter in word:
        m = rho.images[letter] if letter > 0 else rho.inv_images[-letter]
        out = mat_mul(out, m)
    return out


def phi_map(e: GroupRingElem, rho: MatrixRep) -> PolyMatrix:
    """Sum of coeff * rho(word) * t^(exponent sum) over the element's terms."""
    return PolyMatrix(((word.exponent_sum(), mat_scale(coef, word_image(rho, word)))
                       for word, coef in e.terms.items()), rho.dim)


def trivial_rep(p: Presentation) -> MatrixRep:
    """The 1-dimensional representation sending every generator to 1."""
    one = {g: ((1,),) for g in range(1, p.num_generators + 1)}
    return MatrixRep(1, one, one)


def perm_matrix(group: MetaGroup, g: MetaElem) -> Mat:
    """Permutation matrix with rows indexed by source coset: P[i][pi(i)] = 1.

    With this convention g -> P(g) is a homomorphism for the right action.
    """
    perm = group.coset_permutation(g)
    size = len(perm)
    return tuple(
        tuple(1 if perm[i] == j else 0 for j in range(size)) for i in range(size)
    )


def perm_rep(assignment: dict[str, MetaElem], group: MetaGroup,
             p: Presentation) -> MatrixRep:
    """The p^k-dimensional permutation-matrix representation of an
    assignment; each inverse image is the permutation matrix of the
    inverse element."""
    check_homomorphism(p, group, assignment)
    images, inv_images = {}, {}
    for name in p.generators:
        g, e = p.gen_index(name), assignment[name]
        images[g] = perm_matrix(group, e)
        inv_images[g] = perm_matrix(group, group.inv(e))
    return MatrixRep(group.p**group.k, images, inv_images)


def group_word_image(group: MetaGroup, word: Word,
                     images: dict[int, MetaElem]) -> MetaElem:
    """The image of a word under generator images, by the group law."""
    out = group.identity_elem()
    for letter in word:
        g = images[abs(letter)]
        out = group.mul(out, g if letter > 0 else group.inv(g))
    return out


def det_bareiss(m: PolyMatrix) -> LaurentPoly:
    """Fraction-free elimination directly over Z[t, 1/t]."""
    n = m.dim
    rows = [list(row) for row in m.entries()]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if rows[k][k].is_zero():
            pivot = next(
                (i for i in range(k + 1, n) if not rows[i][k].is_zero()), None
            )
            if pivot is None:
                return ZERO
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                if num.is_zero():
                    rows[i][j] = ZERO
                    continue
                q = exact_div(num, prev)
                if q is None:
                    raise ExactnessError("Bareiss division was not exact")
                rows[i][j] = q
            rows[i][k] = ZERO
        prev = rows[k][k]
    result = rows[n - 1][n - 1]
    return -result if sign < 0 else result
