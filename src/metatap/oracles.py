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
    vector_mul, vector_inv      MetaGroup.index_mul and index_inv (the group
                                law on (ell, vec) pairs from T_power, not the
                                index_law tables)
    group_word_image            metabelian.find_homs and check_homomorphism
                                (relators by the vector law, not on the coset
                                tables)
    PolyMatrix                  no production type: a matrix over Z[t, 1/t]
                                as its degree -> integer matrix series, with
                                its determinant through kronecker_det
    det_bareiss                 exactalg.kronecker_det, the one evaluated
                                determinant (Kronecker substitution) of the
                                Fox numerators and the denominators
    resultant, _rem_monic       metabelian.obstruction_passes (Res(Delta, Phi_n)
                                over Z by a remainder step or a Sylvester
                                determinant, not Delta(T) singular over F_p)
    check_factorization         twisted.block_verdict (phi = twisted (1 - t) /
                                Delta, not the ratio of the non-trivial blocks)
    recursion_series,           twinring.twisted_from_form (the recursion on
      twisted_from_series       matrix polynomials, one term per degree,
                                not on integer matrices at t = 2^B)
    TwinDecomp, twin_decompose, the paper's proof device: the normalized
      twin_determinant,         series is twin, and its closed-form
      normalized_series         determinant is the twisted polynomial

The Fox derivative follows the left-to-right product rule
d(uv)/dg = du/dg + u * dv/dg  with  d(g)/dg = 1  and  d(g^-1)/dg = -g^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .exactalg import (
    ONE, ZERO, ExactnessError, LaurentPoly, canonical, exact_div, kronecker_det,
    poly_from_coeffs, supported_on_multiples)
from .groupcalc import Presentation, Word, fox_tally
from .intmat import (
    Mat, identity, int_det, mat_add, mat_inverse, mat_mul, mat_neg, mat_scale, mat_sub,
    zeros)
from .metabelian import MetaGroup, check_homomorphism
from .twinring import I3, POWERS, X, XINV, XINV_YINV, Y, YINV, YX, power3
from .twisted import TwistedResult, Verdict, _product
from .twobridge import H3Form

IDENTITY = Word()


class PolyMatrix:
    """A square matrix over Z[t, 1/t], stored as its series: `series` maps
    each degree d to the dim x dim integer matrix (tuples) of the t^d
    coefficients.  Zero matrices are dropped, so equal matrices have equal
    series.

    PolyMatrix(series, dim) takes a dict or an iterable of (degree,
    matrix) pairs; matrices at a repeated degree are added up.
    """

    __slots__ = ("series", "dim")

    def __init__(self, series, dim: int):
        acc: dict[int, Mat] = {}
        for deg, m in series.items() if isinstance(series, dict) else series:
            acc[deg] = mat_add(acc[deg], m) if deg in acc else m
        zero = zeros(dim)
        self.series = {d: m for d, m in acc.items() if m != zero}
        self.dim = dim

    @staticmethod
    def _make(series: dict, dim: int) -> "PolyMatrix":
        """Wrap a series that already holds no zero matrix."""
        out = object.__new__(PolyMatrix)
        out.series = series
        out.dim = dim
        return out

    @staticmethod
    def identity(dim: int) -> "PolyMatrix":
        return PolyMatrix._make({0: identity(dim)}, dim)

    @staticmethod
    def monomial(m: Mat, deg: int = 0) -> "PolyMatrix":
        """m * t^deg."""
        return PolyMatrix({deg: m}, len(m))

    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The matrix of LaurentPoly entries."""
        n = self.dim
        if not self.series:
            return tuple((ZERO,) * n for _ in range(n))
        low = min(self.series)
        zero = zeros(n)
        mats = [self.series.get(d, zero) for d in range(low, max(self.series) + 1)]
        return tuple(tuple(LaurentPoly._from_dense(low, [m[i][j] for m in mats])
                           for j in range(n)) for i in range(n))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix) and self.dim == other.dim
                and self.series == other.series)

    def __hash__(self):
        return hash((self.dim, frozenset(self.series.items())))

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._combine(other, mat_add)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._combine(other, mat_sub)

    def _combine(self, other: "PolyMatrix", op) -> "PolyMatrix":
        """Coefficientwise op(self, other), for op mat_add or mat_sub."""
        series = dict(self.series)
        zero = zeros(self.dim)
        for d, m in other.series.items():
            s = op(series.get(d, zero), m)
            if s != zero:
                series[d] = s
            else:
                del series[d]
        return PolyMatrix._make(series, self.dim)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix._make(
            {d: mat_neg(m) for d, m in self.series.items()}, self.dim)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return PolyMatrix._make({}, self.dim)
            return PolyMatrix._make(
                {d: mat_scale(other, m) for d, m in self.series.items()}, self.dim)
        acc: dict[int, Mat] = {}
        for d1, m1 in self.series.items():
            for d2, m2 in other.series.items():
                d = d1 + d2
                prod = mat_mul(m1, m2)
                acc[d] = mat_add(acc[d], prod) if d in acc else prod
        zero = zeros(self.dim)
        return PolyMatrix._make(
            {d: m for d, m in acc.items() if m != zero}, self.dim)

    __rmul__ = __mul__

    def __repr__(self):
        body = ", ".join(f"t^{d}: {self.series[d]}" for d in sorted(self.series))
        return f"PolyMatrix<{self.dim}>{{{body}}}"

    # -- determinants -----------------------------------------------------

    def det(self) -> LaurentPoly:
        """Exact determinant: one block row with one term per degree
        (`kronecker_det`).

        >>> m = PolyMatrix({-2: ((1, 0), (0, 0)), 0: ((0, 2), (3, 0)),
        ...                 1: ((0, 0), (0, 1))}, 2)   # [[t^-2, 2], [3, t]]
        >>> str(m.det())
        't^-1 - 6'
        """
        return kronecker_det(
            [[(0, {d: 1}, [(i, j, v) for i, row in enumerate(m)
                           for j, v in enumerate(row) if v])
              for d, m in self.series.items()]], self.dim)


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


def perm_matrix(group: MetaGroup, x: int) -> Mat:
    """Permutation matrix of the element of index x, with rows indexed by
    source coset: P[i][pi(i)] = 1 for its coset table pi.

    With this convention g -> P(g) is a homomorphism for the right action.
    """
    perm = group.coset_table(x)
    size = len(perm)
    return tuple(
        tuple(1 if perm[i] == j else 0 for j in range(size)) for i in range(size)
    )


def perm_rep(images: tuple[int, ...], group: MetaGroup,
             p: Presentation) -> MatrixRep:
    """The p^k-dimensional permutation-matrix representation of the
    generators' images, given by their element indices; each inverse
    image is the transpose of the permutation matrix."""
    check_homomorphism(p, group, images)
    mats, inv_mats = {}, {}
    for g, x in enumerate(images, start=1):
        mats[g] = perm_matrix(group, x)
        inv_mats[g] = tuple(zip(*mats[g]))
    return MatrixRep(group.p**group.k, mats, inv_mats)


# ---------------------------------------------------------------------------
# The group law on (ell, vec) pairs, from T_power: the reference for the
# `MetaGroup.index_law` tables that production multiplies indices with
# ---------------------------------------------------------------------------


def _pair(group: MetaGroup, x: int) -> tuple[int, tuple[int, ...]]:
    """The pair (ell, vec) of the element s^ell b^vec of index x."""
    ell, v = divmod(x, group.p**group.k)
    return ell, group.vec_of_index(v)


def _index(group: MetaGroup, ell: int, vec) -> int:
    """The index of s^ell b^vec, its exponents reduced mod n and mod p."""
    return (ell % group.n * group.p**group.k
            + group.coset_index(tuple(v % group.p for v in vec)))


def _moved(group: MetaGroup, vec: tuple[int, ...], e: int) -> list[int]:
    """vec * T^e, reduced mod p by `_index`."""
    m = group.T_power(e)
    return [sum(vec[i] * m[i][j] for i in range(group.k)) for j in range(group.k)]


def vector_mul(group: MetaGroup, x: int, y: int) -> int:
    """The index of the product of the elements of indices x and y:
    s^a u s^b v = s^(a+b) (s^-b u s^b) v, and s^-1 u s has vector
    vec(u) * T^-1 by the defining conjugation rule."""
    (a, u), (b, v) = _pair(group, x), _pair(group, y)
    return _index(group, a + b, [c + d for c, d in zip(_moved(group, u, -b), v)])


def vector_inv(group: MetaGroup, x: int) -> int:
    """The index of the inverse of the element of index x:
    (s^a u)^-1 = s^-a (s^a u^-1 s^-a), with vector -vec(u) * T^a."""
    a, u = _pair(group, x)
    return _index(group, -a, [-c for c in _moved(group, u, a)])


def group_word_image(group: MetaGroup, word: Word, images: dict[int, int]) -> int:
    """The index of a word's image under the generators' images (generator
    -> element index), by the vector law."""
    out = 0
    for letter in word:
        x = images[abs(letter)]
        out = vector_mul(group, out, x if letter > 0 else vector_inv(group, x))
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


def _rem_monic(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Remainder of f modulo the monic polynomial g (nonnegative degrees)."""
    n = g.degree()
    rem = [f.coeff(d) for d in range(f.degree() + 1)]
    lower = [(d, g.coeff(d)) for d in range(n) if g.coeff(d)]
    for top in range(len(rem) - 1, n - 1, -1):
        q = rem[top]
        if q:
            for d, c in lower:
                rem[top - n + d] -= q * c
    return poly_from_coeffs(rem[:n])


def resultant(f: LaurentPoly, g: LaurentPoly) -> int:
    """Resultant of two nonzero integer polynomials (nonnegative degrees).

    For monic g with 1 <= deg g < deg f this is
    (-1)^(deg f * deg g) * Res(g, f mod g), since Res(g, f) is the product
    of f over the roots of g (von zur Gathen-Gerhard, Modern Computer
    Algebra, ch. 6).  Otherwise it is the Sylvester-matrix determinant.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined here")
    if f.low_degree() < 0 or g.low_degree() < 0:
        raise ValueError("resultant expects ordinary polynomials")
    m, n = f.degree(), g.degree()
    if m == 0:
        return f.coeff(0) ** n
    if n == 0:
        return g.coeff(0) ** m
    if m > n and g.coeff(n) == 1:
        rem = _rem_monic(f, g)
        if rem.is_zero():
            return 0
        return (-1) ** (m * n) * resultant(g, rem)
    size = m + n
    fc = [f.coeff(d) for d in range(m, -1, -1)]
    gc = [g.coeff(d) for d in range(n, -1, -1)]
    rows = []
    for i in range(n):
        rows.append(tuple([0] * i + fc + [0] * (size - m - 1 - i)))
    for i in range(m):
        rows.append(tuple([0] * i + gc + [0] * (size - n - 1 - i)))
    return int_det(tuple(rows))


# ---------------------------------------------------------------------------
# The recursion path as matrix polynomials, and the twin decomposition
#
# `twinring.twisted_from_form` runs the same recursion on integer matrices
# at t = 2^B.  The twin decomposition is the proof device of the paper's
# theorem on 2-bridge knots onto Z/2 * Z/3: the tests show that the
# normalized recursion series is twin and that its closed-form
# determinant is the twisted polynomial.
# ---------------------------------------------------------------------------

XYX: Mat = mat_mul(mat_mul(X, Y), X)
X_PLUS_Y: Mat = mat_add(X, Y)
XINV_PLUS_YINV: Mat = mat_add(XINV, YINV)

ZERO_A = PolyMatrix({}, 3)
ONE_A = PolyMatrix.identity(3)
# Graded letters: a group element w contributes its matrix at degree
# (exponent sum of w), so x sits at t, y at t, and inverses at t^-1.
XT = PolyMatrix.monomial(X, 1)
YT = PolyMatrix.monomial(Y, 1)
YINV_T = PolyMatrix.monomial(YINV, -1)
# (x t - 1) y^-1 t^-1, the factor of every prefix in recursion_series' mix
MIX_FACTOR = (XT - ONE_A) * YINV_T


def yx_geometric(m: int) -> PolyMatrix:
    """Truncated geometric series in (yx) t^2.

    Nonnegative m gives 1 + (yx)t^2 + ... + (yx)^m t^(2m); negative m gives
    (x^-1 y^-1)t^-2 + ... + (x^-1 y^-1)^|m| t^(-2|m|).
    """
    if m >= 0:
        return PolyMatrix(((2 * j, power3(YX, j)) for j in range(m + 1)), 3)
    return PolyMatrix(((-2 * j, power3(XINV_YINV, j)) for j in range(1, -m + 1)), 3)


# (m y, -y m y) for each power m of YX and XINV_YINV: the terms that a term
# m t^d of a geometric series G gives in (1 - y t) G y t
_Y_TERMS: dict[Mat, tuple[Mat, Mat]] = {
    m: (mat_mul(m, Y), mat_neg(mat_mul(Y, mat_mul(m, Y))))
    for powers in POWERS.values() for m in powers}


def _head(m: int) -> PolyMatrix:
    """(1 - y t) yx_geometric(m) y t, term by term from `_Y_TERMS`."""
    pairs = []
    for d, power in yx_geometric(m).series.items():
        right, both = _Y_TERMS[power]
        pairs.append((d + 1, right))
        pairs.append((d + 2, both))
    return PolyMatrix(pairs, 3)


def _power_term(base: Mat, exp: int, deg_per: int, tail: Mat = None,
                tail_deg: int = 0) -> PolyMatrix:
    m = power3(base, exp)
    deg = deg_per * exp
    if tail is not None:
        m = mat_mul(m, tail)
        deg += tail_deg
    return PolyMatrix.monomial(m, deg)


def _part_series(k: int) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """(head, carry, const) of a part 3k of the form: a prefix ending in it
    has the series head * mix + carry * lam + const, for the series lam of
    the prefix before it and the weighted sum mix of the shorter prefixes
    (`recursion_series`).  `const` is summed in one pass."""
    if k > 0 and k % 2 == 0:          # k = 2s
        s = k // 2
        head = _head(3 * s - 1)
        carry = _power_term(YX, 3 * s, 2)
        terms = [-_power_term(YX, 3 * s - 3 * j + 2, 2) for j in range(1, s + 1)]
        terms += [_power_term(YX, 3 * s - 3 * j, 2, Y, 1) for j in range(1, s + 1)]
    elif k > 0:                        # k = 2s - 1
        s = (k + 1) // 2
        head = _head(3 * s - 2) + _power_term(YX, 3 * s - 1, 2)
        carry = -(_power_term(YX, 3 * s - 1, 2) * YINV_T)
        terms = [_power_term(YX, 3 * s - 3 * j, 2, Y, 1) for j in range(1, s + 1)]
        terms += [-_power_term(YX, 3 * s - 3 * j - 1, 2) for j in range(1, s)]
    elif k % 2 == 0:                   # k = -2s
        s = -k // 2
        head = -_head(-3 * s)
        carry = _power_term(XINV_YINV, 3 * s, -2)
        terms = [-_power_term(XINV_YINV, 3 * s - 3 * j + 2, -2, XINV, -1)
                 for j in range(1, s + 1)]
        terms += [_power_term(XINV_YINV, 3 * s - 3 * j + 1, -2) for j in range(1, s + 1)]
    else:                              # k = -(2s + 1)
        s = (-k - 1) // 2
        head = _power_term(XINV_YINV, 3 * s + 1, -2) - _head(-(3 * s + 1))
        carry = -(_power_term(XINV_YINV, 3 * s + 1, -2) * YINV_T)
        terms = [_power_term(XINV_YINV, 3 * s - 3 * j + 1, -2) for j in range(0, s + 1)]
        terms += [-_power_term(XINV_YINV, 3 * s - 3 * j + 2, -2, XINV, -1)
                  for j in range(1, s + 1)]
    const = PolyMatrix([pair for term in terms for pair in term.series.items()], 3)
    return head, carry, const


def recursion_series(form: H3Form) -> PolyMatrix:
    """The graded algebra series of a continued-fraction form, built by
    structural recursion over its prefixes.

    Each group-element factor carries t to its exponent sum, e.g. (yx)^j
    sits at degree 2j and (yx)^j y at degree 2j + 1.  The determinant of the
    result, times (1 - t^3), is the twisted polynomial of the knot.

    Convention note: the recursion weights come from the negative
    continued-fraction convention 1/(a1 - 1/(a2 - ...)), so the weight of a
    prefix is the *negated* even-position coefficient -m_j of our
    plus-convention entry list.  This calibration, and the j = 1..s range of
    the final sum in the odd-negative branch, are locked in by the
    cross-path equality tests against Fox calculus.
    """
    lam = ZERO_A                     # series of the empty prefix
    # weighted sum over shorter prefixes: sum_j -m_j (x t - 1) y^-1 t^-1 lam_j,
    # one term added per step
    mix = ZERO_A
    for q, k in enumerate(form.ks, start=1):
        head, carry, const = _part_series(k)
        lam = head * mix + carry * lam + const
        if q < form.q:
            mix = mix + (-form.ms[q - 1]) * (MIX_FACTOR * lam)
    return lam


def normalized_series(form: H3Form) -> PolyMatrix:
    """y^-1 t^-1 times the recursion series; this is the twin object."""
    return YINV_T * recursion_series(form)


def twisted_from_series(form: H3Form) -> LaurentPoly:
    """`twinring.twisted_from_form` from the matrix-polynomial series:
    det(recursion_series(form)) (1 - t^3), unit-normalized."""
    return canonical(recursion_series(form).det() * LaurentPoly([(0, 1), (3, -1)]))


class NotTwinError(ValueError):
    """Some coefficient is outside the prescribed span; names the degree."""

    def __init__(self, degree: int, reason: str):
        super().__init__(f"degree {degree}: {reason}")
        self.degree = degree


@dataclass(frozen=True)
class TwinDecomp:
    """Integer coefficient series of a twin polynomial.

    c[j], cprime[j] are the coefficients of I and XYX at t^(3j); a[j] is the
    coefficient of (X+Y) at t^(3j+1); b[j] of (Xinv+Yinv) at t^(3j+2).
    The twin pairing requires a[j] == b[j] for all j.
    """

    c: dict[int, int]
    cprime: dict[int, int]
    a: dict[int, int]
    b: dict[int, int]

    def to_matrix(self) -> PolyMatrix:
        terms = []
        for j, v in self.c.items():
            terms.append((3 * j, mat_scale(v, I3)))
        for j, v in self.cprime.items():
            terms.append((3 * j, mat_scale(v, XYX)))
        for j, v in self.a.items():
            terms.append((3 * j + 1, mat_scale(v, X_PLUS_Y)))
        for j, v in self.b.items():
            terms.append((3 * j + 2, mat_scale(v, XINV_PLUS_YINV)))
        return PolyMatrix(terms, 3)


def twin_decompose(f: PolyMatrix) -> TwinDecomp:
    """Solve every coefficient against its prescribed basis; raises
    NotTwinError at the first offending degree."""
    c: dict[int, int] = {}
    cprime: dict[int, int] = {}
    a: dict[int, int] = {}
    b: dict[int, int] = {}
    for deg in sorted(f.series):
        m = f.series[deg]
        j, res = divmod(deg, 3)
        if res == 0:
            # m = u*I + v*XYX; XYX has entry -1 at (1,0) and I has 0 there.
            v = -m[1][0]
            u = m[0][0] + v  # (0,0) entry is u - v
            if mat_add(mat_scale(u, I3), mat_scale(v, XYX)) != m:
                raise NotTwinError(deg, "coefficient not in span{I, XYX}")
            if u:
                c[j] = u
            if v:
                cprime[j] = v
        elif res == 1:
            u = -m[0][0]
            if mat_scale(u, X_PLUS_Y) != m:
                raise NotTwinError(deg, "coefficient not in span{X+Y}")
            if u:
                a[j] = u
        else:
            u = -m[0][0]
            if mat_scale(u, XINV_PLUS_YINV) != m:
                raise NotTwinError(deg, "coefficient not in span{Xinv+Yinv}")
            if u:
                b[j] = u
    for j in set(a) | set(b):
        if a.get(j, 0) != b.get(j, 0):
            raise NotTwinError(
                3 * j + 1, f"pairing a={a.get(j, 0)} vs b={b.get(j, 0)} differs")
    return TwinDecomp(c, cprime, a, b)


def twin_determinant(d: TwinDecomp) -> LaurentPoly:
    """Closed-form determinant of the matrix form of a twin polynomial.

    With C = sum c_j t^(3j), C' = sum c'_j t^(3j), A = sum a_j t^(3j):

        det = (C + C') * ((C - C')^2 - 4 t^3 A^2)

    This equals the direct 3x3 determinant exactly (not just up to units),
    and is visibly supported on degrees divisible by 3.
    """
    cpoly = LaurentPoly((3 * j, v) for j, v in d.c.items())
    cppoly = LaurentPoly((3 * j, v) for j, v in d.cprime.items())
    apoly = LaurentPoly((3 * j, v) for j, v in d.a.items())
    t3 = LaurentPoly([(3, 1)])
    diff = cpoly - cppoly
    return (cpoly + cppoly) * (diff * diff - 4 * t3 * apoly * apoly)
