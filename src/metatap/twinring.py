"""The 3x3-matrix quotient algebra of Z[A4] and the recursion path.

Writing X, Y for the two generating matrices of the irreducible
3-dimensional representation of A4, the group algebra Z[A4] maps onto a ring
of 3x3 integer matrices; that image is faithful for everything we need, so
algebra elements are stored simply as their matrices.  A Laurent polynomial
with such coefficients is a 3x3 `PolyMatrix`: its series maps each degree
to a 3x3 integer matrix, and products keep the coefficients in order.

A matrix Laurent polynomial is *twin* when its coefficient at t^j lies in
span{I, XYX} for j = 0 mod 3, in span{X+Y} for j = 1 mod 3, and in
span{Xinv+Yinv} for j = 2 mod 3, with the extra pairing that the
coefficients a at t^(3j+1) and b at t^(3j+2) agree for every j.  Twin
polynomials form a subring, their 3x3 determinants are supported on degrees
divisible by 3, and the determinant collapses to a closed form in the four
integer coefficient series.

For a 2-bridge fraction with continued-fraction shape
[3k1, 2m1, ..., 2m_{q-1}, 3kq] the series computed by `recursion_series`
has, after multiplying by y^-1 t^-1, exactly this twin structure, and

    twisted = det(recursion_series(form)) * (1 - t^3)

recovers the 3-dimensional twisted polynomial of the knot, giving a second
computation path fully independent of Fox calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import LaurentPoly, PolyMatrix, canonical
from .intmat import (
    Mat,
    identity,
    mat,
    mat_add,
    mat_inverse,
    mat_mul,
    mat_neg,
    mat_scale,
)
from .twobridge import H3Form

# The two generating matrices of the irreducible 3-dimensional integral
# representation of A4 = M(3|2,2): X is the image of s (the 3-cycle x) and
# Y that of s b1 (the image of y under the standard assignment).
X: Mat = mat([[-1, 1, 0], [-1, 0, 0], [-1, 0, 1]])
Y: Mat = mat([[0, 0, -1], [0, 1, -1], [1, 0, -1]])
XINV: Mat = mat_inverse(X)
YINV: Mat = mat_inverse(Y)
XYX: Mat = mat_mul(mat_mul(X, Y), X)
YX: Mat = mat_mul(Y, X)
XINV_YINV: Mat = mat_mul(XINV, YINV)
X_PLUS_Y: Mat = mat_add(X, Y)
XINV_PLUS_YINV: Mat = mat_add(XINV, YINV)

I3: Mat = identity(3)


# YX is the image of an element of order 3 of A4 and XINV_YINV its inverse,
# so their powers repeat with period 3; the tests check (YX)^3 = I.
POWERS: dict[Mat, tuple[Mat, Mat, Mat]] = {
    base: (I3, base, mat_mul(base, base)) for base in (YX, XINV_YINV)}


def power3(base: Mat, e: int) -> Mat:
    """base^e for base YX or XINV_YINV, from the order-3 power table."""
    return POWERS[base][e % 3]


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


# ---------------------------------------------------------------------------
# Twin decomposition (paper reproduction; test-only)
#
# The proof device of the paper's theorem on 2-bridge knots onto Z/2 * Z/3:
# the tests show that the normalized recursion series is twin and that its
# closed-form determinant is the twisted polynomial.  No command calls it;
# the recursion path takes recursion_series(form).det().
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# The full recursion path
# ---------------------------------------------------------------------------

_BASE_INVARIANT = LaurentPoly([(0, 1), (3, -1)])  # value for the trefoil 1/3


def normalized_series(form: H3Form) -> PolyMatrix:
    """y^-1 t^-1 times the recursion series; this is the twin object."""
    return YINV_T * recursion_series(form)


def twisted_from_form(form: H3Form) -> LaurentPoly:
    """Twisted polynomial of the 2-bridge knot with the H(3) certificate
    `form` (`twobridge.h3_expand`) through the continued-fraction
    recursion: det of the series times (1 - t^3), unit-normalized."""
    det = recursion_series(form).det()
    return canonical(det * _BASE_INVARIANT)
