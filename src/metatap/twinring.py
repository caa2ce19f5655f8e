"""The 3-dimensional representation of A4 and the recursion path.

Writing X, Y for the two generating matrices of the irreducible
3-dimensional representation of A4, the group algebra Z[A4] maps onto a ring
of 3x3 integer matrices; that image is faithful for everything we need, so
algebra elements are stored simply as their matrices.

For a 2-bridge fraction with continued-fraction shape
[3k1, 2m1, ..., 2m_{q-1}, 3kq] the continued-fraction recursion builds a
Laurent polynomial with coefficients in that ring whose determinant, times
(1 - t^3), is the 3-dimensional twisted polynomial of the knot: a second
computation path fully independent of Fox calculus.  `twisted_from_form`
runs the recursion on integer 3x3 matrices at t = 2^B, multiplies one
row by the value of 1 - t^3, and takes one 3x3 determinant
(`exactalg.evaluated_det`).

The same recursion on matrix polynomials (`oracles.recursion_series`) and
the paper's twin decomposition of its result are oracles.
"""

from __future__ import annotations

from functools import cache

from .exactalg import LaurentPoly, canonical, evaluated_det, kronecker_shift
from .intmat import Mat, identity, mat, mat_inverse, mat_mul, mat_neg, mat_scale
from .twobridge import H3Form

# The two generating matrices of the irreducible 3-dimensional integral
# representation of A4 = M(3|2,2): X is the image of s (the 3-cycle x) and
# Y that of s b1 (the image of y under the standard assignment).
X: Mat = mat([[-1, 1, 0], [-1, 0, 0], [-1, 0, 1]])
Y: Mat = mat([[0, 0, -1], [0, 1, -1], [1, 0, -1]])
XINV: Mat = mat_inverse(X)
YINV: Mat = mat_inverse(Y)
YX: Mat = mat_mul(Y, X)
XINV_YINV: Mat = mat_mul(XINV, YINV)

I3: Mat = identity(3)


# YX is the image of an element of order 3 of A4 and XINV_YINV its inverse,
# so their powers repeat with period 3; the tests check (YX)^3 = I.
POWERS: dict[Mat, tuple[Mat, Mat, Mat]] = {
    base: (I3, base, mat_mul(base, base)) for base in (YX, XINV_YINV)}


def power3(base: Mat, e: int) -> Mat:
    """base^e for base YX or XINV_YINV, from the order-3 power table."""
    return POWERS[base][e % 3]


def _closure(generators) -> frozenset:
    """The finite matrix group the generators generate."""
    group, frontier = {I3}, [I3]
    while frontier:
        m = frontier.pop()
        for g in generators:
            product = mat_mul(m, g)
            if product not in group:
                group.add(product)
                frontier.append(product)
    return frozenset(group)


# The 12 images of A4, and the largest l1-norm of a row among them (2).
A4_IMAGES = _closure((X, Y))
ROW_NORM = max(sum(map(abs, row)) for m in A4_IMAGES for row in m)


# ---------------------------------------------------------------------------
# The recursion path
#
# Every series of the recursion is a sum of families (matrix, low, count):
# sum_{i < count} matrix t^(low + 6i), with matrix +- the image of one
# element of A4.  The parts of a form are built from families, and the
# recursion runs twice over the same steps (`_recursion`): once on degree
# spans and l1-norms, which prove a bound, and once on the series' values
# at t = 2^B.
# ---------------------------------------------------------------------------


def _run(base: Mat, deg_per: int, first: int, count: int, tail: Mat = I3,
         tail_deg: int = 0, sign: int = 1) -> list:
    """The family sign * base^e tail t^(deg_per e + tail_deg) for e =
    first, first + 3, ..., first + 3 (count - 1): one matrix, since base
    has order 3, and degrees 6 apart.  Empty for count <= 0."""
    if count <= 0:
        return []
    m = mat_mul(power3(base, first), tail)
    return [(m if sign > 0 else mat_neg(m),
             min(deg_per * first, deg_per * (first + 3 * count - 3)) + tail_deg,
             count)]


def _head_families(m: int) -> list:
    """(1 - y t) G y t for the geometric series G in (yx) t^2:
    1 + (yx) t^2 + ... + (yx)^m t^(2m) for m >= 0, and (x^-1 y^-1) t^-2
    + ... + (x^-1 y^-1)^|m| t^(-2|m|) for m < 0.  A term P t^d of G
    gives P y t^(d + 1) and -y P y t^(d + 2)."""
    if m >= 0:
        runs = [f for r in range(3) for f in _run(YX, 2, r, (m - r) // 3 + 1)]
    else:
        runs = [f for r in (1, 2, 3)
                for f in _run(XINV_YINV, -2, r, (-m - r) // 3 + 1)]
    return ([(mat_mul(p, Y), low + 1, c) for p, low, c in runs]
            + [(mat_neg(mat_mul(Y, mat_mul(p, Y))), low + 2, c) for p, low, c in runs])


def _negate(families: list) -> list:
    return [(mat_neg(m), low, c) for m, low, c in families]


def _series(families: list) -> tuple:
    """(lo, hi, norm, terms) of a sum of families: its lowest and highest
    degree, its l1-norm in Z[A4], and per family (low, count, nonzero
    entries (3 row + column, value))."""
    return (min(low for _, low, _ in families),
            max(low + 6 * c - 6 for _, low, c in families),
            sum(c for _, _, c in families),
            tuple((low, c, tuple((3 * i + j, v) for i, row in enumerate(m)
                                 for j, v in enumerate(row) if v))
                  for m, low, c in families))


# The parts of the forms that a process meets, one entry per k.
@cache
def _part(k: int) -> tuple:
    """(head, carry, const) of a part 3k of the form (`_series`): a
    prefix ending in it has the series head * mix + carry * lam + const,
    for the series lam of the prefix before it and the weighted sum mix of
    the shorter prefixes (`twisted_from_form`)."""
    if k > 0 and k % 2 == 0:          # k = 2s
        s = k // 2
        head = _head_families(3 * s - 1)
        carry = _run(YX, 2, 3 * s, 1)
        const = _run(YX, 2, 2, s, sign=-1) + _run(YX, 2, 0, s, Y, 1)
    elif k > 0:                        # k = 2s - 1
        s = (k + 1) // 2
        head = _head_families(3 * s - 2) + _run(YX, 2, 3 * s - 1, 1)
        carry = _run(YX, 2, 3 * s - 1, 1, YINV, -1, sign=-1)
        const = _run(YX, 2, 0, s, Y, 1) + _run(YX, 2, 2, s - 1, sign=-1)
    elif k % 2 == 0:                   # k = -2s
        s = -k // 2
        head = _negate(_head_families(-3 * s))
        carry = _run(XINV_YINV, -2, 3 * s, 1)
        const = (_run(XINV_YINV, -2, 2, s, XINV, -1, sign=-1)
                 + _run(XINV_YINV, -2, 1, s))
    else:                              # k = -(2s + 1)
        s = (-k - 1) // 2
        head = _run(XINV_YINV, -2, 3 * s + 1, 1) + _negate(_head_families(-(3 * s + 1)))
        carry = _run(XINV_YINV, -2, 3 * s + 1, 1, YINV, -1, sign=-1)
        const = (_run(XINV_YINV, -2, 1, s + 1)
                 + _run(XINV_YINV, -2, 2, s, XINV, -1, sign=-1))
    return _series(head), _series(carry), _series(const)


# (x t - 1) y^-1 t^-1, the factor of every prefix in the weighted sum mix
_MIX_FACTOR = _series([(mat_mul(X, YINV), 0, 1), (mat_neg(YINV), -1, 1)])


def _recursion(form: H3Form, parts, mix_factor, mul, add, scale):
    """The series of the form, by structural recursion over its prefixes,
    in a ring given by `mul`, `add` and `scale` (an int times a series);
    None is zero.  `parts` holds (head, carry, const) per part, and
    `mix_factor` is (x t - 1) y^-1 t^-1 in the ring.

    The series of a prefix ending in part q is lam_q = head_q * mix +
    carry_q * lam_(q-1) + const_q, and mix adds -m_q (x t - 1) y^-1 t^-1
    lam_q after each part but the last, so a form with q parts takes
    O(q) products.  The weight of a prefix is the negated even-position
    coefficient -m_j, from the negative continued-fraction convention
    1/(a1 - 1/(a2 - ...)); this calibration is locked in by the cross-path
    equality tests against Fox calculus."""
    lam = mix = None
    for q, (head, carry, const) in enumerate(parts, start=1):
        lam = add(add(mul(head, mix), mul(carry, lam)), const)
        if q < form.q:
            mix = add(mix, scale(-form.ms[q - 1], mul(mix_factor, lam)))
    return lam


# The ring of (lo, hi, norm); a `_series` is one, with its terms after them.


def _span_mul(a, b):
    if a is None or b is None:
        return None
    return a[0] + b[0], a[1] + b[1], a[2] * b[2]


def _span_add(a, b):
    if a is None or b is None:
        return b if a is None else a
    return min(a[0], b[0]), max(a[1], b[1]), a[2] + b[2]


def _span_scale(m, a):
    return a[0], a[1], abs(m) * a[2]


def twisted_from_form(form: H3Form) -> LaurentPoly:
    """Twisted polynomial of the 2-bridge knot with the H(3) certificate
    `form` (`twobridge.h3_expand`) through the continued-fraction
    recursion: det of the series times (1 - t^3), unit-normalized.

    Each coefficient of a series is an integer combination of the images
    of A4, so its l1-norm T in Z[A4] bounds it: products multiply T, sums
    add it, and m * A scales it by |m|.  Every row of t^-lo times the
    series, lo its lowest degree, then has l1-norm at most ROW_NORM * T,
    and no coefficient of its determinant exceeds (ROW_NORM * T)^3.  With
    B from that bound (`kronecker_shift`), the recursion runs on the
    series' values (lo, t^-lo series at t = 2^B): products multiply the
    3x3 matrices, and sums shift them to the lower lo.  A family is one
    exact geometric sum, shifted.

    The factor 1 - t^3 goes into the determinant: one row of the
    evaluated matrix is multiplied by 1 - 2^(3B), so the one 3x3 int_det
    is the value of det * (1 - t^3), read back (`evaluated_det`) as its
    3 (hi - lo) + 4 coefficients from degree 3 lo.  Each is c_i - c_(i-3)
    for coefficients c of det, so 2 (ROW_NORM * T)^3 bounds them, and B
    is taken from that bound."""
    parts = [_part(k) for k in form.ks]
    lo, hi, norm = _recursion(form, parts, _MIX_FACTOR, _span_mul, _span_add,
                              _span_scale)[:3]
    bound = 2 * (ROW_NORM * norm) ** 3
    shift = kronecker_shift(bound)
    step = (1 << 6 * shift) - 1
    geometric = {}

    def value(series):
        """(lo, t^-lo series at t = 2^shift) of a `_series`."""
        low, _, _, terms = series
        acc = [0] * 9
        for first, count, entries in terms:
            g = geometric.get(count)
            if g is None:
                g = geometric[count] = ((1 << 6 * shift * count) - 1) // step
            g <<= shift * (first - low)
            for at, v in entries:
                acc[at] += v * g
        return low, (tuple(acc[0:3]), tuple(acc[3:6]), tuple(acc[6:9]))

    def mul(a, b):
        if a is None or b is None:
            return None
        return a[0] + b[0], mat_mul(a[1], b[1])

    def add(a, b):
        if a is None or b is None:
            return b if a is None else a
        low = min(a[0], b[0])
        sa, sb = shift * (a[0] - low), shift * (b[0] - low)
        return low, tuple(tuple((x << sa) + (y << sb) for x, y in zip(ra, rb))
                          for ra, rb in zip(a[1], b[1]))

    def scale(m, a):
        return a[0], mat_scale(m, a[1])

    # both runs take the same lowest degrees, so the value's lo is lo
    _, (top, *rest) = _recursion(form, [tuple(map(value, part)) for part in parts],
                                 value(_MIX_FACTOR), mul, add, scale)
    top = tuple(x - (x << 3 * shift) for x in top)  # times 1 - t^3
    return canonical(evaluated_det((top, *rest), shift, bound, 3 * (hi - lo) + 4, 3 * lo))
