"""The 3x3 quotient algebra, twin polynomials, and the recursion path."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metatap import exactalg, twinring
from metatap.exactalg import ZERO, ExactnessError, canonical, parse_poly
from metatap.golden import A4_3DIM, STANDARD
from metatap.metabelian import a4_group
from metatap.intmat import (
    identity, mat_add, mat_inverse, mat_mul, mat_scale, mat_sub, zeros)
from metatap.oracles import (
    XINV_PLUS_YINV,
    XT,
    X_PLUS_Y,
    XYX,
    YT,
    NotTwinError,
    PolyMatrix,
    TwinDecomp,
    _part_series,
    normalized_series,
    recursion_series,
    twin_decompose,
    twin_determinant,
    twisted_from_series,
    yx_geometric,
)
from metatap.selftest import golden_record
from metatap.twinring import (
    A4_IMAGES,
    ROW_NORM,
    X,
    XINV,
    XINV_YINV,
    Y,
    YINV,
    YX,
    _part,
    power3,
    twisted_from_form,
)
from metatap.twobridge import FractionR, H3Form, enumerate_fractions, h3_expand

from matrix_helpers import mat_pow, xi0

P = parse_poly
I3 = identity(3)
Z3 = zeros(3)
ONE_MINUS_T3 = P("1 - t^3")
ONE_A = PolyMatrix.identity(3)
ZERO_A = PolyMatrix({}, 3)
M = PolyMatrix.monomial


def series(pairs):
    return PolyMatrix(pairs, 3)


# -- the nine constant identities ----------------------------------------------

def test_constant_matrices():
    assert X_PLUS_Y == ((-1, 1, -1), (-1, 1, -1), (0, 0, 0))
    assert XINV_PLUS_YINV == ((-1, -1, 1), (0, 0, 0), (-1, -1, 1))
    assert XYX == ((-1, 0, 0), (-1, 0, 1), (-1, 1, 0))


def test_nine_identities():
    # (1) x^3 = y^3 = (xy)^3 = 1
    assert mat_pow(X, 3) == I3
    assert mat_pow(Y, 3) == I3
    assert mat_pow(mat_mul(X, Y), 3) == I3
    # (2) xyx = yxy
    assert XYX == mat_mul(mat_mul(Y, X), Y)
    # (3) (x y^-1)^2 = 1
    assert mat_pow(mat_mul(X, YINV), 2) == I3
    # (4) xyx = x^-1 y^-1 x^-1
    assert XYX == mat_mul(mat_mul(XINV, YINV), XINV)
    # (5) (x+y)^2 = (x^-1+y^-1)^2 = 0
    assert mat_pow(X_PLUS_Y, 2) == Z3
    assert mat_pow(XINV_PLUS_YINV, 2) == Z3
    # (6) xyx(x+y) = (x+y)xyx = -(x+y)
    assert mat_mul(XYX, X_PLUS_Y) == mat_scale(-1, X_PLUS_Y)
    assert mat_mul(X_PLUS_Y, XYX) == mat_scale(-1, X_PLUS_Y)
    # (7) same for x^-1 + y^-1
    assert mat_mul(XYX, XINV_PLUS_YINV) == mat_scale(-1, XINV_PLUS_YINV)
    assert mat_mul(XINV_PLUS_YINV, XYX) == mat_scale(-1, XINV_PLUS_YINV)
    # (8) (x+y)(x^-1+y^-1) + (x^-1+y^-1)(x+y) = 2(1 - xyx)
    lhs = mat_add(mat_mul(X_PLUS_Y, XINV_PLUS_YINV),
                  mat_mul(XINV_PLUS_YINV, X_PLUS_Y))
    assert lhs == mat_scale(2, mat_sub(I3, XYX))
    # (9) xy + yx = -(x^-1+y^-1) and x^-1 y^-1 + y^-1 x^-1 = -(x+y)
    assert mat_add(mat_mul(X, Y), mat_mul(Y, X)) == mat_scale(-1, XINV_PLUS_YINV)
    assert mat_add(mat_mul(XINV, YINV), mat_mul(YINV, XINV)) == \
        mat_scale(-1, X_PLUS_Y)


# -- arithmetic of 3x3 matrix polynomials ----------------------------------------

def test_apoly_squares_vanish():
    a = M(X_PLUS_Y)
    assert (a * a).series == {}
    b = M(XINV_PLUS_YINV)
    assert (b * b) == ZERO_A


def test_apoly_xyx_absorption():
    a = M(X_PLUS_Y)
    w = M(XYX)
    assert w * a == -1 * a
    assert a * w == -1 * a
    assert w * a == -a


def test_apoly_unit_and_noncommutativity():
    f = series([(0, X), (2, YX)])
    assert f * ONE_A == f
    g = M(Y, 1)
    assert f * g != g * f


# -- geometric blocks -----------------------------------------------------------

def test_yx_geometric():
    assert yx_geometric(0) == ONE_A
    assert yx_geometric(1) == series([(0, I3), (2, YX)])
    assert yx_geometric(-1) == M(XINV_YINV, -2)
    for m in range(0, 6):
        assert len(yx_geometric(m).series) == m + 1
    for m in range(1, 6):
        assert len(yx_geometric(-m).series) == m


def _generic_mul(a, b):
    """The textbook product, the oracle for mat_mul's unrolled 3x3 case."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _generic_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def test_unrolled_product_and_power_table_match_generic():
    rng = random.Random(17)
    for size in (1, 2, 3, 4, 5):
        for bound in (9, 10**30):
            for _ in range(200 if size == 3 else 20):
                a, b = (tuple(tuple(rng.randint(-bound, bound) for _ in range(size))
                              for _ in range(size)) for _ in range(2))
                assert mat_mul(a, b) == _generic_mul(a, b)
                assert mat_add(a, b) == _generic_add(a, b)
    assert mat_pow(YX, 3) == I3
    for base in (YX, XINV_YINV):
        for e in range(-7, 12):
            assert power3(base, e) == mat_pow(base, e)


# -- twin decomposition ----------------------------------------------------------

def test_twin_check_displayed_object():
    # 1 - (x+y)t - (x^-1+y^-1)t^2 - xyx t^3
    f = (ONE_A
         - M(X_PLUS_Y, 1)
         - M(XINV_PLUS_YINV, 2)
         - M(XYX, 3))
    d = twin_decompose(f)
    assert d.c == {0: 1}
    assert d.cprime == {1: -1}
    assert d.a == {0: -1}
    assert d.b == {0: -1}


def test_twin_check_failures():
    with pytest.raises(NotTwinError) as e:
        twin_decompose(M(X, 0))
    assert e.value.degree == 0
    # pairing violation: a(0) = 1 but b(0) = 0
    f = M(X_PLUS_Y, 1)
    with pytest.raises(NotTwinError):
        twin_decompose(f)


def test_twin_zero():
    d = twin_decompose(ZERO_A)
    assert d == TwinDecomp({}, {}, {}, {})
    assert twin_determinant(d) == ZERO


def rand_twin(rng, span=2, coef=3):
    c = {j: rng.randint(-coef, coef) for j in range(-span, span)}
    cp = {j: rng.randint(-coef, coef) for j in range(-span, span)}
    a = {j: rng.randint(-coef, coef) for j in range(-span, span)}
    d = TwinDecomp({k: v for k, v in c.items() if v},
                   {k: v for k, v in cp.items() if v},
                   {k: v for k, v in a.items() if v},
                   {k: v for k, v in a.items() if v})
    return d.to_matrix()


def test_twin_subring_closure():
    rng = random.Random(42)
    for _ in range(60):
        f, g = rand_twin(rng), rand_twin(rng)
        twin_decompose(f * g)
        twin_decompose(f + g)
        twin_decompose(f - g)


def test_twin_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        f = rand_twin(rng)
        d = twin_decompose(f)
        assert d.to_matrix() == f


# -- closed-form determinant -----------------------------------------------------

def test_twin_determinant_examples():
    # series for the single-entry form [6]: 1 - xyx t^3
    ns = normalized_series(H3Form((2,), ()))
    assert ns == series([(0, I3), (3, mat_scale(-1, XYX))])
    d = twin_decompose(ns)
    assert (d.c, d.cprime) == ({0: 1}, {1: -1})
    assert twin_determinant(d) == ns.det()
    assert twin_determinant(d) == P("1 - t^3") * P("1 + t^3")**2
    # a bare constant 1 has determinant +1 (exact equality with the matrix det)
    only_c = TwinDecomp({0: 1}, {}, {}, {})
    assert twin_determinant(only_c) == P("1")
    assert only_c.to_matrix().det() == P("1")


def test_twin_determinant_matches_direct_on_random_corpus():
    rng = random.Random(23)
    for _ in range(50):
        f = rand_twin(rng)
        d = twin_decompose(f)
        det = twin_determinant(d)
        assert det == f.det()
        if not det.is_zero():
            assert all(deg % 3 == 0 for deg, _ in det.terms)


# -- membership families ----------------------------------------------------------

def one_minus_xt():
    return ONE_A - XT


def test_membership_families():
    """Four families of twin objects built from the geometric blocks."""
    yinv_tinv = M(YINV, -1)
    for k in (0, 1, 2):
        f1 = yinv_tinv * ((ONE_A - YT) * yx_geometric(3 * k + 1) * YT
                          + M(mat_pow(YX, 3 * k + 2), 6 * k + 4)) \
            * (ONE_A - XT)
        twin_decompose(f1)
        f2 = yinv_tinv * (ONE_A - YT) * yx_geometric(3 * k + 2) * YT \
            * (ONE_A - XT)
        twin_decompose(f2)
        f3 = yinv_tinv * ((ONE_A - YT) * yx_geometric(-(3 * k + 1)) * YT
                          - M(mat_pow(XINV_YINV, 3 * k + 1), -(6 * k + 2))) \
            * (ONE_A - XT)
        twin_decompose(f3)
        f4 = yinv_tinv * (ONE_A - YT) * yx_geometric(-(3 * k + 3)) * YT \
            * (ONE_A - XT)
        twin_decompose(f4)


def test_membership_initial_cases_displayed_values():
    """The k = 0 members equal their displayed twin decompositions."""
    yinv_tinv = M(YINV, -1)
    one = ONE_A
    f1 = yinv_tinv * ((one - YT) * yx_geometric(1) * YT
                      + M(mat_pow(YX, 2), 4)) * (one - XT)
    assert f1 == (one - M(X_PLUS_Y, 1)
                  - M(XINV_PLUS_YINV, 2) - M(XYX, 3))
    # at t^3 the coefficient is -(yxy + xyx) = -2 xyx by the braid identity
    f2 = yinv_tinv * (one - YT) * yx_geometric(2) * YT * (one - XT)
    d2 = twin_decompose(f2)
    assert d2.c == {0: 1, 2: 1} and d2.cprime == {1: -2}
    assert d2.a == {0: -1, 1: -1}
    f3 = yinv_tinv * ((one - YT) * yx_geometric(-1) * YT
                      - M(XINV_YINV, -2)) * (one - XT)
    d3 = twin_decompose(f3)
    assert d3.c == {0: 1} and d3.cprime == {-1: -1}
    assert d3.a == {-1: -1}
    f4 = yinv_tinv * (one - YT) * yx_geometric(-3) * YT * (one - XT)
    d4 = twin_decompose(f4)
    assert d4.c == {-2: 1, 0: 1} and d4.cprime == {-1: -2}
    assert d4.a == {-2: -1, -1: -1}


# -- the recursion ---------------------------------------------------------------

def test_recursion_base_anchors():
    assert recursion_series(H3Form((1,), ())) == M(Y, 1)
    ns = normalized_series(H3Form((2,), ()))
    assert ns == series([(0, I3), (3, mat_scale(-1, XYX))])


def test_recursion_twin_q_le_2():
    vals = [-3, -2, -1, 1, 2, 3]
    for k1 in vals:
        twin_decompose(normalized_series(H3Form((k1,), ())))
    for k1 in vals:
        for k2 in vals:
            for m1 in vals:
                form = H3Form((k1, k2), (m1,))
                twin_decompose(normalized_series(form))


def test_recursion_golden_values():
    for frac in ("1/3", "1/9", "7/39"):
        form = h3_expand(FractionR.parse(frac))
        assert twisted_from_form(form) == canonical(A4_3DIM[frac])


def test_cross_path_sample():
    checked = 0
    for ks in product(*([[-2, -1, 1, 2]] * 2)):
        for m in (-2, -1, 1, 2):
            form = H3Form(ks, (m,))
            val = form.value()
            b, a = val.numerator, val.denominator
            if a % 2 == 0 or abs(b) % 2 == 0 or not 0 < b < a:
                continue
            # phi of compute's record for the standard assignment is the
            # 3-dim invariant
            phi = golden_record(f"{b}/{a}", "A4", STANDARD)["phi"]
            assert twisted_from_form(form) == parse_poly(phi)
            checked += 1
    assert checked >= 12


# -- the recursion on integer matrices at t = 2^B ---------------------------------

def test_row_norm_from_the_closure():
    # the closure of X, Y is the 12 images xi0 gives the elements of A4,
    # closed under products and inverses; its largest row l1-norm is 2
    group = a4_group()
    assert A4_IMAGES == {xi0(i) for i in range(group.order())}
    assert len(A4_IMAGES) == 12
    assert all(mat_mul(a, b) in A4_IMAGES for a in A4_IMAGES for b in A4_IMAGES)
    assert all(mat_inverse(a) in A4_IMAGES for a in A4_IMAGES)
    assert ROW_NORM == 2 == max(sum(map(abs, row)) for m in A4_IMAGES for row in m)


def _families_series(series):
    """A `twinring._series` as the PolyMatrix it sums."""
    _, _, _, terms = series
    pairs = []
    for low, count, entries in terms:
        m = [[0] * 3 for _ in range(3)]
        for at, v in entries:
            m[at // 3][at % 3] = v
        pairs += [(low + 6 * i, tuple(map(tuple, m))) for i in range(count)]
    return PolyMatrix(pairs, 3)


def test_part_families_match_the_series():
    # each family is +- one image of A4 at degrees 6 apart, so its l1-norm
    # is its count, and the spans and norms are the series' own
    signed = A4_IMAGES | {mat_scale(-1, m) for m in A4_IMAGES}
    for k in [k for k in range(-25, 26) if k]:
        for series, oracle in zip(_part(k), _part_series(k)):
            assert _families_series(series) == oracle, k
            lo, hi, norm, terms = series
            assert lo == min(oracle.series) and hi >= max(oracle.series)
            assert norm == sum(count for _, count, _ in terms)
            for _, _, entries in terms:
                m = [[0] * 3 for _ in range(3)]
                for at, v in entries:
                    m[at // 3][at % 3] = v
                assert tuple(map(tuple, m)) in signed


def span_pass(form):
    """(lo, hi, T) of `twisted_from_form`'s first run: the degree span and
    the l1-norm in Z[A4] of the form's series."""
    parts = [_part(k) for k in form.ks]
    return twinring._recursion(form, parts, twinring._MIX_FACTOR, twinring._span_mul,
                               twinring._span_add, twinring._span_scale)[:3]


def test_integer_recursion_matches_series_alpha_163():
    # and the premises of the bound that sets B hold for every form: the
    # span pass covers the series' degrees, every row of the series has
    # l1-norm at most ROW_NORM * T, and every coefficient of its
    # determinant is at most (ROW_NORM * T)^3
    forms = [form for form in map(h3_expand, enumerate_fractions(163)) if form]
    assert len(forms) == 124
    for form in forms:
        assert twisted_from_form(form) == twisted_from_series(form), form
        lo, hi, norm = span_pass(form)
        lam = recursion_series(form)
        assert lo <= min(lam.series) and hi >= max(lam.series), form
        for i in range(3):
            row_norm = sum(abs(v) for m in lam.series.values() for v in m[i])
            assert row_norm <= ROW_NORM * norm, form
        assert all(abs(c) <= (ROW_NORM * norm) ** 3 for _, c in lam.det().terms), form


@st.composite
def small_forms(draw):
    """An H3Form of 1 to 4 entries 3k, each |k| <= 9, with entries 2m
    between them, each |m| <= 9; its value need not be a knot's."""
    nonzero = st.integers(-9, 9).filter(bool)
    q = draw(st.integers(1, 4))
    ks = tuple(draw(st.lists(nonzero, min_size=q, max_size=q)))
    ms = tuple(draw(st.lists(nonzero, min_size=q - 1, max_size=q - 1)))
    return H3Form(ks, ms)


def outcome(compute, form):
    """compute(form), or the type and text of the exception it raises."""
    try:
        return compute(form)
    except Exception as e:
        return type(e), str(e)


@given(small_forms())
# [-3, 2, -3] and [3, -2, 3] have the values -5/12 and 5/12, which are not
# knots: both paths take a zero determinant and must fail alike
@example(H3Form((-1, -1), (1,)))
@example(H3Form((1, 1), (-1,)))
@settings(max_examples=120, deadline=None)
def test_integer_recursion_matches_series_property(form):
    assert outcome(twisted_from_form, form) == outcome(twisted_from_series, form)


def test_integer_recursion_rejects_tampered_readback(monkeypatch):
    genuine = exactalg.kronecker_readback
    form = h3_expand(FractionR.parse("29/75"))
    expected = twisted_from_form(form)
    # a digit pushed past the bound, and a value left after the last digit
    for tamper, message in (
            (lambda shift, digits: 1 << shift * (digits // 2) + shift - 2,
             "exceeds its proven bound"),
            (lambda shift, digits: -1 << shift * digits, "degree bound")):
        monkeypatch.setattr(
            exactalg, "kronecker_readback",
            lambda value, shift, bound, digits, low, tamper=tamper:
            genuine(value + tamper(shift, digits), shift, bound, digits, low))
        with pytest.raises(ExactnessError, match=message):
            twisted_from_form(form)
    monkeypatch.setattr(exactalg, "kronecker_readback", genuine)
    assert twisted_from_form(form) == expected

