"""Exact Laurent arithmetic, normalization, division, and determinants."""

import doctest
import importlib
import inspect
import itertools
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatap import exactalg, twinring
from metatap.exactalg import (
    ExactnessError,
    LaurentPoly,
    ZERO,
    ONE,
    canonical,
    exact_div,
    kronecker_det,
    kronecker_readback,
    normalize,
    parse_poly,
    poly_from_coeffs,
    supported_on_multiples,
)
from metatap.intmat import identity, int_det, mat_neg, zeros
from metatap.metabelian import cyclotomic_coeffs
from metatap.oracles import PolyMatrix, block_matrix, det_bareiss, resultant

from matrix_helpers import block_row_matrix, from_entries

P = parse_poly


def shifted(f, k):
    """f * t^k."""
    return f * LaurentPoly([(k, 1)])


def rand_poly(rng, max_terms=4, deg_lo=-4, deg_hi=4, coef=6):
    terms = [(rng.randint(deg_lo, deg_hi), rng.randint(-coef, coef))
             for _ in range(rng.randint(0, max_terms))]
    return LaurentPoly(terms)


small_polys = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-9, 9)), max_size=4
).map(LaurentPoly)


# -- basic arithmetic ---------------------------------------------------------

def test_telescoping_product():
    assert P("1 - t") * P("1 + t + t^2") == P("1 - t^3")


def test_additive_identity():
    f = P("3 - t^2 + 7*t^5")
    assert ZERO + f == f
    assert f - f == ZERO


def test_laurent_product():
    assert P("t^-1 + 1") * P("-1 + t") == P("-t^-1 + t")


def test_pow_and_scalar():
    assert P("1 + t") ** 2 == P("1 + 2*t + t^2")
    assert 3 * P("1 - t") == P("3 - 3*t")
    assert P("1 - t") ** 0 == ONE


@given(small_polys, small_polys, small_polys)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


# The dict-based arithmetic the dense lists replace, as an oracle.

def _dict_mul(f, g):
    acc = {}
    for d1, c1 in f.terms:
        for d2, c2 in g.terms:
            acc[d1 + d2] = acc.get(d1 + d2, 0) + c1 * c2
    return LaurentPoly(acc.items())


def _dict_exact_div(num, den):
    if num.is_zero():
        return ZERO
    ncan, nsign, nshift = normalize(num)
    dcan, dsign, dshift = normalize(den)
    cur = dict(ncan.terms)
    dlead_deg, dlead_coef = dcan.terms[-1]
    qterms = {}
    while cur:
        deg = max(cur)
        if deg < dlead_deg:
            return None
        q, r = divmod(cur[deg], dlead_coef)
        if r:
            return None
        qterms[deg - dlead_deg] = q
        for d, c in dcan.terms:
            val = cur.get(d + deg - dlead_deg, 0) - q * c
            if val:
                cur[d + deg - dlead_deg] = val
            else:
                cur.pop(d + deg - dlead_deg, None)
    return (nsign * dsign) * shifted(LaurentPoly(qterms.items()), nshift - dshift)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=400, deadline=None)
def test_dense_arithmetic_matches_dict_oracle(f, g, h):
    assert f * g == _dict_mul(f, g)
    assert f + g == LaurentPoly(f.terms + g.terms)
    assert f - g == LaurentPoly(f.terms + tuple((d, -c) for d, c in g.terms))
    for result in (f * g, f + g, f - g):
        assert all(c for _, c in result.terms)
        assert list(result.terms) == sorted(result.terms)
    if not g.is_zero():
        for num in (f, f * g, f * g + h, shifted(_dict_mul(f, g), -7)):
            assert exact_div(num, g) == _dict_exact_div(num, g)


# The dense (low, coeffs) storage against a dict built from the same terms.

raw_terms = st.lists(st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=6)


def _dict_of(terms):
    acc = {}
    for d, c in terms:
        acc[d] = acc.get(d, 0) + c
    return {d: c for d, c in acc.items() if c}


def _sorted_terms(pairs):
    return tuple(sorted((d, c) for d, c in pairs if c))


@given(raw_terms, st.integers(-5, 5), st.integers(-4, 4),
       st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))
@settings(max_examples=400, deadline=None)
def test_dense_storage_matches_dict_oracle(terms, k, c, lead, trail, x):
    f = LaurentPoly(terms)
    d = _dict_of(terms)
    assert f.terms == _sorted_terms(d.items())
    for e in range(-9, 10):
        assert f.coeff(e) == d.get(e, 0)
    assert (-f).terms == _sorted_terms((e, -v) for e, v in d.items())
    assert shifted(f, k).terms == _sorted_terms((e + k, v) for e, v in d.items())
    assert (c * f).terms == _sorted_terms((e, c * v) for e, v in d.items())
    assert f * c == c * f
    zeros = LaurentPoly._from_dense(k, [0] * (lead + trail))
    assert zeros == ZERO and (zeros._low, zeros._coeffs) == (0, ())
    if not d:
        assert f == ZERO and (f._low, f._coeffs) == (0, ())
        with pytest.raises(ValueError):
            f.degree()
        return
    low, high = min(d), max(d)
    assert (f.low_degree(), f.degree()) == (low, high)
    dense = [d.get(e, 0) for e in range(low, high + 1)]
    assert (f._low, f._coeffs) == (low, tuple(dense))
    padded = LaurentPoly._from_dense(low - lead, [0] * lead + dense + [0] * trail)
    canon, sign, shift = normalize(f)
    assert (sign, shift) == ((1 if d[low] > 0 else -1), low)
    assert canon.terms == _sorted_terms((e - low, sign * v) for e, v in d.items())
    assert shifted(f, -low).evaluate(x) == sum(v * x ** (e - low) for e, v in d.items())
    # equal values have equal fields and hashes whichever constructor built them
    for g in (padded, parse_poly(str(f)), poly_from_coeffs(dense, low),
              LaurentPoly(f.terms), -(-f), shifted(shifted(f, k), -k), f + ZERO,
              ONE * f, sign * shifted(canon, shift), exact_div(f * f, f)):
        assert g == f and hash(g) == hash(f)
        assert (g._low, g._coeffs) == (f._low, f._coeffs)


# -- printing / parsing -------------------------------------------------------

def test_canonical_text_form():
    assert str(P("1 - 3*t^3 + t^6")) == "1 - 3*t^3 + t^6"
    assert str(LaurentPoly([(-2, 1), (1, 1)])) == "t^-2 + t"
    assert str(ZERO) == "0"
    assert str(LaurentPoly([(0, -1), (3, 1)])) == "-1 + t^3"


def test_parse_rejects_garbage():
    for bad in ("", "t^", "q + 1", "1 +", "2**t"):
        with pytest.raises(ValueError):
            parse_poly(bad)


@given(small_polys)
@settings(max_examples=300, deadline=None)
def test_round_trip_bit_exact(f):
    text = str(f)
    assert parse_poly(text) == f
    assert str(parse_poly(text)) == text


# -- normalize ----------------------------------------------------------------

def test_normalize_examples():
    assert normalize(P("-t^2 + t^5")) == (P("1 - t^3"), -1, 2)
    assert normalize(P("1 - t^3")) == (P("1 - t^3"), 1, 0)
    # t^-3 - 1 = (+1) * t^-3 * (1 - t^3); the lowest coefficient is +1
    assert normalize(P("t^-3 - 1")) == (P("1 - t^3"), 1, -3)
    assert normalize(P("-t^-3 + 1")) == (P("1 - t^3"), -1, -3)


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        normalize(ZERO)


@given(small_polys.filter(lambda f: not f.is_zero()))
@settings(max_examples=200, deadline=None)
def test_normalize_unit_faithful_and_idempotent(f):
    can, sign, shift = normalize(f)
    assert (sign * shifted(can, shift)) == f
    assert normalize(can) == (can, 1, 0)


# -- exact division -----------------------------------------------------------

def test_exact_div_examples():
    assert exact_div(P("1 - t^3"), P("1 - t")) == P("1 + t + t^2")
    assert exact_div(P("1 - t^3"), P("1 - t^2")) is None
    f = P("1 - t + t^2") * P("1 - t^3")
    assert exact_div(f, P("1 - t + t^2")) == P("1 - t^3")


def test_exact_div_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ZERO)


@given(small_polys, small_polys.filter(lambda g: not g.is_zero()))
@settings(max_examples=300, deadline=None)
def test_exact_div_inverts_multiplication(f, g):
    assert exact_div(f * g, g) == f


def test_exact_div_integer_content():
    assert exact_div(P("2 + 2*t"), P("2")) == P("1 + t")
    assert exact_div(P("1 + t"), P("2")) is None


# -- support test -------------------------------------------------------------

def test_supported_on_multiples():
    assert supported_on_multiples(P("4 + 7*t^3 + 4*t^6"), 3)
    assert not supported_on_multiples(P("1 + t"), 3)
    assert supported_on_multiples(P("5"), 7)
    assert supported_on_multiples(ZERO, 2)


def test_equal_up_to_unit():
    assert canonical(P("-t^2 + t^5")) == canonical(P("t^-3 - 1"))
    assert canonical(P("1 + t")) != canonical(P("1 - t"))


# -- determinants -------------------------------------------------------------

def rand_matrix(rng, dim):
    return from_entries(
        [[rand_poly(rng, max_terms=2, deg_lo=-2, deg_hi=2, coef=3)
          for _ in range(dim)] for _ in range(dim)]
    )


def test_det_identity():
    for dim in (1, 2, 3, 5, 8):
        assert PolyMatrix.identity(dim).det() == ONE


def test_det_2x2():
    m = from_entries([[P("t"), ONE], [ONE, P("t")]])
    assert m.det() == P("-1 + t^2")


def test_det_multiplicative():
    rng = random.Random(7)
    for dim in (2, 3):
        for _ in range(25):
            a, b = rand_matrix(rng, dim), rand_matrix(rng, dim)
            assert (a * b).det() == a.det() * b.det()


def test_det_algorithms_agree():
    rng = random.Random(11)
    for dim in range(1, 10):
        for _ in range(8 if dim <= 6 else 2):
            m = rand_matrix(rng, dim)
            assert m.det() == det_bareiss(m)


def test_det_matches_bareiss_up_to_dim_9():
    rng = random.Random(29)
    for dim in (7, 8, 9):
        for _ in range(2):
            m = from_entries([[rand_poly(rng, deg_lo=0, deg_hi=6) for _ in range(dim)]
                              for _ in range(dim)])
            assert m.det() == det_bareiss(m)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_det_matches_bareiss_property(data):
    dim = data.draw(st.integers(1, 6))
    entry = st.lists(st.tuples(st.integers(-6, 6), st.integers(-10**6, 10**6)),
                     max_size=3).map(LaurentPoly)
    m = from_entries([[data.draw(entry) for _ in range(dim)] for _ in range(dim)])
    assert m.det() == det_bareiss(m)


def test_det_reads_coefficients_at_the_bound():
    # c_i t^(d_i) on the diagonal: the one coefficient of the determinant
    # is +-prod |c_i|, which is the bound itself
    rng = random.Random(43)
    for dim in range(2, 7):
        for _ in range(10):
            coeffs = [rng.choice((1, -1)) * rng.randint(10**5, 10**9) for _ in range(dim)]
            if rng.random() < 0.5:   # the bound one below a power of two
                coeffs[0] = rng.choice((1, -1)) * (2**rng.randint(20, 70) - 1)
                coeffs[1:] = [rng.choice((1, -1)) for _ in coeffs[1:]]
            degrees = [rng.randint(-6, 6) for _ in range(dim)]
            rows = [[ZERO] * dim for _ in range(dim)]
            for i, (c, d) in enumerate(zip(coeffs, degrees)):
                rows[i][i] = LaurentPoly([(d, c)])
            m = from_entries(rows)
            expected = LaurentPoly([(sum(degrees), math.prod(coeffs))])
            assert m.det() == expected == det_bareiss(m)


def test_readback_at_the_bound():
    # a coefficient equal to the bound reads back; one above it, or a value
    # left after the last digit, raises; long values are read in halves
    rng = random.Random(47)
    for i in range(90):
        bound = rng.randint(1, 2**rng.randint(1, 80))
        shift = (4 * bound).bit_length()
        digits = rng.randint(1, 6) if i % 3 == 0 else rng.randint(100, 700)
        low = rng.randint(-5, 5)
        coeffs = [rng.randint(-bound, bound) for _ in range(digits)]
        at = rng.randrange(digits)
        coeffs[at] = rng.choice((1, -1)) * bound
        value = sum(c << shift * i for i, c in enumerate(coeffs))
        assert kronecker_readback(value, shift, bound, digits, low) == \
            poly_from_coeffs(coeffs, low)
        beyond = value + (1 << shift * at if coeffs[at] > 0 else -1 << shift * at)
        with pytest.raises(ExactnessError, match="exceeds its proven bound"):
            kronecker_readback(beyond, shift, bound, digits, low)
        with pytest.raises(ExactnessError, match="exceeds its proven degree bound"):
            kronecker_readback(value + (1 << shift * digits), shift, bound, digits, low)


def _readback_digit_by_digit(value, shift, bound, digits, low):
    """The readback one digit at a time, each step shifting the whole rest."""
    mask, half = (1 << shift) - 1, 1 << (shift - 1)
    coeffs = []
    for _ in range(digits):
        c = value & mask
        if c >= half:
            c -= 1 << shift
        if abs(c) > bound:
            raise ExactnessError("coefficient exceeds its proven bound")
        coeffs.append(c)
        value = (value - c) >> shift
    if value:
        raise ExactnessError("value exceeds its proven degree bound")
    return poly_from_coeffs(coeffs, low)


def _outcome(read, *args):
    try:
        return read(*args)
    except ExactnessError as e:
        return str(e)


def test_readback_matches_digit_by_digit_on_tampered_values():
    rng = random.Random(53)
    for i in range(400):
        bound = rng.randint(1, 2**rng.randint(1, 90))
        shift = (4 * bound).bit_length()
        digits = rng.randint(1, 400)
        value = sum(rng.randint(-bound, bound) << shift * j for j in range(digits))
        kind = i % 4
        if kind == 1:     # one digit moved, perhaps past the bound or the end
            value += rng.choice((1, -1)) * rng.randint(1, 4 * bound) \
                << shift * rng.randrange(digits + 2)
        elif kind == 2:   # noise in every digit and beyond
            value += rng.randint(-2**(shift * digits + 9), 2**(shift * digits + 9))
        elif kind == 3:
            value = rng.randint(-2**(shift * digits + shift), 2**(shift * digits + shift))
        args = (value, shift, bound, digits, rng.randint(-5, 5))
        assert _outcome(kronecker_readback, *args) == \
            _outcome(_readback_digit_by_digit, *args)


# -- products: the schoolbook loop against Kronecker substitution ----------------

_coefficients = st.one_of(st.integers(-9, 9), st.just(0),
                          st.integers(-2**70, 2**70), st.integers(-3, 3).map(lambda c: c << 64))


@st.composite
def _product_operands(draw):
    """A polynomial of 0-48 coefficients from a degree in [-40, 40], dense,
    mostly zero, or supported on multiples of 3."""
    size = draw(st.integers(0, 48))
    coeffs = draw(st.lists(_coefficients, min_size=size, max_size=size))
    if draw(st.booleans()):
        coeffs = [c if j % 3 == 0 else 0 for j, c in enumerate(coeffs)]
    return poly_from_coeffs(coeffs, draw(st.integers(-40, 40)))


@given(_product_operands(), _product_operands())
@settings(max_examples=200, deadline=None)
def test_kronecker_product_matches_schoolbook(f, g):
    if f and g:
        expected = exactalg._schoolbook_product(f, g)
        assert exactalg._kronecker_product(f, g) == expected
        assert f * g == g * f == expected
    else:
        assert f * g == ZERO


def test_kronecker_product_split_pack_matches_schoolbook():
    # operands longer than the direct pack, so that each is packed by
    # halves: zero runs (also across a split point), negative coefficients
    # and coefficients far wider than the shift of a small neighbour
    rng = random.Random(61)
    split = exactalg._DIRECT_DIGITS
    choices = (0, 0, 1, -1, 2**200 + 1, -(2**150), -7)
    for n, m in ((split + 1, split + 1), (2 * split, 3 * split + 5), (500, 77), (1001, 1000)):
        for _ in range(3):
            a = [rng.choice(choices) * rng.randint(1, 9) for _ in range(n)]
            b = [rng.randint(-(2**64), 2**64) for _ in range(m)]
            a[0] = a[-1] = b[0] = b[-1] = -3
            a[n // 4:n // 2 + 3] = [0] * (n // 2 + 3 - n // 4)
            f, g = poly_from_coeffs(a, -5), poly_from_coeffs(b, 2)
            expected = exactalg._schoolbook_product(f, g)
            assert exactalg._kronecker_product(f, g) == expected
            assert exactalg._kronecker_product(g, f) == expected


def test_product_crossover(monkeypatch):
    # dense 16 x 16 and wider go through Kronecker substitution; small
    # operands, and a long polynomial times a short one, through the loop
    calls = []
    genuine = exactalg._kronecker_product
    monkeypatch.setattr(exactalg, "_kronecker_product",
                        lambda f, g: calls.append(1) or genuine(f, g))
    rng = random.Random(59)
    for sizes, kronecker in (((16, 16), True), ((40, 120), True), ((5, 5), False),
                             ((400, 4), False), ((1, 500), False)):
        f, g = (poly_from_coeffs([rng.randint(1, 9) for _ in range(n)], -3) for n in sizes)
        calls.clear()
        assert f * g == exactalg._schoolbook_product(f, g)
        assert calls == ([1] if kronecker else []), sizes


# -- the series format against entrywise arithmetic --------------------------
# The oracles are the entrywise operations PolyMatrix had when it stored a
# grid of LaurentPoly entries.

def _entrywise_combine(a, b, sign):
    return tuple(tuple(x + y if sign > 0 else x - y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def _entrywise_mul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        new_row = []
        for col in cols:
            acc = ZERO
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def rand_sparse_matrix(rng, dim):
    """Entries with negative degrees, gaps between degrees, and zeros."""
    def entry():
        if rng.random() < 0.3:
            return ZERO
        return rand_poly(rng, max_terms=3, deg_lo=-6, deg_hi=6, coef=4)
    return [[entry() for _ in range(dim)] for _ in range(dim)]


def test_poly_matrix_arithmetic_matches_entrywise():
    rng = random.Random(31)
    for dim in (1, 2, 3, 4, 5):
        for _ in range(30):
            ea, eb = rand_sparse_matrix(rng, dim), rand_sparse_matrix(rng, dim)
            a, b = from_entries(ea), from_entries(eb)
            assert a.entries() == tuple(map(tuple, ea))
            assert (a + b).entries() == _entrywise_combine(ea, eb, 1)
            assert (a - b).entries() == _entrywise_combine(ea, eb, -1)
            assert (a * b).entries() == _entrywise_mul(ea, eb)
            assert (-a).entries() == tuple(tuple(-x for x in row) for row in ea)
            assert (3 * a).entries() == tuple(tuple(3 * x for x in row) for row in ea)
            assert a * 0 == a - a == PolyMatrix({}, dim)
            assert a + b == b + a and hash(a + b) == hash(b + a)
            assert a == from_entries(ea) and hash(a) == hash(from_entries(ea))
            # the same value from a reversed dict and from pairs that repeat
            # degrees: a = (a + b) + (-b)
            rev = PolyMatrix(dict(reversed(list(a.series.items()))), dim)
            split = PolyMatrix(list((a + b).series.items())
                               + [(d, mat_neg(m)) for d, m in b.series.items()], dim)
            assert rev == a == split and hash(rev) == hash(a) == hash(split)
            for d in range(-14, 15):
                assert a.series.get(d, zeros(dim)) == \
                    tuple(tuple(x.coeff(d) for x in row) for row in ea)
    # zero products: a column times a disjoint row, and a nilpotent square
    e = [[ZERO] * 3 for _ in range(3)]
    e[0][0] = P("t^-2 + 5*t^3")
    f = [[ZERO] * 3 for _ in range(3)]
    f[1][2] = P("-t^4")
    assert (from_entries(e) * from_entries(f)).series == {}
    assert _entrywise_mul(e, f) == PolyMatrix({}, 3).entries()
    n = PolyMatrix({-1: ((0, 1, 0), (0, 0, 1), (0, 0, 0))}, 3)
    assert (n * n).series == {-2: ((0, 0, 1), (0, 0, 0), (0, 0, 0))}
    assert (n * n * n).series == {}
    assert PolyMatrix.identity(4).entries() == tuple(
        tuple(ONE if i == j else ZERO for j in range(4)) for i in range(4))
    assert PolyMatrix.monomial(((0, 0), (0, 0)), 5) == PolyMatrix({}, 2)


def test_blocks_match_entrywise_assembly():
    rng = random.Random(37)
    for size, count in ((1, 3), (2, 2), (3, 2), (2, 3)):
        grid = [[from_entries(rand_sparse_matrix(rng, size)) for _ in range(count)]
                for _ in range(count)]
        grid[0][-1] = PolyMatrix({}, size)
        big = block_matrix(grid)
        assert big.dim == size * count
        expected = tuple(
            tuple(e for blk in brow for e in blk.entries()[i])
            for brow in grid for i in range(size))
        assert big.entries() == expected
    with pytest.raises(ValueError):
        block_matrix([])


def test_det_matches_bareiss_with_row_shifts(monkeypatch):
    calls = []

    def counting_int_det(a):
        calls.append(len(a))
        return int_det(a)

    monkeypatch.setattr(exactalg, "int_det", counting_int_det)
    rng = random.Random(41)
    for dim in range(1, 10):
        for gaps in (False, True):
            rows = []
            for _ in range(dim):
                shift = rng.randint(-5, 5)   # a different lowest degree per row
                row = []
                for _ in range(dim):
                    f = rand_poly(rng, max_terms=3, deg_lo=0, deg_hi=4, coef=5)
                    if gaps:                 # supported on multiples of 3
                        f = LaurentPoly((3 * d, c) for d, c in f.terms)
                    row.append(shifted(f, shift))
                if all(e.is_zero() for e in row):
                    row[0] = LaurentPoly([(shift, 1)])
                rows.append(row)
            m = from_entries(rows)
            calls.clear()
            assert m.det() == det_bareiss(m)
            assert calls == ([dim] if dim > 1 else [])   # a 1x1 is its entry
            rows[rng.randrange(dim)] = [ZERO] * dim
            m = from_entries(rows)
            calls.clear()
            assert m.det() == ZERO == det_bareiss(m)
            assert calls == []


def test_det_rejects_tampered_int_det(monkeypatch):
    genuine = exactalg.int_det
    monkeypatch.setattr(exactalg, "int_det", lambda a: genuine(a) + (1 << 4096))
    rng = random.Random(47)
    for dim in (2, 3, 5, 8):
        # t^7 on the diagonal keeps every row nonzero
        m = rand_matrix(rng, dim) + PolyMatrix.monomial(identity(dim), 7)
        with pytest.raises(ExactnessError):
            m.det()


def test_det_zero_row_and_singular():
    z = from_entries([[ZERO, ZERO], [ONE, P("t")]])
    assert z.det() == ZERO
    sing = from_entries([[ONE, ONE], [ONE, ONE]])
    assert det_bareiss(sing) == ZERO
    assert sing.det() == ZERO


def leibniz_det(a):
    """The determinant as the signed sum over all permutations."""
    total = 0
    for perm in itertools.permutations(range(len(a))):
        term = (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2))
        for row, col in zip(a, perm):
            term *= row[col]
        total += term
    return total


@st.composite
def int_matrices(draw):
    """1x1 to 4x4 integer matrices: the cofactor form's sizes and Bareiss'
    smallest, with zero entries (and so zero pivots), small entries, entries
    of about 4000 bits, and repeated rows."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(-2, 2),
                      st.integers(-2**4000, 2**4000), st.integers(2**3990, 2**4000))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = rows[0]
    return tuple(map(tuple, rows))


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_int_det_matches_leibniz(a):
    assert int_det(a) == leibniz_det(a)


# -- kronecker_det: the one evaluated determinant ------------------------------

@st.composite
def kronecker_args(draw):
    """kronecker_det's arguments: 1-3 block rows of 1-4 rows, whose terms sit
    at any column offset, repeat an earlier term's column and degrees, or
    cancel it, and may leave rows zero."""
    dim, count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    size = count * dim
    matrices = st.dictionaries(
        st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
        st.integers(-5, 4).map(lambda v: v if v < 0 else v + 1), max_size=dim * dim)
    block_rows = []
    for i in range(count):
        terms = []
        if draw(st.integers(0, 3)):   # a diagonal, so that many matrices are regular
            degree, count = draw(st.integers(-4, 4)), draw(st.sampled_from((1, -2)))
            terms.append((i * dim, {degree: count}, [(w, w, 1) for w in range(dim)]))
        for _ in range(draw(st.integers(0, 4))):
            if terms and draw(st.booleans()):
                col, counts, entries = draw(st.sampled_from(terms))
                if draw(st.booleans()):   # cancels the earlier term
                    terms.append((col, {d: -c for d, c in counts.items()}, entries))
                    continue
                counts = {d: draw(st.integers(-3, 3)) for d in counts}
            else:
                col = draw(st.integers(0, size - dim))
                counts = draw(st.dictionaries(st.integers(-4, 4), st.integers(-3, 3),
                                              max_size=3))
            entries = [(w, u, v) for (w, u), v in draw(matrices).items()]
            terms.append((col, counts, entries))
        block_rows.append(terms)
    return block_rows, dim


@given(kronecker_args())
@settings(max_examples=300, deadline=None)
def test_kronecker_det_matches_bareiss(args):
    block_rows, dim = args
    assert kronecker_det(block_rows, dim) == det_bareiss(block_row_matrix(block_rows, dim))


def test_kronecker_det_wide_counts_match_bareiss():
    # counts with more keys than the direct pack: more nonzero ones (packed
    # by halves, with zero runs and negative counts), few nonzero ones
    # among many zeros (term by term), and none nonzero at all
    rng = random.Random(71)
    split = exactalg._DIRECT_DIGITS
    wide = {d: rng.choice((0, 1, -1, 3, -2)) for d in range(-40, 3 * split)}
    wide.update({-40: 1, 3 * split - 1: -1, **{d: 0 for d in range(10, 30)}})
    sparse = {d: (d % 17 == 0) - (d % 23 == 0) for d in range(2 * split)}
    silent = {d: 0 for d in range(-5, 2 * split)}
    assert sum(map(bool, wide.values())) > split >= sum(map(bool, sparse.values())) > 0
    for counts in (wide, sparse, silent):
        value = exactalg._counts_value(counts, -41, 7)
        assert value == sum(c << 7 * (d + 41) for d, c in counts.items())
    block_rows = [[(0, wide, [(0, 0, 1), (1, 1, -1)]), (2, {0: 1, 5: -2}, [(0, 1, 2)]),
                   (2, silent, [(1, 0, 1)])],
                  [(0, sparse, [(0, 1, 1), (1, 0, 1)]), (2, {1: 1}, [(0, 0, 1), (1, 1, 1)])]]
    assert kronecker_det(block_rows, 2) == det_bareiss(block_row_matrix(block_rows, 2))
    assert not kronecker_det(block_rows, 2).is_zero()


def test_determinant_policy_exists_once():
    # one choice of B (kronecker_shift) and one readback, shared by the
    # determinant (kronecker_det), the product (_kronecker_product) and
    # the recursion (twinring.twisted_from_form, through evaluated_det);
    # int_det is called only by evaluated_det, and resultant, the
    # obstruction's oracle, is defined and called only in oracles
    call = re.compile(r"(?<!def )\b(int_det|kronecker_readback|kronecker_shift|"
                      r"evaluated_det)\(|\.bit_length\(\)")
    package = Path(exactalg.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        if path.name not in ("exactalg.py", "oracles.py"):
            calls = sorted(m.group(0) for m in call.finditer(path.read_text()))
            assert calls == (["evaluated_det(", "kronecker_shift("]
                             if path.name == "twinring.py" else []), path.name
        if path.name != "oracles.py":
            assert not re.search(r"\bresultant\(", path.read_text()), path.name

    def found(obj):
        return sorted(m.group(0) for m in call.finditer(inspect.getsource(obj)))

    assert found(twinring.twisted_from_form) == ["evaluated_det(", "kronecker_shift("]
    assert found(exactalg.kronecker_shift) == [".bit_length()"]
    assert found(exactalg.evaluated_det) == ["int_det(", "kronecker_readback("]
    assert found(exactalg.kronecker_det) == ["evaluated_det(", "kronecker_shift("]
    assert found(exactalg._kronecker_product) == ["kronecker_readback(", "kronecker_shift("]
    assert found(exactalg) == sorted(
        found(exactalg.kronecker_shift) + found(exactalg.evaluated_det)
        + found(exactalg.kronecker_det) + found(exactalg._kronecker_product))


# -- resultants ---------------------------------------------------------------

def test_resultant_linear_is_evaluation():
    rng = random.Random(3)
    for _ in range(40):
        a = rng.randint(-6, 6)
        g = poly_from_coeffs([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.choice([1, -1])])
        lin = P(f"t") - LaurentPoly([(0, a)])
        # res(t - a, g) = g(a)
        assert resultant(lin, g) == g.evaluate(a)


def test_resultant_multiplicative():
    rng = random.Random(5)
    for _ in range(30):
        def rp():
            return poly_from_coeffs(
                [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.choice([1, -1, 2])])
        f1, f2, g = rp(), rp(), rp()
        assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g)


def sylvester_resultant(f, g):
    """Res(f, g) as the determinant of the Sylvester matrix, f rows first."""
    m, n = f.degree(), g.degree()
    if m == 0 or n == 0:
        return f.coeff(0) ** n if m == 0 else g.coeff(0) ** m
    fc = [f.coeff(d) for d in range(m, -1, -1)]
    gc = [g.coeff(d) for d in range(n, -1, -1)]
    rows = [[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
    return int_det(tuple(map(tuple, rows)))


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(11)

    def rp(max_deg, lead):
        return poly_from_coeffs(
            [rng.randint(-7, 7) for _ in range(rng.randint(0, max_deg))] + [lead])

    cyclotomics = [poly_from_coeffs(cyclotomic_coeffs(n))
                   for n in (3, 4, 5, 6, 7, 9, 12)]
    pairs = []
    for _ in range(150):
        f = rp(14, rng.choice([1, -1, 2, -3, 5]))
        pairs.append((f, rp(5, 1)))                           # monic g
        pairs.append((f, rp(5, rng.choice([-1, 2, -4, 3]))))  # non-monic g
        pairs.append((f, rng.choice(cyclotomics)))
    for phi in cyclotomics:
        h = poly_from_coeffs([rng.randint(-7, 7) for _ in range(rng.randint(1, 6))]
                             + [rng.choice([1, -2])])
        pairs.append((h * phi, phi))                                  # zero remainder
        pairs.append((h * phi + LaurentPoly([(0, rng.randint(2, 9))]), phi))  # constant
    for f, g in pairs:
        assert resultant(f, g) == sylvester_resultant(f, g)
        assert resultant(g, f) == sylvester_resultant(g, f)
    assert any(resultant(f, g) == 0 for f, g in pairs)


def test_resultant_trefoil_cyclotomic():
    # product of (1 - t + t^2) over the primitive cube roots of unity is 4
    assert resultant(P("1 + t + t^2"), P("1 - t + t^2")) == 4


def test_module_doctests():
    # every module of the package, including the oracles'
    attempted = {}
    for path in sorted(Path(exactalg.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"metatap.{path.stem}")
        results = doctest.testmod(module)
        assert results.failed == 0, path.stem
        attempted[path.stem] = results.attempted
    assert attempted["exactalg"] >= 9 and attempted["oracles"] >= 2
