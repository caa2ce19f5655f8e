"""Twisted Alexander polynomials: the determinant-ratio pipeline and the
factorization verdicts."""

import random

import pytest

from metatap.exactalg import ZERO, canonical, equal_up_to_unit, exact_div, parse_poly
from metatap.golden import A4_3DIM, phi_value
from metatap.groupcalc import GroupRingElem, Word, fox_derivative, fox_images
from metatap.knotdata import presentation
from metatap.metabelian import (
    a4_group,
    a4_irreducible_rep,
    build_group,
    perm_rep,
    trivial_rep,
)
from metatap.twisted import (
    _series_to_matrix,
    check_a4_form,
    check_factorization,
    phi_map,
    standard_assignment,
    twisted_alexander,
)
from metatap.twobridge import (
    FractionR,
    alexander_poly,
    enumerate_fractions,
    two_bridge_alexander,
    wirtinger_presentation,
)

P = parse_poly
ONE_MINUS_T = P("1 - t")


def a4_rho3(r: FractionR):
    p = wirtinger_presentation(r)
    return p, a4_irreducible_rep(standard_assignment(a4_group(), p), p)


# -- phi_map ------------------------------------------------------------------

def test_phi_map_identity():
    p, rho = a4_rho3(FractionR(1, 3))
    m = phi_map(GroupRingElem.one(), rho)
    assert m.rows[0][0] == P("1")
    assert m.rows[0][1] == ZERO


def test_phi_map_generator_grading():
    p, rho = a4_rho3(FractionR(1, 3))
    m = phi_map(GroupRingElem.of(Word([1])), rho)
    # image of x is the 3x3 matrix of xi0 times t
    assert m.rows[0][0] == P("-t")
    assert m.rows[0][1] == P("t")
    assert m.rows[2][2] == P("t")


def test_phi_map_trivial_rep():
    p = wirtinger_presentation(FractionR(1, 3))
    rho = trivial_rep(p)
    e = GroupRingElem.of(Word([1])) - GroupRingElem.one()
    m = phi_map(e, rho)
    assert m.rows[0][0] == P("-1 + t")


def test_phi_map_multiplicative():
    p, rho = a4_rho3(FractionR(1, 3))
    rng = random.Random(13)
    for _ in range(60):
        u = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 6))])
        v = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 6))])
        lhs = phi_map(GroupRingElem.of(u * v), rho)
        rhs = phi_map(GroupRingElem.of(u), rho) * phi_map(GroupRingElem.of(v), rho)
        assert lhs == rhs


def test_fused_fox_images_match_phi_of_derivative():
    for r in (FractionR(1, 3), FractionR(3, 5), FractionR(5, 27)):
        p, rho = a4_rho3(r)
        rel = p.relators[0]
        tables = fox_images(rel, rho.images, rho.inv_images, rho.dim)
        for gen in (1, 2):
            direct = phi_map(fox_derivative(rel, gen), rho)
            fused = _series_to_matrix(tables.get(gen, {}), rho.dim)
            assert direct == fused


# -- twisted invariants -------------------------------------------------------

def test_trefoil_three_dim():
    p, rho = a4_rho3(FractionR(1, 3))
    res = twisted_alexander(p, rho)
    assert res.invariant == P("1 - t^3")


def test_trefoil_trivial_rep_is_ratio():
    p = wirtinger_presentation(FractionR(1, 3))
    res = twisted_alexander(p, trivial_rep(p))
    assert res.invariant is None               # (1 - t + t^2)/(1 - t) is not polynomial
    assert res.numerator == P("1 - t + t^2")
    assert res.denominator == P("1 - t")


def test_trivial_rep_times_one_minus_t_is_alexander():
    for r in enumerate_fractions(99):
        p = wirtinger_presentation(r)
        res = twisted_alexander(p, trivial_rep(p))
        assert res.times_poly(ONE_MINUS_T) == alexander_poly(p)


def test_k15_sixteen_dim():
    r = FractionR(1, 5)
    p = wirtinger_presentation(r)
    g = build_group(5, 2)
    rho = perm_rep(standard_assignment(g, p), g, p)
    res = twisted_alexander(p, rho)
    delta = two_bridge_alexander(r)
    gold = exact_div(delta * phi_value("1/5", "M(5|2,4)"), ONE_MINUS_T)
    assert equal_up_to_unit(res.invariant, gold)


def test_column_choice_independence():
    inputs = [
        (wirtinger_presentation(FractionR(5, 27)), None, a4_group()),
        (presentation("8_5"), {"x": "s", "y": "s b1", "z": "s"}, a4_group()),
        (presentation("10_159"), {"x": "s", "y": "s b1 b4", "z": "s b1"},
         build_group(5, 2)),
    ]
    for p, assign, group in inputs:
        if assign is None:
            images = standard_assignment(group, p)
        else:
            images = {k: group.parse_elem(v) for k, v in assign.items()}
        rho = perm_rep(images, group, p)
        results = [twisted_alexander(p, rho, delete=g) for g in p.generators]
        for a in results:
            for b in results:
                assert a.ratio_equals(b)
                if a.invariant is not None and b.invariant is not None:
                    assert a.invariant == b.invariant


def test_splitting_identity_two_bridge():
    # 4-dim permutation invariant = [Delta/(1-t)] * 3-dim invariant
    g = a4_group()
    for frac in ("1/3", "1/9", "5/27", "11/27"):
        r = FractionR.parse(frac)
        p = wirtinger_presentation(r)
        images = standard_assignment(g, p)
        inv4 = twisted_alexander(p, perm_rep(images, g, p)).invariant
        inv3 = twisted_alexander(p, a4_irreducible_rep(images, p)).invariant
        delta = two_bridge_alexander(r)
        assert equal_up_to_unit(inv4 * ONE_MINUS_T, delta * inv3)


# -- verdicts -----------------------------------------------------------------

def test_check_factorization_golden():
    r = FractionR(5, 27)
    p = wirtinger_presentation(r)
    g = a4_group()
    rho = perm_rep(standard_assignment(g, p), g, p)
    res = twisted_alexander(p, rho)
    v = check_factorization(res.invariant, two_bridge_alexander(r), 3)
    assert v.holds
    assert v.phi == canonical(A4_3DIM["5/27"])


def test_check_factorization_counterfeit():
    delta = P("1 - t + t^2")
    fake = exact_div(delta * P("1 + t"), ONE_MINUS_T)
    assert fake is None
    # build the counterfeit as a ratio-correct but support-violating value
    fake = delta * P("1 + t")          # (1-t) * fake / delta = (1-t)(1+t)
    v = check_factorization(fake, delta, 3)
    assert not v.holds
    assert "degree" in v.details or "divide" in v.details


def test_check_factorization_inexact():
    # 1 - t + t^2 does not divide (1 + t^5)(1 - t)
    v = check_factorization(P("1 + t^5"), P("1 - t + t^2"), 3)
    assert not v.holds and v.phi is None
    # exact division but wrong support: (1 + t^3)(1 - t)/(1 - t + t^2) = 1 - t^2
    v2 = check_factorization(P("1 + t^3"), P("1 - t + t^2"), 3)
    assert not v2.holds and v2.phi == P("1 - t^2")


def test_check_a4_form():
    v = check_a4_form(FractionR(1, 9))
    assert v.holds and v.n == 3
    assert v.phi == canonical(A4_3DIM["1/9"])
    with pytest.raises(ValueError):
        check_a4_form(FractionR(1, 5))     # no A4 representation exists
