"""Acceptance suite: every golden value, the full sweep, and the property
batteries, each printing one PASS/FAIL line.

The golden values come from `metatap.golden`.  All polynomial comparisons
are exact equalities of unit-normalized canonical forms (invariants are
defined up to +-t^k).  Two recorded reference values for the 16-dimensional
invariants of 10_145 and 10_159 are asserted verbatim as strict xfails:
they are unattainable — every surjection onto M(5|2,4) yields one and the
same invariant, which differs from those records by a factor (1 - t^5)^4
(and one coefficient digit); the frozen computed values are asserted by
test_nonrational_16_dim_structure.
"""

import random
import time
from itertools import product

import pytest

from metatap.exactalg import canonical
from metatap.golden import (
    A4_3DIM, CONJUGATION, COSET_CYCLE_TYPES, PHI, TORUS, permutation_rep, phi_verdict,
    structure_checks, torus_prediction)
from metatap.groupcalc import Word
from metatap.intmat import identity, mat_add, mat_mul, mat_scale, mat_sub, zeros
from metatap.metabelian import (
    NotHomomorphismError,
    a4_group,
    build_group,
    cycle_type,
    group_from_name,
)
from metatap.oracles import (
    XINV_PLUS_YINV,
    XT,
    X_PLUS_Y,
    XYX,
    YT,
    GroupRingElem,
    PolyMatrix,
    TwinDecomp,
    fox_derivative,
    normalized_series,
    perm_matrix,
    twin_decompose,
    twin_determinant,
    twisted_alexander_tables,
    vector_mul,
    yx_geometric,
)
from metatap.twisted import twisted_alexander
from metatap.twinring import X, XINV, XINV_YINV, Y, YINV, YX, twisted_from_form
from metatap.twobridge import (
    H3Form,
    enumerate_fractions,
    h3_expand,
)

from matrix_helpers import block_reps, mat_pow


def a4_phi(frac: str):
    """phi of the standard assignment's block path onto A4: the 3-dim
    twisted polynomial, since the 4-dim permutation representation is the
    trivial one plus the 3-dim one."""
    return phi_verdict(*permutation_rep(frac, a4_group()), 3).phi


def report(label):
    print(f"ACCEPTANCE {label}: PASS")


def golden_cases(group, bundled=False):
    """The table's phi entries over `group`, for 2-bridge or bundled knots."""
    return [e for e in PHI if e.group == group and ("/" not in e.source) == bundled]


def assert_phi(entries):
    for entry in entries:
        t0 = time.monotonic()
        v = entry.verdict()
        elapsed = time.monotonic() - t0
        assert v.holds, f"support test failed for {entry.label}"
        assert v.phi == canonical(entry.value), entry.label
        if entry.budget_s is not None:
            assert elapsed < entry.budget_s, \
                f"{entry.label} took {elapsed:.0f}s (budget {entry.budget_s:.0f}s)"


NINE_DIM = golden_cases("M(4|3,2)")
TWENTY_FIVE_DIM = golden_cases("M(3|5,2)")
REDUCIBLE = golden_cases("M(4|5,2)")
NONRATIONAL_A4 = golden_cases("A4", bundled=True)
SIXTEEN_DIM = golden_cases("M(5|2,4)", bundled=True)


def test_every_golden_entry_is_an_acceptance_case():
    sections = (TORUS, NINE_DIM, TWENTY_FIVE_DIM, REDUCIBLE, NONRATIONAL_A4,
                SIXTEEN_DIM)
    cases = sorted(e.label for section in sections for e in section)
    assert cases == sorted(e.label for e in PHI)


# -- 1: the displayed 3-dimensional products -----------------------------------

def test_two_bridge_a4_goldens():
    # the 3-dim character block on its own, and phi of the 4-dim blocks
    for frac, value in A4_3DIM.items():
        p, rho = permutation_rep(frac, a4_group())
        assert rho.dims == [1, 3]
        three = block_reps(rho)[1]
        assert twisted_alexander_tables(p, three).invariant == \
            canonical(value), frac
        assert a4_phi(frac) == canonical(value), frac
    report("displayed 3-dim twisted products")


# -- 2: base anchor -------------------------------------------------------------

def test_base_anchor():
    assert a4_phi("1/3") == canonical(A4_3DIM["1/3"])
    report("base anchor: 3-dim twisted of K(1/3) = 1 - t^3")


# -- 3: torus knots onto M(p|2,p-1) and the exponent formula ---------------------

def test_torus_knot_binary_targets():
    assert_phi(TORUS)
    # exponent formula m = 2^(p-2) - floor((2^(p-1) - 1)/p) at p = 3 and 5
    for entry in TORUS:
        n = group_from_name(entry.group).n
        assert canonical(torus_prediction(n)) == canonical(entry.value), entry.label
    report("torus knots K(1/3), K(1/5) onto M(p|2,p-1) + exponent formula")


# -- 4: the nine-dimensional values ----------------------------------------------

def test_nine_dim_values():
    assert_phi(NINE_DIM)
    report("nine-dimensional phi values for M(4|3,2)")


# -- 5: the 25-dimensional stress cases ------------------------------------------

def test_twenty_five_dim_values():
    assert_phi(TWENTY_FIVE_DIM)
    report("25-dimensional phi values for M(3|5,2) within time budget")


# -- 6: reducible companion matrix -----------------------------------------------

def test_reducible_companion_value():
    # F_5[T] is not a field: it has fewer than 5^2 - 1 units
    assert len(build_group(4, 5).units) == 16
    assert_phi(REDUCIBLE)
    report("K(5/9) onto M(4|5,2) despite reducible companion matrix")


# -- 7: non-rational knots --------------------------------------------------------

def test_nonrational_a4_values():
    assert_phi(NONRATIONAL_A4)
    report("non-rational knots 8_5 and 10_159 with the 4-dim A4 target")


@pytest.mark.parametrize("entry", [
    pytest.param(e, id=e.source, marks=pytest.mark.xfail(
        strict=True,
        reason=f"recorded reference value is unattainable: every surjection of"
               f" the {e.source} group onto {e.group} yields the same invariant,"
               f" which differs from this record by {e.discrepancy}; the frozen"
               f" computed value is asserted by test_nonrational_16_dim_structure"))
    for e in PHI if e.recorded is not None])
def test_nonrational_m524_recorded_value(entry):
    phi = entry.verdict().phi
    if phi != canonical(entry.recorded):
        print(f"ACCEPTANCE {entry.source} 16-dim recorded value: FAIL (known "
              f"defect in the recorded value; frozen computed value is verified)")
    assert phi == canonical(entry.recorded)


def test_nonrational_16_dim_structure():
    """What is machine-checkable about the 16-dim cases holds: the
    factorization with t^5 support and the frozen computed values (the
    recorded values differ, see the xfail notes)."""
    assert_phi(SIXTEEN_DIM)
    report("16-dim factorization holds; frozen values verified (recorded "
           "values differ, see xfail notes)")


# -- 8: the alpha <= 99 sweep with cross-path equality ----------------------------

def test_h3_sweep_cross_path_alpha_99():
    members = 0
    for r in enumerate_fractions(99):
        form = h3_expand(r)
        if form is None:
            continue
        try:
            fox_value = a4_phi(str(r))
        except NotHomomorphismError:
            continue
        members += 1
        # t^3 support, and both computation paths agree
        assert all(d % 3 == 0 for d, _ in fox_value.terms), str(r)
        assert twisted_from_form(form) == fox_value, str(r)
    assert members >= 50
    print(f"ACCEPTANCE H(3) sweep alpha <= 99 ({members} members, "
          f"cross-path equal): PASS")


# -- 9: property batteries ---------------------------------------------------------

def test_properties_algebra_identities():
    I3, Z3 = identity(3), zeros(3)
    assert mat_pow(X, 3) == I3 and mat_pow(Y, 3) == I3
    assert mat_pow(mat_mul(X, Y), 3) == I3
    assert XYX == mat_mul(mat_mul(Y, X), Y)
    assert mat_pow(mat_mul(X, mat_pow(Y, 2)), 2) == I3
    assert XYX == mat_mul(mat_mul(XINV, YINV), XINV)
    assert mat_pow(X_PLUS_Y, 2) == Z3 and mat_pow(XINV_PLUS_YINV, 2) == Z3
    assert mat_mul(XYX, X_PLUS_Y) == mat_scale(-1, X_PLUS_Y) == mat_mul(X_PLUS_Y, XYX)
    assert mat_mul(XYX, XINV_PLUS_YINV) == mat_scale(-1, XINV_PLUS_YINV) \
        == mat_mul(XINV_PLUS_YINV, XYX)
    assert mat_add(mat_mul(X_PLUS_Y, XINV_PLUS_YINV),
                   mat_mul(XINV_PLUS_YINV, X_PLUS_Y)) == \
        mat_scale(2, mat_sub(I3, XYX))
    assert mat_add(mat_mul(X, Y), mat_mul(Y, X)) == mat_scale(-1, XINV_PLUS_YINV)
    assert mat_add(mat_mul(XINV, YINV), mat_mul(YINV, XINV)) == \
        mat_scale(-1, X_PLUS_Y)
    report("all nine constant-matrix identities")


def test_properties_twin_closure_200():
    rng = random.Random(2024)

    def rand_twin():
        a = {j: rng.randint(-4, 4) for j in range(-2, 3)}
        d = TwinDecomp(
            {j: rng.randint(-4, 4) for j in range(-2, 3)},
            {j: rng.randint(-4, 4) for j in range(-2, 3)},
            a, dict(a))
        return d.to_matrix()

    for _ in range(200):
        f, g = rand_twin(), rand_twin()
        twin_decompose(f * g)
        twin_decompose(f + g)
        twin_decompose(f - g)
    report("twin subring closure on 200 random pairs")


def test_properties_membership_families():
    one = PolyMatrix.identity(3)
    yinv_tinv = PolyMatrix.monomial(YINV, -1)
    for k in (0, 1, 2):
        checks = [
            yinv_tinv * ((one - YT) * yx_geometric(3 * k + 1) * YT
                         + PolyMatrix.monomial(mat_pow(YX, 3 * k + 2), 6 * k + 4))
            * (one - XT),
            yinv_tinv * (one - YT) * yx_geometric(3 * k + 2) * YT * (one - XT),
            yinv_tinv * ((one - YT) * yx_geometric(-(3 * k + 1)) * YT
                         - PolyMatrix.monomial(mat_pow(XINV_YINV, 3 * k + 1),
                                               -(6 * k + 2))) * (one - XT),
            yinv_tinv * (one - YT) * yx_geometric(-(3 * k + 3)) * YT
            * (one - XT),
        ]
        for i, f in enumerate(checks, start=1):
            twin_decompose(f)
    report("four membership families for k in {0, 1, 2}")


def test_properties_recursion_twin_and_closed_form():
    vals = (-3, -2, -1, 1, 2, 3)
    count = 0
    for q in (1, 2, 3):
        for ks in product(*([vals] * q)):
            for ms in product(*([vals] * (q - 1))):
                series = normalized_series(H3Form(ks, ms))
                decomp = twin_decompose(series)
                det = twin_determinant(decomp)
                assert det == series.det(), (ks, ms)
                assert all(d % 3 == 0 for d, _ in det.terms)
                count += 1
    print(f"ACCEPTANCE recursion series twin + closed-form determinant on "
          f"{count} forms: PASS")


def test_properties_fox_500_words():
    rng = random.Random(99)
    for _ in range(500):
        letters = [rng.choice([1, -1, 2, -2, 3, -3])
                   for _ in range(rng.randint(0, 12))]
        cut = rng.randint(0, len(letters))
        u, v = Word(letters[:cut]), Word(letters[cut:])
        w = u * v
        for g in (1, 2, 3):
            # product rule
            assert fox_derivative(w, g) == (
                fox_derivative(u, g)
                + fox_derivative(v, g).left_mul_word(u))
        # fundamental identity
        total = GroupRingElem.zero()
        for g in (1, 2, 3):
            total = total + fox_derivative(w, g) * (
                GroupRingElem.of(Word([g])) - GroupRingElem.one())
        assert total == GroupRingElem.of(w) - GroupRingElem.one()
    report("Fox product rule + fundamental identity on 500 random words")


def test_properties_column_independence_acceptance_inputs():
    # the 3-dim A4 blocks through the oracle's Fox tables, every golden
    # entry's character blocks through the production path
    inputs = []
    for frac in A4_3DIM:
        p, rho = permutation_rep(frac, a4_group())
        inputs.append((twisted_alexander_tables, p, block_reps(rho)[1]))
    inputs.extend((twisted_alexander, *entry.representation()) for entry in PHI)
    for twisted, p, rho in inputs:
        results = [twisted(p, rho, delete=name) for name in p.generators]
        first = results[0]
        for other in results[1:]:
            assert canonical(first.numerator * other.denominator) == \
                canonical(other.numerator * first.denominator)
            assert first.invariant == other.invariant
    report("deleted-column independence on all acceptance inputs")


def test_properties_perm_rep_homomorphism_200():
    rng = random.Random(7)
    for n, p_char in [(3, 2), (4, 3), (3, 5), (5, 2), (4, 5)]:
        g = build_group(n, p_char)
        for _ in range(200):
            a, b = rng.randrange(g.order()), rng.randrange(g.order())
            ab = vector_mul(g, a, b)
            assert mat_mul(perm_matrix(g, a), perm_matrix(g, b)) == perm_matrix(g, ab)
            q = g.character_matrix(a)
            assert mat_mul(q, g.character_matrix(b)) == g.character_matrix(ab)
            assert all(sum(1 for x in col if x) <= 2 for col in zip(*q))
    report("permutation and character representations are homomorphisms "
           "(200 random pairs per group)")


# -- 10: construction goldens for M(5|2,4) and the coset action -------------------

def vector_word(group, text):
    """The element index of a text, its tokens composed by the oracle's
    vector law instead of `parse_elem`'s index law."""
    out = 0
    for token in text.split():
        out = vector_mul(group, out, group.parse_elem(token))
    return out


def test_m524_structure_goldens():
    # the facts of golden's table as selftest checks them, and again with
    # the oracle's vector law and the permutation matrices
    assert all(ok for _, ok in structure_checks())
    name, pairs = CONJUGATION
    g = group_from_name(name)
    for lhs, rhs in pairs:
        assert vector_word(g, lhs) == vector_word(g, rhs)
    name, types = COSET_CYCLE_TYPES
    g = group_from_name(name)
    for text, want in types:
        assert cycle_type([row.index(1) for row in perm_matrix(g, vector_word(g, text))]) \
            == want
    report("M(5|2,4) conjugation relations + M(4|3,2) coset cycle types")
