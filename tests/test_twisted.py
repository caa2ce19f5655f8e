"""Twisted Alexander polynomials: the determinant-ratio pipeline and the
factorization verdicts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatap import twisted
from metatap.exactalg import (
    ONE, ZERO, ExactnessError, LaurentPoly, canonical, exact_div, parse_poly)
from metatap.golden import A4_3DIM, PHI, STANDARD, phi_value
from metatap.groupcalc import Presentation, Word, fox_determinant, parse_presentation
from metatap.intmat import identity, mat_inverse, mat_mul
from metatap.knotdata import BUNDLED, presentation
from metatap.characters import Representation, representation_blocks, support_blocks
from metatap.metabelian import (
    MetaGroup,
    NotHomomorphismError,
    a4_group,
    build_group,
    find_homs,
    group_from_name,
    obstruction_passes,
)
from metatap.oracles import (
    GroupRingElem,
    PolyMatrix,
    det_bareiss,
    fox_derivative,
    fox_images,
    fox_jacobian,
    fox_tables,
    group_word_image,
    perm_rep,
    phi_generator_minus_one,
    check_factorization,
    check_homomorphism,
    phi_map,
    trivial_rep,
    normalized_series,
    recursion_series,
    twisted_alexander_tables,
    vector_inv,
)
from metatap.twisted import (
    TwistedResult,
    _denominator,
    block_verdict,
    twisted_alexander,
)
from metatap.twobridge import (
    FractionR,
    alexander_poly,
    enumerate_fractions,
    h3_expand,
    wirtinger_presentation,
)

from matrix_helpers import (
    assigned_blocks, block_reps, generator_images, same_ratio, xi0_rep)

P = parse_poly
ONE_MINUS_T = P("1 - t")


def a4_rho3(r: FractionR):
    p, rho = assigned_blocks(str(r), a4_group())
    return p, xi0_rep(generator_images(rho), a4_group())


# -- phi_map ------------------------------------------------------------------

def test_phi_map_identity():
    p, rho = a4_rho3(FractionR(1, 3))
    m = phi_map(GroupRingElem.one(), rho).entries()
    assert m[0][0] == P("1")
    assert m[0][1] == ZERO


def test_phi_map_generator_grading():
    p, rho = a4_rho3(FractionR(1, 3))
    m = phi_map(GroupRingElem.of(Word([1])), rho).entries()
    # image of x is twinring.X times t
    assert m[0][0] == P("-t")
    assert m[0][1] == P("t")
    assert m[2][2] == P("t")


def test_phi_map_trivial_rep():
    p = wirtinger_presentation(FractionR(1, 3))
    rho = trivial_rep(p)
    e = GroupRingElem.of(Word([1])) - GroupRingElem.one()
    m = phi_map(e, rho).entries()
    assert m[0][0] == P("-1 + t")


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
            assert direct == tables[gen]
            assert direct.entries() == tables[gen].entries()


def _per_entry_matrix(series, dim):
    """The entries the series format replaces: one LaurentPoly per entry,
    from its (degree, coefficient) terms."""
    return tuple(tuple(LaurentPoly((deg, m[i][j]) for deg, m in series.items())
                       for j in range(dim)) for i in range(dim))


def _series_test_reps():
    """(presentation, matrix representation) for the trivial, xi0, character
    block and perm_rep representations of two knot groups."""
    out = []
    for frac, group in (("5/27", a4_group()), ("3/5", build_group(4, 3))):
        p, blocks = assigned_blocks(frac, group)
        images = generator_images(blocks)
        out.append((p, trivial_rep(p)))
        if group == a4_group():
            out.append((p, xi0_rep(images, group)))
        out += [(p, rho) for rho in block_reps(blocks)]
        out.append((p, perm_rep(images, group, p)))
    return out


def test_from_series_matches_per_entry_construction():
    for p, rho in _series_test_reps():
        dim = rho.dim
        zero = tuple((0,) * dim for _ in range(dim))
        assert PolyMatrix({}, dim).entries() == _per_entry_matrix({}, dim)
        assert PolyMatrix({4: zero}, dim) == PolyMatrix({}, dim)
        assert PolyMatrix({4: zero}, dim).entries() == _per_entry_matrix({}, dim)
        gapped = {3: rho.images[1], -2: zero, 0: rho.inv_images[2]}
        assert PolyMatrix(gapped, dim).entries() == _per_entry_matrix(gapped, dim)
        for rel in p.relators:
            tables = fox_images(rel, rho.images, rho.inv_images, rho.dim)
            for gen in range(1, p.num_generators + 1):
                series = tables[gen].series
                assert tables[gen].entries() == _per_entry_matrix(series, dim)
                per_letter = _fox_images_per_letter(
                    rel, rho.images, rho.inv_images, dim)[gen]
                assert tables[gen].entries() == _per_entry_matrix(per_letter, dim)
    for frac in ("1/3", "5/27", "29/75"):
        form = h3_expand(FractionR.parse(frac))
        for f in (recursion_series(form), normalized_series(form)):
            assert f.entries() == _per_entry_matrix(f.series, 3)


def test_phi_generator_minus_one_matches_phi_map():
    for p, rho in _series_test_reps():
        for gen in range(1, p.num_generators + 1):
            e = GroupRingElem([(Word((gen,)), 1), (Word(), -1)])
            assert phi_generator_minus_one(rho.images[gen]) == phi_map(e, rho)


def _fox_images_per_letter(rel, images, inv_images, dim):
    """The pass fox_images replaces: one mat_mul per relator letter."""
    out = {}
    prefix = identity(dim)
    deg = 0

    def add(gen, sign, m, d):
        acc = out.setdefault(gen, {}).setdefault(d, [[0] * dim for _ in range(dim)])
        for i in range(dim):
            for j in range(dim):
                acc[i][j] += sign * m[i][j]

    for letter in rel:
        gen = abs(letter)
        if letter > 0:
            add(gen, 1, prefix, deg)
            prefix = mat_mul(prefix, images[gen])
            deg += 1
        else:
            prefix = mat_mul(prefix, inv_images[gen])
            deg -= 1
            add(gen, -1, prefix, deg)
    return out


def _as_poly_matrices(tables, dim):
    """Per-letter tables (generator -> degree -> list matrix) as PolyMatrix."""
    return {g: PolyMatrix(((d, tuple(map(tuple, m))) for d, m in series.items()), dim)
            for g, series in tables.items()}


def _assert_same_fox_tables(rel, images, inv_images, dim):
    new = fox_images(rel, images, inv_images, dim)
    old = _fox_images_per_letter(rel, images, inv_images, dim)
    assert new == _as_poly_matrices(old, dim)
    assert list(new) == list(old)
    # the nonzero degrees in increasing order; zero matrices are dropped
    zero = [[0] * dim for _ in range(dim)]
    assert all(list(new[g].series) == sorted(d for d, m in old[g].items() if m != zero)
               for g in old)


def test_interned_fox_images_match_per_letter_pass():
    # the character blocks and perm_rep of the first surjective and the
    # first other homomorphism of each knot group
    fractions = list(enumerate_fractions(29))
    for group_name in ("A4", "M(5|2,4)", "M(4|3,2)"):
        group = group_from_name(group_name)
        surjective = 0
        for r in fractions:
            p = wirtinger_presentation(r)
            homs = find_homs(p, group)
            for onto in (True, False):
                h = next((h for h in homs if h.surjective == onto), None)
                if h is None:
                    continue
                surjective += onto
                reps = block_reps(representation_blocks(h.images, group))
                reps.append(perm_rep(h.images, group, p))
                for rho in reps:
                    _assert_same_fox_tables(p.relators[0], rho.images,
                                            rho.inv_images, rho.dim)
        assert surjective >= 3
    # an infinite image: every prefix is new
    x, y = ((1, 1), (0, 1)), ((1, 0), (1, 1))
    images = {1: x, 2: y}
    inv_images = {1: mat_inverse(x), 2: mat_inverse(y)}
    for r in fractions:
        _assert_same_fox_tables(wirtinger_presentation(r).relators[0],
                                images, inv_images, 2)


def _assert_index_walk_matches_interned(p, group, images):
    # the blocks' tables from one walk on element indices, against the
    # oracle's interned-matrix walk over each block's own images
    rho = representation_blocks(images, group)
    blocks = block_reps(rho)
    for rel in p.relators:
        walked = fox_tables(rho, rel)
        assert len(walked) == len(blocks) == len(rho.dims)
        for block, table in zip(blocks, walked):
            (interned,) = fox_tables(block, rel)
            assert table == interned
            assert list(table) == list(interned)
            assert all(list(table[g].series) == list(interned[g].series)
                       for g in table)


def test_index_walk_fox_tables_match_interned_matrices():
    # every homomorphism of every fraction up to 29 onto three groups, the
    # non-free orbits of M(3|7,2), and the 3-generator 10_145
    cases = []
    for group_name in ("A4", "M(5|2,4)", "M(4|3,2)"):
        group = group_from_name(group_name)
        for r in enumerate_fractions(29):
            p = wirtinger_presentation(r)
            cases += [(p, group, h.images) for h in find_homs(p, group)]
    for p, group in ((wirtinger_presentation(FractionR(5, 9)), group_from_name("M(3|7,2)")),
                     (presentation("10_145"), build_group(5, 2))):
        homs = find_homs(p, group)
        assert any(h.surjective for h in homs)
        cases += [(p, group, h.images) for h in homs]
    assert sum(len(p.relators) > 1 for p, _, _ in cases) >= 2
    for p, group, images in cases:
        _assert_index_walk_matches_interned(p, group, images)


def test_fox_images_keep_keys_that_sum_to_zero():
    # x y X X: x leaves degree 0 with the prefix 1 and X returns to degree 0
    # with the prefix 1, so the (x, 0) coefficient cancels to zero
    trivial = {1: ((1,),), 2: ((1,),)}
    tables = fox_images(Word([1, 2, -1, -1]), trivial, trivial, 1)
    assert 0 not in tables[1].series
    assert tables[1].series[1] == ((-1,),)
    per_letter = _fox_images_per_letter(Word([1, 2, -1, -1]), trivial, trivial, 1)
    assert per_letter[1][0] == [[0]]
    assert tables == _as_poly_matrices(per_letter, 1)


# -- twisted invariants -------------------------------------------------------

def test_trefoil_three_dim():
    p, rho = a4_rho3(FractionR(1, 3))
    res = twisted_alexander_tables(p, rho)
    assert res.invariant == P("1 - t^3")


def test_trefoil_trivial_rep_is_ratio():
    p = wirtinger_presentation(FractionR(1, 3))
    res = twisted_alexander_tables(p, trivial_rep(p))
    assert res.invariant is None               # (1 - t + t^2)/(1 - t) is not polynomial
    assert res.numerator == P("1 - t + t^2")
    assert res.denominator == P("1 - t")


def test_trivial_rep_times_one_minus_t_is_alexander():
    for r in enumerate_fractions(99):
        p = wirtinger_presentation(r)
        res = twisted_alexander_tables(p, trivial_rep(p))
        assert canonical(exact_div(res.numerator * ONE_MINUS_T, res.denominator)) == \
            alexander_poly(p)


def test_k15_sixteen_dim():
    g = build_group(5, 2)
    p, blocks = assigned_blocks("1/5", g)
    rho = perm_rep(generator_images(blocks), g, p)
    res = twisted_alexander_tables(p, rho)
    delta = alexander_poly(p)
    gold = exact_div(delta * phi_value("1/5", "M(5|2,4)"), ONE_MINUS_T)
    assert res.invariant == canonical(gold)


def test_column_choice_independence():
    inputs = [
        ("5/27", STANDARD, a4_group()),
        ("8_5", "x=s; y=s b1; z=s", a4_group()),
        ("10_159", "x=s; y=s b1 b4; z=s b1", build_group(5, 2)),
    ]
    for source, assign, group in inputs:
        p, blocks = assigned_blocks(source, group, assign)
        rho = perm_rep(generator_images(blocks), group, p)
        results = [twisted_alexander_tables(p, rho, delete=g) for g in p.generators]
        for a in results:
            for b in results:
                assert canonical(a.numerator * b.denominator) == \
                    canonical(b.numerator * a.denominator)
                if a.invariant is not None and b.invariant is not None:
                    assert a.invariant == b.invariant


def test_splitting_identity_two_bridge():
    # 4-dim permutation invariant = [Delta/(1-t)] * 3-dim invariant
    g = a4_group()
    for frac in ("1/3", "1/9", "5/27", "11/27"):
        p, blocks = assigned_blocks(frac, g)
        inv4 = twisted_alexander_tables(p, perm_rep(generator_images(blocks), g, p)).invariant
        trivial, three = block_reps(blocks)
        inv3 = twisted_alexander_tables(p, three).invariant
        delta = alexander_poly(p)
        assert canonical(inv4 * ONE_MINUS_T) == canonical(delta * inv3)


# -- verdicts -----------------------------------------------------------------

def test_check_factorization_golden():
    g = a4_group()
    p, blocks = assigned_blocks("5/27", g)
    rho = perm_rep(generator_images(blocks), g, p)
    res = twisted_alexander_tables(p, rho)
    v = check_factorization(res.invariant, alexander_poly(p), 3)
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


def test_block_verdict_details_match_division_oracle():
    # hand-made block results: phi = rest, against phi = twisted (1-t)/Delta
    delta = P("1 - t + t^2")
    t2 = P("t^2")
    outcomes = []
    for rest in (P("1 - t^3"), ONE_MINUS_T * P("1 + t^3"), ZERO):
        nums = (-t2 * delta, rest * P("1 + t + t^2"))
        dens = (P("-1 + t"), P("1 + t + t^2"))
        invariant = ZERO if rest.is_zero() else canonical(
            exact_div(delta * rest, ONE_MINUS_T))
        result = TwistedResult(nums, dens, rest, invariant, "y")
        verdict = block_verdict(result, delta, 3)
        assert verdict == check_factorization(invariant, delta, 3)
        outcomes.append(verdict.holds)
    assert outcomes == [True, False, False]
    # the non-trivial blocks' ratio is not a polynomial
    result = TwistedResult((delta, P("1 + t^5") * ONE_MINUS_T), (ONE_MINUS_T, delta),
                           None, P("1 + t^5"), "y")
    verdict = block_verdict(result, delta, 3)
    assert verdict == check_factorization(P("1 + t^5"), delta, 3)
    assert verdict.details == "Delta/(1-t) does not divide the invariant"
    # a trivial block that is not +-t^k Delta / +-t^j (1 - t)
    for nums, dens in (((2 * delta, ONE), (ONE_MINUS_T, ONE)),
                       ((ZERO, ONE), (ONE_MINUS_T, ONE)),
                       ((delta, ONE), (P("1 + t"), ONE))):
        with pytest.raises(ExactnessError, match="trivial block"):
            block_verdict(TwistedResult(nums, dens, ONE, ONE, "y"), delta, 3)


# -- the character block path --------------------------------------------------

def assert_blocks_match_full_path(p, group, images):
    """The block path gives the full permutation path's numerator,
    denominator, deleted generator and invariant; the block dimensions add
    up to p^k, and the trivial block comes first."""
    rho = representation_blocks(images, group)
    assert sum(rho.dims) == group.p**group.k
    assert all(blocks[0] == ((1,),) for blocks in rho.block_images.values())
    assert same_ratio(twisted_alexander(p, rho),
                      twisted_alexander_tables(p, perm_rep(images, group, p)))
    return rho


def test_denominators_taken_once_per_representation(monkeypatch):
    # a new representation with the group's blocks, so that no denominator
    # is kept from an earlier test
    p, shared = assigned_blocks("5/27", a4_group())
    rho = Representation(shared.group, shared.letters, shared.blocks)
    taken = []

    def counting(entries, dim):
        taken.append(dim)
        return _denominator(entries, dim)

    monkeypatch.setattr(twisted, "_denominator", counting)
    first = twisted_alexander(p, rho)
    assert taken == rho.dims
    second = twisted_alexander(p, rho)
    assert taken == rho.dims
    assert second.dens == first.dens and second == first
    # deleting x instead takes the denominators of x's image, once
    assert rho.letters[1] != rho.letters[2]
    by_x = twisted_alexander(p, rho, delete="x")
    assert taken == rho.dims * 2
    assert twisted_alexander(p, rho, delete="x") == by_x and taken == rho.dims * 2


def first_surjections(p, group, fix=None):
    homs = [h.images for h in find_homs(p, group, fix=fix) if h.surjective]
    return homs[:1]


def two_bridge_surjections(group, alpha_max):
    """The first surjection onto `group` of every fraction up to alpha_max."""
    out = []
    for r in enumerate_fractions(alpha_max):
        p = wirtinger_presentation(r)
        if obstruction_passes(alexander_poly(p), group):
            out.extend((p, images) for images in first_surjections(p, group))
    return out


def test_blocks_match_full_path_golden_entries():
    # every golden entry except three M(3|5,2) ones, whose full path the
    # slow oracle in test_cli covers, and the 64-dimensional K(1/7), which
    # test_slow_optional covers
    cases = []
    for source, group_name, assign in (
            [(frac, "A4", STANDARD) for frac in A4_3DIM]
            + [(e.source, e.group, e.assignment) for e in PHI
               if e.group not in ("M(3|5,2)", "M(7|2,6)") or e.source == "3/7"]):
        group = group_from_name(group_name)
        p, rho = assigned_blocks(source, group, assign)
        cases.append((p, group, generator_images(rho)))
    assert len(cases) == 19
    for p, group, images in cases:
        assert_blocks_match_full_path(p, group, images)


# K(beta/alpha) maps onto the dihedral group M(2|p,1) exactly when p
# divides alpha: 57 and 40 of the 211 fractions up to 45
@pytest.mark.parametrize("group_name, alpha_max, count", [
    ("A4", 99, 336), ("M(5|2,4)", 41, 31), ("M(4|3,2)", 61, 94),
    ("M(2|3,1)", 45, 57), ("M(2|5,1)", 45, 40)])
def test_blocks_match_full_path_two_bridge_sweep(group_name, alpha_max, count):
    group = group_from_name(group_name)
    cases = two_bridge_surjections(group, alpha_max)
    assert len(cases) == count
    for p, images in cases:
        assert_blocks_match_full_path(p, group, images)


def test_blocks_match_full_path_non_free_orbits():
    # T fixes two of the eight lines of F_7^2: blocks of 6, not only of 18
    group = group_from_name("M(3|7,2)")
    p = wirtinger_presentation(FractionR(5, 9))
    (images,) = first_surjections(p, group)
    rho = assert_blocks_match_full_path(p, group, images)
    assert rho.dims == [1, 18, 18, 6, 6]


def test_blocks_match_full_path_bundled_knots():
    cases = [("8_5", "A4", None), ("10_159", "A4", None),
             ("10_145", "M(5|2,4)", None), ("10_145", "M(5|2,4)", "z"),
             ("10_159", "M(5|2,4)", None)]
    for name, group_name, fix in cases:
        p, group = presentation(name), group_from_name(group_name)
        (images,) = first_surjections(p, group, fix)
        assert fix is None or images[p.gen_index(fix) - 1] == group.parse_elem("s")
        assert_blocks_match_full_path(p, group, images)


def test_blocks_match_full_path_abelian_assignment():
    # s on every generator, and the trivial linear parts b1 and 1
    for frac, group in (("5/27", a4_group()), ("1/5", build_group(5, 2)),
                        ("3/5", build_group(4, 3)), ("1/5", build_group(2, 5))):
        p = wirtinger_presentation(FractionR.parse(frac))
        images = (group.parse_elem("s"),) * p.num_generators
        assert twisted_alexander_tables(p, perm_rep(images, group, p)).invariant is None
        assert_blocks_match_full_path(p, group, images)
        for text in ("b1", "1"):
            assert_blocks_match_full_path(p, group, (group.parse_elem(text),) * p.num_generators)


def test_blocks_match_full_path_zero_invariant():
    # a freely trivial relator: every numerator block vanishes
    p = parse_presentation("gens: x y\nrel: x y Y X\n")
    group = build_group(5, 2)
    images = (group.parse_elem("s"), group.parse_elem("s b1"))
    assert twisted_alexander_tables(p, perm_rep(images, group, p)).invariant == ZERO
    assert_blocks_match_full_path(p, group, images)


def test_block_determinants_multiply_to_full_exactly():
    # not only up to +-t^k: det C * det C^-1 = 1 and the regrouping of rows
    # and columns into blocks is one permutation applied to both; the
    # blocks' determinants are the evaluated ones of the production path
    for frac, group in (("5/27", a4_group()), ("1/5", build_group(5, 2)),
                        ("3/11", build_group(5, 2)), ("3/5", build_group(4, 3)),
                        ("5/9", build_group(4, 5))):
        p, rho = assigned_blocks(frac, group)
        full = perm_rep(generator_images(rho), group, p)
        walks = [rho.fox_walk(rel)[0] for rel in p.relators]
        for gen in (1, 2):
            den = num = ONE
            for b, dim in enumerate(rho.dims):
                den = den * _denominator(rho.entries(rho.letters[gen])[b], dim)
                num = num * fox_determinant(_block_walks(walks, b), gen, dim)
            tables = [fox_images(rel, full.images, full.inv_images, full.dim)
                      for rel in p.relators]
            assert den == phi_generator_minus_one(full.images[gen]).det()
            assert num == fox_jacobian(tables, p.num_generators, full.dim, gen).det()


def _block_walks(walks, b):
    """Block b's part of the relator walks, as fox_determinant takes it."""
    return [[(g, counts, entries[b]) for g, counts, entries in walk] for walk in walks]


def test_twisted_alexander_names_the_first_relator_not_killed():
    # the relator walk checks the images: y = z holds, x = y does not
    group = a4_group()
    p = parse_presentation("gens: x y z\nrel: y Z\nrel: x Y\n")
    rho = representation_blocks(
        tuple(group.parse_elem(e) for e in ("s", "s b1", "s b1")), group)
    with pytest.raises(NotHomomorphismError,
                       match=r"^relator 2 \(x Y\) does not map to the identity$"):
        twisted_alexander(p, rho)
    assert [rho.fox_walk(rel)[1] == 0 for rel in p.relators] == [True, False]


def test_walk_check_matches_check_homomorphism():
    # the one production relator check, which --assign goes through, against
    # the coset-table oracle, message included: search results, random
    # images and search results with the last image changed
    rng = random.Random(11)
    presentations = [wirtinger_presentation(FractionR.parse(f))
                     for f in ("1/3", "3/5", "5/27")]
    presentations += [presentation(name) for name in BUNDLED]
    checked = set()
    for group in (a4_group(), build_group(4, 3), build_group(5, 2)):
        for p in presentations:
            candidates = [h.images for h in find_homs(p, group)[:2]]
            candidates += [images[:-1] + (rng.randrange(group.order()),)
                           for images in candidates]
            candidates += [tuple(rng.randrange(group.order()) for _ in p.generators)
                           for _ in range(8)]
            for images in candidates:
                outcomes = []
                for check in (lambda: check_homomorphism(p, group, images),
                              lambda: twisted_alexander(p, representation_blocks(images, group))):
                    try:
                        check()
                        outcomes.append(None)
                    except NotHomomorphismError as e:
                        outcomes.append(str(e))
                assert outcomes[0] == outcomes[1], (p.name, group.name(), images)
                checked.add(outcomes[0] is None)
    assert checked == {True, False}


def test_second_fox_walk_takes_no_step(monkeypatch):
    # a representation keeps the steps of its walks: walking the relators
    # again multiplies no element and gives the same tally
    group = MetaGroup(5, 2)  # not the shared group: its index_mul is counted
    p = presentation("10_145")
    rho = representation_blocks(find_homs(p, group)[0].images, group)
    calls = []
    genuine = group.index_mul
    monkeypatch.setattr(group, "index_mul", lambda x, y: calls.append((x, y)) or genuine(x, y))
    first = [rho.fox_walk(rel) for rel in p.relators]
    assert calls
    calls.clear()
    assert [rho.fox_walk(rel) for rel in p.relators] == first
    assert calls == []


_GROUPS = {"A4": a4_group(), "M(4|3,2)": build_group(4, 3), "M(5|2,4)": build_group(5, 2)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluated_determinants_match_bareiss_tables(data):
    """Random relator words and generator images: every block's evaluated
    numerator for every deleted generator, and every denominator, against
    det_bareiss of the oracle's Fox tables and Phi(g - 1); and the image
    each walk ends at against the relator's image by the vector law."""
    name = data.draw(st.sampled_from(sorted(_GROUPS)))
    group = _GROUPS[name]
    ngen = data.draw(st.sampled_from((2, 3) if name != "M(5|2,4)" else (2,)))
    letter = st.sampled_from([s * g for g in range(1, ngen + 1) for s in (1, -1)])
    relators = tuple(Word(data.draw(st.lists(letter, max_size=14)))
                     for _ in range(ngen - 1))
    p = Presentation(tuple("xyz"[:ngen]), relators)
    order = group.order()
    letters = {}
    for g in range(1, ngen + 1):
        x = data.draw(st.integers(0, order - 1))
        letters[g], letters[-g] = x, vector_inv(group, x)
    blocks = support_blocks(group.p**group.k,
                            [group.character_image(letters[g]) for g in range(1, ngen + 1)])
    rho = Representation(group, letters, blocks)
    walked = [rho.fox_walk(rel) for rel in relators]
    images = {g: letters[g] for g in range(1, ngen + 1)}
    assert [image for _, image in walked] == [
        group_word_image(group, rel, images) for rel in relators]
    walks = [walk for walk, _ in walked]
    tables = [fox_tables(rho, rel) for rel in relators]
    for gen in range(1, ngen + 1):
        for b, dim in enumerate(rho.dims):
            m = rho.block_images[gen][b]
            assert (_denominator(rho.entries(letters[gen])[b], dim)
                    == det_bareiss(phi_generator_minus_one(m)))
            jac = fox_jacobian([table[b] for table in tables], ngen, dim, gen)
            assert fox_determinant(_block_walks(walks, b), gen, dim) == det_bareiss(jac)


def test_support_split_rejects_entry_outside_blocks(monkeypatch):
    group = MetaGroup(5, 2)  # not the shared group: its images get tampered
    x = group.parse_elem("s b1")
    x_inv = vector_inv(group, x)
    q = group.character_matrix(x)
    image = group.character_image(x)
    assert image == tuple((w, u, v) for w, row in enumerate(q)
                          for u, v in enumerate(row) if v)
    blocks = support_blocks(len(q), [image])
    assert [len(b) for b in blocks] == [1, 5, 5, 5]
    p = parse_presentation("gens: x\nrel: x x x x x\n")
    rho = Representation(group, {1: x, -1: x_inv}, blocks)
    assert rho.block_images[1] == rho.matrices(x) == [
        tuple(tuple(q[w][u] for u in coords) for w in coords) for coords in blocks]
    w, u = blocks[1][0], blocks[2][0]
    monkeypatch.setattr(group, "character_image",
                        lambda y: image + ((w, u, 1),) if y == x else ())
    with pytest.raises(ExactnessError, match="outside the blocks"):
        Representation(group, {1: x, -1: x_inv}, blocks)

