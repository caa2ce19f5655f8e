"""Metabelian groups M(n|p,k): elements as indices against the oracle's
vector law (built from the oracle's companion matrix T), coset permutation
representations, the A4 matrices, homomorphism search, and the
obstruction p | Res(Delta, Phi_n), decided by Euclid over F_p and checked
against the resultant oracle."""

import itertools
import random

import pytest

from metatap import metabelian
from metatap.characters import Representation, representation_blocks
from metatap.exactalg import ExactnessError, canonical, parse_poly, poly_from_coeffs
from metatap.groupcalc import InputError, parse_presentation
from metatap.intmat import identity, int_det, mat_mul, mat_neg
from metatap.knotdata import BUNDLED, presentation
from metatap.metabelian import (
    HomAssignment,
    MetaGroup,
    NotHomomorphismError,
    _conjugate_by_relabeling,
    a4_group,
    build_group,
    cyclotomic_coeffs,
    euler_phi,
    find_homs,
    generates,
    group_from_name,
    obstruction_passes,
    unit_classes,
)
from metatap.oracles import (
    MatrixRep, PolyMatrix, T_power, check_homomorphism, companion, group_word_image,
    perm_matrix, perm_rep, resultant, trivial_rep, vector_inv, vector_mul, word_image)
from metatap.twinring import X, Y
from metatap.selftest import golden_input
from metatap.twobridge import (
    FractionR, alexander_poly, enumerate_fractions, wirtinger_presentation)

from matrix_helpers import assigned_blocks, generator_images, mat_pow, xi0

P = parse_poly


# -- cyclotomic polynomials and companion matrices ----------------------------

def test_cyclotomic_coeffs():
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(2) == (1, 1)
    assert cyclotomic_coeffs(3) == (1, 1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_coeffs_checks_exact_division(monkeypatch):
    # a raise, not an assert, so that python -O keeps the check
    cyclotomic_coeffs.cache_clear()
    monkeypatch.setattr(metabelian, "exact_div", lambda f, g: None)
    try:
        with pytest.raises(ExactnessError, match="does not divide"):
            cyclotomic_coeffs(6)
    finally:
        monkeypatch.undo()
        cyclotomic_coeffs.cache_clear()
    assert cyclotomic_coeffs(6) == (1, -1, 1)


def test_build_group_examples():
    # F_p[T] is a field, with p^k - 1 units, exactly when T is irreducible
    g = build_group(3, 2)
    assert (g.k, g.order(), len(g.units)) == (2, 12, 3)
    g43 = build_group(4, 3)
    assert (g43.k, len(g43.units)) == (2, 8)
    g45 = build_group(4, 5)
    assert (g45.k, len(g45.units)) == (2, 16)  # reducible but constructed
    with pytest.raises(ValueError):
        build_group(4, 2)   # p divides n
    with pytest.raises(ValueError):
        build_group(5, 6)   # not prime


def test_companion_matrix_satisfies_cyclotomic():
    for n, p in [(3, 2), (4, 3), (5, 2), (3, 5), (4, 5), (7, 2), (12, 5)]:
        g = build_group(n, p)
        powers = [mat_pow(companion(g), i) for i in range(g.k + 1)]
        assert all(sum(c * m[a][b] for c, m in zip(cyclotomic_coeffs(n), powers)) % p == 0
                   for a in range(g.k) for b in range(g.k))
        assert T_power(g, n) == identity(g.k)


def test_group_from_name():
    assert group_from_name("A4") == build_group(3, 2)
    assert group_from_name("M(5|2,4)").order() == 80
    with pytest.raises(ValueError):
        group_from_name("M(5|2,3)")   # wrong k
    # Phi_0 is not defined, so n is checked before its degree is named
    for name in ("M(0|2,1)", "M(1|2,1)", "M(0|2,0)"):
        with pytest.raises(InputError, match=r"^need n >= 2$"):
            group_from_name(name)
    # k is checked against Euler's totient, which is deg Phi_n
    assert all(euler_phi(n) == len(cyclotomic_coeffs(n)) - 1 for n in range(1, 60))
    with pytest.raises(ValueError):
        group_from_name("S4")


def test_one_group_per_n_p():
    # build_group caches, so each group's tables are built once per process
    assert group_from_name("A4") is a4_group()
    assert group_from_name("M(4|3,2)") is build_group(4, 3)
    assert build_group(4, 3) is not build_group(4, 5)


# -- elements as indices and the group law -------------------------------------

def elems(group, *texts):
    """The element indices of the texts."""
    return tuple(map(group.parse_elem, texts))


def test_identity_and_inverse():
    g = build_group(5, 2)
    for x in range(g.order()):
        assert g.index_mul(x, 0) == g.index_mul(0, x) == x
        assert g.index_mul(x, g.index_inv(x)) == g.index_mul(g.index_inv(x), x) == 0


def test_associativity_random():
    rng = random.Random(9)
    for n, p in [(3, 2), (4, 3), (5, 2)]:
        g = build_group(n, p)
        for _ in range(60):
            a, b, c = (rng.randrange(g.order()) for _ in range(3))
            assert g.index_mul(g.index_mul(a, b), c) == g.index_mul(a, g.index_mul(b, c))


def test_index_law_matches_mul_and_inv():
    # every element of each group reads back from its text, and the index
    # law agrees with the oracle's vector law on every pair; Phi_6 = 1 - z +
    # z^2 has a negative coefficient, and M(2|7,1) has k = 1
    for n, p in [(3, 2), (4, 3), (5, 2), (3, 5), (6, 5), (2, 7)]:
        g = build_group(n, p)
        for x in range(g.order()):
            assert g.parse_elem(g.elem_str(x)) == x
            assert g.index_inv(x) == vector_inv(g, x)
            assert [g.index_mul(x, y) for y in range(g.order())] == \
                [vector_mul(g, x, y) for y in range(g.order())]


def test_parse_elem_and_str():
    g = build_group(5, 2)
    e = g.parse_elem("s b1 b4")
    assert g.elem_str(e) == "s b1 b4"
    assert e == 16 + 0b1001
    assert g.parse_elem("1") == g.parse_elem("") == 0 and g.elem_str(0) == "1"
    s = g.parse_elem("s")
    assert g.parse_elem("s^2") == g.index_mul(s, s)
    assert g.parse_elem("s^-1") == g.parse_elem("s^4") == g.index_inv(s)
    assert g.parse_elem("b1^3") == g.parse_elem("b1") == 8
    assert g.parse_elem("b4 s") == g.index_mul(g.parse_elem("b4"), s)
    assert g.parse_elem("s^100000000000000000001 b2^-7") == g.parse_elem("s b2")
    m = build_group(3, 5)
    assert m.elem_str(m.parse_elem("s^2 b1^-1 b2^7")) == "s^2 b1^4 b2^2"
    for text in ("s b1^", "s^", "b2^x", "s^1.5"):
        with pytest.raises(ValueError, match="bad exponent in element token"):
            g.parse_elem(text)
    for text in ("b", "s bx", "b-1"):
        with pytest.raises(ValueError, match="bad element token"):
            g.parse_elem(text)
    for text in ("b0", "s b5"):
        with pytest.raises(ValueError, match="b index out of range"):
            g.parse_elem(text)


# -- coset permutations -------------------------------------------------------

def test_coset_identity():
    g = build_group(4, 3)
    assert g.coset_table(0) == list(range(9))


def test_coset_action_is_homomorphism():
    rng = random.Random(21)
    for n, p in [(3, 2), (4, 3), (5, 2), (3, 5)]:
        g = build_group(n, p)
        for _ in range(50):
            a, b = rng.randrange(g.order()), rng.randrange(g.order())
            pa, pb = g.coset_table(a), g.coset_table(b)
            composed = [pb[pa[i]] for i in range(len(pa))]
            assert composed == g.coset_table(vector_mul(g, a, b))
            # and the matrix convention matches
            assert mat_mul(perm_matrix(g, a), perm_matrix(g, b)) == \
                perm_matrix(g, vector_mul(g, a, b))


# -- units of F_p[T] and the coset relabeling ---------------------------------

UNIT_GROUPS = [(3, 2, 3), (4, 3, 8), (5, 2, 15), (3, 5, 24), (4, 5, 16)]


def poly_at_T(g, coeffs):
    """sum_j coeffs[j] T^j mod p, formed from the oracle's powers of T."""
    return [[sum(c * T_power(g, j)[a][b] for j, c in enumerate(coeffs)) % g.p
             for b in range(g.k)] for a in range(g.k)]


def matrix_table(g, m):
    """The table v -> coset index of vec(v) m mod p."""
    return tuple(
        g.coset_index(tuple(sum(a * row[j] for a, row in zip(g.vec_of_index(v), m)) % g.p
                            for j in range(g.k)))
        for v in range(g.p**g.k))


def test_units_of_fp_t():
    # F_4, F_9, F_16, F_25 have q - 1 units; Phi_4 = (z - 2)(z + 3) mod 5,
    # so F_5[T] = F_5 x F_5 for M(4|5,2) has 16.  Each unit is the table
    # of vec(v) U for U = sum_i c_i T^i, in the order of the coefficient
    # index c, identity first
    for n, p, count in UNIT_GROUPS:
        g = build_group(n, p)
        size = p**g.k
        act, add = g.index_law
        matrices = (poly_at_T(g, g.vec_of_index(c)[::-1]) for c in range(1, size))
        units = g.units
        assert units == [matrix_table(g, m) for m in matrices if int_det(m) % p]
        assert len(units) == len(set(units)) == count
        assert units[0] == tuple(range(size))
        unit_set = set(units)
        for u in units:
            assert all(u[act[1][v]] == act[1][u[v]] for v in range(size))
            assert all(u[add[v][w]] == add[u[v]][u[w]]
                       for v in range(size) for w in range(size))
            for w in units:
                assert tuple(w[u[v]] for v in range(size)) in unit_set


def test_poly_table_matches_matrix_oracle():
    # vec(v) sum_j c_j T^j mod p from T_power, for coefficient lists with
    # negative entries, entries >= p and up to n entries; M(2|11,1) takes
    # its multiples of up to 10 by doubling
    rng = random.Random(33)
    for n, p in [(n, p) for n, p, _ in UNIT_GROUPS] + [(7, 2), (2, 11)]:
        g = build_group(n, p)
        cases = [[], [-1] * n, [p] + [0] * (n - 1), [2 * p - 1] * n]
        cases += [[rng.randrange(-2 * p, 2 * p) for _ in range(rng.randint(1, n))]
                  for _ in range(8)]
        for coeffs in cases:
            assert g.poly_table(coeffs) == matrix_table(g, poly_at_T(g, coeffs)), coeffs


def test_unit_relabeling_conjugates_perm_matrices():
    # perm_matrix(phi_U(g)) == Q_U^-1 perm_matrix(g) Q_U, Q_U[i][sigma_U(i)] = 1
    rng = random.Random(31)
    for n, p, _ in UNIT_GROUPS:
        g = build_group(n, p)
        size = p**g.k
        assert build_group(n, p).units is g.units  # built once per group
        for sigma in g.units:
            q = tuple(tuple(int(sigma[i] == j) for j in range(size))
                      for i in range(size))
            q_inv = tuple(zip(*q))
            for e in rng.sample(range(g.order()), 2):
                image = g.unit_image(e, sigma)
                assert divmod(image, size) == (e // size, sigma[e % size])
                assert perm_matrix(g, image) == \
                    mat_mul(mat_mul(q_inv, perm_matrix(g, e)), q)


def test_unit_classes_two_bridge():
    # every surjection of K(3/5) onto M(4|3,2) is phi_U of the first one
    g = build_group(4, 3)
    p = wirtinger_presentation(FractionR(3, 5))
    homs = find_homs(p, g)
    classes = unit_classes(g, homs)
    surjective = [i for i, h in enumerate(homs) if h.surjective]
    assert len(surjective) == 8
    assert {classes[i] for i in surjective} == {surjective[0]}
    rep = homs[surjective[0]].images
    orbit = {tuple(g.unit_image(x, u) for x in rep) for u in g.units}
    assert orbit == {homs[i].images for i in surjective}
    # the abelian assignment x, y -> s is a class of its own
    abelian = next(i for i, h in enumerate(homs) if not h.surjective)
    assert classes[abelian] == abelian


def test_unit_classes_rejects_member_of_other_surjectivity():
    g = build_group(4, 3)
    p = wirtinger_presentation(FractionR(3, 5))
    first, second = [h for h in find_homs(p, g) if h.surjective][:2]
    assert unit_classes(g, [first, second]) == [0, 0]
    with pytest.raises(ExactnessError, match="is not conjugate to its class representative"):
        unit_classes(g, [first, HomAssignment(second.images, False)])


def test_conjugate_by_relabeling_rejects_wrong_unit():
    g = build_group(5, 2)
    rep = elems(g, "s", "s b1")
    unit = g.units[1]
    member = tuple(g.unit_image(x, unit) for x in rep)
    assert member != rep
    assert _conjugate_by_relabeling(g, rep, member, unit)
    assert not _conjugate_by_relabeling(g, rep, member, g.units[0])
    assert not _conjugate_by_relabeling(g, rep, member, ((0,) * 4,) * 4)
    assert not _conjugate_by_relabeling(g, rep, rep[:1], g.units[0])


def test_generates():
    g = a4_group()
    assert generates(g, elems(g, "s", "s b1"))
    assert not generates(g, elems(g, "s", "s"))
    assert not generates(g, elems(g, "b1", "b2"))


def test_generates_matches_elementwise_closure():
    # fresh groups, so that every answer is computed before it is reused
    rng = random.Random(17)
    for n, p in [(3, 2), (4, 3), (5, 2), (2, 5)]:
        g = MetaGroup(n, p)
        picks = [tuple(rng.sample(range(g.order()), k))
                 for k in (1, 2, 2, 2, 3) for _ in range(8)]
        picks += [elems(g, "s", "s"), elems(g, "s", "b1"), elems(g, "b1", "s")]
        want = [elementwise_generates(g, chosen) for chosen in picks]
        assert any(want) and not all(want)
        for _ in range(2):
            assert [generates(g, chosen) for chosen in picks] == want


# -- representations ----------------------------------------------------------

def test_perm_rep_valid():
    g43 = build_group(4, 3)
    p = wirtinger_presentation(FractionR(3, 5))
    rho = perm_rep(elems(g43, "s", "s b1"), g43, p)
    assert rho.dim == 9
    for m in rho.images.values():
        assert int_det(m) in (1, -1)


def test_perm_rep_rejects_non_homomorphism():
    g43 = build_group(4, 3)
    p = wirtinger_presentation(FractionR(1, 3))
    with pytest.raises(NotHomomorphismError) as e:
        perm_rep(elems(g43, "s", "s b1"), g43, p)
    assert "relator 1" in str(e.value)


def test_check_homomorphism_rejects_wrong_length_or_index():
    g = a4_group()
    p = wirtinger_presentation(FractionR(1, 3))
    for images in ((4,), (4, 5, 6), (4, 12), (-1, 4)):
        with pytest.raises(ValueError, match="are not 2 element indices of M"):
            check_homomorphism(p, g, images)


def test_check_homomorphism_matches_matrix_products():
    # the coset-table oracle, which perm_rep runs, against the products of
    # permutation matrices, message included
    rng = random.Random(5)
    presentations = [wirtinger_presentation(FractionR.parse(f))
                     for f in ("1/3", "3/5", "5/27")]
    presentations += [presentation(name) for name in ("8_5", "10_159")]
    outcomes = set()
    for group in (a4_group(), build_group(4, 3), build_group(5, 2)):
        order = group.order()
        for p in presentations:
            candidates = [h.images for h in find_homs(p, group)]
            candidates += [tuple(rng.randrange(order) for _ in p.generators)
                           for _ in range(12)]
            candidates += [images[:-1] + (rng.randrange(order),)
                           for images in candidates[:4]]
            for images in candidates:
                try:
                    check_homomorphism(p, group, images)
                    got = None
                except NotHomomorphismError as e:
                    got = str(e)
                rho = MatrixRep(
                    group.p**group.k,
                    {g: perm_matrix(group, x) for g, x in enumerate(images, start=1)},
                    {g: perm_matrix(group, vector_inv(group, x))
                     for g, x in enumerate(images, start=1)})
                want = next((f"relator {i + 1} ({rel.spell(p.generators)}) "
                             f"does not map to the identity"
                             for i, rel in enumerate(p.relators)
                             if word_image(rho, rel) != identity(rho.dim)), None)
                assert got == want, (p.name, group, images)
                outcomes.add(got and got.split(" (")[0])
    assert outcomes == {None, "relator 1", "relator 2"}


def test_representation_checks_each_image_against_its_inverse():
    # the block images of every generator times the blocks of its inverse
    # element are I; blocks that are not inverse to each other are an
    # internal failure
    g = a4_group()
    _, rho = assigned_blocks("1/3", g)
    for gen, images in rho.block_images.items():
        inverses = rho.matrices(rho.letters[-gen])
        assert all(mat_mul(m, inv) == identity(len(m))
                   for m, inv in zip(images, inverses))
    # the image of s^2 is the inverse of s's, but not of s b1's
    letters = {**rho.letters, -2: rho.letters[-1]}
    with pytest.raises(ExactnessError, match="generator 2 times the block"):
        Representation(g, letters, rho.blocks)


def test_xi0_matrices():
    assert X == ((-1, 1, 0), (-1, 0, 0), (-1, 0, 1))
    assert Y == ((0, 0, -1), (0, 1, -1), (1, 0, -1))
    assert mat_pow(X, 3) == identity(3)
    g = a4_group()
    assert xi0(g.parse_elem("s")) == X
    assert xi0(g.parse_elem("s b1")) == Y


def test_xi0_is_homomorphism():
    # twinring's X and Y satisfy the group law of M(3|2,2), and xi0 has the
    # character of the 3-dimensional block of the character images
    g = a4_group()
    _, rho = assigned_blocks("1/3", g)
    for a in range(g.order()):
        for b in range(g.order()):
            assert mat_mul(xi0(a), xi0(b)) == xi0(vector_mul(g, a, b))
        trivial, three = rho.matrices(a)
        assert trivial == ((1,),)
        assert sum(three[i][i] for i in range(3)) == sum(xi0(a)[i][i] for i in range(3))


def charpoly(m):
    """det(t I - m) through PolyMatrix.det."""
    return PolyMatrix({0: mat_neg(m), 1: identity(len(m))}, len(m)).det()


def test_permutation_rep_splits_off_xi0():
    # 4-dim coset rep = trivial (+) 3-dim irreducible, checked through
    # characteristic polynomials of the generator images, against
    # twinring's X and Y and against the character blocks
    g = a4_group()
    p, blocks = assigned_blocks("1/3", g)
    imgs = generator_images(blocks)
    assert imgs == elems(g, "s", "s b1")
    rho4 = perm_rep(imgs, g, p)
    tminus1 = P("-1 + t")
    for gen, m3 in ((1, X), (2, Y)):
        c4 = charpoly(rho4.images[gen])
        assert c4 == tminus1 * charpoly(m3)
        trivial, three = blocks.block_images[gen]
        assert c4 == charpoly(trivial) * charpoly(three)


# -- homomorphism search ------------------------------------------------------

def test_find_homs_k35():
    g43 = build_group(4, 3)
    p = wirtinger_presentation(FractionR(3, 5))
    homs = find_homs(p, g43)
    target = elems(g43, "s", "s b1")
    assert any(h.images == target and h.surjective for h in homs)


def test_find_homs_abelian_flagged():
    g = a4_group()
    p = wirtinger_presentation(FractionR(1, 3))
    homs = find_homs(p, g)
    abelian = [h for h in homs if h.images[1] == g.parse_elem("s")]
    assert abelian and not abelian[0].surjective


def test_find_homs_empty():
    g43 = build_group(4, 3)
    p = wirtinger_presentation(FractionR(1, 3))
    assert all(not h.surjective for h in find_homs(p, g43))


def test_find_homs_fixed_generator_10_145():
    g = build_group(5, 2)
    p = presentation("10_145")
    homs = find_homs(p, g, fix="z")
    target = elems(g, "s b1 b2 b3 b4", "s b1", "s")
    assert any(h.images == target and h.surjective for h in homs)


def test_find_homs_unknown_fixed_generator():
    p = wirtinger_presentation(FractionR(1, 3))
    with pytest.raises(ValueError):
        find_homs(p, a4_group(), fix="q")


def test_find_homs_verification_closure():
    # re-checking every returned assignment against every relator passes
    g = build_group(5, 2)
    p = wirtinger_presentation(FractionR(1, 5))
    for h in find_homs(p, g):
        by_index = dict(enumerate(h.images, start=1))
        for rel in p.relators:
            assert group_word_image(g, rel, by_index) == 0


def elementwise_generates(group, gens):
    """Whether the element indices `gens` generate the group: their closure
    under products with them and their inverses by the vector law."""
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for y in gens:
            for prod in (vector_mul(group, x, y), vector_mul(group, x, vector_inv(group, y))):
                if prod not in seen:
                    seen.add(prod)
                    frontier.append(prod)
    return len(seen) == group.order()


def elementwise_find_homs(p, group, fix=None):
    """Every candidate in odometer order, each relator through group_word_image."""
    fixed = fix or p.generators[0]
    others = [name for name in p.generators if name != fixed]
    s = group.parse_elem("s")
    out = []
    for combo in itertools.product(range(group.p**group.k), repeat=len(others)):
        images = {fixed: s}
        for name, idx in zip(others, combo):
            images[name] = vector_mul(group, s, idx)  # s b^vec(idx)
        by_index = {p.gen_index(name): x for name, x in images.items()}
        if all(group_word_image(group, rel, by_index) == 0 for rel in p.relators):
            out.append((images, elementwise_generates(group, list(images.values()))))
    return out


@pytest.mark.parametrize("source, group_args, fix", [
    (FractionR(1, 3), (3, 2), None),
    (FractionR(5, 27), (3, 2), None),
    (FractionR(7, 39), (3, 2), None),
    ("8_5", (3, 2), None),
    (FractionR(3, 5), (4, 3), None),
    (FractionR(13, 23), (4, 3), None),
    (FractionR(1, 3), (4, 3), None),
    (FractionR(1, 5), (5, 2), None),
    ("10_145", (5, 2), None),
    ("10_145", (5, 2), "z"),
    (FractionR(5, 9), (4, 5), None),
    (FractionR(3, 7), (3, 5), None),
    (FractionR(9, 31), (3, 5), None),
    # relators with exponent sum 3 (= 0 mod 3) and 2 (no candidate holds)
    ("gens: x y\nrel: x y x Y x", (3, 2), None),
    ("gens: x y\nrel: x y", (3, 2), None),
])
def test_find_homs_matches_elementwise_search(source, group_args, fix):
    g = build_group(*group_args)
    source = str(source)
    p = parse_presentation(source) if source.startswith("gens:") else golden_input(source)[0]
    homs = find_homs(p, g, fix=fix)
    assert [(dict(zip(p.generators, h.images)), h.surjective)
            for h in homs] == elementwise_find_homs(p, g, fix)
    assert homs or source == "gens: x y\nrel: x y"


def pinned_candidates_search(p, group, fix=None):
    """Every candidate with `fix` pinned to s, in odometer order, each kept
    when `check_homomorphism` (the relators on the coset tables) passes."""
    size = group.p**group.k
    fixed = p.gen_index(fix or p.generators[0])
    out = []
    for vs in itertools.product(*[[0] if g == fixed else range(size)
                                  for g in range(1, p.num_generators + 1)]):
        images = tuple(size + v for v in vs)  # s b^vec(v)
        try:
            check_homomorphism(p, group, images)
        except NotHomomorphismError:
            continue
        out.append(HomAssignment(images, generates(group, images)))
    return out


def test_find_homs_matches_check_homomorphism_on_every_candidate():
    # the Fox-derivative test over F_p against the coset-table walk: every
    # fraction to alpha 61 over A4 and to 41 over five larger groups, and
    # the bundled knots over all six with every generator fixed
    groups = [a4_group()] + [build_group(n, q) for n, q in
                             ((4, 3), (5, 2), (4, 5), (3, 5), (3, 7))]
    cases = [(wirtinger_presentation(r), groups[0], None) for r in enumerate_fractions(61)]
    cases += [(wirtinger_presentation(r), g, None)
              for g in groups[1:] for r in enumerate_fractions(41)]
    cases += [(presentation(name), g, fix) for name in BUNDLED for g in groups
              for fix in presentation(name).generators]
    found = 0
    for p, g, fix in cases:
        homs = find_homs(p, g, fix=fix)
        assert homs == pinned_candidates_search(p, g, fix), (p.name, g.name(), fix)
        found += len(homs)
    assert found > len(cases)


def test_trivial_rep():
    p = wirtinger_presentation(FractionR(1, 3))
    rho = trivial_rep(p)
    assert rho.dim == 1 and word_image(rho, p.relators[0]) == ((1,),)


# -- obstruction --------------------------------------------------------------

def test_obstruction_examples():
    a4, m432 = a4_group(), build_group(4, 3)
    assert obstruction_passes(P("1 - t + t^2"), a4)            # trefoil / A4
    assert obstruction_passes(P("-t^-4 + t^-3 - t^-2"), a4)    # the same, shifted
    assert not obstruction_passes(P("1"), a4)                  # unknot
    assert not obstruction_passes(P("1"), m432)
    assert obstruction_passes(alexander_poly(wirtinger_presentation(FractionR(3, 5))), m432)
    assert not obstruction_passes(P("1 - t + t^2"), m432)      # K(1/3) vs M(4|3,2)
    with pytest.raises(ValueError):
        obstruction_passes(P("0"), a4)


def test_obstruction_matches_resultant_oracle():
    # Delta and Phi_n share a factor over F_p exactly when p | Res(Delta,
    # Phi_n), on every fraction up to alpha 99, the bundled knots and seeded
    # Laurent polynomials: negative degrees, degrees of at least n, end
    # coefficients divisible by p, and 1 - t^n, which folds to 0.  Both
    # verdicts occur for each group, and the obstruction builds no table
    rng = random.Random(36)
    knots = [alexander_poly(wirtinger_presentation(r)) for r in enumerate_fractions(99)]
    knots += [alexander_poly(presentation(name)) for name in BUNDLED]
    for n, p in ((3, 2), (4, 3), (3, 5), (5, 2), (7, 2), (11, 2), (2, 3), (4, 5),
                 (9, 2), (12, 5), (6, 5), (2, 7)):
        group = MetaGroup(n, p)
        phi_n = poly_from_coeffs(cyclotomic_coeffs(n))
        deltas = knots + [P(f"1 - t^{n}")]
        for _ in range(60):
            coeffs = [rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(1, 3 * n))]
            coeffs[0] = rng.choice((coeffs[0] or 1, p, -2 * p))
            coeffs[-1] = rng.choice((coeffs[-1] or 1, p, -2 * p))
            deltas.append(poly_from_coeffs(coeffs, rng.randint(-2 * n, n)))
        verdicts = [obstruction_passes(delta, group) for delta in deltas]
        assert verdicts == [resultant(canonical(delta), phi_n) % p == 0
                            for delta in deltas], group.name()
        assert verdicts[len(knots)] and len(set(verdicts)) == 2, group.name()
        assert not {"index_law", "units", "character_tables"} & set(vars(group))


# -- what a group keeps for every fraction -------------------------------------

def test_representation_kept_per_tuple_of_images():
    # two knots with the same generator images share one representation,
    # and each knot's relators are walked on it
    g = a4_group()
    images = elems(g, "s", "s b1")
    p1, p2 = (wirtinger_presentation(FractionR.parse(f)) for f in ("5/27", "7/39"))
    rho = representation_blocks(images, g)
    assert representation_blocks(images, g) is rho
    assert g._representations[images] is rho
    assert [rho.fox_walk(rel)[1] for p in (p1, p2) for rel in p.relators] == [0, 0]
    other = elems(g, "s", "s b2")
    assert representation_blocks(other, g) is not rho


def test_cached_unit_classes_match_fresh_computation():
    # the orbits and verdicts a shared group keeps, against a group object
    # that has kept nothing
    for (n, p), fracs in (((3, 2), ("5/27", "1/9", "29/75")),
                          ((4, 3), ("3/5", "11/17", "13/23"))):
        shared = build_group(n, p)
        for frac in fracs:
            pres = wirtinger_presentation(FractionR.parse(frac))
            homs = find_homs(pres, shared)
            first = unit_classes(shared, homs)
            assert unit_classes(shared, homs) == first
            assert unit_classes(MetaGroup(n, p), homs) == first
            for i, rep in enumerate(first):
                unit = next(u for u in shared.units if tuple(
                    shared.unit_image(x, u) for x in homs[rep].images) == homs[i].images)
                assert _conjugate_by_relabeling(
                    shared, homs[rep].images, homs[i].images, unit) is True
                assert _conjugate_by_relabeling(
                    MetaGroup(n, p), homs[rep].images, homs[i].images, unit)
