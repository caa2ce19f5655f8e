"""2-bridge fractions, continued fractions, the H(3) decision, and Alexander
polynomials."""

from fractions import Fraction
from itertools import product
from math import ceil, log2

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metatap.characters import representation_blocks
from metatap.exactalg import LaurentPoly, canonical, parse_poly
from metatap.golden import ALEXANDER
from metatap.groupcalc import Word, parse_presentation
from metatap.knotdata import BUNDLED, presentation
from metatap.metabelian import a4_group, group_from_name
from metatap.oracles import (
    det_bareiss, fox_derivative, fox_jacobian, fox_tables, perm_rep, trivial_rep,
    twisted_alexander_tables, word_image)
from metatap.twisted import standard_assignment
from metatap.twobridge import (
    FractionR,
    H3Form,
    NotAKnotGroupError,
    alexander_poly,
    enumerate_fractions,
    h3_expand,
    wirtinger_presentation,
)

from matrix_helpers import block_reps, from_entries, xi0_rep

P = parse_poly


# -- fractions ----------------------------------------------------------------

def test_fraction_validation():
    FractionR(3, 5)
    with pytest.raises(ValueError):
        FractionR(2, 5)          # even beta
    with pytest.raises(ValueError):
        FractionR(3, 6)          # even alpha
    with pytest.raises(ValueError):
        FractionR(5, 3)          # out of range
    with pytest.raises(ValueError):
        FractionR(3, 9)          # not coprime
    assert str(FractionR.parse(" 5/27 ")) == "5/27"


# -- continued fractions ------------------------------------------------------

def test_cf_examples():
    assert H3Form((1,), ()).value() == Fraction(1, 3)
    assert H3Form((2, 1), (-1,)).value() == Fraction(5, 27)
    assert H3Form((2, -1), (-1,)).value() == Fraction(7, 39)
    assert H3Form((2, -1), (-1,)).entries == (6, -2, -3)
    assert str(H3Form((2, -1), (-1,))) == "[6, -2, -3]"


def test_cf_zero_denominator():
    # no form meets a zero denominator: every entry has |a| >= 2, so every
    # partial value stays inside (-1, 1) and |a + v| > 1
    parts = (-2, -1, 1, 2)
    for q in (1, 2, 3):
        for ks in product(parts, repeat=q):
            for ms in product(parts, repeat=q - 1):
                form = H3Form(ks, ms)
                value = Fraction(0)
                for a in reversed(form.entries):
                    assert abs(a + value) > 1
                    value = 1 / (a + value)
                assert value == form.value()


def test_cf_entry_validation():
    with pytest.raises(ValueError):
        H3Form((), ())
    with pytest.raises(ValueError):
        H3Form((1, 1), (0,))
    with pytest.raises(ValueError):
        H3Form((1, 0), (1,))
    with pytest.raises(ValueError):
        H3Form((1, 1), ())


# -- H(3) decision ------------------------------------------------------------

def test_h3_examples():
    assert h3_expand(FractionR(1, 9)) == H3Form((3,), ())
    assert h3_expand(FractionR(5, 27)) == H3Form((2, 1), (-1,))
    assert h3_expand(FractionR(3, 5)) is None


def test_h3_certificate_is_checked():
    form = h3_expand(FractionR(227, 777))
    assert form is not None
    assert form.value() == Fraction(227, 777)


def test_h3_round_trip_small_forms():
    # every small form that evaluates to a valid fraction is found again
    for ks in product(*([[-2, -1, 1, 2]] * 2)):
        for ms in product([(m,) for m in (-2, -1, 1, 2)]):
            try:
                form = H3Form(ks, ms[0])
            except ValueError:
                continue
            val = form.value()
            b, a = val.numerator, val.denominator
            if a % 2 == 0 or abs(b) % 2 == 0 or not 0 < b < a:
                continue
            assert h3_expand(FractionR(b, a)) == form


def h3_forms_by_value(max_den):
    """Every entry list [3k1, 2m1, ..., 3kq] whose value has denominator
    <= max_den, keyed by that value; built bottom up in Fraction.

    Prepending an entry a with |a| >= 2 to a suffix of value p/q
    (|p| < q) gives q/(a q + p), whose denominator |a q + p| > (|a| - 1) q
    exceeds q.  So every suffix of a listed form is listed too, and
    extending the suffixes level by level until none stays within
    max_den misses nothing.
    """
    forms = {}
    frontier = [((a,), Fraction(1, a)) for a in range(-max_den, max_den + 1, 3) if a]
    while frontier:
        longer = []
        for entries, value in frontier:
            if len(entries) % 2:
                forms.setdefault(value, []).append(entries)
            step = 2 if len(entries) % 2 else 3
            bound = max_den // value.denominator + 1
            for a in range(-(bound // step) * step, bound + 1, step):
                if a and (1 / (a + value)).denominator <= max_den:
                    longer.append(((a,) + entries, 1 / (a + value)))
        frontier = longer
    return forms


def test_h3_expand_matches_bottom_up_enumeration():
    # the fractions with alpha <= 99 that have a form are exactly those on
    # which h3_expand returns one, each has one form, and it is that one
    members = {value: entries for value, entries in h3_forms_by_value(99).items()
               if 0 < value < 1 and value.numerator % 2 and value.denominator % 2}
    decided = {r.as_fraction(): h3_expand(r) for r in enumerate_fractions(99)}
    assert {value for value, form in decided.items() if form is not None} == set(members)
    for value, entries in members.items():
        assert entries == [decided[value].entries], value
    assert len(members) > 50


def test_h3_expand_matches_fraction_search():
    # The bounded search h3_expand replaced, on Fraction tails, as an oracle
    # of the forms it finds: four candidates per step, a node budget and a
    # depth cap.
    def nearest(value, step, count=4):
        base = int(value / step)
        cands = {step * (base + d) for d in range(-3, 4)}
        cands.discard(0)
        return sorted(cands, key=lambda c: (abs(value - c), c))[:count]

    def dfs(target, position, depth, budget):
        if depth <= 0 or budget[0] <= 0 or target == 0:
            return None
        budget[0] -= 1
        recip = 1 / target
        step = 3 if position % 2 == 1 else 2
        if position % 2 == 1 and recip.denominator == 1 and recip % 3 == 0:
            return [int(recip)]
        for a in nearest(recip, step):
            tail = recip - a
            if tail == 0 or abs(tail) > 1:
                continue
            rest = dfs(tail, position + 1, depth - 1, budget)
            if rest is not None:
                return [a] + rest
        return None

    found = 0
    for r in enumerate_fractions(201):
        depth = 2 * ceil(log2(r.alpha)) + 4
        entries = dfs(r.as_fraction(), 1, depth, [1 << 17])
        form = None if entries is None else H3Form(
            tuple(a // 3 for a in entries[0::2]), tuple(a // 2 for a in entries[1::2]))
        assert h3_expand(r) == form
        found += form is not None
    assert found > 100


nonzero = st.integers(-4, 4).filter(bool)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(nonzero, min_size=1, max_size=40), st.data())
def test_h3_round_trip_random_forms(ks, data):
    ms = data.draw(st.lists(nonzero, min_size=len(ks) - 1, max_size=len(ks) - 1))
    form = H3Form(tuple(ks), tuple(ms))
    if form.value() < 0:
        # every tail lies in (-1, 1) and is nonzero; negating flips the sign
        form = H3Form(tuple(-k for k in ks), tuple(-m for m in ms))
    value = form.value()
    assume(value.numerator % 2 and value.denominator % 2)
    assert h3_expand(FractionR(value.numerator, value.denominator)) == form


def test_h3form_validation():
    with pytest.raises(ValueError):
        H3Form((), ())
    with pytest.raises(ValueError):
        H3Form((1, 2), ())          # ms length mismatch
    with pytest.raises(ValueError):
        H3Form((1, 0), (1,))        # zero k


# -- Wirtinger presentations --------------------------------------------------

def test_wirtinger_examples():
    p = wirtinger_presentation(FractionR(1, 3))
    assert p.relators[0] == parse_presentation("gens: x y\nrel: x y x Y X Y").relators[0]

    p = wirtinger_presentation(FractionR(3, 5))
    # W = x y^-1 x^-1 y from the floor-sign sequence +,-,-,+
    assert p.relators[0] == \
        parse_presentation("gens: x y\nrel: x Y X y x Y x y X Y").relators[0]

    p = wirtinger_presentation(FractionR(5, 27))
    assert len(p.relators[0]) == 2 * 26 + 2
    assert p.relators[0].exponent_sum() == 0


def test_alexander_examples():
    for r, delta in ((FractionR(1, 3), "1 - t + t^2"), (FractionR(3, 5), "1 - 3*t + t^2"),
                     (FractionR(1, 5), "1 - t + t^2 - t^3 + t^4")):
        assert alexander_poly(wirtinger_presentation(r)) == P(delta)


def test_alexander_nonrational():
    gold = {
        **ALEXANDER,
        "10_159": P("1 - t + t^2") * P("1 - 3*t + 5*t^2 - 3*t^3 + t^4"),
    }
    for name, value in gold.items():
        assert alexander_poly(presentation(name)) == canonical(value)


def fox_derivative_jacobian(p, rho, delete):
    """The entries of the Fox matrix under rho with generator `delete`'s
    column removed, one fox_derivative per block: entry (i, j) of block
    (relator, g) sums coef * rho(w)[i][j] * t^(exponent sum of w)."""
    kept = [g for g in range(1, p.num_generators + 1) if g != delete]
    rows = []
    for rel in p.relators:
        derivs = [[(w.exponent_sum(), c, word_image(rho, w))
                   for w, c in fox_derivative(rel, g).terms.items()] for g in kept]
        for i in range(rho.dim):
            rows.append(tuple(
                LaurentPoly((deg, c * m[i][j]) for deg, c, m in terms)
                for terms in derivs for j in range(rho.dim)))
    return tuple(rows)


def fox_jacobian_alexander(p):
    """Delta from the abelianized Fox Jacobian, one fox_derivative per entry,
    with the last generator's column deleted."""
    rows = [[LaurentPoly((w.exponent_sum(), c)
                         for w, c in fox_derivative(rel, g).terms.items())
             for g in range(1, p.num_generators)]
            for rel in p.relators]
    return canonical(from_entries(rows).det())


def test_fox_jacobian_matches_fox_derivative_jacobian():
    """fox_jacobian against the per-entry Jacobian under the trivial, perm_rep,
    character-block and xi0 representations, for every deleted column; the
    character blocks' tables come from their element-index walk."""
    cases = []
    for source, group_name, assign in (("5/27", "A4", None), ("3/5", "M(4|3,2)", None),
                                       ("8_5", "A4", {"x": "s", "y": "s b1", "z": "s"})):
        group = group_from_name(group_name)
        if assign is None:
            p = wirtinger_presentation(FractionR.parse(source))
            images = standard_assignment(group, p)
        else:
            p = presentation(source)
            images = tuple(group.parse_elem(assign[g]) for g in p.generators)
        reps = [trivial_rep(p), perm_rep(images, group, p)]
        if group == a4_group():
            reps.append(xi0_rep(images, group))
        cases += [(p, rho, [fox_tables(rho, rel)[0] for rel in p.relators])
                  for rho in reps]
        blocks = representation_blocks(images, group, p)
        walked = [fox_tables(blocks, rel) for rel in p.relators]
        cases += [(p, rho, [table[b] for table in walked])
                  for b, rho in enumerate(block_reps(blocks))]
    assert len(cases) == 15
    for p, rho, tables in cases:
        for delete in range(1, p.num_generators + 1):
            jac = fox_jacobian(tables, p.num_generators, rho.dim, delete)
            assert jac.dim == rho.dim * len(p.relators)
            assert jac.entries() == fox_derivative_jacobian(p, rho, delete)


def test_alexander_matches_fox_derivative_jacobian():
    knots = [wirtinger_presentation(r) for r in enumerate_fractions(99)]
    knots += [presentation(name) for name in BUNDLED]
    assert {"8_5", "10_145"} <= {p.name for p in knots}
    for p in knots:
        assert alexander_poly(p) == fox_jacobian_alexander(p), p.name
        # the trivial representation's Fox tables, eliminated over Z[t, 1/t]
        tables = twisted_alexander_tables(p, trivial_rep(p), det=det_bareiss)
        assert alexander_poly(p) == tables.numerator, p.name


def test_wirtinger_relator_matches_word_products():
    # the relator built in one pass, against W x W^-1 y^-1 as word products
    for r in enumerate_fractions(61):
        letters = [(-1 if (i * r.beta // r.alpha) % 2 else 1) * (1 if i % 2 else 2)
                   for i in range(1, r.alpha)]
        w = Word(letters)
        old = w * Word.gen(1) * w.inverse() * Word.gen(2, -1)
        (relator,) = wirtinger_presentation(r).relators
        assert relator.letters == old.letters, r
        assert len(relator) == 2 * r.alpha


def test_alexander_rejects_non_knot():
    from metatap.groupcalc import Presentation, Word

    # <x, y | x y> abelianizes to Z with Delta(1) = 2-ish garbage
    with pytest.raises((NotAKnotGroupError, ValueError)):
        alexander_poly(Presentation(("x", "y"), (Word([1, 1, -2]),)))


def test_alexander_sweep_palindromic_alpha_99():
    for r in enumerate_fractions(99):
        p = wirtinger_presentation(r)
        assert p.relators[0].exponent_sum() == 0
        delta = alexander_poly(p)
        assert delta.evaluate(1) in (1, -1)
        reversed_delta = LaurentPoly((-d, c) for d, c in delta.terms)  # t -> 1/t
        assert canonical(reversed_delta) == delta


def test_enumerate_fractions():
    fs = list(enumerate_fractions(9))
    assert [str(r) for r in fs] == [
        "1/3", "1/5", "3/5", "1/7", "3/7", "5/7", "1/9", "5/9", "7/9"]
