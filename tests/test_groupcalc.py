"""Free-group words, Fox derivatives, and the presentation parser."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatap.exactalg import ZERO, LaurentPoly
from metatap.groupcalc import (
    Presentation, PresentationError, Word, fox_determinant, parse_presentation,
    reduce_letters)
from metatap.oracles import GroupRingElem, fox_derivative, fox_derivative_recursive

words = st.lists(
    st.integers(-3, 3).filter(lambda x: x != 0), max_size=10
).map(Word)


# -- words --------------------------------------------------------------------

def test_reduce():
    assert Word([1, -1]) == Word()
    assert Word([1, 2, -2, 1]) == Word([1, 1])
    assert len(Word([1, 2, -2, -1])) == 0


def test_reduce_letters_loop_for_pairs_and_zero():
    # a reduced word is returned as it is; an inverse pair, also one that
    # meets only after another cancels, goes through the loop, and so
    # does a 0 letter, which raises wherever it stands
    assert reduce_letters([1, 2, -1, -2]) == (1, 2, -1, -2)
    assert reduce_letters((2, 1, -1, -2, 3)) == (3,)
    for letters in ([0], [1, 0], [2, 0, -1], [0, 0]):
        with pytest.raises(ValueError, match="^0 is not a valid letter$"):
            reduce_letters(letters)


@given(st.lists(st.integers(-3, 3).filter(bool), max_size=12))
@settings(max_examples=200, deadline=None)
def test_reduce_letters_matches_stack_reduction(letters):
    stack = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    assert reduce_letters(letters) == tuple(stack)


def test_invert():
    assert Word([1, 2]).inverse() == Word([-2, -1])
    w = Word([1, -2, 1, 1])
    assert (w * w.inverse()) == Word()


def test_pow():
    x = Word.gen(1)
    assert x**3 == Word([1, 1, 1])
    assert x**-2 == Word([-1, -1])
    assert Word.gen(2, -1) == Word([-2])


@given(words, words)
@settings(max_examples=200, deadline=None)
def test_inverse_antihomomorphism(w, v):
    assert (w * v).inverse() == v.inverse() * w.inverse()


@given(words)
@settings(max_examples=100, deadline=None)
def test_reduce_idempotent(w):
    assert Word(w.letters) == w


def test_exponent_sum():
    assert Word([1, 2, -1]).exponent_sum() == 1
    assert Word([1, 2, 1, -2, -1, -2]).exponent_sum() == 0
    assert Word([1, 1, 1]).exponent_sum() == 3


@given(words, words)
@settings(max_examples=100, deadline=None)
def test_exponent_sum_homomorphism(w, v):
    assert (w * v).exponent_sum() == w.exponent_sum() + v.exponent_sum()


# -- Fox derivatives ----------------------------------------------------------

def test_fox_axioms():
    x, y = Word.gen(1), Word.gen(2)
    assert fox_derivative(x * y, 1) == GroupRingElem.one()
    assert fox_derivative(x.inverse(), 1) == GroupRingElem.of(x.inverse(), -1)
    assert fox_derivative(y, 1) == GroupRingElem.zero()


def test_fox_trefoil_relator():
    r0 = Word([1, 2, 1, -2, -1, -2])
    d = fox_derivative(r0, 1)
    expected = (GroupRingElem.one()
                + GroupRingElem.of(Word([1, 2]))
                - GroupRingElem.of(Word([1, 2, 1, -2, -1])))
    assert d == expected


@given(words)
@settings(max_examples=200, deadline=None)
def test_fox_matches_recursive_oracle(w):
    for g in (1, 2, 3):
        assert fox_derivative(w, g) == fox_derivative_recursive(w, g)


@given(words, words)
@settings(max_examples=200, deadline=None)
def test_fox_product_rule(u, v):
    for g in (1, 2):
        lhs = fox_derivative(u * v, g)
        rhs = fox_derivative(u, g) + fox_derivative(v, g).left_mul_word(u)
        assert lhs == rhs


@given(words)
@settings(max_examples=200, deadline=None)
def test_fox_fundamental_identity(w):
    # sum_g (dw/dg) * (g - 1) = w - 1 in the group ring
    total = GroupRingElem.zero()
    for g in (1, 2, 3):
        dg = fox_derivative(w, g)
        gminus = GroupRingElem.of(Word([g])) - GroupRingElem.one()
        total = total + dg * gminus
    assert total == GroupRingElem.of(w) - GroupRingElem.one()


def test_fox_determinant_reads_coefficients_at_the_bound():
    # one key per relator, diagonal in the block and in the Fox matrix: the
    # determinant's one coefficient is +-prod |count * value|, the bound
    rng = random.Random(53)
    for n in range(1, 5):
        for dim in (1, 2, 3):
            for _ in range(8):
                relators, coeff, degree = [], 1, 0
                for g in range(1, n + 1):
                    c, d = rng.choice((1, -1)) * rng.randint(1, 10**6), rng.randint(-6, 6)
                    values = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(dim)]
                    relators.append([(g, {d: c}, [(w, w, v) for w, v in enumerate(values)])])
                    coeff *= c**dim * math.prod(values)
                    degree += d * dim
                expected = LaurentPoly([(degree, coeff)])
                assert fox_determinant(relators, n + 1, dim) == expected
                # the deleted generator's column held the only nonzero key
                assert fox_determinant(relators, 1, dim) == ZERO


# -- presentations ------------------------------------------------------------

K35_TEXT = """\
# the 3/5 two-bridge presentation: W x W^-1 y^-1 with W = x y^-1 x^-1 y
gens: x y
rel: x Y X y x Y x y X Y
"""


def test_parse_basic():
    p = parse_presentation("gens: x y\nrel: x y X Y\n")
    assert p.generators == ("x", "y")
    assert p.relators == (Word([1, 2, -1, -2]),)


def test_parse_comments_and_caret():
    p = parse_presentation("gens: x y  # two meridians\nrel: x^-1 y x y^2\n")
    assert p.relators[0] == Word([-1, 2, 1, 2, 2])


def test_parse_degenerate_single_generator():
    p = parse_presentation("gens: x\nrel: x\n")
    assert p.generators == ("x",)
    assert p.relators == (Word([1]),)


def test_parse_errors_carry_position():
    with pytest.raises(PresentationError) as e:
        parse_presentation("gens: x y\nrel: x q\n")
    assert e.value.line == 2
    with pytest.raises(PresentationError):
        parse_presentation("gens: x y\nrel: x y^0\n")
    with pytest.raises(PresentationError):
        parse_presentation("gens: x y\nrel: x y^\n")
    with pytest.raises(PresentationError):
        parse_presentation("gens: x y\nrel:\n")
    with pytest.raises(PresentationError):
        parse_presentation("rel: x\n")
    with pytest.raises(PresentationError):
        parse_presentation("gens: x xx\nrel: x\n")


def test_k35_text_matches_generated_presentation():
    from metatap.twobridge import FractionR, wirtinger_presentation

    parsed = parse_presentation(K35_TEXT)
    generated = wirtinger_presentation(FractionR(3, 5))
    assert parsed.relators == generated.relators


def test_three_generator_presentation():
    from metatap.knotdata import presentation

    p = presentation("8_5")
    assert p.num_generators == 3
    assert len(p.relators) == 2
    assert p.deficiency_one()
    assert all(r.exponent_sum() == 0 for r in p.relators)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("x",), (Word([2]),))  # undeclared generator
    with pytest.raises(ValueError):
        Presentation(("x", "X"), (Word([1]),))  # not lowercase
