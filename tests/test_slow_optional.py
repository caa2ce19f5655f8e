"""The 64-dimensional torus-knot check; the full permutation-path oracle for
it is long-running and deselected by default (run with -m slow)."""

import pytest

from metatap.exactalg import canonical
from metatap.golden import permutation_rep, phi_verdict, torus_exponent, torus_prediction
from metatap.metabelian import build_group
from metatap.oracles import perm_rep, twisted_alexander_tables
from metatap.twisted import standard_assignment, twisted_alexander
from metatap.twobridge import FractionR, wirtinger_presentation

from matrix_helpers import same_ratio


def test_k17_64_dim_exponent_formula():
    """64-dimensional torus-knot case: reported against the conjectured
    exponent formula m = 2^(p-2) - floor((2^(p-1) - 1)/p) at p = 7.

    The t^7-support of phi is asserted; the exponent-formula agreement is
    only reported (it is a prediction, not an established value).
    """
    g = build_group(7, 2)
    v = phi_verdict(*permutation_rep("1/7", g), g.n)
    assert v.holds
    predicted = canonical(torus_prediction(7))
    print(f"p=7 exponent formula (m={torus_exponent(7)}) "
          f"{'matches' if v.phi == predicted else 'does NOT match'}: "
          f"phi = {v.phi}")


@pytest.mark.slow
def test_k17_64_dim_blocks_match_full_path():
    """The nine 7-dimensional character blocks and the trivial one against the
    64-dimensional permutation representation (about 30 s)."""
    g = build_group(7, 2)
    p = wirtinger_presentation(FractionR(1, 7))
    _, rho = permutation_rep("1/7", g)
    assert rho.dims == [1] + [7] * 9
    full = twisted_alexander_tables(p, perm_rep(standard_assignment(g, p), g, p))
    assert same_ratio(twisted_alexander(p, rho), full)
