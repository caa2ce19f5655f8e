"""The 64-dimensional torus knot K(1/7) onto M(7|2,6).  Its phi, through
compute's own steps, against the exponent formula; and the check of the
full permutation path, which is long-running and deselected by default
(run with -m slow).  The golden value is also in the golden table, where
selftest and the acceptance suite check it."""

import pytest

from metatap.exactalg import canonical
from metatap.golden import STANDARD, torus_prediction
from metatap.metabelian import build_group
from metatap.oracles import perm_rep, twisted_alexander_tables
from metatap.selftest import golden_record
from metatap.twisted import twisted_alexander

from matrix_helpers import assigned_blocks, generator_images, same_ratio


def test_k17_64_dim_exponent_formula():
    """phi of K(1/7) onto M(7|2,6), as `compute --assign` computes it,
    is the exponent formula m = 2^(p-2) - floor((2^(p-1) - 1)/p) at p = 7."""
    rec = golden_record("1/7", "M(7|2,6)", STANDARD)
    assert rec["holds"] and rec["cross_path_match"] is not False
    assert rec["phi"] == str(canonical(torus_prediction(7)))


@pytest.mark.slow
def test_k17_64_dim_blocks_match_full_path():
    """The nine 7-dimensional character blocks and the trivial one against the
    64-dimensional permutation representation (about 30 s)."""
    g = build_group(7, 2)
    p, rho = assigned_blocks("1/7", g)
    assert rho.dims == [1] + [7] * 9
    full = twisted_alexander_tables(p, perm_rep(generator_images(rho), g, p))
    assert same_ratio(twisted_alexander(p, rho), full)
