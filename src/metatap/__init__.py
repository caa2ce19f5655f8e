"""metatap: exact twisted Alexander polynomials for metabelian representations.

The package computes, in exact integer arithmetic, the twisted Alexander
polynomial of a knot for representations factoring through the metabelian
groups M(n|p,k) = Z/n x| (Z/p)^k, tests the factorization

    twisted = [Delta(t) / (1 - t)] * phi(t^n)   (phi an integer polynomial)

and, for 2-bridge knots whose group maps onto Z/2 * Z/3, cross-validates the
Fox-calculus computation against an independent continued-fraction recursion.
"""

from .characters import representation_blocks
from .exactalg import (
    LaurentPoly,
    PolyMatrix,
    canonical,
    equal_up_to_unit,
    exact_div,
    normalize,
    parse_poly,
    supported_on_multiples,
)
from .groupcalc import (
    GroupRingElem,
    Presentation,
    Word,
    fox_derivative,
    fox_jacobian,
    parse_presentation,
    print_presentation,
)
from .knotdata import presentation as bundled_presentation
from .metabelian import (
    HomAssignment,
    MetaElem,
    MetaGroup,
    Representation,
    a4_group,
    a4_irreducible_rep,
    build_group,
    find_homs,
    group_from_name,
    obstruction_passes,
    perm_rep,
    xi0,
)
from .twisted import (
    TwistedResult,
    Verdict,
    check_a4_form,
    check_factorization,
    phi_map,
    twisted_alexander,
)
from .twinring import (
    TwinDecomp,
    recursion_series,
    twin_check,
    twin_decompose,
    twin_determinant,
    twisted_via_recursion,
    yx_geometric,
)
from .twobridge import (
    ContinuedFraction,
    FractionR,
    H3Form,
    alexander_poly,
    cf_evaluate,
    h3_expand,
    two_bridge_alexander,
    wirtinger_presentation,
)

__version__ = "0.1.0"
