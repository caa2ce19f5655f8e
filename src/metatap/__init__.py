"""metatap: exact twisted Alexander polynomials for metabelian representations.

The package computes, in exact integer arithmetic, the twisted Alexander
polynomial of a knot for representations factoring through the metabelian
groups M(n|p,k) = Z/n x| (Z/p)^k, tests the factorization

    twisted = [Delta(t) / (1 - t)] * phi(t^n)   (phi an integer polynomial)

and, for 2-bridge knots whose group maps onto Z/2 * Z/3, cross-validates the
Fox-calculus computation against an independent continued-fraction recursion.
"""

__version__ = "0.1.0"
