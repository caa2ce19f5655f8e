"""The golden values: every closed-form answer metatap reproduces, written once.

`metatap selftest` and the test suite both read this table, and it holds
data only: each phi entry names its input, group and assignment as
`compute --assign` takes them, and selftest checks it through compute's
own steps.  Values keep their factored form; every comparison goes
through `canonical`, since the invariants are defined only up to +-t^k.

Two entries carry a `recorded` reference value that the program does not
reproduce: the 16-dimensional phi of 10_145 and of 10_159 over M(5|2,4).
Every surjection of either knot group onto M(5|2,4) yields one and the same
invariant, so the computed value is the golden one, and the recorded value
stays a documented discrepancy (README, "Known discrepancies").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactalg import LaurentPoly, parse_poly as P

# The standard assignment x -> s, y -> s b1 of a 2-bridge knot's two
# generators, as `compute --assign` reads it.
STANDARD = "x=s; y=s b1"

# 3-dimensional twisted polynomials of 2-bridge knots K(beta/alpha), for the
# STANDARD assignment onto A4: the invariant of the irreducible
# 3-dimensional block, and phi of the 4-dimensional permutation
# representation (trivial + 3-dimensional).
A4_3DIM = {
    "1/3": P("1 - t^3"),
    "1/9": P("1 - t^3") * P("1 - t^3 + t^6") * P("1 + t^3 + t^6")**2,
    "5/27": P("1 - t^3") * P("4 + 7*t^3 + 4*t^6"),
    "7/39": P("1 - t^3") * P("1 - 3*t^3 + t^6") * P("1 + t^3 + t^6")**2,
    "29/75": P("1 - t^3") * P("4 - t^3") * P("1 - 4*t^3"),
    "227/777": (P("1 - t^3") * P("1 - 3*t^3 + t^6") * P("1 + t^3 + t^6")
                * P("2 - 3*t^3 + 2*t^6")
                * P("4 - 36*t^3 - 35*t^6 - 71*t^9 - 35*t^12 - 36*t^15 + 4*t^18")),
}

# Structure facts of two target groups, as element texts: conjugation by s
# in M(5|2,4), where b4^-1 = b4, and the cycle types of the coset
# permutations of s and s b1 in M(4|3,2).
CONJUGATION = ("M(5|2,4)", (("s b1 s^-1", "b4"), ("s b2 s^-1", "b1 b4"),
                            ("s b3 s^-1", "b2 b4"), ("s b4 s^-1", "b3 b4")))
COSET_CYCLE_TYPES = ("M(4|3,2)", (("s", (1, 4, 4)), ("s b1", (1, 4, 4))))

# Alexander polynomials of bundled non-rational knots.
ALEXANDER = {
    "8_5": P("1 - t + t^2") * P("1 - 2*t + t^2 - 2*t^3 + t^4"),
    "10_145": P("1 + t - 3*t^2 + t^3 + t^4"),
}


@dataclass(frozen=True)
class PhiGolden:
    """phi(t^n) of one knot over one group M(n|p,k), for one assignment.

    `source` is a 2-bridge fraction 'beta/alpha' or a bundled knot name;
    `group` is spelled as `group_from_name` reads it; `assignment` is the
    text `compute --assign` reads.  `recorded` is a reference value that
    differs from the computed one by `discrepancy`.
    """

    label: str
    source: str
    group: str
    value: LaurentPoly
    assignment: str = STANDARD
    recorded: Optional[LaurentPoly] = None
    discrepancy: str = ""


def torus_prediction(p: int) -> LaurentPoly:
    """(1 - t^p)^m (1 + t^p)^(m-1) with the conjectured exponent
    m = 2^(p-2) - floor((2^(p-1) - 1)/p), for the torus knot K(1/p) onto
    M(p|2,p-1)."""
    m = 2**(p - 2) - (2**(p - 1) - 1) // p
    return P(f"1 - t^{p}")**m * P(f"1 + t^{p}")**(m - 1)


# The torus knots K(1/p) onto M(p|2,p-1), where torus_prediction applies.
# The 64-dimensional value at p = 7 is a frozen computed value.
TORUS = (
    PhiGolden("K(1/3) onto M(3|2,2): phi", "1/3", "A4", P("1 - t^3")),
    PhiGolden("K(1/5) onto M(5|2,4): phi", "1/5", "M(5|2,4)",
              P("1 - t^5")**5 * P("1 + t^5")**4),
    PhiGolden("K(1/7) onto M(7|2,6): phi", "1/7", "M(7|2,6)",
              P("1 - t^7")**23 * P("1 + t^7")**22),
)

# Every phi golden value, in the order selftest reports them.
PHI = TORUS + (
    PhiGolden("K(3/5) onto M(4|3,2): phi", "3/5", "M(4|3,2)", P("1 - t^4")**2),
    PhiGolden("K(3/7) onto M(4|3,2): phi", "3/7", "M(4|3,2)", 4 * P("1 - t^4")**2),
    PhiGolden("K(5/13) onto M(4|3,2): phi", "5/13", "M(4|3,2)", P("1 - t^12")**2),
    PhiGolden("K(11/17) onto M(4|3,2): phi", "11/17", "M(4|3,2)",
              P("1 - t^4")**4 * P("1 + t^4 + t^8")**3),
    PhiGolden("K(13/23) onto M(4|3,2): phi", "13/23", "M(4|3,2)",
              P("1 - t^4")**2 * P("4 - 13*t^4 - 9*t^8 - 13*t^12 + 4*t^16")),
    PhiGolden("K(3/7) onto M(3|5,2): phi", "3/7", "M(3|5,2)", 16 * P("1 - t^3")**8),
    PhiGolden("K(7/11) onto M(3|5,2): phi", "7/11", "M(3|5,2)",
              P("1 - t^3")**8
              * P("1 - 3*t^3 - 2*t^6 - 6*t^9 - 5*t^12 - 6*t^15 - 2*t^18 - 3*t^21 + t^24")**2),
    PhiGolden("K(9/23) onto M(3|5,2): phi", "9/23", "M(3|5,2)",
              P("1 - t^3")**8
              * P("1 - 5*t^6 - 20*t^9 - 28*t^12 - 20*t^15 - 5*t^18 + t^24")**2
              * P("1 - 5*t^3 + 10*t^6 - 10*t^9 + 7*t^12 - 10*t^15 + 10*t^18 - 5*t^21 + t^24")**2),
    PhiGolden("K(9/31) onto M(3|5,2): phi", "9/31", "M(3|5,2)",
              P("1 - t^3")**8
              * P("1 + 3*t^3 - 6*t^6 + 15*t^9 - 15*t^12 + 15*t^15 - 6*t^18 + 3*t^21 + t^24")**2
              * P("4 + 12*t^3 + 36*t^6 + 30*t^9 + 35*t^12 + 30*t^15 + 36*t^18 + 12*t^21 + 4*t^24")**2),
    PhiGolden("K(5/9) onto M(4|5,2): phi (reducible companion)", "5/9", "M(4|5,2)",
              16 * P("1 - t^4")**6),
    PhiGolden("8_5 onto A4: phi", "8_5", "A4",
              P("1 - t^3") * P("1 - 8*t^3 - 6*t^6 - 8*t^9 + t^12"),
              "x=s; y=s b1; z=s"),
    PhiGolden("10_159 onto A4: phi", "10_159", "A4",
              P("1 - t^3") * P("1 - 3*t^3 - 3*t^6 - 3*t^9 + t^12"),
              "x=s; y=s; z=s b1"),
    PhiGolden("10_145 onto M(5|2,4): phi (frozen computed value)", "10_145", "M(5|2,4)",
              P("1 - t^5")**5 * P("1 + 14*t^5 + t^10") * P("1 + 30*t^5 + t^10"),
              "x=s b1 b2 b3 b4; y=s b1; z=s",
              recorded=P("1 - t^5") * P("1 + 14*t^5 + t^10") * P("1 + 3*t^5 + t^10"),
              discrepancy="(1-t^5)^4 and one digit"),
    PhiGolden("10_159 onto M(5|2,4): phi (frozen computed value)", "10_159", "M(5|2,4)",
              P("1 - t^5")**5 * P("1 + 3*t^5 + t^10")
              * P("1 - 31*t^5 + 12*t^10 - 31*t^15 + t^20")
              * P("1 + 5*t^5 + 52*t^10 + 5*t^15 + t^20"),
              "x=s; y=s b1 b4; z=s b1",
              recorded=P("1 - t^5") * P("1 + 3*t^5 + t^10")
              * P("1 - 31*t^5 + 12*t^10 - 31*t^15 + t^20")
              * P("1 + 5*t^5 + 52*t^10 + 5*t^15 + t^20"),
              discrepancy="(1-t^5)^4"),
)


def phi_value(source: str, group: str) -> LaurentPoly:
    """The golden phi of `source` over `group`, as spelled in the table."""
    return next(e.value for e in PHI if (e.source, e.group) == (source, group))
