"""Golden anchor: the stored references must reproduce known values.

References are generated by the program they check, so on their own they
would certify themselves.  Where a population overlaps the golden values of
`metatap selftest`, the reference record for the golden assignment
(x = s, y = s b1, as selftest assigns it) must carry exactly the golden phi.
The values below restate selftest's; keep them verbatim.

For 10_145 the golden assignment pins x rather than the first generator, so
it is not among `compute`'s records.  Every surjection has the same
invariant, so every record must carry the frozen computed value, and none
the recorded literature value, which stays a documented discrepancy as in
selftest.  (10_159 is in no population.)
"""

from __future__ import annotations

from workloads import compute_argv, key

GOLDEN_ASSIGNMENT = "x=s; y=s b1"


def golden(P):
    """(workload, argv, phi, must-not-equal or None); P parses a polynomial."""
    def m432(frac, phi):
        return ("mid_compute", compute_argv("M(4|3,2)", frac), phi, None)

    return [
        ("dense_compute", compute_argv("M(3|5,2)", "3/7"), 16 * P("1 - t^3")**8, None),
        ("dense_compute", compute_argv("M(4|5,2)", "5/9"), 16 * P("1 - t^4")**6, None),
        ("dense_compute", compute_argv("M(5|2,4)", "1/5"),
         P("1 - t^5")**5 * P("1 + t^5")**4, None),
        ("dense_compute", compute_argv("M(5|2,4)", pres="10_145"),
         P("1 - t^5")**5 * P("1 + 14*t^5 + t^10") * P("1 + 30*t^5 + t^10"),
         P("1 - t^5") * P("1 + 14*t^5 + t^10") * P("1 + 3*t^5 + t^10")),
        m432("3/5", P("1 - t^4")**2),
        m432("3/7", 4 * P("1 - t^4")**2),
        m432("5/13", P("1 - t^12")**2),
        m432("11/17", P("1 - t^4")**4 * P("1 + t^4 + t^8")**3),
        m432("13/23", P("1 - t^4")**2 * P("4 - 13*t^4 - 9*t^8 - 13*t^12 + 4*t^16")),
    ]


def check(refs: dict[str, dict]) -> list[str]:
    """Failure messages (empty when the anchor holds) for the loaded refs."""
    from metatap.exactalg import canonical, parse_poly

    problems = []
    for workload, argv, phi, recorded in golden(parse_poly):
        if workload not in refs:
            continue
        expected = refs[workload]["expected"].get(key(argv))
        label = " ".join(argv)
        if expected is None:
            problems.append(f"{label}: golden input missing from the {workload} references")
            continue
        records = expected["records"]
        if recorded is None:
            records = [r for r in records if r["assignment"] == GOLDEN_ASSIGNMENT]
        if not records:
            problems.append(f"{label}: no reference record for the golden assignment")
        for rec in records:
            if rec["phi"] != str(canonical(phi)):
                problems.append(f"{label}: reference phi {rec['phi']} is not the golden value")
            if recorded is not None and rec["phi"] == str(canonical(recorded)):
                problems.append(f"{label}: reference phi equals the recorded value")
    return problems
