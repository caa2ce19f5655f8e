"""Golden-value selftest: recompute every value of the golden table.

Prints one PASS/FAIL line per check and returns the number of failures.
Two 16-dimensional reference values for 10_145 and 10_159 are reported on
NOTE lines rather than asserted: the recorded products disagree with the
invariant computed for every available surjection (they are short by a
factor (1-t^5)^4, and one coefficient digit); the frozen computed values
are asserted instead.  See `metatap.golden` and the README.
"""

from __future__ import annotations

import sys
import time

from . import golden
from .exactalg import canonical
from .knotdata import presentation
from .metabelian import a4_group, build_group, cycle_type, group_from_name
from .twinring import twisted_from_form
from .twobridge import FractionR, alexander_poly, h3_expand


def run(quick: bool = False, p7: bool = False, out=sys.stdout) -> int:
    failures = 0

    def report(label: str, ok: bool, note: str = ""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {label}{('  ' + note) if note else ''}", file=out)

    def check_phi(entry: golden.PhiGolden) -> None:
        if quick and not entry.quick:
            return
        if entry.source in golden.ALEXANDER:
            report(f"{entry.source} Alexander polynomial",
                   alexander_poly(presentation(entry.source))
                   == canonical(golden.ALEXANDER[entry.source]))
        t0 = time.monotonic()
        v = entry.verdict()
        label = entry.label
        if entry.budget_s is not None:
            label += f" [{time.monotonic() - t0:.1f}s]"
        recorded = entry.recorded is not None and v.phi == canonical(entry.recorded)
        report(label, v.holds and v.phi == canonical(entry.value),
               note="matches recorded value instead!" if recorded else "")
        if entry.recorded is not None:
            print(f"NOTE  {entry.source} recorded reference value differs from the "
                  f"computed invariant by {entry.discrepancy}; see README", file=out)

    # -- 3-dimensional values for 2-bridge knots, both computation paths ----
    # phi of the 4-dim permutation representation (trivial + 3-dim) is the
    # 3-dim invariant
    for frac, value in golden.A4_3DIM.items():
        r = FractionR.parse(frac)
        want = canonical(value)
        fox = golden.phi_verdict(*golden.permutation_rep(frac, a4_group()), 3)
        report(f"3-dim twisted K({frac}) via Fox calculus", fox.phi == want)
        form = h3_expand(r)
        report(f"3-dim twisted K({frac}) via cf recursion",
               form is not None and twisted_from_form(form) == want)

    # -- torus knots onto M(p|2,p-1) ----------------------------------------
    for entry in golden.TORUS:
        check_phi(entry)
    report("torus-knot exponent formula (p=3, p=5)",
           all(canonical(golden.torus_prediction(group_from_name(e.group).n))
               == canonical(e.value) for e in golden.TORUS))

    # -- conjugation table and coset cycle types ----------------------------
    M524 = build_group(5, 2)
    s = M524.s()
    conj = lambda e: M524.mul(M524.mul(s, e), M524.inv(s))
    b = {i: M524.b(i) for i in range(1, 5)}
    ok = (conj(b[1]) == b[4]
          and conj(b[2]) == M524.mul(b[1], b[4])
          and conj(b[3]) == M524.mul(b[2], b[4])
          and conj(b[4]) == M524.mul(b[3], b[4]))
    report("M(5|2,4) conjugation relations", ok)
    M432 = build_group(4, 3)
    sa = M432.mul(M432.s(), M432.b(1))
    report("M(4|3,2) coset cycle types",
           cycle_type(M432.coset_permutation(M432.s())) == (1, 4, 4)
           and cycle_type(M432.coset_permutation(sa)) == (1, 4, 4))

    # -- the 9-, 16- and 25-dimensional values and the non-rational knots ---
    for entry in golden.PHI[len(golden.TORUS):]:
        check_phi(entry)

    # -- optional long-running p = 7 torus-knot check -----------------------
    if p7:
        group = build_group(7, 2)
        t0 = time.monotonic()
        v = golden.phi_verdict(*golden.permutation_rep("1/7", group), group.n)
        dt = time.monotonic() - t0
        m7 = golden.torus_exponent(7)
        agrees = v.phi == canonical(golden.torus_prediction(7))
        print(f"INFO  K(1/7) onto M(7|2,6) [{dt:.0f}s]: holds={v.holds}; "
              f"exponent-formula prediction (m={m7}) "
              f"{'matches' if agrees else 'does NOT match'}", file=out)

    print(("selftest: all checks passed" if failures == 0
           else f"selftest: {failures} check(s) FAILED"), file=out)
    return failures
