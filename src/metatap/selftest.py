"""Golden-value selftest: every value of the golden table, checked through
the steps `compute` runs (`cli.compute`).

Each entry runs as `compute --assign ... --cross-check` runs it, with a
bundled knot loaded by name from the package, so that a file of the same
name in the working directory is never read.  The record's phi and holds
are compared with the table, and its delta with the bundled knots'
Alexander polynomials.  No check passes where the two computation paths
disagree, and the recursion line of an A4 value needs them to agree.
Two 16-dimensional reference values, for 10_145 and 10_159, are reported
on NOTE lines rather than asserted (see `metatap.golden` and the README).

Prints one PASS/FAIL line per check and returns the number of failures.
"""

from __future__ import annotations

from . import cli, golden
from .exactalg import canonical
from .knotdata import presentation
from .metabelian import cycle_type, group_from_name
from .twobridge import FractionR, wirtinger_presentation


def golden_input(source: str):
    """`cli.knot_input` of a 2-bridge fraction 'beta/alpha', or of a
    bundled knot loaded by name from the package."""
    if "/" in source:
        r = FractionR.parse(source)
        return cli.knot_input(wirtinger_presentation(r), str(r), r)
    return cli.knot_input(presentation(source), source, None)


def golden_record(source: str, group: str, assignment: str) -> dict:
    """compute's record, with --cross-check, for `source` (`golden_input`)
    onto `group` under the --assign text `assignment`."""
    _, (record,) = cli.compute(*golden_input(source), group_from_name(group),
                               assign=assignment, fix=None, include_all=False,
                               cross_check=True)
    return record


def structure_checks() -> list[tuple[str, bool]]:
    """The selftest label of each table of structure facts, and whether
    the group law on element indices reproduces every fact in it: the two
    texts of a conjugation name one element (`MetaGroup.parse_elem`), and
    an element's coset table has the cycle type."""
    name, pairs = golden.CONJUGATION
    group = group_from_name(name)
    checks = [(f"{name} conjugation relations",
               all(group.parse_elem(a) == group.parse_elem(b) for a, b in pairs))]
    name, types = golden.COSET_CYCLE_TYPES
    group = group_from_name(name)
    checks.append((f"{name} coset cycle types",
                   all(cycle_type(group.coset_table(group.parse_elem(text))) == want
                       for text, want in types)))
    return checks


def run() -> int:
    failures = 0

    def report(label: str, ok: bool, note: str = ""):
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'}  {label}{('  ' + note) if note else ''}")

    def check_phi(entry: golden.PhiGolden) -> None:
        rec = golden_record(entry.source, entry.group, entry.assignment)
        if entry.source in golden.ALEXANDER:
            report(f"{entry.source} Alexander polynomial",
                   rec["delta"] == str(canonical(golden.ALEXANDER[entry.source])))
        recorded = (entry.recorded is not None
                    and rec["phi"] == str(canonical(entry.recorded)))
        report(entry.label, rec["holds"] and rec["cross_path_match"] is not False
               and rec["phi"] == str(canonical(entry.value)),
               note="matches recorded value instead!" if recorded else "")
        if entry.recorded is not None:
            print(f"NOTE  {entry.source} recorded reference value differs from the "
                  f"computed invariant by {entry.discrepancy}; see README")

    # -- 3-dimensional values for 2-bridge knots, both computation paths ----
    # phi of the 4-dim permutation representation (trivial + 3-dim) is the
    # 3-dim invariant
    for frac, value in golden.A4_3DIM.items():
        rec = golden_record(frac, "A4", golden.STANDARD)
        fox = rec["holds"] and rec["phi"] == str(canonical(value))
        report(f"3-dim twisted K({frac}) via Fox calculus", fox)
        report(f"3-dim twisted K({frac}) via cf recursion",
               fox and rec["cross_path_match"] is True)

    # -- torus knots onto M(p|2,p-1) ----------------------------------------
    for entry in golden.TORUS:
        check_phi(entry)
    ps = [group_from_name(e.group).n for e in golden.TORUS]
    report(f"torus-knot exponent formula ({', '.join(f'p={p}' for p in ps)})",
           all(canonical(golden.torus_prediction(p)) == canonical(e.value)
               for p, e in zip(ps, golden.TORUS)))

    # -- conjugation table and coset cycle types ----------------------------
    for label, ok in structure_checks():
        report(label, ok)

    # -- the 9-, 16- and 25-dimensional values and the non-rational knots ---
    for entry in golden.PHI[len(golden.TORUS):]:
        check_phi(entry)

    print("selftest: all checks passed" if failures == 0
          else f"selftest: {failures} check(s) FAILED")
    return failures
