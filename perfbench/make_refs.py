"""Regenerate the reference files in refs/ from the program at this commit.

    python3 perfbench/make_refs.py [workload ...]

Runs every input of each population (and its warm-up job) through
`metatap.cli.main`, stores the exit code and the records without `millis`,
and refuses to write a file whose records fail a check or the golden anchor.
Regenerating references or changing a population is a benchmark-only change:
it goes in its own commit, never with a change to the program.
"""

from __future__ import annotations

import os
import sys

import anchor
from worker import ROOT, import_cli, run_job
from workloads import (MID_ALPHA_MAX, MID_GROUP, MID_STRATUM, SPECS,
                       compute_argv, key, records_of, save_refs)


def expect(main, argv) -> dict:
    job = run_job(main, argv)
    if job["error"]:
        sys.exit(f"{' '.join(argv)} raised:\n{job['error']}")
    records = records_of(job)
    bad = [r for r in records if r["holds"] is False or r["cross_path_match"] is False]
    if bad:
        sys.exit(f"{' '.join(argv)}: failed record {bad[0]}")
    print(f"{job['secs']:7.2f}s rc={job['rc']} records={len(records):4d}  {' '.join(argv)}",
          flush=True)
    return {"exit": job["rc"], "records": records}


def mid_strata(main, expected: dict) -> list[list]:
    """Fractions that map onto the group, in strata of like Delta degree."""
    from metatap.exactalg import parse_poly
    from metatap.twobridge import enumerate_fractions

    kept = []
    for r in enumerate_fractions(MID_ALPHA_MAX):
        argv = compute_argv(MID_GROUP, str(r))
        ref = expect(main, argv)
        if ref["exit"] == 2:  # no representation: left out of the population
            continue
        if ref["exit"] != 0:
            sys.exit(f"{' '.join(argv)}: unexpected exit {ref['exit']}")
        expected[key(argv)] = ref
        degree = parse_poly(ref["records"][0]["delta"]).degree()
        kept.append(((degree, r.alpha, r.beta), argv))
    kept.sort()
    strata = [[argv for _, argv in kept[i:i + MID_STRATUM]]
              for i in range(0, len(kept), MID_STRATUM)]
    if len(strata) > 1 and len(strata[-1]) < MID_STRATUM // 2:
        strata[-2].extend(strata.pop())
    return strata


def build(name: str, main) -> dict:
    spec = SPECS[name]
    expected = {}
    strata = spec.strata or mid_strata(main, expected)
    for argv in [spec.warmup] + [argv for stratum in strata for argv in stratum]:
        if key(argv) not in expected:
            expected[key(argv)] = expect(main, argv)
    return {"strata": strata, "expected": expected}


def main() -> int:
    os.chdir(ROOT)
    names = sys.argv[1:] or list(SPECS)
    unknown = [n for n in names if n not in SPECS]
    if unknown:
        sys.exit(f"unknown workload(s) {unknown}; have {list(SPECS)}")
    cli = import_cli()
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    for name in names:
        refs = build(name, cli.main)
        problems = anchor.check({name: refs})
        if problems:
            sys.exit("golden anchor failed:\n  " + "\n  ".join(problems))
        save_refs(name, refs)
        print(f"wrote refs for {name}: {len(refs['expected'])} inputs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
