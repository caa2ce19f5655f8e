"""Workload populations, their reference files and the seeded draw.

A population is a list of strata.  Each stratum holds inputs of about the
same cost and record count, and a round draws one input from every stratum
and shuffles them.  Every round therefore has the same mix of costs
whatever the seed, which keeps medians and rates comparable across seeds
while the seed still chooses the concrete inputs.

The reference file of a workload (`refs/<name>.json.gz`, written by
`make_refs.py`) is the authoritative copy of its strata and holds the
expected exit code and records of every input.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

# Scan output goes to a file, relative to the checkout root (the worker's
# working directory); the worker reads and removes it after each job.
SCAN_OUT = ".perfbench_out/scan.jsonl"


def compute_argv(group: str, frac: str | None = None,
                 pres: str | None = None) -> list[str]:
    source = ["--r", frac] if frac else ["--pres", pres]
    return ["compute", *source, "--group", group]


def a4_scan_argv(alpha_max: int) -> list[str]:
    return ["scan", "--group", "A4", "--h3-only", "--cross-check",
            "--jobs", "1", "--alpha-max", str(alpha_max), "--out", SCAN_OUT]


@dataclass(frozen=True)
class Spec:
    """One workload: its set-up, warm-up job and population."""

    groups: tuple[str, ...]          # built during set-up
    presentations: tuple[str, ...]   # bundled presentations loaded in set-up
    warmup: list[str]                # one untimed job before the timed loop
    strata: list[list[list[str]]] | None = None  # None: built by make_refs.py


# dense_compute: 16- and 25-dimensional permutation representations, all
# surjections per job.  Strata group inputs of equal Delta degree and close
# alpha.  Left out on purpose: 7/13 and 11/13 over M(3|5,2) (20% dearer than
# 3/7 and 5/7), 3/11 and 7/11 over M(3|5,2) (15 s each, which would double
# the round) and 5/11, 9/11 over M(4|5,2) (10% dearer than 5/9 and 7/9).
DENSE = Spec(
    groups=("M(5|2,4)", "M(4|5,2)", "M(3|5,2)"),
    presentations=("10_145",),
    warmup=compute_argv("M(5|2,4)", "1/5"),
    strata=[
        [compute_argv("M(5|2,4)", f) for f in ("1/5", "3/11", "7/11", "5/13")],
        [compute_argv("M(4|5,2)", f) for f in ("5/9", "7/9")],
        [compute_argv("M(3|5,2)", f) for f in ("3/7", "5/7")],
        [compute_argv("M(5|2,4)", pres="10_145")],
    ],
)

# mid_compute: every 2-bridge fraction with alpha <= MID_ALPHA_MAX that maps
# onto M(4|3,2).  The strata are computed by make_refs.py: inputs sorted by
# (Delta degree, alpha, beta), MID_STRATUM consecutive inputs each.
MID_ALPHA_MAX = 61
MID_GROUP = "M(4|3,2)"
MID_STRATUM = 2
MID = Spec(
    groups=(MID_GROUP,),
    presentations=(),
    warmup=compute_argv(MID_GROUP, "3/5"),
)

# a4_sweep: each round draws A4_SCANS scans independently from the band.
# Scan time grows about as alpha_max^5 (4.0 s at 151, 6.3 s at 175, 10.0 s
# at 199), so the band is narrow: an even alpha_max adds no fractions, so
# 164 scans what 163 does and every draw costs the same.
A4_BAND = (163, 164)
A4_SCANS = 4
A4 = Spec(
    groups=("A4",),
    presentations=(),
    warmup=compute_argv("A4", "5/27") + ["--cross-check"],
    strata=[[a4_scan_argv(a) for a in A4_BAND]] * A4_SCANS,
)

SPECS = {"dense_compute": DENSE, "mid_compute": MID, "a4_sweep": A4}


def key(argv: list[str]) -> str:
    return json.dumps(argv)


def ref_path(name: str) -> Path:
    return REFS / f"{name}.json.gz"


def load_refs(name: str) -> dict:
    with gzip.open(ref_path(name), "rt") as handle:
        return json.load(handle)


def save_refs(name: str, refs: dict) -> None:
    REFS.mkdir(exist_ok=True)
    text = json.dumps(refs, indent=0, sort_keys=True).encode()
    # mtime=0 keeps the file byte-identical when the content is unchanged
    with open(ref_path(name), "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
        handle.write(text)


def draw_rounds(name: str, refs: dict, seed: int, count: int) -> list[list[list[str]]]:
    """`count` rounds of argv lists; the same seed gives the same rounds."""
    rng = random.Random(f"{name}/{seed}")
    rounds = []
    for _ in range(count):
        jobs = [rng.choice(stratum) for stratum in refs["strata"]]
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def population_hash(refs: dict) -> str:
    members = sorted({key(argv) for stratum in refs["strata"] for argv in stratum})
    return hashlib.sha256(json.dumps(members).encode()).hexdigest()[:16]


def records_of(job: dict) -> list[dict]:
    """The job's records (compute JSON lines or scan rows) without `millis`."""
    text = job["file"] if job["file"] is not None else job["stdout"]
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    for rec in records:
        rec.pop("millis", None)
    return records
