"""The workload process: runs metatap CLI jobs in-process, in a closed loop.

`run.py` starts this script with a JSON spec on stdin.  The script sets up
(imports metatap from the checkout's `src/`, builds the workload's groups,
loads its bundled presentations), prints a `ready` line with the speed
probe's samples from set-up, and unless the spec says `setup_only` runs:

  * one untimed warm-up job;
  * timed rounds, one job at a time, until the next round would end after
    `seconds` (the first round always runs);
  * the `trace_jobs`, if any, under the span tracer;

with the speed probe sampling the host's CPU speed throughout both.

It then prints one JSON line per job and a final line with its peak RSS and
the probe samples.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

PROBE_INTERVAL_S = 0.1
SETUP_PROBE_INTERVAL_S = 0.02  # set-up takes about 0.15 s
# probe_kernel's time on an idle host: the fastest 5% of samples on the
# 2-vCPU Xeon (CPython 3.11) the benchmark was tuned on.  It only sets the
# scale of the compensated job times.
PROBE_IDLE_S = 0.60e-3
PROBE_MATRIX = [[(i * 7 + j * 13) % 23 - 11 + 5 * (i == j) for j in range(9)]
                for i in range(9)]


def probe_kernel() -> int:
    """Fixed integer work, independent of metatap: about 0.6 ms of Bareiss.

    Its slowdown under co-tenant load tracked that of metatap jobs: the
    slope of log job time on log probe time was 1.05 for `compute` jobs
    and 1.2 for `scan`.  Adding lookups over a megabyte-sized dict made the
    probe react to load that `compute` jobs do not feel.
    """
    n = len(PROBE_MATRIX)
    for _ in range(15):
        m = [row[:] for row in PROBE_MATRIX]
        prev = 1
        for k in range(n - 1):
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
    return m[-1][-1]


class SpeedProbe:
    """Times `probe_kernel` every `interval` seconds from a SIGALRM handler.

    The handler runs between bytecodes of whatever job is running, so each
    sample tells how fast the CPU is at that moment; run.py scales the job
    times by it.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.samples = []  # (start, duration) in perf_counter seconds

    def _tick(self, signum, frame):
        t0 = perf_counter()
        probe_kernel()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_cli():
    """metatap.cli from this checkout's `src/`, never from site-packages."""
    sys.path.insert(0, str(ROOT / "src"))
    from metatap import cli

    if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"metatap imported from {cli.__file__}, not {ROOT / 'src'}")
    return cli


def run_job(main, argv: list[str]) -> dict:
    """One CLI invocation with stdout and stderr captured, and its wall time."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as e:  # argparse rejects an argv this way
        rc = e.code
    except Exception:
        rc, error = None, traceback.format_exc()
    t1 = perf_counter()
    file_text = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.exists():
            file_text = path.read_text()
            path.unlink()
    return {"argv": argv, "rc": rc, "t0": t0, "secs": t1 - t0, "stdout": out.getvalue(),
            "file": file_text, "error": error}


def setup(spec: dict):
    cli = import_cli()
    from metatap.knotdata import presentation
    from metatap.metabelian import group_from_name

    for name in spec["groups"]:
        group_from_name(name)
    for name in spec["presentations"]:
        presentation(name)
    Path(".perfbench_out").mkdir(exist_ok=True)
    return cli


def main() -> int:
    spec = json.loads(sys.stdin.read())
    with SpeedProbe(SETUP_PROBE_INTERVAL_S) as setup_probe:
        cli = setup(spec)
    print(json.dumps({"ready": setup_probe.samples}), flush=True)
    if spec["setup_only"]:
        return 0
    results = [dict(run_job(cli.main, spec["warmup"]), phase="warmup")]
    loop_t0 = perf_counter()
    last_round_s = 0.0
    with SpeedProbe() as probe:
        for index, jobs in enumerate(spec["rounds"]):
            if index and perf_counter() - loop_t0 + last_round_s > spec["seconds"]:
                break
            round_t0 = perf_counter()
            for argv in jobs:
                results.append(dict(run_job(cli.main, argv), phase="timed", round=index))
            last_round_s = perf_counter() - round_t0
        if spec["trace_jobs"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            for job_id, argv in enumerate(spec["trace_jobs"]):
                result = tracer.job(job_id, lambda: run_job(cli.main, argv))
                results.append(dict(result, phase="traced"))
    if spec["trace_jobs"]:
        tracer.dump(spec["spans_path"])
    for result in results:
        print(json.dumps(result))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb, "probes": probe.samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
