"""Benchmark entry point for the metatap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script draws the workload's inputs
from the seed, times the set-up of fresh workload processes, runs the jobs
in one workload process (closed loop, one client), checks every job against
the stored references and the golden anchor, and prints a summary line and,
last, one JSON result line.  With `--trace 0` the result holds the
end-to-end metrics; with `--trace 1`, the per-layer metrics of a traced
replay of the first round.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import anchor
import spans
import workloads
from worker import PROBE_IDLE_S, ROOT, import_cli
from workloads import SPECS, key, records_of

OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 11     # fresh processes timed from start to ready
MAX_ROUNDS = 16       # rounds drawn; the worker runs as many as fit
WORKER_TIMEOUT_S = 160
TAIL_BEYOND = 10      # job_tail_s: highest percentile with this many jobs beyond
TAIL_MIN_JOBS = 20
PROBE_WINDOW_S = 0.5  # probe samples this close to a job also tell its speed

END_TO_END = [("setup_s", "s"), ("job_p50_s", "s"), ("records_per_s", "1/s"),
              ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def worker(spec: dict) -> subprocess.Popen:
    script = Path(__file__).with_name("worker.py")
    proc = subprocess.Popen([sys.executable, str(script)], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(spec))
    proc.stdin.close()
    return proc


def probe_setup(setup: dict) -> float:
    """Compensated seconds from starting a fresh workload process until it
    is ready."""
    t0 = perf_counter()
    proc = worker(dict(setup, setup_only=True))
    line = proc.stdout.readline()
    secs = perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or not line.startswith('{"ready"'):
        raise BenchError("workload process failed during set-up")
    samples = json.loads(line)["ready"]
    if not samples:
        raise BenchError("the speed probe took no samples during set-up")
    durations = [d for _, d in samples]
    return compensate(secs - sum(durations), durations)


def run_worker(spec: dict) -> tuple[list[dict], dict]:
    proc = worker(dict(spec, setup_only=False))
    try:
        out = proc.stdout.read()
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith('{"ready"'):
        raise BenchError(f"workload process exited with {proc.returncode}")
    return [json.loads(line) for line in lines[1:-1]], json.loads(lines[-1])


def verify(job: dict, expected: dict) -> str | None:
    """Why the job failed, or None when its output matches the reference."""
    ref = expected.get(key(job["argv"]))
    if ref is None:
        return "no reference for this input"
    if job["error"]:
        return job["error"].strip().splitlines()[-1]
    if job["rc"] != ref["exit"]:
        return f"exit {job['rc']}, reference {ref['exit']}"
    records = records_of(job)
    if records != ref["records"]:
        return "records differ from the reference"
    if any(r["holds"] is False for r in records):
        return "a record has holds: false"
    if any(r["cross_path_match"] is False for r in records):
        return "a record has cross_path_match: false"
    return None


def compensate(busy: float, samples: list[float]) -> float:
    """`busy` seconds at the speed the probe samples saw, in idle-host seconds.

    Each sample times the same fixed work, so `PROBE_IDLE_S / sample` is the
    CPU speed at that moment relative to an idle host.
    """
    return busy * statistics.mean(PROBE_IDLE_S / d for d in samples)


def host_compensated(jobs: list[dict], probes: list) -> tuple[list[float], float]:
    """Job times in idle-host seconds, and the run's median host slowdown.

    A job's time, less the probe samples inside it, is scaled by the speed
    of the samples from PROBE_WINDOW_S before it starts to PROBE_WINDOW_S
    after it ends: a short job holds too few samples of its own.
    """
    if not probes:
        raise BenchError("the speed probe took no samples")
    starts = [t for t, _ in probes]
    out = []
    for job in jobs:
        t0, t1 = job["t0"], job["t0"] + job["secs"]
        inside = probes[bisect.bisect_left(starts, t0):bisect.bisect_left(starts, t1)]
        near = probes[bisect.bisect_left(starts, t0 - PROBE_WINDOW_S):
                      bisect.bisect_left(starts, t1 + PROBE_WINDOW_S)]
        busy = job["secs"] - sum(d for _, d in inside)
        out.append(compensate(busy, [d for _, d in near or probes]))
    return out, statistics.median(d for _, d in probes) / PROBE_IDLE_S


def tail(secs: list[float]) -> dict | None:
    """Highest whole percentile with TAIL_BEYOND jobs beyond it (nearest rank)."""
    n = len(secs)
    if n < TAIL_MIN_JOBS:
        return None
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    value = sorted(secs)[math.ceil(pct * n / 100) - 1]
    return {"value": value, "unit": "s", "percentile": pct, "samples": n}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checkout's commit from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args) -> tuple[dict, dict, list]:
    if not (ROOT / "src" / "metatap" / "cli.py").is_file():
        raise BenchError(f"no metatap sources under {ROOT / 'src'}")
    if not all(workloads.ref_path(name).is_file() for name in SPECS):
        raise BenchError("reference files missing; run perfbench/make_refs.py")
    import_cli()  # the anchor parses polynomials with this checkout's metatap
    refs = {name: workloads.load_refs(name) for name in SPECS}
    ref, spec = refs[args.workload], SPECS[args.workload]
    problems = anchor.check(refs)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    rounds = workloads.draw_rounds(args.workload, ref, args.seed, MAX_ROUNDS)
    setup = {"groups": spec.groups, "presentations": spec.presentations}
    probe_setup(setup)  # untimed: the first start writes the bytecode cache
    setup_s = statistics.median(probe_setup(setup) for _ in range(SETUP_PROBES))
    jobs, final = run_worker(dict(setup, warmup=spec.warmup, rounds=rounds,
                                  seconds=args.seconds, spans_path=str(spans_path),
                                  trace_jobs=rounds[0] if args.trace else []))

    failures = []
    for job in jobs:
        reason = verify(job, ref["expected"])
        job["ok"] = reason is None
        if reason:
            failures.append(f"{' '.join(job['argv'])}: {reason}")
    timed_jobs = [job for job in jobs if job["phase"] == "timed"]
    traced_jobs = [job for job in jobs if job["phase"] == "traced"]
    secs, slowdown = host_compensated(timed_jobs + traced_jobs, final["probes"])
    timed, traced = secs[:len(timed_jobs)], secs[len(timed_jobs):]
    records = sum(len(records_of(job)) for job in timed_jobs if job["ok"])
    end_to_end = {
        "setup_s": setup_s,
        "job_p50_s": statistics.median(timed),
        "records_per_s": records / sum(timed),
        "peak_rss_mb": final["peak_rss_kb"] / 1024,
    }
    metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    run_rounds = timed_jobs[-1]["round"] + 1
    summary = {
        "workload": args.workload,
        "metrics": metrics,
        "job_tail_s": tail(timed),
        "host_slowdown": slowdown,
        "raw_job_p50_s": statistics.median(job["secs"] for job in timed_jobs),
        "fail_ratio": len(failures) / len(jobs),
        "failures": failures[:5],
        "golden_anchor": problems or "ok",
        "rounds": run_rounds,
        "timed_jobs": len(timed),
        "stamp": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "commit": git_commit(),
            "seed": args.seed,
            "inputs_sha256": digest(rounds[:run_rounds]),
            "population_sha256": {name: workloads.population_hash(r)
                                  for name, r in refs.items()},
        },
    }
    if args.trace:
        span_list, absent = spans.load(spans_path)
        layer = spans.summarize(span_list)
        # layer seconds at idle-host speed, as the traced pass's job times
        scale = sum(traced) / sum(job["secs"] for job in traced_jobs)
        for name, unit in spans.METRICS:
            if unit == "s":
                layer[name] *= scale
        untraced = [t for job, t in zip(timed_jobs, timed) if job["round"] == 0]
        layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.METRICS}
        summary["per_layer"] = metrics
        summary["absent_layers"] = absent
        summary["spans"] = str(spans_path.relative_to(ROOT))
    result = {"correct": not failures and not problems, "attempted": len(jobs),
              "failed": len(failures), "metrics": metrics}
    job_log = [{"argv": job["argv"], "phase": job["phase"], "ok": job["ok"],
                "wall_s": job["secs"], "idle_host_s": t}
               for job, t in zip(timed_jobs + traced_jobs, secs)]
    return summary, result, job_log


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        summary, result, job_log = bench(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "result": result, "jobs": job_log}, indent=1) + "\n")
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
