"""Traced mode: spans around the public functions of each metatap layer.

The tracer wraps functions from the outside, so no source file changes.  A
function imported by name into other modules (`from .intmat import int_det`)
is replaced in every `metatap` module that holds it, and a method is
replaced on its class.  Spans stay in memory and are written out once, at
the end of the run; `summarize` turns them into the per-layer metrics.

A layer whose function no longer exists is reported as absent, and its
metrics read 0.  The workload process imports this module only for a
traced run, so the untraced run never sees a wrapper.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

JOB = "cli.job"


def _find_homs_attrs(args, result):
    p, group = args[0], args[1]
    return {"candidates": (group.p ** group.k) ** (p.num_generators - 1),
            "surjective": sum(1 for h in result if h.surjective)}


# (layer, module, attribute, attrs(args, result) -> dict or None)
TARGETS = [
    ("exactalg.det_interpolate", "metatap.exactalg", "PolyMatrix.det_interpolate",
     lambda args, result: {"dim": args[0].dim}),
    ("exactalg.det_cofactor", "metatap.exactalg", "PolyMatrix.det_cofactor", None),
    ("intmat.int_det", "metatap.intmat", "int_det", None),
    ("twisted.twisted_alexander", "metatap.twisted", "twisted_alexander", None),
    ("twisted.check_factorization", "metatap.twisted", "check_factorization", None),
    ("metabelian.obstruction", "metatap.metabelian", "obstruction_passes",
     lambda args, result: {"passed": bool(result)}),
    ("metabelian.find_homs", "metatap.metabelian", "find_homs", _find_homs_attrs),
    ("metabelian.perm_rep", "metatap.metabelian", "perm_rep", None),
    ("twobridge.h3_expand", "metatap.twobridge", "h3_expand",
     lambda args, result: {"found": result is not None}),
    ("twobridge.alexander", "metatap.twobridge", "alexander_poly", None),
    ("twobridge.presentation", "metatap.twobridge", "wirtinger_presentation", None),
    ("twinring.recursion", "metatap.twinring", "twisted_via_recursion", None),
]

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
METRICS = [
    ("exactalg.det_interpolate.calls", "count"),
    ("exactalg.det_interpolate.s", "s"),
    ("exactalg.det_interpolate.self_s", "s"),
    ("exactalg.det_interpolate.points", "count"),
    ("exactalg.det_interpolate.max_dim", "count"),
    ("exactalg.det_cofactor.calls", "count"),
    ("exactalg.det_cofactor.s", "s"),
    ("intmat.int_det.calls", "count"),
    ("intmat.int_det.det_s", "s"),
    ("intmat.int_det.resultant_s", "s"),
    ("twisted.twisted_alexander.calls", "1/job"),
    ("twisted.twisted_alexander.self_s", "s"),
    ("twisted.check_factorization.calls", "count"),
    ("twisted.check_factorization.s", "s"),
    ("metabelian.obstruction.calls", "count"),
    ("metabelian.obstruction.s", "s"),
    ("metabelian.obstruction.pass_ratio", "ratio"),
    ("metabelian.find_homs.calls", "count"),
    ("metabelian.find_homs.s", "s"),
    ("metabelian.find_homs.candidates", "count"),
    ("metabelian.find_homs.surjective_ratio", "ratio"),
    ("metabelian.perm_rep.calls", "count"),
    ("metabelian.perm_rep.s", "s"),
    ("twobridge.h3_expand.calls", "count"),
    ("twobridge.h3_expand.s", "s"),
    ("twobridge.h3_expand.found_ratio", "ratio"),
    ("twobridge.alexander.calls", "count"),
    ("twobridge.alexander.s", "s"),
    ("twobridge.presentation.s", "s"),
    ("twinring.recursion.calls", "count"),
    ("twinring.recursion.s", "s"),
    ("cli.jobs", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []      # (id, parent, job, layer, t0, t1, attrs)
        self.absent = []     # layers whose function was not found
        self._stack = [None]
        self._job = None
        self._next_id = 0

    def install(self) -> None:
        for layer, module_name, attr, attrs in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            wrapped = self._wrap(layer, original, attrs)
            if owner_name:
                setattr(owner, name, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "metatap":
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapped)

    def _wrap(self, layer, fn, attrs):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._new_id()
            parent = stack[-1]
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = None
                if attrs is not None:
                    try:
                        extra = attrs(args, result)
                    except Exception:  # a changed signature must not crash the run
                        extra = None
                spans.append((sid, parent, self._job, layer, t0, t1, extra))

        wrapper.__wrapped__ = fn
        return wrapper

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def job(self, job_id: int, run):
        """Run `run()` as the root span of job `job_id`."""
        self._job = job_id
        sid = self._new_id()
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return run()
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, None, job_id, JOB, t0, t1, None))
            self._job = None

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps({"absent": self.absent}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path):
    with open(path) as handle:
        absent = json.loads(handle.readline())["absent"]
        spans = [json.loads(line) for line in handle]
    return spans, absent


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics (all of METRICS except trace.overhead_ratio)."""
    name_of = {s[0]: s[3] for s in spans}
    child_s = defaultdict(float)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            child_s[parent] += t1 - t0
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    attr_sum = defaultdict(int)
    max_dim = 0
    points = 0
    int_det_under = defaultdict(float)
    top_level_s = 0.0
    for sid, parent, _, layer, t0, t1, attrs in spans:
        dur = t1 - t0
        calls[layer] += 1
        busy[layer] += dur
        self_s[layer] += dur - child_s[sid]
        if parent is not None and name_of[parent] == JOB:
            top_level_s += dur
        for k, v in (attrs or {}).items():
            attr_sum[layer, k] += v
        if layer == "exactalg.det_interpolate" and attrs:
            max_dim = max(max_dim, attrs["dim"])
        if layer == "intmat.int_det" and parent is not None:
            int_det_under[name_of[parent]] += dur
            points += name_of[parent] == "exactalg.det_interpolate"

    def ratio(num, den):
        return num / den if den else 0.0

    jobs = calls[JOB]
    return {
        "exactalg.det_interpolate.calls": calls["exactalg.det_interpolate"],
        "exactalg.det_interpolate.s": busy["exactalg.det_interpolate"],
        "exactalg.det_interpolate.self_s": self_s["exactalg.det_interpolate"],
        "exactalg.det_interpolate.points": points,
        "exactalg.det_interpolate.max_dim": max_dim,
        "exactalg.det_cofactor.calls": calls["exactalg.det_cofactor"],
        "exactalg.det_cofactor.s": busy["exactalg.det_cofactor"],
        "intmat.int_det.calls": calls["intmat.int_det"],
        "intmat.int_det.det_s": int_det_under["exactalg.det_interpolate"],
        "intmat.int_det.resultant_s": int_det_under["metabelian.obstruction"],
        "twisted.twisted_alexander.calls": ratio(calls["twisted.twisted_alexander"], jobs),
        "twisted.twisted_alexander.self_s": self_s["twisted.twisted_alexander"],
        "twisted.check_factorization.calls": calls["twisted.check_factorization"],
        "twisted.check_factorization.s": busy["twisted.check_factorization"],
        "metabelian.obstruction.calls": calls["metabelian.obstruction"],
        "metabelian.obstruction.s": busy["metabelian.obstruction"],
        "metabelian.obstruction.pass_ratio": ratio(
            attr_sum["metabelian.obstruction", "passed"], calls["metabelian.obstruction"]),
        "metabelian.find_homs.calls": calls["metabelian.find_homs"],
        "metabelian.find_homs.s": busy["metabelian.find_homs"],
        "metabelian.find_homs.candidates": attr_sum["metabelian.find_homs", "candidates"],
        "metabelian.find_homs.surjective_ratio": ratio(
            attr_sum["metabelian.find_homs", "surjective"],
            attr_sum["metabelian.find_homs", "candidates"]),
        "metabelian.perm_rep.calls": calls["metabelian.perm_rep"],
        "metabelian.perm_rep.s": busy["metabelian.perm_rep"],
        "twobridge.h3_expand.calls": calls["twobridge.h3_expand"],
        "twobridge.h3_expand.s": busy["twobridge.h3_expand"],
        "twobridge.h3_expand.found_ratio": ratio(
            attr_sum["twobridge.h3_expand", "found"], calls["twobridge.h3_expand"]),
        "twobridge.alexander.calls": calls["twobridge.alexander"],
        "twobridge.alexander.s": busy["twobridge.alexander"],
        "twobridge.presentation.s": busy["twobridge.presentation"],
        "twinring.recursion.calls": calls["twinring.recursion"],
        "twinring.recursion.s": busy["twinring.recursion"],
        "cli.jobs": jobs,
        "cli.self_s": busy[JOB] - top_level_s,
    }
