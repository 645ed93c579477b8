"""Span tracing for the benchmark's traced run, installed from outside the
library.

``Tracer.install`` replaces the public functions that each roughlift
module's callers resolve at call time (module attributes, plus the
``LiftedPath.restrict`` method) with wrappers that record one span per
call.  A span holds its name, start, end, parent, thread, thread-CPU time
and the id of the trial it belongs to; counts measured at the same
boundary ride on the span.  ``uninstall`` puts every original back.
Targets missing from the library are skipped, so the harness keeps
running when a later version removes a function; its metrics then read 0.

``layer_metrics`` turns the spans of one traced CLI run into the per-layer
metrics the benchmark reports.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import threading
import time
from contextlib import contextmanager

# Percentiles tried for a tail latency, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

FLOAT_BYTES = 8


class Tracer:
    """In-memory span recorder.  Spans opened on a thread with no open span
    hang under ``root`` (the experiment span), which is how trials running
    on pool threads get their parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self.root: dict | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, kind: str | None = None):
        """Record one span; ``kind`` "trial" starts a new trial id, "root"
        makes the span the parent of spans opened on idle threads."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            sid = next(self._ids)
        rec = {"id": sid, "name": name,
               "parent": parent["id"] if parent else None,
               "trial": sid if kind == "trial" else (parent["trial"] if parent else None),
               "thread": threading.get_native_id(), "counts": {}}
        stack.append(rec)
        if kind == "root":
            self.root = rec
        cpu0 = time.thread_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = time.thread_time() - cpu0
            stack.pop()
            if kind == "root":
                self.root = None
            with self._lock:
                self.spans.append(rec)

    def wrap(self, owner, attr: str, name: str, counter=None, kind=None):
        """Replace ``owner.attr`` by a traced wrapper.  ``counter(args,
        kwargs, result)`` returns the span's counts; it runs after the span
        closes, so its cost is outside the span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, kind) as rec:
                result = original(*args, **kwargs)
            if counter is not None:
                rec["counts"] = counter(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def install(self, targets) -> int:
        """Wrap every (dotted owner, attribute, span name, counter, kind)
        target that exists; returns how many were wrapped."""
        for owner_path, attr, name, counter, kind in targets:
            owner = _resolve(owner_path)
            if owner is not None and hasattr(owner, attr):
                self.wrap(owner, attr, name, counter, kind)
        return len(self._installed)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def _resolve(dotted: str):
    """Module, or class inside a module, named by a dotted path; None if absent."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
        return obj
    return None


# --- counters: work done, measured from arguments and results -------------

def _count_physical(args, kwargs, result):
    P, _W = result
    steps = len(P.times) - 1
    # the (steps, 2d) float64 standard-normal block the exact sampler draws
    return {"fine_steps": steps,
            "noise_bytes_computed": steps * 2 * P.values.shape[1] * FLOAT_BYTES}


def _count_lift(args, kwargs, result):
    return {"points": len(result.times),
            "bytes_computed": result.times.nbytes + result.level1.nbytes
            + result.level2.nbytes}


def holder_pairs(n: int, full_pairs_limit: int) -> int:
    """Grid pairs (s, t) that holder_distance sweeps on an n-interval grid."""
    if n <= full_pairs_limit:
        return n * (n + 1) // 2
    pairs, k = 0, 1
    while k <= n:
        pairs += n - k + 1
        k *= 2
    return pairs


def _count_holder(args, kwargs, result):
    from roughlift import tensor2
    x = args[0] if args else kwargs["x"]
    limit = kwargs.get("full_pairs_limit",
                       args[3] if len(args) > 3 else tensor2.FULL_PAIRS_LIMIT)
    return {"pairs": holder_pairs(len(x.times) - 1, limit)}


def _count_renorm(args, kwargs, result):
    drift = args[0] if args else kwargs["drift"]
    return {"drift": drift.M.tobytes().hex()}


def _count_emit(args, kwargs, result):
    return {"bytes_written": sum(os.path.getsize(p) for p in result)}


# (dotted owner, attribute, span name, counter, kind).  The owner is the
# namespace the caller looks the name up in, so e.g. the lifts the magnetic
# trial makes are traced through roughlift.magnetic.
TARGETS = [
    ("roughlift.cli", "magnetic_experiment", "cli.experiment", None, "root"),
    ("roughlift.cli", "leadlag_experiment", "cli.experiment", None, "root"),
    ("roughlift.report", "emit", "report.emit", _count_emit, None),
    ("roughlift.magnetic", "run_magnetic_trial", "magnetic.trial", None, "trial"),
    ("roughlift.leadlag", "run_leadlag_trial", "leadlag.trial", None, "trial"),
    ("roughlift.magnetic", "sample_physical", "gauss.sample_physical", _count_physical, None),
    ("roughlift.gauss", "ou_joint_transition", "linstable.ou_joint_transition", None, None),
    ("roughlift.magnetic", "derive_Z", "gauss.derive_Z", None, None),
    ("roughlift.magnetic", "renorm_v", "linstable.renorm_v", _count_renorm, None),
    ("roughlift.leadlag", "sample_fbm", "gauss.sample_fbm", None, None),
    ("roughlift.leadlag", "hoff_path", "leadlag.hoff_path", None, None),
    ("roughlift.magnetic", "lift_piecewise_linear", "tensor2.lift", _count_lift, None),
    ("roughlift.leadlag", "lift_piecewise_linear", "tensor2.lift", _count_lift, None),
    ("roughlift.tensor2.LiftedPath", "restrict", "tensor2.restrict", None, None),
    ("roughlift.magnetic", "translate", "tensor2.translate", None, None),
    ("roughlift.leadlag", "translate", "tensor2.translate", None, None),
    ("roughlift.magnetic", "holder_distance", "tensor2.holder_distance", _count_holder, None),
    ("roughlift.leadlag", "holder_distance", "tensor2.holder_distance", _count_holder, None),
]


# --- analysis ---------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(k["start"], s["start"]), min(k["end"], s["end"]))
                for k in children.get(s["id"], ())]
        out[s["id"]] = (s["end"] - s["start"]) - _covered([iv for iv in kids
                                                           if iv[1] > iv[0]])
    return out


def percentile(sorted_xs, p: float) -> float:
    """Linear-interpolation percentile (numpy's default) of sorted data."""
    pos = (len(sorted_xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, sample count) for the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples above it.  Below 2 *
    TAIL_MIN_BEYOND samples no rung qualifies and the median is returned,
    its percentile saying so."""
    xs = sorted(samples)
    if not xs:
        return 0.0, 0.0, 0
    best = (TAIL_LADDER[0], percentile(xs, TAIL_LADDER[0]))
    for p in TAIL_LADDER:
        v = percentile(xs, p)
        if sum(1 for x in xs if x > v) >= TAIL_MIN_BEYOND:
            best = (p, v)
    return best[0], best[1], len(xs)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced CLI run (times in s, counts exact)."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def of(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(selfs[s["id"]] for s in of(name))

    def wait_s(name):
        return sum((s["end"] - s["start"]) - s["cpu"] for s in of(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in of(name))

    m = {}
    for name in ("gauss.sample_physical", "gauss.derive_Z", "linstable.ou_joint_transition",
                 "tensor2.lift", "tensor2.restrict", "tensor2.holder_distance",
                 "gauss.sample_fbm", "leadlag.hoff_path", "tensor2.translate",
                 "linstable.renorm_v"):
        m[f"{name}.self_s"] = self_s(name)
    m["gauss.sample_physical.wait_s"] = wait_s("gauss.sample_physical")
    m["gauss.fine_steps"] = count("gauss.sample_physical", "fine_steps")
    m["gauss.noise_bytes_computed"] = count("gauss.sample_physical", "noise_bytes_computed")
    m["tensor2.lift.points"] = count("tensor2.lift", "points")
    m["tensor2.lift.bytes_computed"] = count("tensor2.lift", "bytes_computed")
    m["tensor2.holder_distance.wait_s"] = wait_s("tensor2.holder_distance")
    m["tensor2.holder_distance.calls"] = len(of("tensor2.holder_distance"))
    pairs = count("tensor2.holder_distance", "pairs")
    m["tensor2.holder_distance.pairs"] = pairs
    m["tensor2.holder_distance.ns_per_pair"] = (
        1e9 * m["tensor2.holder_distance.self_s"] / pairs if pairs else 0.0)
    m["gauss.sample_fbm.calls"] = len(of("gauss.sample_fbm"))
    renorms = of("linstable.renorm_v")
    m["linstable.renorm_v.calls"] = len(renorms)
    m["linstable.renorm_v.useful_ratio"] = (
        len({s["counts"]["drift"] for s in renorms}) / len(renorms) if renorms else 0.0)
    m["report.emit_s"] = sum(s["end"] - s["start"] for s in of("report.emit"))
    m["report.bytes_written"] = count("report.emit", "bytes_written")

    trials = of("magnetic.trial") + of("leadlag.trial")
    trial_wall = sum(s["end"] - s["start"] for s in trials)
    in_trials = sum(selfs[s["id"]] for s in spans if s["trial"] is not None)
    m["trace.accounted_frac"] = in_trials / trial_wall if trial_wall else 0.0
    m["pool.wait_s"] = wait_s("magnetic.trial") + wait_s("leadlag.trial")
    m["trace.spans"] = len(spans)
    for kind in ("magnetic", "leadlag"):
        m[f"{kind}.trial.self_s"] = self_s(f"{kind}.trial")
    return m


def trial_durations(spans, kind: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == f"{kind}.trial"]


# Span counts that depend only on the workload's config.
EXACT_COUNT_KEYS = ("fine_steps", "noise_bytes_computed", "points", "bytes_computed", "pairs")


def exact_counts(spans) -> dict[str, int]:
    """Calls per span name and the config-determined work counts: these
    must repeat exactly across runs of one workload, whatever the seed,
    thread count or timing."""
    out: dict[str, int] = {}
    for s in spans:
        keys = [("calls", 1)] + [(k, s["counts"][k]) for k in EXACT_COUNT_KEYS
                                 if k in s["counts"]]
        for key, value in keys:
            name = f"{s['name']}.{key}"
            out[name] = out.get(name, 0) + value
    return out

