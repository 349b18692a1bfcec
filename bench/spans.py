"""Outside-in tracing of steerdist's layers, and the arithmetic on its spans.

:func:`install` wraps each layer function listed in :data:`LAYERS` and
rebinds every module-level name in the package that refers to it (for
example ``experiments.sample_batch``, ``cutoff.filtered_ensemble`` and
``qkd.filtered_ensemble``), plus ``ChannelSpec.apply`` on the class.  No file
of the package changes.  Each call records one span ``[id, parent, name,
start, end]``; spans stay in memory and are written out with the
repetition's result when it ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

# span name -> "module:qualified name" of the function it wraps
LAYERS = {
    "channels.apply": "channels:ChannelSpec.apply",
    "gaussian.from_cov": "gaussian:from_cov",
    "nla.nla_single_mode": "nla:nla_single_mode",
    "steering.classify": "steering:classify",
    "steering.steerability": "steering:steerability",
    "steering.steerability_with_se": "steering:steerability_with_se",
    "filtered_moments.filtered_ensemble": "filtered_moments:filtered_ensemble",
    "filtered_moments.acceptance_rate_exact": "filtered_moments:acceptance_rate_exact",
    "cutoff.select_cutoff": "cutoff:select_cutoff",
    "qkd.key_rate_filtered": "qkd:key_rate_filtered",
    "qkd.key_rate_with_se": "qkd:key_rate_with_se",
    "measurement.sample_batch": "measurement:sample_batch",
    "measurement.post_select": "measurement:post_select",
    "measurement.reconstruct_covariance": "measurement:reconstruct_covariance",
    "measurement.read_batch_csv": "measurement:read_batch_csv",
}

# runner spans; their self time is reported as ``experiments.self_s``
RUNNERS = {
    f"experiments.{name}": f"experiments:{name}"
    for name in ("run_fig3", "run_regions", "run_fig4", "run_ingest")
}

PACKAGE_MODULES = ("channels", "gaussian", "nla", "steering", "filtered_moments",
                   "cutoff", "qkd", "measurement", "experiments", "cli")


def _count_sample_batch(counts, args, kwargs, result, exc):
    if result is not None:
        counts["measurement.sample_batch.records"] += len(result)
        # computed from the returned array sizes, not measured traffic
        counts["measurement.sample_batch.bytes_computed"] += sum(
            a.nbytes for a in (result.alice_basis, result.alice_value,
                               result.bob_x, result.bob_p))


def _count_post_select(counts, args, kwargs, result, exc):
    if result is not None:
        counts["measurement.post_select.records"] += len(result[0])
        counts["measurement.post_select.accepted"] += int(
            np.count_nonzero(result[0].accepted))


def _count_reconstruct(counts, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "ReconstructionError":
        counts["measurement.reconstruct_covariance.failed"] += 1


def _count_read_csv(counts, args, kwargs, result, exc):
    path = args[0] if args else kwargs["path"]
    counts["measurement.read_batch_csv.bytes"] += os.path.getsize(path)


def _count_select_cutoff(counts, args, kwargs, result, exc):
    if result is not None:
        counts["cutoff.select_cutoff.scan_points"] += len(result[1].trace)


COUNTERS = {
    "measurement.sample_batch": _count_sample_batch,
    "measurement.post_select": _count_post_select,
    "measurement.reconstruct_covariance": _count_reconstruct,
    "measurement.read_batch_csv": _count_read_csv,
    "cutoff.select_cutoff": _count_select_cutoff,
}

COUNT_NAMES = (
    "measurement.sample_batch.records",
    "measurement.sample_batch.bytes_computed",
    "measurement.post_select.records",
    "measurement.post_select.accepted",
    "measurement.reconstruct_covariance.failed",
    "measurement.read_batch_csv.bytes",
    "cutoff.select_cutoff.scan_points",
)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self._local = threading.local()
        self.reset(run_id)

    def reset(self, run_id: str) -> None:
        """Drop every span and count, and start a new run."""
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([sid, parent, name, start, end])
                if counter is not None:
                    counter(self.counts, args, kwargs, result, exc)
        return traced

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}


def _resolve(target: str):
    module_name, qualname = target.split(":")
    obj = importlib.import_module(f"steerdist.{module_name}")
    owner = None
    for part in qualname.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, qualname.split(".")[-1], obj


def install(tracer: Tracer) -> None:
    """Wrap every layer and runner, rebinding each name that refers to it."""
    modules = [importlib.import_module(f"steerdist.{m}") for m in PACKAGE_MODULES]
    for name, target in {**LAYERS, **RUNNERS}.items():
        owner, attr, original = _resolve(target)
        wrapper = tracer.wrap(name, original, COUNTERS.get(name))
        if isinstance(owner, type):  # a method: rebind it on the class
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


# --- arithmetic on spans ------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        children[parent].append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, ()), start, end)
            for sid, _, _, start, end in spans}


def tail_percentile(values, q: float = 0.9, min_beyond: int = 10) -> float:
    """The q-quantile (nearest rank) if at least ``min_beyond`` samples lie
    above it; otherwise the highest order statistic that has ``min_beyond``
    samples above it, and never less than the median."""
    xs = sorted(values)
    if not xs:
        return 0.0
    n = len(xs)
    rank = min(math.ceil(round(q * n, 9)) - 1, n - 1 - min_beyond)
    median = statistics.median(xs)
    return median if rank < 0 else max(xs[rank], median)


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics over one or more traced runs of the same workload.

    Call counts, self time and counters are medians over runs; the duration
    percentiles pool the spans of every run.
    """
    per_run = []
    durations = defaultdict(list)
    for dump in dumps:
        spans = dump["spans"]
        selfs = self_times(spans)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, _, name, start, end in spans:
            calls[name] += 1
            self_s[name] += selfs[sid]
            durations[name].append((end - start) * 1e3)
        per_run.append((calls, self_s, dump["counts"]))

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = med([calls[name] for calls, _, _ in per_run])
        out[f"{name}.self_s"] = med([self_s[name] for _, self_s, _ in per_run])
        ms = durations.get(name, [])
        out[f"{name}.ms_p50"] = float(statistics.median(ms)) if ms else 0.0
        out[f"{name}.ms_p90"] = float(tail_percentile(ms))
    out["experiments.self_s"] = med([sum(v for k, v in self_s.items() if k in RUNNERS)
                                     for _, self_s, _ in per_run])
    for name in COUNT_NAMES:
        out[name] = med([counts.get(name, 0.0) for _, _, counts in per_run])
    records = out["measurement.post_select.records"]
    out["measurement.post_select.accept_ratio"] = (
        out["measurement.post_select.accepted"] / records if records else 0.0)
    return out
