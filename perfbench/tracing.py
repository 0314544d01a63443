"""Span recording for the traced benchmark run.

``install`` wraps the library's layer entry points and rebinds every
module attribute that holds one, so a call is recorded whichever module
makes it. Spans stay in memory as ``[name, start, end, parent, request,
extra]`` lists until the process writes its report. ``summarize`` turns
the spans of many processes into self time per layer.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

# (module, function) entry points, one list per layer. Each layer is a
# module of the package; its spans are named "<layer>.<function>".
ENTRY_POINTS = {
    "keystream": ["derive_closed_step", "derive_open_step", "derive_closed_steps",
                  "derive_open_steps", "derive_open_gaussians", "load_key"],
    "closed_scheme": ["closed_step", "watermark_distribution", "watermark_distributions"],
    "open_scheme": ["open_step", "watermarked_softmax", "perturbations_for"],
    "core": ["sample_categorical", "sample_rows", "softmax_rows"],
    "detector": ["detect", "closed_statistics", "open_statistics"],
    "textgen": ["generate", "generate_many", "save_record", "load_record"],
    "sparsemean": ["null_quantile", "scan_statistic", "threshold_statistic",
                   "rejection_rate"],
    "experiments": ["run_experiments"],
}
CACHED = ["keystream.derive_closed_steps", "keystream.derive_open_steps",
          "keystream.derive_open_gaussians", "sparsemean.null_quantile"]
LAYERS = ["cli", *ENTRY_POINTS]


def _nbytes(result) -> int:
    """Bytes of key material in a derive_* result."""
    if isinstance(result, np.ndarray):
        return result.nbytes
    return sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))


def _subsets(args, kwargs, result) -> dict:
    data, k = args[0], args[1]
    return {"subsets": math.comb(np.shape(data)[1], k)}


def _key_bytes(args, kwargs, result) -> dict:
    return {"key_bytes": _nbytes(result)}


class Recorder:
    """In-memory span store for one process.

    A span opened on a thread with no open span of its own (a worker of the
    experiments thread pool) takes the innermost open span of the main
    thread as its parent, which is the call that is waiting for it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0  # set by the caller when one process serves many requests
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        span = [name, 0.0, 0.0, parent, self.request, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        span[1] = time.perf_counter()
        return span, stack

    @contextmanager
    def span(self, name: str):
        span, stack = self._open(name)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result
        return traced


def install(recorder: Recorder) -> dict:
    """Wrap every entry point in ENTRY_POINTS where each tokenmark module
    binds it, plus each experiment runner. Returns the original functions
    by span name (the cached ones answer ``cache_info``)."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "tokenmark" or name.startswith("tokenmark.")}
    originals = {}
    for layer, names in ENTRY_POINTS.items():
        home = modules.get(f"tokenmark.{layer}")
        if home is None:  # not loaded by this process, so never called
            continue
        for fn_name in names:
            original = getattr(home, fn_name)
            span_name = f"{layer}.{fn_name}"
            if layer == "keystream" and fn_name.startswith("derive"):
                extra = _key_bytes
            elif fn_name == "scan_statistic":
                extra = _subsets
            else:
                extra = None
            traced = recorder.wrap(span_name, original, extra)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
            originals[span_name] = original
    if "tokenmark.experiments" in modules:
        runners = modules["tokenmark.experiments"]._RUNNERS
        for exp_type, runner in list(runners.items()):
            runners[exp_type] = recorder.wrap(f"experiments.{exp_type}", runner)
    return originals


def cache_counts(originals: dict) -> dict:
    """Hits and misses of the cached entry points in this process."""
    out = {}
    for name in CACHED:
        if name not in originals:
            continue
        info = originals[name].cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses}
    return out


# --------------------------------------------------------------------------
# Summaries


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    child spans cover (children on pool threads may overlap)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [span[2] - span[1] - _union_length(kids)
            for span, kids in zip(spans, children)]


def summarize(processes: list[list[list]]) -> dict:
    """Per span name: calls, total self seconds, median self ms per call,
    and the summed extras; plus root time (sum of top-level spans)."""
    per_name: dict[str, dict] = {}
    per_call: dict[str, list[float]] = {}
    root_s = 0.0
    parallel_s = 0.0
    for spans in processes:
        selfs = self_times(spans)
        child_sum = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_sum[span[3]] += span[2] - span[1]
            else:
                root_s += span[2] - span[1]
        for span, own, kids in zip(spans, selfs, child_sum):
            # Time children on pool threads spent side by side.
            parallel_s += max(0.0, kids - (span[2] - span[1] - own))
            entry = per_name.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            per_call.setdefault(span[0], []).append(own)
            for key, value in (span[5] or {}).items():
                entry[key] = entry.get(key, 0) + value
    for name, entry in per_name.items():
        entry["self_ms_p50"] = float(np.median(per_call[name])) * 1e3
    layers = {layer: 0.0 for layer in LAYERS}
    for name, entry in per_name.items():
        layers[name.split(".", 1)[0]] += entry["self_s"]
    return {"spans": per_name, "layers": layers, "root_s": root_s,
            "parallel_s": parallel_s}


def calibration_draws(processes: list[list[list]]) -> int:
    """Statistic evaluations made inside null_quantile, i.e. null draws."""
    draws = 0
    for spans in processes:
        for span in spans:
            if span[3] >= 0 and spans[span[3]][0] == "sparsemean.null_quantile":
                draws += 1
    return draws
