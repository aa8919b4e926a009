"""In-memory span tracing around the program's layer boundaries.

:class:`Instrumentation` replaces each layer function named in
:mod:`metrics` with a wrapper that records a span (name, start, end,
parent, thread) into a :class:`Tracer`, and puts every original back on
:meth:`Instrumentation.restore`.  Nothing inside ``src/`` changes: a
module-level function is swapped at every ``repro`` module that bound
it by name, a method on the class that defines it.  Each run of Python's
cyclic collector is a span too (``python.gc``), from ``gc.callbacks``.

A span's self time is its duration minus the part of it covered by its
child spans; spans on other threads (the shot runner's prefetch thread)
form their own trees and are never subtracted from the main thread's.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import metrics as catalogue


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    thread: int


class Tracer:
    """Span and counter store; spans stay in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        # Reentrant: a collection, and so a python.gc span, can start
        # inside any allocation, this tracer's own included.
        self._lock = threading.RLock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def to_records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "thread": s.thread,
            }
            for s in self.spans
        ]


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _observe(name: str):
    """Per-layer counters taken from a call's arguments and result."""
    if name == "core.ambiguity.find_ambiguous_subgraph":
        return lambda t, args, result: result is not None and t.count(
            "core.parallel.ambiguous"
        )
    if name == "core.pruning.check_candidate":
        return lambda t, args, result: result.verified and t.count(
            "core.pruning.verified"
        )
    if name.endswith(".decode_batch_packed"):
        return lambda t, args, result: t.count("decoders.shots", args[1].shots)
    if name.startswith("gf2.kernels."):
        key = f"{name}.bytes"
        return lambda t, args, result: t.count(
            key, sum(_nbytes(a) for a in args) + _nbytes(result)
        )
    return None


def _span_wrapper(tracer: Tracer, name: str, original):
    observe = _observe(name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return wrapper


def _row_counter(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(self, keys, *args, **kwargs):
        tracer.count("decoders.decoded_syndromes", int(keys.shape[0]))
        return original(self, keys, *args, **kwargs)

    return wrapper


class Instrumentation:
    """Installs the layer wrappers; :meth:`restore` removes every one."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._gc_spans = threading.local()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            self._replace(cls, attr, make(cls.__dict__[attr]))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and vars(mod).get(path) is original:
                self._replace(mod, path, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("instrumentation already installed")
        t = self.tracer
        for name, module, path in catalogue.SPAN_LAYERS + catalogue.KERNEL_LAYERS:
            self._wrap(module, path, lambda f, n=name: _span_wrapper(t, n, f))
        for module, path in catalogue.DECODED_ROW_HOOKS:
            self._wrap(module, path, lambda f: _row_counter(t, f))
        gc.callbacks.append(self._on_collection)

    def restore(self) -> None:
        if self._on_collection in gc.callbacks:
            gc.callbacks.remove(self._on_collection)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _on_collection(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_spans.index = self.tracer.begin(catalogue.GC_LAYER)
        elif getattr(self._gc_spans, "index", None) is not None:
            self.tracer.end(self._gc_spans.index)
            self._gc_spans.index = None


# -- aggregation ----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, [])) for i, s in enumerate(spans)
    ]


def _outermost(spans: list[Span], index: int) -> bool:
    """No ancestor carries the same name (recursion counts once)."""
    name = spans[index].name
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def layer_metrics(tracer: Tracer, root_names: set[str]) -> dict[str, float]:
    """Fold the spans into the per-layer metrics of :mod:`metrics`.

    ``root_names`` are the benchmark's own top-level spans (set-up and
    repetitions); their self time is the unattributed remainder.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name, _, _ in catalogue.SPAN_LAYERS + catalogue.KERNEL_LAYERS:
        idx = [i for i, s in enumerate(spans) if s.name == name]
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.total_s"] = sum(
            spans[i].end - spans[i].start for i in idx if _outermost(spans, i)
        )
        out[f"{name}.self_s"] = sum(selfs[i] for i in idx)
    for name, _, _ in catalogue.KERNEL_LAYERS:
        del out[f"{name}.total_s"]
        out[f"{name}.bytes"] = tracer.counts[f"{name}.bytes"]
    collections = [s for s in spans if s.name == catalogue.GC_LAYER]
    out[f"{catalogue.GC_LAYER}.calls"] = len(collections)
    out[f"{catalogue.GC_LAYER}.total_s"] = sum(s.end - s.start for s in collections)

    counts = tracer.counts
    build = out["core.optimizer.PropHunt.build_dem.calls"]
    build_misses = sum(
        1
        for s in spans
        if s.name == "sim.dem.extract_dem"
        and s.parent >= 0
        and spans[s.parent].name == "core.optimizer.PropHunt.build_dem"
    )
    out["core.optimizer.dem_cache_hit_ratio"] = _ratio(build - build_misses, build)
    checked = out["core.pruning.check_candidate.calls"]
    out["core.pruning.verified"] = counts["core.pruning.verified"]
    out["core.pruning.verified_ratio"] = _ratio(
        counts["core.pruning.verified"], checked
    )
    samples = out["core.ambiguity.find_ambiguous_subgraph.calls"]
    out["core.parallel.ambiguous"] = counts["core.parallel.ambiguous"]
    out["core.parallel.ambiguous_ratio"] = _ratio(
        counts["core.parallel.ambiguous"], samples
    )
    out["decoders.shots"] = counts["decoders.shots"]
    out["decoders.decoded_syndromes"] = counts["decoders.decoded_syndromes"]
    out["decoders.decode_ratio"] = _ratio(
        counts["decoders.decoded_syndromes"], counts["decoders.shots"]
    )
    out["experiments.shotrunner.main_wait_s"] = _main_wait(spans)
    roots = [i for i, s in enumerate(spans) if s.name in root_names]
    out["unattributed_s"] = sum(selfs[i] for i in roots)
    out["trace.wall_s"] = sum(spans[i].end - spans[i].start for i in roots)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _main_wait(spans: list[Span]) -> float:
    """Shot-runner wall time minus the decode time on its own thread."""
    decode = {
        "decoders.matching.MatchingDecoder.decode_batch_packed",
        "decoders.base.Decoder.decode_batch_packed",
    }
    wait = 0.0
    for i, s in enumerate(spans):
        if s.name != "experiments.shotrunner.run_shot_chunks":
            continue
        wait += s.end - s.start
        for d in spans[i + 1 :]:
            if d.start > s.end:
                break
            if d.name in decode and d.thread == s.thread:
                wait -= d.end - d.start
    return wait


def rep_counts(tracer: Tracer, first: int, last: int) -> dict[str, int]:
    """Work counts of spans ``first:last`` — the state-isolation check's
    fingerprint of one repetition."""
    names = Counter(s.name for s in tracer.spans[first:last])
    return {
        "extract_dem": names["sim.dem.extract_dem"],
        "build_dem": names["core.optimizer.PropHunt.build_dem"],
        "decode_calls": names["decoders.matching.MatchingDecoder.decode_batch_packed"]
        + names["decoders.base.Decoder.decode_batch_packed"],
        "sample_calls": names["sim.sampler.DemSampler.sample_packed"],
    }
