"""Tests of the benchmark's own code (not of the program it measures)."""

from __future__ import annotations

import gc
import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics as catalogue
from perfbench import workloads
from perfbench.child import _best
from perfbench.tracing import (
    Instrumentation,
    Span,
    Tracer,
    layer_metrics,
    self_times,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Added by the measuring process on top of layer_metrics().
TRACE_RUN_EXTRAS = {
    "process.peak_rss_mb",
    "streaming.p99_round_s",
    "trace.untraced_throughput",
    "trace.traced_throughput",
    "trace.overhead",
}


def _bindings() -> dict[tuple[int, str], object]:
    """Every function-valued attribute of every repro module and class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                seen[(id(module), attr)] = value
            elif isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if isinstance(cvalue, types.FunctionType):
                        seen[(id(value), cattr)] = cvalue
    return seen


def test_traced_run_restores_every_wrapped_attribute():
    layers = catalogue.SPAN_LAYERS + catalogue.KERNEL_LAYERS
    for _, module, _ in layers:
        importlib.import_module(module)
    before = _bindings()
    callbacks = list(gc.callbacks)
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with Instrumentation(tracer):
            during = _bindings()
            assert len(gc.callbacks) == len(callbacks) + 1
            raise RuntimeError("boom")
    assert gc.callbacks == callbacks
    changed = [key for key, value in during.items() if before.get(key) is not value]
    # Every layer in the catalogue was actually wrapped somewhere.
    wrapped = {during[key].__wrapped__.__qualname__ for key in changed}
    for _, _, path in layers:
        assert path in wrapped
    assert _bindings() == before


def test_wrappers_record_nested_spans_and_counts():
    from repro.sim import bitbatch

    tracer = Tracer()
    words = np.ones((3, 2), dtype=np.uint64)
    with Instrumentation(tracer):
        total = bitbatch.popcount_words(words)
    assert total == 6
    # Any collection during the call would be a python.gc span too.
    names = [s.name for s in tracer.spans if s.name != catalogue.GC_LAYER]
    assert names == ["gf2.kernels.popcount_words"]
    assert tracer.counts["gf2.kernels.popcount_words.bytes"] == words.nbytes
    spans = len(tracer.spans)
    assert bitbatch.popcount_words(words) == 6  # unwrapped again
    assert len(tracer.spans) == spans


def test_collections_are_spans_under_the_call_they_interrupt():
    tracer = Tracer()
    with Instrumentation(tracer):
        index = tracer.begin("core.optimizer.PropHunt.optimize")
        gc.collect()
        tracer.end(index)
    collections = [s for s in tracer.spans if s.name == catalogue.GC_LAYER]
    assert any(s.parent == index for s in collections)
    out = layer_metrics(tracer, set())
    assert out["python.gc.calls"] == len(collections)
    assert out["python.gc.total_s"] == sum(s.end - s.start for s in collections)
    span = tracer.spans[index]
    assert out["core.optimizer.PropHunt.optimize.self_s"] < span.end - span.start


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 2.0, 3.0, 1, 1),
        Span("c", 5.0, 6.0, 0, 1),
        Span("other-thread", 0.0, 9.0, -1, 2),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 9.0]


def test_trace_run_prints_exactly_the_per_layer_catalogue():
    tracer = Tracer()
    tracer.spans.append(Span("bench.rep", 0.0, 2.0, -1, 1))
    tracer.spans.append(Span("sim.dem.extract_dem", 0.5, 1.5, 0, 1))
    out = layer_metrics(tracer, {"bench.rep"})
    assert out["sim.dem.extract_dem.self_s"] == 1.0
    assert out["unattributed_s"] == 1.0
    assert set(out) | TRACE_RUN_EXTRAS == {m.name for m in catalogue.PER_LAYER}


def _unit(k, elapsed, latencies, output="same"):
    return workloads.UnitResult(elapsed, 10 + k, latencies, output, index=k)


def test_best_takes_each_units_fastest_run_and_lowest_latencies():
    unit0 = [_unit(0, 2.0, [0.5, 0.9]), _unit(0, 1.0, [0.6, 0.3])]
    unit1 = [_unit(1, 1.0, [0.4]), _unit(1, 4.0, [0.1]), _unit(1, 3.0, [0.2])]
    throughput, latencies, problems = _best([unit0, unit1])
    assert throughput == (10 + 11) / (1.0 + 1.0)
    assert latencies == [0.5, 0.3, 0.1]
    assert problems == []


def test_best_flags_runs_that_disagree():
    _, _, problems = _best([[_unit(0, 1.0, [0.1]), _unit(0, 1.0, [0.1], "other")]])
    assert problems == ["unit 0: runs gave different outputs"]
    _, _, problems = _best([[_unit(0, 1.0, [0.1]), _unit(0, 1.0, [0.1, 0.2])]])
    assert problems == ["unit 0: runs did different work"]


def test_optimize_unit_set_follows_request_counts_not_speed():
    requests = [2, 10, 2, 30, 5]

    class Fake(workloads.OptimizeLp39):
        def run_unit(self, state, k):
            return workloads.UnitResult(99.0 * k, requests[k], [], k, index=k)

    # 2 + 10 + 2 = 14 requests stay under the budget of 24; problem 3 ends it.
    assert [r.index for r in Fake().first_pass(None)] == [0, 1, 2, 3]


def test_metric_names_are_well_formed_and_unique():
    names = [m.name for m in catalogue.END_TO_END + catalogue.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert catalogue.NAME_RE.fullmatch(name), name


def test_benchmark_json_matches_the_catalogue():
    end_to_end = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalogue.END_TO_END
    ]
    per_layer = [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalogue.PER_LAYER
    ]
    assert SPEC["end_to_end"] == end_to_end
    assert SPEC["per_layer"] == per_layer
    for m in catalogue.END_TO_END + catalogue.PER_LAYER:
        assert m.why.strip(), f"{m.name} has no reason for inclusion"
    assert SPEC["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    setup = SPEC["end_to_end"][0]
    assert setup["name"] == "setup_s"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ler-lp39"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
