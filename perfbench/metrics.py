"""The benchmark's metric catalogue: every metric it prints, once.

``BENCHMARK.json`` at the repository root lists the same names and
units (``perfbench/tests/test_perfbench.py`` keeps the two in step);
this file adds what the JSON format has no room for: why each metric
is there.

End-to-end metrics are measured with tracing off; per-layer metrics
come from the separate traced run (``--trace 1``).  Per-layer names are
``<module>.<function>.{calls,total_s,self_s}`` with the module path
relative to the ``repro`` package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    why: str
    bound: float | None = None  # end-to-end only


END_TO_END = [
    Metric(
        "setup_s",
        "s",
        "lower",
        "process start to the first timed unit: import, code and schedule "
        "build, noise lowering, DEM extraction, decoder construction",
        bound=0.25,
    ),
    Metric(
        "throughput",
        "1/s",
        "higher",
        "work of the run's fixed unit set over the sum of each unit's "
        "fastest pass: DEM requests, shots or stream rounds, by workload",
        bound=0.25,
    ),
    Metric(
        "p50_latency_ms",
        "ms",
        "lower",
        "median time to one thing a caller waits on, each its fastest over "
        "the passes: a DEM build, a shot chunk, or a stream round",
        bound=0.25,
    ),
    Metric(
        "setup_rss_mb",
        "MB",
        "lower",
        "peak resident memory at the end of set-up: imports, DEM and decoder",
        bound=0.1,
    ),
]

# Layers traced as spans: (metric prefix, module, attribute path).  The
# attribute is replaced at every repro module that imported it, or on
# the class for a method, and restored afterwards.
SPAN_LAYERS = [
    ("sim.dem.extract_dem", "repro.sim.dem", "extract_dem"),
    (
        "circuits.builder.build_memory_experiment",
        "repro.circuits.builder",
        "build_memory_experiment",
    ),
    ("noise.model.NoiseModel.apply", "repro.noise.model", "NoiseModel.apply"),
    (
        "core.decoding_graph.DecodingGraph",
        "repro.core.decoding_graph",
        "DecodingGraph.__init__",
    ),
    ("core.optimizer.PropHunt.optimize", "repro.core.optimizer", "PropHunt.optimize"),
    (
        "core.optimizer.PropHunt.build_dem",
        "repro.core.optimizer",
        "PropHunt.build_dem",
    ),
    ("core.parallel.sample_and_solve", "repro.core.parallel", "sample_and_solve"),
    (
        "core.ambiguity.find_ambiguous_subgraph",
        "repro.core.ambiguity",
        "find_ambiguous_subgraph",
    ),
    (
        "core.minweight.solve_min_weight_logical",
        "repro.core.minweight",
        "solve_min_weight_logical",
    ),
    ("core.changes.enumerate_candidates", "repro.core.changes", "enumerate_candidates"),
    ("core.pruning.check_candidate", "repro.core.pruning", "check_candidate"),
    (
        "sim.sampler.DemSampler.sample_packed",
        "repro.sim.sampler",
        "DemSampler.sample_packed",
    ),
    (
        "decoders.matching.MatchingDecoder.decode_batch_packed",
        "repro.decoders.matching",
        "MatchingDecoder.decode_batch_packed",
    ),
    (
        "decoders.base.Decoder.decode_batch_packed",
        "repro.decoders.base",
        "Decoder.decode_batch_packed",
    ),
    ("decoders.make_decoder", "repro.decoders.metrics", "make_decoder"),
    (
        "experiments.shotrunner.run_shot_chunks",
        "repro.experiments.shotrunner",
        "run_shot_chunks",
    ),
    ("streaming.runner.stream_decode", "repro.streaming.runner", "stream_decode"),
    (
        "streaming.window.WindowedDecoder.push",
        "repro.streaming.window",
        "WindowedDecoder.push",
    ),
    (
        "streaming.window.WindowedDecoder.finish",
        "repro.streaming.window",
        "WindowedDecoder.finish",
    ),
]

# Packed-bit kernels: leaf spans that also count the bytes they were
# handed and returned (computed from array sizes, not measured traffic).
KERNEL_LAYERS = [
    ("gf2.kernels.transpose_words", "repro.gf2.kernels", "transpose_words"),
    ("gf2.kernels.unique_shot_words", "repro.gf2.kernels", "unique_shot_words"),
    ("gf2.kernels.popcount_words", "repro.gf2.kernels", "popcount_words"),
]

# Python's cyclic collector, recorded as a span per collection from
# ``gc.callbacks``; nested under whatever layer call it interrupted, so
# that layer's self time excludes it.
GC_LAYER = "python.gc"

# Span-less wrappers that count the rows reaching a decoder's
# unique-syndrome core (after dedup and the per-decoder memo).
DECODED_ROW_HOOKS = [
    ("repro.decoders.matching", "MatchingDecoder._decode_unique_keys"),
    ("repro.decoders.base", "Decoder._decode_unique_packed"),
    ("repro.decoders.bposd", "BpOsdDecoder._decode_unique_packed"),
]

_SPAN_WHY = {
    "sim.dem.extract_dem": "DEM extraction, the largest share of the "
    "optimizer loop; set-up cost on the LER and stream workloads",
    "circuits.builder.build_memory_experiment": "circuit build per "
    "evaluated schedule",
    "noise.model.NoiseModel.apply": "noise lowering per evaluated schedule",
    "core.decoding_graph.DecodingGraph": "decoding-graph construction per DEM",
    "core.optimizer.PropHunt.optimize": "the optimizer entry point; its "
    "self time is the loop's own glue",
    "core.optimizer.PropHunt.build_dem": "DEM requests, hits and misses of "
    "the optimizer's DEM cache",
    "core.parallel.sample_and_solve": "subgraph sampling plus solving, per "
    "basis and iteration",
    "core.ambiguity.find_ambiguous_subgraph": "random subgraph growth until "
    "ambiguity appears",
    "core.minweight.solve_min_weight_logical": "min-weight logical error "
    "solver",
    "core.changes.enumerate_candidates": "candidate schedule changes",
    "core.pruning.check_candidate": "candidate verification; self time "
    "excludes its nested DEM build",
    "sim.sampler.DemSampler.sample_packed": "packed shot sampling",
    "decoders.matching.MatchingDecoder.decode_batch_packed": "packed "
    "matching decode, the surface-code hot path",
    "decoders.base.Decoder.decode_batch_packed": "packed decode through the "
    "base path, used by BP+OSD",
    "decoders.make_decoder": "decoder construction",
    "experiments.shotrunner.run_shot_chunks": "the LER loop entry point",
    "streaming.runner.stream_decode": "the streaming entry point",
    "streaming.window.WindowedDecoder.push": "per-round window push, "
    "including commits",
    "streaming.window.WindowedDecoder.finish": "final commit of a stream",
}

_KERNEL_WHY = {
    "gf2.kernels.transpose_words": "bit transpose of packed detector rows",
    "gf2.kernels.unique_shot_words": "grouping shots by syndrome",
    "gf2.kernels.popcount_words": "set-bit counts",
}


def _per_layer() -> list[Metric]:
    out = []
    for name, _, _ in SPAN_LAYERS:
        why = _SPAN_WHY[name]
        out.append(Metric(f"{name}.calls", "count", "lower", f"{why}: calls"))
        out.append(Metric(f"{name}.total_s", "s", "lower", f"{why}: inclusive time"))
        out.append(Metric(f"{name}.self_s", "s", "lower", f"{why}: self time"))
    for name, _, _ in KERNEL_LAYERS:
        why = _KERNEL_WHY[name]
        out.append(Metric(f"{name}.calls", "count", "lower", f"{why}: calls"))
        out.append(Metric(f"{name}.self_s", "s", "lower", f"{why}: self time"))
        out.append(Metric(f"{name}.bytes", "B", "lower", f"{why}: bytes in plus out"))
    why = (
        "collections by Python's cyclic collector, which the untraced runs "
        "pause inside timed calls"
    )
    out.append(Metric(f"{GC_LAYER}.calls", "count", "lower", f"{why}: calls"))
    out.append(Metric(f"{GC_LAYER}.total_s", "s", "lower", f"{why}: time"))
    out += [
        Metric(
            "core.optimizer.dem_cache_hit_ratio",
            "ratio",
            "higher",
            "1 - extract_dem calls / PropHunt.build_dem calls (base: "
            "core.optimizer.PropHunt.build_dem.calls)",
        ),
        Metric(
            "core.pruning.verified",
            "count",
            "higher",
            "candidates that passed both pruning checks",
        ),
        Metric(
            "core.pruning.verified_ratio",
            "ratio",
            "higher",
            "verified / checked candidates (base: "
            "core.pruning.check_candidate.calls)",
        ),
        Metric(
            "core.parallel.ambiguous",
            "count",
            "higher",
            "sampled subgraphs that turned out ambiguous",
        ),
        Metric(
            "core.parallel.ambiguous_ratio",
            "ratio",
            "higher",
            "ambiguous subgraphs / samples (base: "
            "core.ambiguity.find_ambiguous_subgraph.calls)",
        ),
        Metric(
            "decoders.shots",
            "count",
            "lower",
            "shots handed to packed decode calls, the base of decode_ratio",
        ),
        Metric(
            "decoders.decoded_syndromes",
            "count",
            "lower",
            "rows reaching the decoder core after dedup and memo",
        ),
        Metric(
            "decoders.decode_ratio",
            "ratio",
            "lower",
            "decoded syndromes / shots, the work dedup and memo leave",
        ),
        Metric(
            "experiments.shotrunner.main_wait_s",
            "s",
            "lower",
            "LER loop wall time minus main-thread decode time: the part "
            "the prefetch overlap did not hide",
        ),
        Metric(
            "streaming.p99_round_s",
            "s",
            "lower",
            "p99 stream round latency, reported but not gated",
        ),
        Metric(
            "unattributed_s",
            "s",
            "lower",
            "traced wall time outside every traced layer call",
        ),
        Metric(
            "process.peak_rss_mb",
            "MB",
            "lower",
            "peak resident memory of the traced process, working sets included "
            "(on optimize-lp39 it follows how many DEMs a seed evaluates)",
        ),
        Metric(
            "trace.wall_s",
            "s",
            "lower",
            "wall time of the traced set-up and repetitions, the base of "
            "unattributed_s",
        ),
        Metric(
            "trace.untraced_throughput",
            "1/s",
            "higher",
            "throughput of the same unit set with tracing off and the collector on",
        ),
        Metric(
            "trace.traced_throughput",
            "1/s",
            "higher",
            "throughput of the same unit set with tracing and the collector on",
        ),
        Metric(
            "trace.overhead",
            "1/s",
            "lower",
            "untraced minus traced throughput: the cost of tracing",
        ),
    ]
    return out


PER_LAYER = _per_layer()
