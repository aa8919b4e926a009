"""The measuring process: set up one workload, run its units, print JSON.

Started by ``perfbench/run.py`` (never directly) as
``python -m perfbench.child``, with the environment already pinned.
``--launched-at`` is the parent's ``time.monotonic()`` just before the
spawn, so ``setup_s`` runs from process start — interpreter start-up
and imports included — to the end of set-up.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

PINS = Path(__file__).with_name("pins.json")
TRACED_REPS = 2  # traced passes over the unit set; the isolation check compares them
MIN_RUNS = 2  # every unit's best run is taken from at least two
ROOT_SPANS = {"bench.setup", "bench.rep"}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _freeze_setup() -> None:
    """Keep what set-up left alive out of the cyclic collector's scans.

    Collections during a unit then scan what the program allocated after
    set-up, not the code, DEM and decoders set-up built nor the
    benchmark's own objects.
    """
    gc.collect()
    gc.freeze()


def _run_units(workload, state, seconds: float):
    """Run the workload's fixed unit set round robin until ``seconds``
    have gone by and every unit has run ``MIN_RUNS`` times.  Returns
    each unit's runs, in the set's order."""
    start = time.perf_counter()
    runs = {r.index: [r] for r in workload.first_pass(state)}
    for k in itertools.cycle(list(runs)):
        done = all(len(v) >= MIN_RUNS for v in runs.values())
        if done and time.perf_counter() - start >= seconds:
            return list(runs.values())
        runs[k].append(workload.run_unit(state, k))


def _best(per_unit) -> tuple[float, list[float], list[str]]:
    """Throughput and latencies from each unit's best run.

    A shared host only ever slows work down, so each unit's time is its
    fastest run and each latency the lowest that position in the unit's
    sequence took on any run.  Throughput is the set's work over the sum
    of those times.  Every run of a unit must give the first run's output
    and latency count; anything else is returned as a problem.
    """
    problems = []
    work = elapsed = 0.0
    latencies: list[float] = []
    for runs in per_unit:
        first = runs[0]
        if any(repr(r.output) != repr(first.output) for r in runs):
            problems.append(f"unit {first.index}: runs gave different outputs")
        if len({len(r.latencies_s) for r in runs}) > 1:
            problems.append(f"unit {first.index}: runs did different work")
            continue
        work += first.work
        elapsed += min(r.elapsed_s for r in runs)
        latencies += [min(xs) for xs in zip(*(r.latencies_s for r in runs))]
    return (work / elapsed if elapsed else 0.0), latencies, problems


def _verdict(units, run_problems: list[str]) -> dict:
    """Each unit is one operation and the run-level checks one more; a
    failed check fails its operation."""
    problems = [p for r in units for p in r.problems] + run_problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    failed = sum(bool(r.problems) for r in units) + bool(run_problems)
    return {"correct": not problems, "attempted": len(units) + 1, "failed": failed}


def timed_run(workload, state, seconds: float) -> dict:
    per_unit = _run_units(workload, state, seconds)
    throughput, latencies, run_problems = _best(per_unit)
    run_problems += workload.final_checks(state, [runs[0] for runs in per_unit])
    for runs in per_unit:
        times = ", ".join(f"{r.elapsed_s:.4g}" for r in runs)
        print(f"unit {runs[0].index} times (s): {times}", file=sys.stderr)
    out = _verdict([r for runs in per_unit for r in runs], run_problems)
    out["units"] = f"{len(per_unit)} units, {sum(map(len, per_unit))} runs"
    out["metrics"] = {
        "throughput": throughput,
        # No latencies only when every unit failed its check.
        "p50_latency_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
    }
    return out


def _p99(values: list[float]) -> float:
    """Exact rank quantile, as ``StreamReport.latency_percentile``."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, -(-99 * len(ordered) // 100) - 1))
    return ordered[rank]


def traced_run(workload, seed: int, pins: dict, state, seconds: float, spans_out):
    from . import workloads
    from .tracing import Instrumentation, Tracer, layer_metrics, rep_counts

    # The collector stays on in every timed call of the traced run, traced
    # or not, so python.gc shows its cost and the overhead compares like
    # with like.
    workloads.PAUSE_COLLECTOR = False
    untraced = _run_units(workload, state, seconds / 2)
    units = [runs[0].index for runs in untraced]
    tracer = Tracer()
    reps = []
    counts = []
    with Instrumentation(tracer):
        index = tracer.begin("bench.setup")
        traced_state = workload.setup(seed, pins)
        tracer.end(index)
        _freeze_setup()
        for _ in range(TRACED_REPS):
            first = len(tracer.spans)
            decoded = tracer.counts["decoders.decoded_syndromes"]
            index = tracer.begin("bench.rep")
            reps.append([workload.run_unit(traced_state, k) for k in units])
            tracer.end(index)
            rep = rep_counts(tracer, first, len(tracer.spans))
            rep["decoded_syndromes"] = (
                tracer.counts["decoders.decoded_syndromes"] - decoded
            )
            counts.append(rep)
    traced = [list(runs) for runs in zip(*reps)]  # per unit, like untraced
    # Every run of a unit, traced or not, must give the same output.
    run_problems = _best([a + b for a, b in zip(untraced, traced)])[2]
    untraced_tp = _best(untraced)[0]
    traced_tp = _best(traced)[0]
    run_problems += workload.final_checks(state, [runs[0] for runs in untraced])
    if any(c != counts[0] for c in counts):
        run_problems.append(f"state carried between repetitions: {counts}")
    metrics = layer_metrics(tracer, ROOT_SPANS)
    rounds = [x for runs in traced for r in runs for x in r.latencies_s]
    metrics["streaming.p99_round_s"] = (
        _p99(rounds) if workload.name.startswith("stream-") else 0.0
    )
    metrics["trace.untraced_throughput"] = untraced_tp
    metrics["trace.traced_throughput"] = traced_tp
    metrics["trace.overhead"] = untraced_tp - traced_tp
    metrics["process.peak_rss_mb"] = _peak_rss_mb()
    if spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        Path(spans_out).write_text(json.dumps(tracer.to_records()))
    out = _verdict([r for runs in untraced + traced for r in runs], run_problems)
    out["metrics"] = metrics
    print(f"isolation counts per repetition: {counts}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    from . import workloads

    workload = workloads.WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text())
    state = workload.setup(args.seed, pins)
    setup_s = time.monotonic() - args.launched_at
    setup = {"setup_s": setup_s, "setup_rss_mb": _peak_rss_mb()}
    if args.setup_only:
        out = setup
    else:
        _freeze_setup()
        if args.trace:
            out = traced_run(
                workload, args.seed, pins, state, args.seconds, args.spans_out
            )
        else:
            out = timed_run(workload, state, args.seconds)
            out["metrics"].update(setup)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
