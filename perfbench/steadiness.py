"""Steadiness report: run the benchmark over several seeds and summarize.

Run from the repository root::

    python3 perfbench/steadiness.py --workload ler-lp39 --runs 10 [--sets 2]

Each set runs seeds 1..runs for ``run_seconds`` from ``BENCHMARK.json``.
For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median.  Every end-to-end metric whose
spread exceeds its bound in ``BENCHMARK.json`` is flagged.  With
``--sets 2`` the runs are repeated with the same seeds and every metric
whose second median is worse than the first by more than its bound is
flagged too.  Raw results are saved under ``.bench_build/steadiness/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "steadiness"


def run_once(workload: str, seed: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [
        *spec["command"],
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(spec["run_seconds"]),
        "--trace",
        "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"seed {seed}: checks failed\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return statistics.median(values), q1, q3, spread


def report(sets: list[list[dict]]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    flagged = 0
    medians: dict[str, list[float]] = {}
    for number, runs in enumerate(sets, 1):
        print(f"set {number}: {len(runs)} runs")
        print(f"  {'metric':<58} {'median':>12} {'q1':>12} {'q3':>12} spread")
        for name in runs[0]:
            median, q1, q3, spread = summarize([r[name] for r in runs])
            medians.setdefault(name, []).append(median)
            note = ""
            metric = bounds.get(name)
            if metric is not None:
                note = f"  bound {metric['bound']}"
                if spread > metric["bound"]:
                    note += "  SPREAD EXCEEDS BOUND"
                    flagged += 1
            print(
                f"  {name:<58} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{spread:6.3f}{note}"
            )
    if len(sets) > 1:
        print("median drift, set 2 against set 1 (positive = worse):")
        for name, metric in bounds.items():
            first, second = medians[name][:2]
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (second - first) / first
            note = "  DRIFT EXCEEDS BOUND" if drift > metric["bound"] else ""
            flagged += bool(note)
            print(f"  {name:<58} {drift:+.4f} bound {metric['bound']}{note}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    seeds = range(1, args.runs + 1)
    sets = []
    for _ in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(args.workload, seed))
            print(f"  seed {seed} done", file=sys.stderr, flush=True)
        sets.append(runs)
    OUT.mkdir(parents=True, exist_ok=True)
    saved = OUT / f"{args.workload}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    saved.write_text(json.dumps({"workload": args.workload, "sets": sets}))
    print(f"saved {saved}")
    return report(sets)


if __name__ == "__main__":
    sys.exit(main())
