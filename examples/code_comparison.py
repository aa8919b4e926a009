"""Fair code comparison: disentangling the code from its SM circuit.

The paper's motivation section (§3) warns that comparing QEC codes with
unoptimized SM circuits conflates circuit quality with code quality.
This script compares benchmark codes twice — once with the generic
coloration circuit and once after PropHunt — and shows how the ranking
tightens (or flips) once every code gets an optimized circuit.

Usage:  python examples/code_comparison.py [--p 1e-3] [--shots 3000]
Runtime: several minutes (optimizes three codes).
"""

import argparse

import numpy as np

from repro.circuits import coloration_schedule
from repro.codes import load_benchmark_code
from repro.core import PropHunt, PropHuntConfig
from repro.experiments.shotrunner import ExecutionConfig, estimate_logical_error_rate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--codes", nargs="+", default=["surface_d3", "lp39", "rqt60"])
    parser.add_argument("--p", type=float, default=1e-3)
    parser.add_argument("--shots", type=int, default=3000)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(
        f"{'code':>12s} {'n':>5s} {'k':>3s} "
        f"{'coloration':>12s} {'prophunt':>12s} {'gain':>6s}"
    )
    for name in args.codes:
        code = load_benchmark_code(name)
        start = coloration_schedule(code)
        config = PropHuntConfig(iterations=3, samples_per_iteration=24, seed=1)
        optimized = PropHunt(code, config).optimize(start).final_schedule
        capped = ExecutionConfig(max_failures=300)
        before = estimate_logical_error_rate(
            code, start, p=args.p, shots=args.shots, rng=rng, config=capped
        ).rate
        after = estimate_logical_error_rate(
            code, optimized, p=args.p, shots=args.shots, rng=rng, config=capped
        ).rate
        gain = before / after if after > 0 else float("inf")
        print(
            f"{name:>12s} {code.n:>5d} {code.k:>3d} "
            f"{before:>12.3e} {after:>12.3e} {gain:>5.1f}x"
        )
    print(
        "\nPer-logical-qubit comparisons should use the optimized column — "
        "otherwise the SM circuit, not the code, is being measured (§3)."
    )


if __name__ == "__main__":
    main()
