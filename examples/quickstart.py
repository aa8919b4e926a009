"""Quickstart: optimize a surface-code syndrome measurement circuit.

Runs PropHunt on the d=3 rotated surface code starting from a
deliberately poor CNOT schedule and shows the logical error rate
recovering to the hand-designed 'N-Z' schedule's level.

Usage:  python examples/quickstart.py
Runtime: about a minute on a laptop.
"""

import numpy as np

from repro.circuits import nz_schedule, poor_schedule
from repro.codes import rotated_surface_code
from repro.core import PropHunt, PropHuntConfig
from repro.experiments.shotrunner import estimate_logical_error_rate


def main() -> None:
    code = rotated_surface_code(3)
    print(f"Code: {code.label()}")

    start = poor_schedule(code)
    print(f"Starting schedule: depth {start.cnot_depth()}, valid={start.is_valid()}")

    config = PropHuntConfig(iterations=5, samples_per_iteration=40, seed=1)
    print(f"\nRunning PropHunt ({config.iterations} iterations x "
          f"{config.samples_per_iteration} subgraph samples)...")
    result = PropHunt(code, config).optimize(start)

    for record in result.history:
        print(
            f"  iteration {record.iteration}: "
            f"{record.ambiguous_found} ambiguous subgraphs, "
            f"min logical weight {record.min_logical_weight}, "
            f"{record.changes_applied} changes applied, "
            f"depth {record.cnot_depth}"
        )

    print("\nEvaluating logical error rates at p = 3e-3 (20k shots each)...")
    rng = np.random.default_rng(0)
    p = 3e-3
    for label, sched in (
        ("poor start", start),
        ("PropHunt", result.final_schedule),
        ("hand-designed N-Z", nz_schedule(code)),
    ):
        rate = estimate_logical_error_rate(
            code, sched, p=p, shots=20_000, rng=rng
        ).rate
        print(f"  {label:20s}  LER = {rate:.3e}")

    print(
        "\nPropHunt recovered the hand-designed circuit's performance "
        "automatically — the paper's §6.1 surface-code result."
    )


if __name__ == "__main__":
    main()
