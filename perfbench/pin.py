"""Regenerate ``perfbench/pins.json``, the outputs the benchmark checks.

Run from the repository root::

    PYTHONPATH=src python3 -m perfbench.pin [--workload NAME ...]

* ``ler-*``: the failure count of each unit in each seed's unit set,
  taken from the packed path and required to equal the dense reference
  decode of the same shots before it is pinned.
* ``optimize-lp39``: the history digest of each unit in the default
  seed's (0) unit set.

Only re-pin after a change that is meant to alter these outputs, and
say so in the change's description.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

PINS = Path(__file__).with_name("pins.json")
DEFAULT_SEED = 0
LER_SEEDS = 32  # seeds 0..31


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        help="re-pin only this workload (repeatable); the others keep their pins",
    )
    args = parser.parse_args(argv)
    build = Path(__file__).resolve().parent.parent / ".bench_build"
    os.environ.setdefault("REPRO_KERNEL_CACHE", str(build / "repro-kernels"))

    from .workloads import WORKLOADS

    pins = json.loads(PINS.read_text()) if args.workload else {}
    for name, workload in WORKLOADS.items():
        if args.workload and name not in args.workload:
            continue
        if name.startswith("ler-"):
            table = {}
            for seed in range(LER_SEEDS):
                state = workload.setup(seed, {})
                counts = []
                for k in range(workload.units):
                    failures = workload.run_unit(state, k).output
                    reference = workload.reference_failures(state, k)
                    if failures != reference:
                        print(
                            f"{name} seed {seed} unit {k}: packed {failures} "
                            f"!= dense {reference}",
                            file=sys.stderr,
                        )
                        return 1
                    counts.append(failures)
                table[str(seed)] = counts
                print(f"{name} seed {seed}: failures {counts}", flush=True)
            pins[name] = table
        elif name == "optimize-lp39":
            state = workload.setup(DEFAULT_SEED, {})
            digests = [r.output for r in workload.first_pass(state)]
            pins[name] = {"seed": DEFAULT_SEED, "digests": digests}
            print(f"{name}: {len(digests)} digests", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
