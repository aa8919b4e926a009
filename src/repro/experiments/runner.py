"""Command-line experiment runner.

Regenerate any paper table/figure::

    python -m repro.experiments.runner table1
    python -m repro.experiments.runner fig12 --full
    python -m repro.experiments.runner all

``--full`` switches from laptop-scale defaults to heavier parameters
(closer to the paper's; still hours, not days).  Results print as plain
tables; redirect to a file to archive them.
"""

from __future__ import annotations

import argparse
import sys

from .. import obs
from ..obs.log import get_logger
from . import (
    fig01_predictors,
    fig06_schedules,
    fig12_benchmarks,
    fig13_random_starts,
    fig14_lowp,
    fig14_scaling,
    fig15_bias,
    fig15_idle,
    fig16_zne,
    figcalib,
    table1_codes,
    table2_models,
)

_log = get_logger("runner")

ALL_CODES = (
    "surface_d3",
    "surface_d5",
    "surface_d7",
    "surface_d9",
    "lp39",
    "rqt60",
    "rqt54",
    "rqt108",
)


def _scale(opts, smoke: int, default: int, full: int) -> int:
    if opts.smoke:
        return smoke
    return full if opts.full else default


def _run_fig16(opts):
    a = fig16_zne.run_amplification()
    b = fig16_zne.run_bias(trials=_scale(opts, 10, 40, 200))
    return [a, b]


EXPERIMENTS = {
    "fig1": lambda opts: [
        fig01_predictors.run(
            shots=_scale(opts, 500, 5000, 20_000),
            workers=opts.workers,
            store=opts.store,
        )
    ],
    "fig6": lambda opts: [
        fig06_schedules.run(
            shots=_scale(opts, 300, 10_000, 50_000),
            workers=opts.workers,
            store=opts.store,
        )
    ],
    "table1": lambda opts: [
        table1_codes.run(distance_iterations=_scale(opts, 20, 80, 400))
    ],
    "fig12": lambda opts: [
        fig12_benchmarks.run(
            codes=ALL_CODES
            if opts.full
            else ("surface_d3", "surface_d5", "lp39", "rqt60"),
            p_values=(5e-4, 1e-3, 3e-3) if opts.full else (1e-3, 3e-3),
            shots=_scale(opts, 400, 5000, 30_000),
            include_intermediate=opts.full,
            workers=opts.workers,
            store=opts.store,
        )
    ],
    "fig13": lambda opts: [
        fig13_random_starts.run(
            num_starts=3,
            shots=_scale(opts, 500, 6000, 20_000),
            iterations=_scale(opts, 2, 4, 6),
            workers=opts.workers,
        )
    ],
    "table2": lambda opts: [
        table2_models.run(
            global_timeout=60.0 if opts.full else (2.0 if opts.smoke else 5.0)
        )
    ],
    "fig14": lambda opts: [
        fig14_scaling.run(
            samples_per_code=_scale(opts, 8, 25, 100),
            codes=("surface_d3", "surface_d5", "surface_d7", "rqt60")
            if opts.full
            else ("surface_d3", "surface_d5", "rqt60"),
        )
    ],
    "fig14lowp": lambda opts: [
        fig14_lowp.run(
            direct_shots=_scale(opts, 2_000, 60_000, 200_000),
            max_strat_shots=_scale(opts, 20_000, 500_000, 2_000_000),
            target_rel_halfwidth=0.3 if opts.smoke else 0.12,
            deep_p=(1e-3,) if opts.smoke else (1e-3, 5e-4),
            deep=opts.rare_event or opts.full,
            workers=opts.workers,
            store=opts.store,
        )
    ],
    "fig15": lambda opts: [
        fig15_idle.run(
            shots=_scale(opts, 400, 6000, 20_000),
            workers=opts.workers,
            store=opts.store,
        )
    ],
    "fig15bias": lambda opts: [
        fig15_bias.run(
            p_values=(3e-3,) if opts.smoke else (1e-3, 3e-3),
            shots=_scale(opts, 240, 6000, 20_000),
            workers=opts.workers,
            store=opts.store,
        )
    ],
    "figcalib": lambda opts: [
        figcalib.run(
            p_values=(3e-3,) if opts.smoke else (1e-3, 3e-3),
            shots=_scale(opts, 240, 6000, 20_000),
            workers=opts.workers,
            store=opts.store,
        )
    ],
    "fig16": _run_fig16,
}

ALIASES = {
    "figure1": "fig1",
    "figure6": "fig6",
    "figure12": "fig12",
    "figure13": "fig13",
    "figure14": "fig14",
    "figure14x": "fig14lowp",
    "fig14x": "fig14lowp",
    "figure15": "fig15",
    "figure15bias": "fig15bias",
    "fig15b": "fig15bias",
    "figurecalib": "figcalib",
    "calib": "figcalib",
    "figure16": "fig16",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiment",
        help=f"one of {sorted(EXPERIMENTS)} or 'all'",
    )
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--full",
        action="store_true",
        help="paper-scale parameters (much slower)",
    )
    scale.add_argument(
        "--smoke",
        action="store_true",
        help="tiny shot counts (CI sanity run, seconds not minutes)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the chunked shot runner (1 = inline)",
    )
    parser.add_argument(
        "--rare-event",
        action="store_true",
        help="extend LER experiments below direct-MC reach with the "
        "weight-stratified estimator (fig14lowp deep rows)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="campaign result-store directory: completed sweep jobs are "
        "reused across invocations (default: ephemeral in-memory store)",
    )
    args = parser.parse_args(argv)

    if args.store is not None:
        # One store handle for the whole invocation.  Passing the raw
        # path had every figure re-open and re-parse the JSONL store
        # (`as_store(path)` builds a fresh ResultStore per call); the
        # shared handle is passed through untouched and tails
        # incrementally instead.
        from .store import ResultStore

        args.store = ResultStore(args.store)

    name = ALIASES.get(args.experiment, args.experiment)
    targets = sorted(EXPERIMENTS) if name == "all" else [name]
    for target in targets:
        if target not in EXPERIMENTS:
            parser.error(f"unknown experiment {target!r}")
        with obs.timed("runner.experiment_s") as clock:
            for result in EXPERIMENTS[target](args):
                result.print()
                print()
        _log.info("experiment finished", target=target, elapsed_s=clock.elapsed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
