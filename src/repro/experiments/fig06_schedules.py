"""Figure 6: good vs poor CNOT schedule for the d=3 surface code.

Reproduces the motivating example: the hand-designed 'N-Z' schedule vs a
poor schedule with the same depth, swept over physical error rates.  The
poor schedule's hook errors reduce d_eff and visibly flatten the LER
curve's slope.

The sweep itself is a :class:`~repro.experiments.campaign.CampaignSpec`
— this module only defines the grid and formats the rows from store
queries, so re-running against a persistent store recomputes nothing.
"""

from __future__ import annotations

import numpy as np

from ..analysis.deff import estimate_effective_distance
from ..codes import rotated_surface_code
from .campaign import CampaignSpec, resolve_schedule, run_campaign
from .common import ExperimentResult
from .shotrunner import ExecutionConfig

SCHEDULES = (("good (N-Z)", "nz"), ("poor", "poor"))


def campaign_spec(
    d: int = 3,
    p_values: tuple[float, ...] = (1e-3, 2e-3, 4e-3, 8e-3),
    shots: int = 10_000,
    seed: int = 0,
) -> CampaignSpec:
    return CampaignSpec(
        name=f"fig06_surface_d{d}",
        codes=(f"surface_d{d}",),
        schedules=tuple(token for _, token in SCHEDULES),
        p_values=p_values,
        bases=("z", "x"),
        shots=shots,
        seed=seed,
    )


def run(
    d: int = 3,
    p_values: tuple[float, ...] = (1e-3, 2e-3, 4e-3, 8e-3),
    shots: int = 10_000,
    seed: int = 0,
    workers: int = 1,
    store=None,
) -> ExperimentResult:
    spec = campaign_spec(d=d, p_values=p_values, shots=shots, seed=seed)
    report = run_campaign(spec, store=store, config=ExecutionConfig(workers=workers))
    by_config = {
        (j.schedule, j.p, j.basis): j for j in report.jobs
    }
    code = rotated_surface_code(d)
    rng = np.random.default_rng(seed)
    result = ExperimentResult(
        name=f"Figure 6: schedule quality, d={d} surface code",
    )
    for name, token in SCHEDULES:
        sched = resolve_schedule(code, token)
        deff = estimate_effective_distance(code, sched, samples=24, rng=rng)
        for p in p_values:
            combined = report.combined_estimate(
                by_config[(token, p, basis)] for basis in ("z", "x")
            )
            result.add(
                schedule=name,
                deff=deff.deff,
                p=p,
                logical_error_rate=combined.rate,
            )
    return result
