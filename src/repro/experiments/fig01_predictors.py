"""Figure 1: circuit depth and d_eff are imperfect predictors of LER.

For the d=5 surface code, a family of SM circuits is evaluated on three
axes: CNOT depth, effective distance, and the measured logical error
rate.  The paper's two counterexample patterns are checked:

(a) equal (even minimal) depth does *not* imply equal LER — the poor
    depth-4 schedule loses badly to the good depth-4 schedule;
(b) equal d_eff does not imply equal LER — depth-4 and coloration
    circuits can share d_eff = d yet differ in logical error rate.

LER measurement runs as a campaign (content-addressed jobs over the
result store); d_eff estimation stays inline — it is not a shot loop.
"""

from __future__ import annotations

import numpy as np

from ..analysis.deff import estimate_effective_distance
from ..codes import rotated_surface_code
from .campaign import CampaignSpec, resolve_schedule, run_campaign
from .common import ExperimentResult
from .shotrunner import ExecutionConfig


def schedule_tokens(seed: int) -> tuple[tuple[str, str], ...]:
    return (
        ("nz (hand, depth-min)", "nz"),
        ("poor (depth-min)", "poor"),
        ("coloration", "coloration"),
        ("coloration (random)", f"coloration:{seed + 1}"),
    )


def campaign_spec(
    d: int = 5, p: float = 3e-3, shots: int = 8000, seed: int = 0
) -> CampaignSpec:
    return CampaignSpec(
        name=f"fig01_surface_d{d}",
        codes=(f"surface_d{d}",),
        schedules=tuple(token for _, token in schedule_tokens(seed)),
        p_values=(p,),
        bases=("z", "x"),
        shots=shots,
        seed=seed,
    )


def run(
    d: int = 5,
    p: float = 3e-3,
    shots: int = 8000,
    deff_samples: int = 30,
    seed: int = 0,
    workers: int = 1,
    store=None,
) -> ExperimentResult:
    spec = campaign_spec(d=d, p=p, shots=shots, seed=seed)
    report = run_campaign(spec, store=store, config=ExecutionConfig(workers=workers))
    by_config = {(j.schedule, j.basis): j for j in report.jobs}
    code = rotated_surface_code(d)
    rng = np.random.default_rng(seed)
    result = ExperimentResult(
        name=f"Figure 1: predictors vs LER, [[{code.n},1,{d}]] surface, p={p:g}",
        notes="Red-square analogue: min-depth 'poor' underperforms; "
        "blue-diamond analogue: deeper circuits with d_eff=d can match.",
    )
    for name, token in schedule_tokens(seed):
        sched = resolve_schedule(code, token)
        deff = estimate_effective_distance(
            code, sched, samples=deff_samples, rng=rng
        )
        combined = report.combined_estimate(
            by_config[(token, basis)] for basis in ("z", "x")
        )
        result.add(
            schedule=name,
            cnot_depth=sched.cnot_depth(),
            deff=deff.deff,
            logical_error_rate=combined.rate,
        )
    return result
