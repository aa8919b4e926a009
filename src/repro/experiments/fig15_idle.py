"""Figure 15: idle-error sensitivity of SM circuits (paper §6.3).

PropHunt's circuits can be deeper than the minimum; this experiment
quantifies the trade-off by sweeping idle-error strength (the ratio of
gate-layer time to coherence time) at fixed gate error 0.1%.  For a wide
band of realistic idle strengths — the three hardware reference points
are marked — the logical-error improvement outweighs the extra depth.

The (circuit x idle strength) sweep runs as a campaign over the result
store; an ``optimized_schedule`` (a real PropHunt output) enters the
grid as an inline serialized schedule, content-addressed like any named
one.
"""

from __future__ import annotations

import json

from ..circuits import schedule_to_json
from ..codes import load_benchmark_code
from ..noise import HARDWARE_IDLE_POINTS
from .campaign import CampaignJob, resolve_schedule, run_campaign
from .common import ExperimentResult
from .shotrunner import ExecutionConfig


def run(
    code_name: str = "surface_d3",
    idle_strengths: tuple[float, ...] = (0.0, 1e-5, 1e-4, 1e-3, 1e-2),
    p: float = 1e-3,
    shots: int = 6000,
    seed: int = 0,
    optimized_schedule=None,
    workers: int = 1,
    store=None,
) -> ExperimentResult:
    """Sweep idle strength for a shallow vs a deeper (better) circuit.

    ``optimized_schedule`` lets callers pass a real PropHunt output; by
    default the comparison uses the hand-designed (shallow, good)
    schedule vs the coloration circuit (deeper) for surface codes —
    the same depth-vs-quality axis the paper studies.
    """
    code = load_benchmark_code(code_name)
    if code_name.startswith("surface"):
        circuits = [
            ("poor (depth 4)", "poor"),
            ("good (depth 4)", "nz"),
            ("coloration (deeper)", "coloration"),
        ]
    else:
        circuits = [("coloration", "coloration")]
    if optimized_schedule is not None:
        circuits.append(("prophunt", json.loads(schedule_to_json(optimized_schedule))))

    jobs = [
        CampaignJob(
            code=code_name,
            schedule=token,
            basis=basis,
            p=p,
            idle_strength=strength,
            shots=shots,
            max_failures=400,
            seed=seed,
        )
        for _, token in circuits
        for strength in idle_strengths
        for basis in ("z", "x")
    ]
    report = run_campaign(jobs, store=store, config=ExecutionConfig(workers=workers))
    result = ExperimentResult(
        name=f"Figure 15: idle sensitivity, {code.label()}, gate p={p:g}",
        notes="hardware idle strengths: "
        + ", ".join(f"{k}={v:.1e}" for k, v in HARDWARE_IDLE_POINTS.items()),
    )
    for label, token in circuits:
        sched = resolve_schedule(code, token)
        for strength in idle_strengths:
            combined = report.combined_estimate(
                j
                for j in report.jobs
                if j.schedule == token and j.idle_strength == strength
            )
            result.add(
                circuit=label,
                cnot_depth=sched.cnot_depth(),
                idle_strength=strength,
                logical_error_rate=combined.rate,
            )
    return result
