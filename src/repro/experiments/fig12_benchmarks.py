"""Figure 12: PropHunt on the benchmark suite.

For each code: start from the coloration circuit, run PropHunt, and
compare logical error rates of the starting circuit, the optimized
circuit, and (for surface codes) the hand-designed N-Z schedule.  The
paper's claims to reproduce in shape:

* PropHunt improves on the coloration circuit for every code;
* for surface codes the optimized circuit matches the hand-designed one;
* for LP/RQT codes the improvement is ~2.5-4x at p = 0.1%.

The optimization itself runs inline (it is a search, not a shot loop);
every LER evaluation is a campaign job — optimized schedules enter the
grid as inline serialized schedules, so a persistent store caches them
content-addressed alongside the named circuits.
"""

from __future__ import annotations

import json

from ..circuits import coloration_schedule, schedule_to_json
from ..codes import load_benchmark_code
from ..core import PropHunt, PropHuntConfig
from .campaign import CampaignJob, run_campaign
from .common import ExperimentResult
from .shotrunner import ExecutionConfig

# Laptop-scale optimization budgets per code (paper: 25 iterations x 500
# samples on 48 cores for every code).
DEFAULT_BUDGETS: dict[str, tuple[int, int]] = {
    "surface_d3": (5, 40),
    "surface_d5": (4, 30),
    "surface_d7": (3, 20),
    "surface_d9": (2, 12),
    "lp39": (4, 30),
    "rqt60": (3, 20),
    "rqt54": (3, 20),
    "rqt108": (2, 12),
}


def optimize_code(
    name: str,
    iterations: int | None = None,
    samples: int | None = None,
    seed: int = 0,
):
    """Run PropHunt from the coloration circuit of a benchmark code."""
    code = load_benchmark_code(name)
    default_it, default_samples = DEFAULT_BUDGETS.get(name, (3, 20))
    config = PropHuntConfig(
        iterations=iterations if iterations is not None else default_it,
        samples_per_iteration=samples if samples is not None else default_samples,
        seed=seed,
    )
    start = coloration_schedule(code)
    result = PropHunt(code, config).optimize(start)
    return code, start, result


def run(
    codes: tuple[str, ...] = ("surface_d3", "surface_d5", "lp39", "rqt60"),
    p_values: tuple[float, ...] = (1e-3, 3e-3),
    shots: int = 6000,
    iterations: int | None = None,
    samples: int | None = None,
    seed: int = 0,
    include_intermediate: bool = False,
    workers: int = 1,
    store=None,
) -> ExperimentResult:
    result = ExperimentResult(
        name="Figure 12: PropHunt vs coloration (vs hand-designed)",
        notes="rates combine logical X and Z failures (paper §6.1)",
    )
    for name in codes:
        code, start, opt = optimize_code(
            name, iterations=iterations, samples=samples, seed=seed
        )
        circuits = [
            ("coloration", "coloration", start),
            (
                "prophunt",
                json.loads(schedule_to_json(opt.final_schedule)),
                opt.final_schedule,
            ),
        ]
        if include_intermediate and len(opt.intermediate_schedules) > 2:
            mid = opt.intermediate_schedules[len(opt.intermediate_schedules) // 2]
            circuits.append(
                ("intermediate", json.loads(schedule_to_json(mid)), mid)
            )
        if name.startswith("surface"):
            from ..circuits import nz_schedule

            circuits.append(("hand-designed", "nz", nz_schedule(code)))

        jobs = {
            (label, p, basis): CampaignJob(
                code=name,
                schedule=token,
                basis=basis,
                p=p,
                shots=shots,
                max_failures=400,
                seed=seed,
            )
            for label, token, _ in circuits
            for p in p_values
            for basis in ("z", "x")
        }
        labels = {job.key(): label for (label, _, _), job in jobs.items()}
        report = run_campaign(
            list(jobs.values()),
            store=store,
            config=ExecutionConfig(workers=workers),
            labels=labels,
        )
        for p in p_values:
            for label, _, sched in circuits:
                combined = report.combined_estimate(
                    jobs[(label, p, basis)] for basis in ("z", "x")
                )
                result.add(
                    code=name,
                    circuit=label,
                    p=p,
                    logical_error_rate=combined.rate,
                    # combine_with carries the binding (smaller) sample size
                    shots=combined.shots,
                    cnot_depth=sched.cnot_depth(),
                )
    return result


def improvement_factors(result: ExperimentResult) -> dict[tuple[str, float], float]:
    """coloration / prophunt LER ratios per (code, p) — the headline 2.5-4x."""
    table: dict[tuple[str, float, str], float] = {}
    for row in result.rows:
        table[(row["code"], row["p"], row["circuit"])] = row["logical_error_rate"]
    out = {}
    for (code, p, circuit), rate in table.items():
        if circuit != "coloration":
            continue
        after = table.get((code, p, "prophunt"))
        if after and after > 0:
            out[(code, p)] = rate / after
    return out
