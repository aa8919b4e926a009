"""Table 2: MaxSAT model sizes — global vs ambiguous-subgraph formulation.

The global formulation builds the §5.2 WCNF over the *entire*
circuit-level decoding graph; the subgraph formulation builds it over one
sampled ambiguous subgraph.  The paper's point: subgraph models are three
orders of magnitude smaller and solve in ~1 s, while global models take
hours or time out.  Global solves are attempted with a short, configurable
timeout (the paper itself reports a timeout for [[60,2,6]]).
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..circuits import coloration_schedule
from ..codes import load_benchmark_code
from ..core import DecodingGraph, build_maxsat_model, find_ambiguous_subgraph
from ..core.minweight import solve_min_weight_logical
from ..decoders.metrics import dem_for
from ..maxsat import MaxSatSolver
from ..noise.model import NoiseModel
from .common import ExperimentResult

TABLE2_CODES = ("lp39", "surface_d7", "rqt60")


def run(
    codes: tuple[str, ...] = TABLE2_CODES,
    rounds: int = 3,
    p: float = 1e-3,
    global_timeout: float = 5.0,
    solve_subgraph: bool = True,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        name="Table 2: MaxSAT model size, global vs subgraph",
        notes=f"global solves capped at {global_timeout:g}s "
        "(paper used 360s and still reports a timeout)",
    )
    rng = np.random.default_rng(seed)
    noise = NoiseModel(p=p)
    for name in codes:
        code = load_benchmark_code(name)
        schedule = coloration_schedule(code)
        dem = dem_for(code, schedule, noise, basis="z", rounds=rounds)
        graph = DecodingGraph(dem)

        # Global model: the full H / L matrices.
        h_full, l_full = (bits.T for bits in dem.bits())
        wcnf_global = build_maxsat_model(h_full, l_full)
        stats = wcnf_global.stats()
        with obs.timed() as clock:
            outcome = MaxSatSolver(wcnf_global, timeout=global_timeout).solve()
        elapsed = clock.elapsed
        result.add(
            formulation="global",
            code=name,
            variables=stats["variables"],
            hard_clauses=stats["hard_clauses"],
            soft_clauses=stats["soft_clauses"],
            wall_clock_s=round(elapsed, 2),
            status=outcome.status,
        )

        # Subgraph model: one sampled ambiguous subgraph.
        sub = None
        for _ in range(80):
            sub = find_ambiguous_subgraph(graph, rng)
            if sub is not None:
                break
        if sub is None:
            result.add(formulation="subgraph", code=name, status="no ambiguity found")
            continue
        wcnf_sub = build_maxsat_model(sub.h, sub.l)
        stats = wcnf_sub.stats()
        if solve_subgraph:
            solution = solve_min_weight_logical(
                sub, rng, method="maxsat", maxsat_timeout=global_timeout * 4
            )
            elapsed = solution.solve_time if solution else float("nan")
            status = "optimal" if solution else "failed"
        else:
            elapsed, status = float("nan"), "skipped"
        result.add(
            formulation="subgraph",
            code=name,
            variables=stats["variables"],
            hard_clauses=stats["hard_clauses"],
            soft_clauses=stats["soft_clauses"],
            wall_clock_s=round(elapsed, 3),
            status=status,
        )
    return result
