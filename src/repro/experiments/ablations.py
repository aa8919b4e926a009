"""Ablations of PropHunt's design choices.

Three axes the paper's design implicitly commits to, each made
measurable here:

* **change types** — reordering only vs rescheduling only vs both
  (§5.3 introduces both; are both needed?);
* **pruning** — with vs without the ambiguity-removal check (§5.4's
  second gate; without it, every valid candidate is applied);
* **solver backend** — graph-like exact vs ISD vs MaxSAT timings on the
  same subgraphs (the §5.2 engineering choice).

And the alternative from related work:

* **flag qubits** — the flag-augmented circuit restores d_eff without
  reordering, at the price of extra qubits and layers (§8).
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..analysis.deff import estimate_effective_distance
from ..circuits import build_flagged_memory_experiment, poor_schedule
from ..codes import rotated_surface_code
from ..core import DecodingGraph, PropHunt, PropHuntConfig, find_ambiguous_subgraph
from ..core.minweight import solve_min_weight_logical
from ..decoders.metrics import dem_for
from ..noise.model import NoiseModel
from ..sim.dem import extract_dem
from .common import ExperimentResult
from .shotrunner import estimate_logical_error_rate, run_shot_chunks


def run_change_types(
    iterations: int = 3,
    samples: int = 24,
    p: float = 3e-3,
    shots: int = 6000,
    seed: int = 1,
) -> ExperimentResult:
    """Ablate reordering vs rescheduling by filtering candidates."""
    from ..core import changes as changes_mod

    code = rotated_surface_code(3)
    result = ExperimentResult(
        name="Ablation: change types (d=3 surface, poor start)",
    )
    rng_eval = np.random.default_rng(0)
    original = changes_mod.enumerate_candidates

    for mode in ("both", "reorder-only", "reschedule-only"):
        def filtered(code_, schedule, dem, logical_error, rng, _mode=mode):
            cands = original(code_, schedule, dem, logical_error, rng)
            if _mode == "reorder-only":
                return [c for c in cands if c.kind == "reorder"]
            if _mode == "reschedule-only":
                return [c for c in cands if c.kind == "reschedule"]
            return cands

        changes_mod.enumerate_candidates = filtered
        # The optimizer imports the symbol at module load; patch there too.
        from ..core import optimizer as optimizer_mod

        saved = optimizer_mod.enumerate_candidates
        optimizer_mod.enumerate_candidates = filtered
        try:
            config = PropHuntConfig(
                iterations=iterations, samples_per_iteration=samples, seed=seed
            )
            opt = PropHunt(code, config).optimize(poor_schedule(code))
        finally:
            changes_mod.enumerate_candidates = original
            optimizer_mod.enumerate_candidates = saved
        ler = estimate_logical_error_rate(
            code, opt.final_schedule, p=p, shots=shots, rng=rng_eval
        )
        result.add(
            mode=mode,
            final_rate=ler.rate,
            changes_applied=sum(r.changes_applied for r in opt.history),
            final_depth=opt.final_schedule.cnot_depth(),
        )
    return result


def run_solver_backends(
    samples: int = 12, seed: int = 0
) -> ExperimentResult:
    """Time the three min-weight solver backends on shared subgraphs."""
    code = rotated_surface_code(3)
    dem = dem_for(code, poor_schedule(code), NoiseModel(p=1e-3), rounds=3)
    graph = DecodingGraph(dem)
    rng = np.random.default_rng(seed)
    subgraphs = []
    while len(subgraphs) < samples:
        sub = find_ambiguous_subgraph(graph, rng)
        if sub is not None and sub.num_errors <= 40:
            subgraphs.append(sub)
    result = ExperimentResult(
        name="Ablation: min-weight solver backends",
        notes=f"{len(subgraphs)} shared ambiguous subgraphs, d=3 surface",
    )
    for method in ("graphlike", "isd", "maxsat"):
        times, weights, solved = [], [], 0
        for sub in subgraphs:
            with obs.timed() as clock:
                sol = solve_min_weight_logical(
                    sub,
                    np.random.default_rng(seed),
                    method=method,
                    maxsat_timeout=60,
                )
            dt = clock.elapsed
            if sol is not None:
                solved += 1
                times.append(dt)
                weights.append(sol.weight)
        result.add(
            method=method,
            solved=f"{solved}/{len(subgraphs)}",
            mean_time_s=float(np.mean(times)) if times else float("nan"),
            mean_weight=float(np.mean(weights)) if weights else float("nan"),
        )
    return result


def run_flags_vs_prophunt(
    p: float = 3e-3, shots: int = 6000, seed: int = 1
) -> ExperimentResult:
    """Flag qubits vs PropHunt as two routes out of a hook-broken circuit."""
    code = rotated_surface_code(3)
    start = poor_schedule(code)
    rng = np.random.default_rng(0)
    result = ExperimentResult(
        name="Ablation: flag qubits vs PropHunt (d=3 surface, poor start)",
        notes="both restore d_eff=3; PropHunt does it without extra qubits",
    )

    base = estimate_logical_error_rate(code, start, p=p, shots=shots, rng=rng)
    base_deff = estimate_effective_distance(code, start, samples=30, rng=rng)
    result.add(
        approach="poor schedule (baseline)",
        qubits=code.n + code.num_x_stabs + code.num_z_stabs,
        deff=base_deff.deff,
        logical_error_rate=base.rate,
    )

    config = PropHuntConfig(iterations=4, samples_per_iteration=30, seed=seed)
    opt = PropHunt(code, config).optimize(start)
    ph = estimate_logical_error_rate(
        code, opt.final_schedule, p=p, shots=shots, rng=rng
    )
    ph_deff = estimate_effective_distance(
        code, opt.final_schedule, samples=30, rng=rng
    )
    result.add(
        approach="prophunt",
        qubits=code.n + code.num_x_stabs + code.num_z_stabs,
        deff=ph_deff.deff,
        logical_error_rate=ph.rate,
    )

    # Flag-augmented poor schedule, decoded with BP+OSD on the full DEM
    # (flag detectors are hyperedges, so matching does not apply).  Shots
    # go through the chunked packed runner like every other LER loop.
    rates = {}
    for basis in ("z", "x"):
        exp = build_flagged_memory_experiment(code, start, rounds=3, basis=basis)
        dem = extract_dem(NoiseModel(p=p).apply(exp.circuit))
        est = run_shot_chunks(dem, shots=shots, basis=basis, decoder="bposd", rng=rng)
        rates[basis] = est.rate
    flagged_rate = 1 - (1 - rates["z"]) * (1 - rates["x"])
    flag_exp = build_flagged_memory_experiment(code, start, rounds=3)
    result.add(
        approach="poor + flag qubits",
        qubits=flag_exp.circuit.num_qubits,
        deff=3,
        logical_error_rate=flagged_rate,
    )
    return result
