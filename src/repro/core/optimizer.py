"""The PropHunt optimization loop (paper §5, Figure 8).

Each iteration:

1. extract circuit-level decoding graphs for the current schedule (one per
   memory basis);
2. sample random connected subgraphs until ambiguity appears (§5.1);
3. solve each ambiguous subgraph for a min-weight logical error (§5.2);
4. enumerate candidate reordering / rescheduling changes (§5.3);
5. prune by circuit validity and ambiguity removal (§5.4);
6. apply verified changes, resolving conflicts per subgraph by the
   minimum-depth candidate (§5.5).

The run records every intermediate schedule — those are the noise dials
Hook-ZNE uses (§7).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..circuits.builder import build_memory_experiment
from ..circuits.schedule import Schedule
from ..codes.css import CSSCode
from ..noise.model import NoiseModel
from ..sim.dem import DetectorErrorModel, extract_dem
from .changes import enumerate_candidates
from .decoding_graph import DecodingGraph, Subgraph
from .minweight import LogicalErrorSolution
from .pruning import check_candidate


@dataclass
class PropHuntConfig:
    """Tuning knobs; defaults are laptop-scale (paper scale in comments)."""

    iterations: int = 8  # paper: 25
    samples_per_iteration: int = 60  # paper: 500
    reference_p: float = 1e-3
    rounds: int = 3  # DEM depth used during optimization
    max_subgraph_errors: int = 60
    bases: tuple[str, ...] = ("z", "x")
    solver: str = "auto"  # minweight backend
    isd_iterations: int = 120
    seed: int = 0
    max_candidates_per_error: int = 24
    stop_when_quiet: bool = True  # stop early if an iteration finds nothing
    workers: int = 1  # >1 fans subgraph sampling over processes (paper: 48)
    # Optional guard: refuse changes that grow CNOT depth beyond the
    # starting depth plus this allowance (None = paper behaviour, depth is
    # only a tie-break).
    max_depth_growth: int | None = None


@dataclass
class IterationRecord:
    """What one iteration saw and did."""

    iteration: int
    schedule: Schedule
    cnot_depth: int
    ambiguous_found: int
    min_logical_weight: int | None
    changes_verified: int
    changes_applied: int
    solve_times: list[float] = field(default_factory=list)
    subgraph_sizes: list[tuple[int, int]] = field(default_factory=list)
    elapsed: float = 0.0


@dataclass
class PropHuntResult:
    """Full optimization trace."""

    code: CSSCode
    initial_schedule: Schedule
    final_schedule: Schedule
    history: list[IterationRecord]

    @property
    def intermediate_schedules(self) -> list[Schedule]:
        """Initial, every per-iteration snapshot, final — Hook-ZNE's dials."""
        return [self.initial_schedule] + [r.schedule for r in self.history]

    @property
    def deff_estimate(self) -> int | None:
        weights = [
            r.min_logical_weight
            for r in self.history
            if r.min_logical_weight is not None
        ]
        return min(weights) if weights else None


class PropHunt:
    """Automated SM-circuit optimizer for CSS codes."""

    def __init__(self, code: CSSCode, config: PropHuntConfig | None = None):
        self.code = code
        self.config = config or PropHuntConfig()
        self.noise = NoiseModel(p=self.config.reference_p)
        self._dem_cache: dict[tuple, DetectorErrorModel] = {}

    # -- DEM helpers -------------------------------------------------------------

    def _schedule_key(self, schedule: Schedule, basis: str) -> tuple:
        stab_part = tuple(
            (k, tuple(v)) for k, v in sorted(schedule.stab_orders.items())
        )
        qubit_part = tuple(
            (q, tuple(v)) for q, v in sorted(schedule.qubit_orders.items())
        )
        return (basis, stab_part, qubit_part)

    def build_dem(self, schedule: Schedule, basis: str) -> DetectorErrorModel:
        key = self._schedule_key(schedule, basis)
        hit = self._dem_cache.get(key)
        if hit is None:
            experiment = build_memory_experiment(
                self.code, schedule, rounds=self.config.rounds, basis=basis
            )
            hit = extract_dem(self.noise.apply(experiment.circuit))
            if len(self._dem_cache) > 256:
                self._dem_cache.clear()
            self._dem_cache[key] = hit
        return hit

    # -- one iteration -----------------------------------------------------------

    def _find_problems(
        self, schedule: Schedule, rng: np.random.Generator
    ) -> list[tuple[str, Subgraph, LogicalErrorSolution, DetectorErrorModel]]:
        """Sample ambiguous subgraphs + solve them, across bases."""
        from .parallel import sample_and_solve

        problems = []
        per_basis = max(1, self.config.samples_per_iteration // len(self.config.bases))
        for basis in self.config.bases:
            dem = self.build_dem(schedule, basis)
            graph = DecodingGraph(dem)
            base_seed = int(rng.integers(0, 2**31))
            found = sample_and_solve(
                graph,
                per_basis,
                base_seed,
                max_errors=self.config.max_subgraph_errors,
                solver=self.config.solver,
                isd_iterations=self.config.isd_iterations,
                workers=self.config.workers,
            )
            problems.extend((basis, sub, sol, dem) for sub, sol in found)
        return problems

    def _verify_candidates(
        self,
        schedule: Schedule,
        problems,
        rng: np.random.Generator,
    ) -> list[tuple[int, Schedule, object]]:
        """§5.3 + §5.4: enumerate then prune; returns verified changes
        tagged by the subgraph (problem index) they resolve."""
        verified = []
        checked: set[tuple] = set()
        for idx, (basis, sub, solution, dem) in enumerate(problems):
            logical_error = solution.global_errors(sub)
            candidates = enumerate_candidates(
                self.code, schedule, dem, logical_error, rng
            )[: self.config.max_candidates_per_error]
            for cand in candidates:
                sig = (basis, idx, cand.signature())
                if sig in checked:
                    continue
                checked.add(sig)
                outcome = check_candidate(
                    self.code,
                    schedule,
                    cand,
                    sub,
                    dem,
                    logical_error,
                    lambda s, basis=basis: self.build_dem(s, basis),
                )
                if outcome.verified:
                    verified.append((idx, outcome.schedule, cand))
        return verified

    def _apply_changes(
        self, schedule: Schedule, verified, depth_limit: int | None = None
    ) -> tuple[Schedule, int]:
        """§5.5: per subgraph keep the min-depth candidate, apply in turn."""
        by_problem: dict[int, list[tuple[Schedule, object]]] = {}
        for idx, new_schedule, cand in verified:
            by_problem.setdefault(idx, []).append((new_schedule, cand))
        current = schedule
        applied = 0
        for idx in sorted(by_problem):
            options = by_problem[idx]
            options.sort(key=lambda item: item[0].cnot_depth())
            for _, cand in options:
                try:
                    trial = cand.apply_to(current)
                except (ValueError, KeyError):
                    continue
                if not trial.is_valid():
                    continue
                if depth_limit is not None and trial.cnot_depth() > depth_limit:
                    continue
                current = trial
                applied += 1
                break
        return current, applied

    # -- main loop ------------------------------------------------------------------

    def optimize(self, schedule: Schedule) -> PropHuntResult:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        if not schedule.is_valid():
            raise ValueError("starting schedule is invalid")
        current = schedule.copy()
        history: list[IterationRecord] = []
        depth_limit = (
            None
            if cfg.max_depth_growth is None
            else schedule.cnot_depth() + cfg.max_depth_growth
        )

        for it in range(cfg.iterations):
            t0 = time.monotonic()
            problems = self._find_problems(current, rng)
            verified = self._verify_candidates(current, problems, rng)
            new_schedule, applied = self._apply_changes(
                current, verified, depth_limit=depth_limit
            )
            weights = [sol.weight for _, _, sol, _ in problems]
            record = IterationRecord(
                iteration=it,
                schedule=new_schedule.copy(),
                cnot_depth=new_schedule.cnot_depth(),
                ambiguous_found=len(problems),
                min_logical_weight=min(weights) if weights else None,
                changes_verified=len(verified),
                changes_applied=applied,
                solve_times=[sol.solve_time for _, _, sol, _ in problems],
                subgraph_sizes=[
                    (sub.num_detectors, sub.num_errors) for _, sub, _, _ in problems
                ],
                elapsed=time.monotonic() - t0,
            )
            history.append(record)
            current = new_schedule
            if cfg.stop_when_quiet and applied == 0 and not problems:
                break

        return PropHuntResult(
            code=self.code,
            initial_schedule=schedule,
            final_schedule=current,
            history=history,
        )

