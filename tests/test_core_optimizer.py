"""Tests for candidate changes, pruning, and the PropHunt loop."""

import numpy as np
import pytest

from repro.circuits import nz_schedule, poor_schedule, schedule_to_json
from repro.codes import rotated_surface_code
from repro.core import (
    DecodingGraph,
    PropHunt,
    PropHuntConfig,
    check_candidate,
    enumerate_candidates,
    find_ambiguous_subgraph,
    solve_min_weight_logical,
)
from repro.decoders.metrics import dem_for
from repro.noise import NoiseModel


@pytest.fixture(scope="module")
def setup_poor():
    code = rotated_surface_code(3)
    schedule = poor_schedule(code)
    dem = dem_for(code, schedule, NoiseModel(p=1e-3), basis="z", rounds=3)
    return code, schedule, dem


def first_problem(code, schedule, dem, seed=0):
    graph = DecodingGraph(dem)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        sub = find_ambiguous_subgraph(graph, rng)
        if sub is None:
            continue
        sol = solve_min_weight_logical(sub, rng)
        if sol is not None:
            return sub, sol
    raise AssertionError("no ambiguous subgraph found")


class TestCandidateEnumeration:
    def test_candidates_exist_for_poor_schedule(self, setup_poor):
        code, schedule, dem = setup_poor
        sub, sol = first_problem(code, schedule, dem)
        cands = enumerate_candidates(
            code, schedule, dem, sol.global_errors(sub), np.random.default_rng(0)
        )
        assert cands
        kinds = {c.kind for c in cands}
        assert kinds <= {"reorder", "reschedule"}

    def test_candidates_are_deduplicated(self, setup_poor):
        code, schedule, dem = setup_poor
        sub, sol = first_problem(code, schedule, dem)
        cands = enumerate_candidates(
            code, schedule, dem, sol.global_errors(sub), np.random.default_rng(0)
        )
        sigs = [c.signature() for c in cands]
        assert len(sigs) == len(set(sigs))

    def test_apply_to_returns_copy(self, setup_poor):
        code, schedule, dem = setup_poor
        sub, sol = first_problem(code, schedule, dem)
        cands = enumerate_candidates(
            code, schedule, dem, sol.global_errors(sub), np.random.default_rng(0)
        )
        snapshot = {k: list(v) for k, v in schedule.stab_orders.items()}
        cands[0].apply_to(schedule)
        assert {k: list(v) for k, v in schedule.stab_orders.items()} == snapshot

    def test_mixed_type_reschedule_has_companion_swap(self, setup_poor):
        code, schedule, dem = setup_poor
        sub, sol = first_problem(code, schedule, dem)
        cands = enumerate_candidates(
            code, schedule, dem, sol.global_errors(sub), np.random.default_rng(0)
        )
        for c in cands:
            if c.kind != "reschedule":
                continue
            swaps = [e for e in c.edits if e[0] == "swap"]
            s1, s2 = swaps[0][2], swaps[0][3]
            if s1[0] != s2[0]:
                assert len(swaps) == 2  # commutation-preserving pair (§5.3.2)


class TestPruning:
    def test_some_candidate_is_verified(self, setup_poor):
        """Across a handful of ambiguous subgraphs, at least one candidate
        change must pass both §5.4 checks (not every subgraph has a local
        fix, but the poor schedule is fixable overall)."""
        code, schedule, dem = setup_poor
        noise = NoiseModel(p=1e-3)
        build = lambda s: dem_for(code, s, noise, basis="z", rounds=3)
        any_valid = False
        any_verified = False
        for seed in range(8):
            sub, sol = first_problem(code, schedule, dem, seed=seed)
            logical = sol.global_errors(sub)
            cands = enumerate_candidates(
                code, schedule, dem, logical, np.random.default_rng(seed)
            )
            for c in cands:
                o = check_candidate(code, schedule, c, sub, dem, logical, build)
                any_valid = any_valid or o.valid_circuit
                any_verified = any_verified or o.verified
            if any_verified:
                break
        assert any_valid
        assert any_verified

    def test_invalid_candidates_are_caught(self, setup_poor):
        """A raw single X/Z swap without its companion is invalid and must
        be rejected by the validity check."""
        from repro.core.changes import CandidateChange

        code, schedule, dem = setup_poor
        sub, sol = first_problem(code, schedule, dem)
        overlap = np.argwhere(code.hx.astype(int) @ code.hz.T.astype(int))[0]
        xs, zs = int(overlap[0]), int(overlap[1])
        q = int(np.nonzero(code.hx[xs] & code.hz[zs])[0][0])
        bad = CandidateChange(
            edits=[("swap", q, ("x", xs), ("z", zs))], source_error=0, kind="reschedule"
        )
        noise = NoiseModel(p=1e-3)
        build = lambda s: dem_for(code, s, noise, basis="z", rounds=3)
        outcome = check_candidate(
            code, schedule, bad, sub, dem, sol.global_errors(sub), build
        )
        assert not outcome.valid_circuit


class TestOptimizerLoop:
    def test_recovers_surface_code_performance(self):
        """Paper's headline result, scaled down: starting from the poor
        schedule, PropHunt reaches d_eff = 3 within a few iterations."""
        code = rotated_surface_code(3)
        cfg = PropHuntConfig(iterations=4, samples_per_iteration=30, seed=1)
        result = PropHunt(code, cfg).optimize(poor_schedule(code))
        assert result.final_schedule.is_valid()
        # The poor schedule has weight-2 logicals; they must be gone.
        last_weights = [
            r.min_logical_weight
            for r in result.history[-2:]
            if r.min_logical_weight is not None
        ]
        assert last_weights and min(last_weights) >= 3

    def test_history_records_intermediates(self):
        code = rotated_surface_code(3)
        cfg = PropHuntConfig(iterations=2, samples_per_iteration=10, seed=0)
        result = PropHunt(code, cfg).optimize(poor_schedule(code))
        assert len(result.history) <= 2
        assert len(result.intermediate_schedules) == len(result.history) + 1
        for record in result.history:
            assert record.schedule.is_valid()
            assert record.cnot_depth >= 4

    def test_history_independent_of_workers(self):
        """A run is a pure function of (code, start, config): subgraph
        sample ``i`` seeds from its index, so fanning sampling over two
        processes changes no count and no schedule."""
        code = rotated_surface_code(3)
        runs = {}
        for workers in (1, 2):
            cfg = PropHuntConfig(
                iterations=1, samples_per_iteration=10, seed=0, workers=workers
            )
            result = PropHunt(code, cfg).optimize(poor_schedule(code))
            runs[workers] = (
                [
                    (
                        r.ambiguous_found,
                        r.changes_verified,
                        r.changes_applied,
                        r.min_logical_weight,
                        r.subgraph_sizes,
                    )
                    for r in result.history
                ],
                schedule_to_json(result.final_schedule),
            )
        assert runs[1] == runs[2]
        assert any(applied for *_, applied, _, _ in runs[1][0])

    def test_rejects_invalid_start(self):
        code = rotated_surface_code(3)
        bad = nz_schedule(code)
        overlap = np.argwhere(code.hx.astype(int) @ code.hz.T.astype(int))[0]
        xs, zs = int(overlap[0]), int(overlap[1])
        q = int(np.nonzero(code.hx[xs] & code.hz[zs])[0][0])
        bad.swap_relative_order(q, ("x", xs), ("z", zs))
        with pytest.raises(ValueError):
            PropHunt(code).optimize(bad)

    def test_good_schedule_stays_good(self):
        """Optimizing an already-good schedule must not break it."""
        code = rotated_surface_code(3)
        cfg = PropHuntConfig(iterations=2, samples_per_iteration=15, seed=2)
        result = PropHunt(code, cfg).optimize(nz_schedule(code))
        assert result.final_schedule.is_valid()
        weights = [
            r.min_logical_weight
            for r in result.history
            if r.min_logical_weight is not None
        ]
        if weights:
            assert min(weights) == 3  # d_eff never drops below d
