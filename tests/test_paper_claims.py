"""Integration tests for specific claims made in the paper's text.

These go beyond unit behaviour: each test pins one sentence of the paper
to a measurable property of this implementation.
"""

import numpy as np
import pytest

from repro.analysis.deff import estimate_effective_distance
from repro.circuits import build_memory_experiment, coloration_schedule, nz_schedule
from repro.codes import (
    load_benchmark_code,
    rotated_surface_code,
    steane_code,
    toric_like_code,
)
from repro.decoders.metrics import dem_for
from repro.noise import NoiseModel


class TestSection2Claims:
    def test_d11_surface_resource_counts(self):
        """§1: 'a code distance of d=11 can be implemented with a SM
        circuit using 241 qubits and 440 CNOT gates' (per round)."""
        code = rotated_surface_code(11)
        assert code.n + code.num_x_stabs + code.num_z_stabs == 241
        cnots_per_round = int(code.hx.sum() + code.hz.sum())
        assert cnots_per_round == 440

    def test_d7_circuit_level_matrix_size(self):
        """§2.7: the d=7 circuit-level H has far more columns than the 49
        of the stabilizer matrix (paper quotes >15,000 before merging)."""
        code = rotated_surface_code(7)
        exp = build_memory_experiment(code, nz_schedule(code), rounds=7)
        dem_unmerged = __import__(
            "repro.sim.dem", fromlist=["extract_dem"]
        ).extract_dem(NoiseModel(p=1e-3).apply(exp.circuit), merge=False)
        assert dem_unmerged.num_errors > 15_000

    def test_hook_error_halves_weight(self):
        """§2.8: a weight-4 check's worst hook spreads to floor(4/2)=2
        data qubits after stabilizer reduction — so the poor d=3 schedule
        yields weight-2 logicals, not weight-1."""
        code = rotated_surface_code(3)
        from repro.circuits import poor_schedule

        est = estimate_effective_distance(
            code, poor_schedule(code), samples=40, rng=np.random.default_rng(0)
        )
        assert est.deff == 2  # = ceil(d/2) + ... reduced but not destroyed


class TestSection3Claims:
    def test_hypergraph_product_deff_equals_d(self):
        """§3.1: 'for hypergraph-product codes it's known that all SM
        circuits have d_eff = d' [34] — check a few random circuits."""
        code = toric_like_code(3)
        code.distance = 3
        for seed in range(3):
            sched = coloration_schedule(code, np.random.default_rng(seed))
            est = estimate_effective_distance(
                code, sched, samples=40, rng=np.random.default_rng(seed)
            )
            assert est.deff == 3, f"seed {seed} gave d_eff={est.deff}"

    def test_steane_code_always_distance_reducing(self):
        """§3.1: 'for the Steane code ... all CNOT orderings produce hook
        errors that are distance-reducing'."""
        code = steane_code()
        for seed in range(3):
            sched = coloration_schedule(code, np.random.default_rng(seed))
            est = estimate_effective_distance(
                code, sched, samples=50, rng=np.random.default_rng(seed)
            )
            assert est.deff is not None and est.deff < 3


class TestSection4Claims:
    def test_ambiguous_union_is_undetected_logical(self):
        """§4: if H e1 = H e2 and L e1 != L e2, then e1+e2 is an
        undetected logical error."""
        code = rotated_surface_code(3)
        dem = dem_for(code, nz_schedule(code), NoiseModel(p=1e-3), rounds=3)
        from repro.core import DecodingGraph, find_ambiguous_subgraph
        from repro.core.minweight import solve_min_weight_logical

        graph = DecodingGraph(dem)
        rng = np.random.default_rng(0)
        sub = None
        while sub is None:
            sub = find_ambiguous_subgraph(graph, rng)
        sol = solve_min_weight_logical(sub, rng)
        e_union = np.zeros(sub.num_errors, dtype=np.uint8)
        e_union[sol.error_columns] = 1
        # The union: same syndrome (0) on H', nonzero on L'.
        assert not (sub.h @ e_union % 2).any()
        assert (sub.l @ e_union % 2).any()

    def test_logical_error_rate_scales_with_deff(self):
        """§4: LER ~ O(p^ceil(deff/2)): halving d_eff (3->2) costs roughly
        a power of p at low p; just check the ordering is strict and large."""
        from repro.circuits import poor_schedule
        from repro.experiments.shotrunner import estimate_logical_error_rate

        code = rotated_surface_code(3)
        rng = np.random.default_rng(0)
        good = estimate_logical_error_rate(
            code, nz_schedule(code), p=1e-3, shots=12_000, rng=rng
        )
        poor = estimate_logical_error_rate(
            code, poor_schedule(code), p=1e-3, shots=12_000, rng=rng
        )
        assert poor.rate > 1.5 * good.rate


class TestSection6Claims:
    @pytest.mark.parametrize("name", ["lp39", "rqt60"])
    def test_coloration_baseline_is_valid_for_all_benchmarks(self, name):
        """§6.1: the coloration circuit is 'generally applicable' — it
        must produce valid circuits for every benchmark code."""
        code = load_benchmark_code(name)
        sched = coloration_schedule(code)
        assert sched.is_valid()
        exp = build_memory_experiment(code, sched, rounds=2)
        from repro.sim import verify_deterministic_detectors

        assert verify_deterministic_detectors(exp.circuit, trials=2)

    def test_coloration_depth_bounded_by_degrees(self):
        """Coloration uses at most Delta_X + Delta_Z CNOT layers."""
        for name in ("surface_d5", "lp39", "rqt60"):
            code = load_benchmark_code(name)
            sched = coloration_schedule(code)
            max_deg_x = max(
                int(code.hx.sum(axis=0).max()), int(code.hx.sum(axis=1).max())
            )
            max_deg_z = max(
                int(code.hz.sum(axis=0).max()), int(code.hz.sum(axis=1).max())
            )
            assert sched.cnot_depth() <= max_deg_x + max_deg_z
