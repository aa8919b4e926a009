"""Tests for decoding graphs, ambiguity finding, and min-weight solving."""

import numpy as np
import pytest

from repro.circuits import nz_schedule, poor_schedule
from repro.codes import rotated_surface_code
from repro.core import (
    DecodingGraph,
    build_maxsat_model,
    find_ambiguous_subgraph,
    is_ambiguous,
    solve_min_weight_logical,
)
from repro.decoders.metrics import dem_for
from repro.noise import NoiseModel
from repro.sim import DetectorErrorModel, ErrorMechanism


def ambiguous_subgraphs(graph, samples, rng):
    """``samples`` independent expansions, keeping the ambiguous ones."""
    found = (find_ambiguous_subgraph(graph, rng) for _ in range(samples))
    return [sub for sub in found if sub is not None]


@pytest.fixture(scope="module")
def d3_dem():
    code = rotated_surface_code(3)
    return dem_for(code, nz_schedule(code), NoiseModel(p=1e-3), basis="z", rounds=3)


@pytest.fixture(scope="module")
def poor_dem():
    code = rotated_surface_code(3)
    return dem_for(code, poor_schedule(code), NoiseModel(p=1e-3), basis="z", rounds=3)


class TestDecodingGraph:
    def test_adjacency_consistency(self, d3_dem):
        graph = DecodingGraph(d3_dem)
        for e, dets in enumerate(graph.error_dets):
            for d in dets:
                assert e in graph.det_errors[d]

    def test_closure_errors(self, d3_dem):
        graph = DecodingGraph(d3_dem)
        full = set(range(d3_dem.num_detectors))
        assert len(graph.closure_errors(full)) == d3_dem.num_errors

    def test_closure_and_submatrices_match_the_supports(self):
        """Packed closure/submatrices against their definitions, on a DEM
        with a detector-free (undetectable logical) mechanism and a
        detector past the first 64-bit word."""
        supports = [
            ((0,), (0,)),
            ((0, 65), ()),
            ((), (0,)),
            ((1, 2), (1,)),
            ((65,), ()),
        ]
        dem = DetectorErrorModel.from_mechanisms(
            [ErrorMechanism(0.01, d, o, ()) for d, o in supports], 66, 2
        )
        graph = DecodingGraph(dem)
        rng = np.random.default_rng(0)
        for _ in range(30):
            subset = {int(d) for d in rng.choice(66, size=4, replace=False)} | {0}
            want = [
                e
                for e, (dets, _) in enumerate(supports)
                if dets and set(dets) <= subset
            ]
            assert graph.closure_errors(subset) == want
            h, l_mat = graph.submatrices(sorted(subset), want)
            for j, e in enumerate(want):
                dets, obs = supports[e]
                assert h[:, j].tolist() == [int(d in dets) for d in sorted(subset)]
                assert l_mat[:, j].tolist() == [int(o in obs) for o in range(2)]

    def test_submatrices_shapes(self, d3_dem):
        graph = DecodingGraph(d3_dem)
        dets = [0, 1, 2]
        errors = graph.closure_errors(set(dets))
        h, l_mat = graph.submatrices(dets, errors)
        assert h.shape == (3, len(errors))
        assert l_mat.shape == (d3_dem.num_observables, len(errors))


class TestAmbiguity:
    def test_is_ambiguous_basic(self):
        h = np.array([[1, 1]], dtype=np.uint8)
        ambiguous_l = np.array([[1, 0]], dtype=np.uint8)
        safe_l = np.array([[1, 1]], dtype=np.uint8)
        assert is_ambiguous(h, ambiguous_l)
        assert not is_ambiguous(h, safe_l)

    def test_zero_logical_is_unambiguous(self):
        h = np.array([[1, 1]], dtype=np.uint8)
        assert not is_ambiguous(h, np.zeros((1, 2), dtype=np.uint8))

    def test_finds_ambiguity_in_surface_code(self, d3_dem):
        graph = DecodingGraph(d3_dem)
        rng = np.random.default_rng(0)
        found = ambiguous_subgraphs(graph, 20, rng)
        assert found  # a d=3 code always has weight-3 ambiguous errors
        for sub in found:
            assert is_ambiguous(sub.h, sub.l)

    def test_subgraph_errors_are_closed(self, d3_dem):
        graph = DecodingGraph(d3_dem)
        sub = find_ambiguous_subgraph(graph, np.random.default_rng(1))
        assert sub is not None
        det_set = set(sub.detectors)
        for e in sub.errors:
            assert all(d in det_set for d in graph.error_dets[e])

    def test_respects_size_cap(self, d3_dem):
        graph = DecodingGraph(d3_dem)
        sub = find_ambiguous_subgraph(
            graph, np.random.default_rng(0), max_errors=1
        )
        assert sub is None


class TestMinWeightSolvers:
    def _subgraphs(self, dem, n=6, seed=0):
        graph = DecodingGraph(dem)
        return ambiguous_subgraphs(graph, n, np.random.default_rng(seed))

    def test_solution_is_a_logical_error(self, d3_dem):
        for sub in self._subgraphs(d3_dem):
            sol = solve_min_weight_logical(sub, np.random.default_rng(0))
            assert sol is not None
            e = np.zeros(sub.num_errors, dtype=np.uint8)
            e[sol.error_columns] = 1
            assert not (sub.h @ e % 2).any()  # undetected
            assert (sub.l @ e % 2).any()  # flips a logical

    def test_graphlike_matches_isd_when_applicable(self, d3_dem):
        """Full DEM subgraphs mix X/Z detector types, so some mechanisms
        are hyperedges and the graph-like solver declines (returns None);
        when it does apply, it must agree with ISD."""
        compared = 0
        for sub in self._subgraphs(d3_dem, n=10):
            g = solve_min_weight_logical(
                sub, np.random.default_rng(0), method="graphlike"
            )
            if g is None:
                continue
            i = solve_min_weight_logical(
                sub, np.random.default_rng(0), method="isd", isd_iterations=300
            )
            assert i is not None
            assert g.weight == i.weight
            compared += 1
        # The ISD path at least must have been exercised via auto elsewhere.

    def test_isd_matches_maxsat(self, d3_dem):
        compared = 0
        for sub in self._subgraphs(d3_dem, n=6):
            if sub.num_errors > 40 or compared >= 2:
                continue
            i = solve_min_weight_logical(
                sub, np.random.default_rng(0), method="isd", isd_iterations=300
            )
            m = solve_min_weight_logical(sub, method="maxsat", maxsat_timeout=120)
            assert i is not None and m is not None
            assert i.weight == m.weight
            compared += 1
        assert compared > 0

    def test_poor_schedule_has_lower_weight_logicals(self, d3_dem, poor_dem):
        """The poor schedule's hooks reduce d_eff below 3 (paper Fig 6)."""
        best_good = min(
            solve_min_weight_logical(s, np.random.default_rng(0)).weight
            for s in self._subgraphs(d3_dem, n=12, seed=3)
        )
        best_poor = min(
            solve_min_weight_logical(s, np.random.default_rng(0)).weight
            for s in self._subgraphs(poor_dem, n=12, seed=3)
        )
        assert best_poor < best_good
        assert best_good == 3

    def test_maxsat_model_sizes_reported(self, d3_dem):
        sub = self._subgraphs(d3_dem, n=1)[0]
        wcnf = build_maxsat_model(sub.h, sub.l)
        stats = wcnf.stats()
        assert stats["soft_clauses"] == sub.num_errors
        assert stats["variables"] >= sub.num_errors + sub.num_detectors
        assert stats["hard_clauses"] > 0

    def test_unknown_method_rejected(self, d3_dem):
        sub = self._subgraphs(d3_dem, n=1)[0]
        with pytest.raises(ValueError):
            solve_min_weight_logical(sub, method="quantum")
