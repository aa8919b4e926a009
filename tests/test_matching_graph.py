"""Matching-graph cells: the array build against the per-mechanism oracle.

``MatchingDecoder._build_graph`` compiles the decoding graph from the
DEM arrays in one pass; ``tests/matching_oracle.py`` is the loop it
replaced.  Every cell asks for exact equality of the CSR (``data``,
``indices``, ``indptr``), of ``dist`` (``inf`` included) and of
``parity``: one cell per real schedule and noise scenario, and one
minimal hand-built DEM per rule of the build (parallel-edge ties and
wins, ``math.log`` weights, long paths, the boundary, other-basis
mechanisms, probability clipping, unreachable nodes, subset order, no
observable, the not-graph-like error).
"""

import math

import numpy as np
import pytest
from matching_oracle import oracle_graph

from repro.circuits import coloration_schedule, nz_schedule
from repro.codes.library import BENCHMARK_CODES, load_benchmark_code
from repro.decoders import MatchingDecoder, detector_subset_for_basis
from repro.decoders.metrics import dem_for
from repro.noise import DriftSchedule, NoiseModel, NoiseSpec, synthetic_profile
from repro.sim.dem import DetectorErrorModel, ErrorMechanism

SURFACE_CODES = sorted(name for name in BENCHMARK_CODES if name.startswith("surface"))
SCHEDULES = {"nz": nz_schedule, "coloration": coloration_schedule}


def assert_matches_oracle(dem, subset, observable=0):
    dec = MatchingDecoder(dem, subset, observable=observable)
    if subset is None:
        subset = list(range(dem.num_detectors))
    graph, dist, parity = oracle_graph(dem, subset, observable)
    assert dec.dist.dtype == np.float64 and dec.parity.dtype == np.uint8
    np.testing.assert_array_equal(dec.dist, dist)
    np.testing.assert_array_equal(dec.parity, parity)
    for part in ("data", "indices", "indptr"):
        ours, theirs = getattr(dec.graph, part), getattr(graph, part)
        assert ours.dtype == theirs.dtype
        np.testing.assert_array_equal(ours, theirs)
    return dec


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("name", SURFACE_CODES)
def test_surface_codes(name, schedule, basis):
    code = load_benchmark_code(name)
    dem = dem_for(code, SCHEDULES[schedule](code), NoiseModel(p=1e-3), basis, rounds=2)
    assert_matches_oracle(dem, detector_subset_for_basis(dem, basis))


NOISE = {
    "biased": NoiseSpec.biased(2e-3, eta=10.0),
    "correlated": NoiseSpec.correlated(2e-3),
    "drift": NoiseSpec.depolarizing(2e-3, drift=DriftSchedule((1.0, 1.7, 0.4))),
    "profile": NoiseSpec.depolarizing(2e-3, profile=synthetic_profile(17, seed=2)),
}


@pytest.mark.parametrize("noise", sorted(NOISE))
def test_surface_d3_noise(noise):
    code = load_benchmark_code("surface_d3")
    dem = dem_for(code, nz_schedule(code), NOISE[noise], "z", rounds=3)
    assert_matches_oracle(dem, detector_subset_for_basis(dem, "z"))


def _dem(num_detectors, num_observables, *mechanisms):
    return DetectorErrorModel.from_mechanisms(
        [ErrorMechanism(p, dets, obs, ()) for p, dets, obs in mechanisms],
        num_detectors,
        num_observables,
    )


@pytest.mark.parametrize("first_flip", [0, 1])
def test_equal_parallel_edges_keep_the_first(first_flip):
    first = (0,) if first_flip else ()
    second = () if first_flip else (0,)
    dem = _dem(2, 1, (0.1, (0, 1), first), (0.1, (0, 1), second))
    dec = assert_matches_oracle(dem, None)
    assert dec.parity[0, 1] == first_flip


def test_later_lighter_parallel_edge_wins():
    dem = _dem(2, 1, (0.1, (0, 1), ()), (0.2, (0, 1), (0,)))
    dec = assert_matches_oracle(dem, None)
    assert dec.parity[0, 1] == 1
    assert dec.dist[0, 1] == math.log(0.8 / 0.2)


def test_weights_use_math_log():
    # np.log((1 - p) / p) is one ulp off math.log at p = 0.07668 with
    # some numpy builds; dist must follow math.log, as it always has.
    dem = _dem(2, 1, (0.07668, (0, 1), (0,)), (0.1, (1,), ()))
    dec = assert_matches_oracle(dem, None)
    assert dec.dist[0, 1] == math.log((1 - 0.07668) / 0.07668)


def test_chain_paths_of_every_length():
    # End to end is n - 1 = 11 hops: three pointer-doubling rounds
    # (8 hops) fall short.
    n = 12
    dem = _dem(n, 1, *[(0.1, (i, i + 1), (0,) * (i % 4 == 0)) for i in range(n - 1)])
    dec = assert_matches_oracle(dem, None)
    assert dec.parity[0, n - 1] == 1


def test_boundary_edge():
    dem = _dem(2, 1, (0.1, (1,), (0,)), (0.1, (0, 1), ()))
    dec = assert_matches_oracle(dem, None)
    assert dec.parity[1, dec.boundary] == dec.parity[0, dec.boundary] == 1


def test_other_basis_mechanisms_are_skipped():
    # Detectors 2 and 3 are the other basis: (2,) and (2, 3) leave no
    # edge, and (0, 2, 3) is a boundary edge of detector 0.
    dem = _dem(4, 1, (0.1, (2,), (0,)), (0.1, (2, 3), ()), (0.1, (0, 2, 3), (0,)))
    dec = assert_matches_oracle(dem, [0, 1])
    assert dec.graph.nnz == 2 and dec.parity[0, dec.boundary] == 1


def test_probabilities_are_clipped():
    dem = _dem(3, 1, (0.0, (0,), ()), (0.5, (0, 1), (0,)), (0.7, (1, 2), ()))
    dec = assert_matches_oracle(dem, None)
    assert np.isfinite(dec.dist[:3, :3]).all() and (dec.graph.data > 0).all()


def test_unreachable_node():
    dem = _dem(3, 1, (0.1, (0, 1), (0,)))
    dec = assert_matches_oracle(dem, None)
    assert np.isinf(dec.dist[2, :2]).all() and np.isinf(dec.dist[:2, 2]).all()
    assert not dec.parity[2].any() and not dec.parity[:, 2].any()


def test_subset_out_of_ascending_order():
    dem = _dem(
        4,
        1,
        (0.1, (0, 2), (0,)),
        (0.05, (1, 2), ()),
        (0.2, (0,), ()),
        (0.1, (1, 3), (0,)),
    )
    assert_matches_oracle(dem, [2, 0, 1])


def test_empty_subset_and_missing_observable():
    dem = _dem(2, 0, (0.1, (0, 1), ()), (0.1, (1,), ()))
    assert_matches_oracle(dem, [])
    assert_matches_oracle(dem, None)


def test_non_graph_like_mechanism_raises_the_same_error():
    # The first mechanism past two subset detectors names its count.
    dem = _dem(5, 1, (0.1, (0,), ()), (0.1, (0, 1, 2, 3), ()), (0.1, (0, 1, 2), ()))
    with pytest.raises(ValueError) as oracle_error:
        oracle_graph(dem, list(range(5)))
    with pytest.raises(ValueError) as error:
        MatchingDecoder(dem)
    assert str(error.value) == str(oracle_error.value)
    assert "flips 4 same-type detectors" in str(error.value)
