"""Unit tests for the unique-syndrome batching kernels.

Covers the shot-axis grouping helpers in :mod:`repro.sim.bitbatch` and
the exact pairing enumeration that replaced blossom for small defect
sets in :mod:`repro.decoders.matching`.
"""

import math

import numpy as np
import pytest

from repro.circuits import nz_schedule
from repro.codes import rotated_surface_code
from repro.decoders import MatchingDecoder, detector_subset_for_basis
from repro.decoders.matching import _pairings
from repro.decoders.metrics import dem_for
from repro.gf2.bitmat import pack_rows, unpack_rows
from repro.gf2.kernels import transpose_words
from repro.noise import NoiseModel
from repro.sim import DemSampler
from repro.sim.bitbatch import (
    scatter_unique,
    unique_shot_words,
    unpack_shots,
)

# Telephone numbers: involutions of k elements.
_INVOLUTION_COUNTS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 76, 7: 232, 8: 764}


class TestShotWords:
    def test_round_trips_through_transpose(self):
        rng = np.random.default_rng(0)
        for shots, k in [(63, 5), (64, 5), (65, 5), (200, 70), (1, 1)]:
            dense = (rng.random((shots, k)) < 0.2).astype(np.uint8)
            packed = pack_rows(np.ascontiguousarray(dense.T))  # (k, shot words)
            keys = transpose_words(packed, shots)
            assert keys.shape == (shots, max(1, (k + 63) // 64))
            # Row s of the keys is shot s's syndrome, packed.
            assert np.array_equal(unpack_rows(keys, k), dense)


class TestUniqueShotWords:
    @pytest.mark.parametrize("shots,k", [(500, 10), (500, 70), (64, 130), (1, 5)])
    def test_grouping_matches_np_unique(self, shots, k):
        rng = np.random.default_rng(shots + k)
        dense = (rng.random((shots, k)) < 0.05).astype(np.uint8)
        per_shot = pack_rows(dense)
        unique, inverse = unique_shot_words(per_shot)
        # Scattering through inverse must reproduce every shot's key...
        assert np.array_equal(unique[inverse], per_shot)
        # ...and the groups must be exactly the distinct rows.
        assert len(unique) == len(np.unique(per_shot, axis=0))

    def test_all_zero(self):
        unique, inverse = unique_shot_words(np.zeros((7, 2), dtype=np.uint64))
        assert len(unique) == 1 and not unique.any()
        assert not inverse.any()

    def test_no_zero_rows(self):
        keys = np.array([[3], [5], [3]], dtype=np.uint64)
        unique, inverse = unique_shot_words(keys)
        assert len(unique) == 2
        assert np.array_equal(unique[inverse], keys)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            unique_shot_words(np.zeros(4, dtype=np.uint64))


class TestScatterUnique:
    def test_scatters_group_values(self):
        values = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        inverse = np.array([2, 0, 0, 1, 2])
        packed = scatter_unique(values, inverse)
        assert np.array_equal(unpack_shots(packed, 5), values[inverse])


class TestPairingEnumeration:
    @pytest.mark.parametrize("k", sorted(_INVOLUTION_COUNTS))
    def test_counts_are_telephone_numbers(self, k):
        assert len(_pairings(k)) == _INVOLUTION_COUNTS[k]

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_patterns_partition_all_elements(self, k):
        for pairs, singles in _pairings(k):
            elems = sorted(
                [e for pair in pairs for e in pair] + list(singles)
            )
            assert elems == list(range(k))

    def test_enum_match_cost_equals_blossom(self):
        """The enumerated matching reaches the same minimum cost as the
        blossom fallback (parities may differ only on exact cost ties)."""
        code = rotated_surface_code(3)
        dem = dem_for(code, nz_schedule(code), NoiseModel(p=8e-3), basis="z")
        dec = MatchingDecoder(dem, detector_subset_for_basis(dem, "z"))
        batch = DemSampler(dem).sample_packed(300, np.random.default_rng(4))
        sub = batch.detectors_dense()[:, dec.subset]
        checked = 0
        for row in sub:
            defects = tuple(int(d) for d in np.nonzero(row)[0])
            if not 3 <= len(defects) <= 6:
                continue
            best = min(
                self_cost(dec, pairs, singles, defects)
                for pairs, singles in _pairings(len(defects))
            )
            # The enumerated optimum must equal blossom's achieved cost:
            # both are exact minimum-weight matchings of the same set.
            assert math.isclose(best, blossom_cost(dec, defects), rel_tol=1e-9)
            checked += 1
        assert checked > 5


def self_cost(dec, pairs, singles, defects):
    cost = 0.0
    for i, j in pairs:
        cost += dec.dist[defects[i], defects[j]]
    for s in singles:
        cost += dec.dist[defects[s], dec.boundary]
    return cost


def blossom_cost(dec, defects):
    import networkx as nx

    b = dec.boundary
    graph = nx.Graph()
    for i, u in enumerate(defects):
        graph.add_edge(u, -u - 1000, weight=float(dec.dist[u, b]))
        for v in defects[i + 1 :]:
            graph.add_edge(u, v, weight=float(dec.dist[u, v]))
            graph.add_edge(-u - 1000, -v - 1000, weight=0.0)
    matching = nx.algorithms.matching.min_weight_matching(graph)
    return sum(graph[a][c]["weight"] for a, c in matching)
