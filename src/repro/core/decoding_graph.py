"""Bipartite circuit-level decoding graphs (paper §5.1).

Nodes are error mechanisms and syndromes (detectors); an edge means "this
error flips that syndrome".  PropHunt's subgraph machinery operates on
submatrices of the circuit-level ``H`` and ``L`` induced by a syndrome
subset ``S'``: the error set is *all* mechanisms whose detector support
lies inside ``S'`` (the "errors connected only to the syndromes s'" of
§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..gf2.bitmat import unpack_rows
from ..sim.dem import DetectorErrorModel, pack_bits


class DecodingGraph:
    """Adjacency view of a DEM plus submatrix extraction.

    Reads the DEM's packed signature rows: a closure is one packed
    subset test over all errors, and the per-error / per-detector
    adjacency lists are built only when a subgraph search asks for them.
    """

    def __init__(self, dem: DetectorErrorModel):
        self.dem = dem
        self.num_errors = dem.num_errors
        self.num_detectors = dem.num_detectors
        # Detector bits of each signature (observable bits masked off).
        self._det_words = dem.signatures & pack_bits(
            range(dem.num_detectors), dem.num_detectors + dem.num_observables
        )
        self._detected = self._det_words.any(axis=1)

    @cached_property
    def error_dets(self) -> list[tuple[int, ...]]:
        return self.dem.supports()[0]

    @cached_property
    def det_errors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_detectors)]
        for e, dets in enumerate(self.error_dets):
            for d in dets:
                out[d].append(e)
        return out

    def closure_errors(self, det_subset: set[int]) -> list[int]:
        """All errors whose entire detector support lies in ``det_subset``."""
        outside = ~pack_bits(det_subset, self.dem.signatures.shape[1] * 64)
        inside = ~(self._det_words & outside).any(axis=1)
        return np.flatnonzero(inside & self._detected).tolist()

    def submatrices(
        self, det_subset: list[int], error_subset: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense (H', L') for the given syndrome rows / error columns."""
        d, o = self.num_detectors, self.dem.num_observables
        bits = unpack_rows(
            self.dem.signatures[np.asarray(error_subset, dtype=np.int64)], d + o
        )
        h = np.ascontiguousarray(bits[:, np.asarray(det_subset, dtype=np.int64)].T)
        return h, np.ascontiguousarray(bits[:, d:].T)


@dataclass
class Subgraph:
    """A connected decoding subgraph: syndrome rows + closed error set."""

    detectors: list[int]
    errors: list[int]
    h: np.ndarray
    l: np.ndarray

    @property
    def num_errors(self) -> int:
        return len(self.errors)

    @property
    def num_detectors(self) -> int:
        return len(self.detectors)

    def __repr__(self) -> str:
        return (
            f"Subgraph(detectors={self.num_detectors}, errors={self.num_errors})"
        )
