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

from ..sim.dem import DetectorErrorModel, pack_bits


class DecodingGraph:
    """Adjacency view of a DEM plus submatrix extraction.

    Reads H's packed columns (:meth:`DetectorErrorModel.detector_words`):
    a closure is one packed subset test over all errors, and the
    per-error / per-detector adjacency lists are built only when a
    subgraph search asks for them.
    """

    def __init__(self, dem: DetectorErrorModel):
        self.dem = dem
        self.num_errors = dem.num_errors
        self.num_detectors = dem.num_detectors
        self._det_words = dem.detector_words()
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
        outside = ~pack_bits(det_subset, self._det_words.shape[1] * 64)
        inside = ~(self._det_words & outside).any(axis=1)
        return np.flatnonzero(inside & self._detected).tolist()

    def submatrices(
        self, det_subset: list[int], error_subset: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense (H', L') for the given syndrome rows / error columns."""
        dets, obs = self.dem.bits(
            self.dem.signatures[np.asarray(error_subset, dtype=np.int64)]
        )
        h = np.ascontiguousarray(dets[:, np.asarray(det_subset, dtype=np.int64)].T)
        return h, np.ascontiguousarray(obs.T)


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
