"""Exact maximum-likelihood lookup decoding for tiny DEMs.

Enumerates error subsets, accumulating for every syndrome the most likely
observable pattern.  Exponential — strictly a test/reference decoder, and
the ground truth the paper's "MLE decoder" discussion (§4) refers to.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..gf2.bitmat import pack_rows, unpack_rows
from ..sim.dem import DetectorErrorModel
from .base import Decoder


class LookupDecoder(Decoder):
    """Exact MLE over all error subsets (DEMs with <= ``max_errors``)."""

    def __init__(
        self,
        dem: DetectorErrorModel,
        max_errors: int = 18,
        max_weight: int | None = None,
    ):
        super().__init__(dem)
        self.max_weight = max_weight
        if dem.num_errors > max_errors and max_weight is None:
            raise ValueError(
                f"{dem.num_errors} mechanisms is too many for exact lookup; "
                "pass max_weight to bound the enumeration"
            )
        self.table: dict[bytes, tuple[float, bytes]] = {}
        probs = dem.probabilities()
        num_d, num_o = dem.num_detectors, dem.num_observables
        bits = unpack_rows(dem.signatures, num_d + num_o)
        det_cols, obs_cols = bits[:, :num_d], bits[:, num_d:]

        base = float(np.prod(1 - probs))
        indices = range(dem.num_errors)
        weights = range(
            0, (max_weight if max_weight is not None else dem.num_errors) + 1
        )
        for w in weights:
            for subset in combinations(indices, w):
                prob = base
                for j in subset:
                    prob *= probs[j] / (1 - probs[j])
                det = np.zeros(num_d, dtype=np.uint8)
                obs = np.zeros(num_o, dtype=np.uint8)
                for j in subset:
                    det ^= det_cols[j]
                    obs ^= obs_cols[j]
                key = det.tobytes()
                # MLE marginalizes over patterns: accumulate probability per
                # (syndrome, observable) and keep the argmax observable.
                entry = self.table.get(key)
                if entry is None or prob > entry[0]:
                    self.table[key] = (prob, obs.tobytes())

        # Packed-key mirror of the table: syndromes re-keyed by their
        # bit-packed words, so the packed decode path maps per-shot
        # syndrome keys to observable rows with zero unpacking.
        self._packed_table: dict[bytes, np.ndarray] = {}
        for key, (_, obs_bytes) in self.table.items():
            det = np.frombuffer(key, dtype=np.uint8)
            pkey = pack_rows(det[None, :]).tobytes()
            self._packed_table[pkey] = np.frombuffer(obs_bytes, dtype=np.uint8)

    @property
    def cache_namespace(self) -> str:
        # max_weight truncates the enumeration, changing predictions.
        return f"lookup:w{self.max_weight}"

    def _decode_unique_packed(self, unique: np.ndarray) -> np.ndarray:
        """Table lookup keyed directly on the packed syndrome words."""
        out = np.zeros((unique.shape[0], self.dem.num_observables), dtype=np.uint8)
        for i, key_row in enumerate(unique):
            hit = self._packed_table.get(key_row.tobytes())
            if hit is not None:
                out[i] = hit
        return out

    def decode_batch(self, detectors: np.ndarray) -> np.ndarray:
        detectors = np.asarray(detectors, dtype=np.uint8)
        shots = detectors.shape[0]
        out = np.zeros((shots, self.dem.num_observables), dtype=np.uint8)
        for i in range(shots):
            entry = self.table.get(detectors[i].tobytes())
            if entry is not None:
                out[i] = np.frombuffer(entry[1], dtype=np.uint8)
        return out
