"""Exact maximum-likelihood lookup decoding for tiny DEMs.

Enumerates error subsets, summing their probability per (syndrome,
observable pattern), and keeps for every syndrome the observable pattern
with the largest total: the most likely logical class, not the single
most likely error.  Exponential — strictly a test/reference decoder, and
the ground truth the paper's "MLE decoder" discussion (§4) refers to.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..gf2.bitmat import pack_rows
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
        # Class masses: syndrome -> observable pattern -> total probability.
        mass: dict[bytes, dict[bytes, float]] = {}
        probs = dem.probabilities()
        num_d, num_o = dem.num_detectors, dem.num_observables
        det_cols, obs_cols = dem.bits()

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
                classes = mass.setdefault(det.tobytes(), {})
                classes[obs.tobytes()] = classes.get(obs.tobytes(), 0.0) + prob

        # MLE: per syndrome, the observable pattern of largest total mass.
        self.table: dict[bytes, bytes] = {
            key: max(classes, key=classes.__getitem__) for key, classes in mass.items()
        }
        # Packed-key mirror of the table: syndromes re-keyed by their
        # bit-packed words, so the packed decode path maps per-shot
        # syndrome keys to observable rows with zero unpacking.
        self._packed_table: dict[bytes, np.ndarray] = {}
        for key, obs_bytes in self.table.items():
            det = np.frombuffer(key, dtype=np.uint8)
            pkey = pack_rows(det[None, :]).tobytes()
            self._packed_table[pkey] = np.frombuffer(obs_bytes, dtype=np.uint8)

    @property
    def cache_namespace(self) -> str:
        # max_weight truncates the enumeration, changing predictions.
        # "mle" marks the class-mass argmax: cache files written by the
        # earlier most-likely-error rule are never served.
        return f"lookup-mle:w{self.max_weight}"

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
            obs_bytes = self.table.get(detectors[i].tobytes())
            if obs_bytes is not None:
                out[i] = np.frombuffer(obs_bytes, dtype=np.uint8)
        return out
