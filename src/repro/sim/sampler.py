"""Monte-Carlo sampling of detector error models.

Sampling works column-wise like Stim's detector sampler: each mechanism
fires independently (Bernoulli with its probability); a shot's detector
and observable bits are the XOR of the fired mechanisms' columns.  The
fire events are drawn per-mechanism as a binomial count plus uniform shot
indices, so the cost is O(E + total_fires) instead of O(E * shots).

The hot path is bit-packed (:mod:`repro.sim.bitbatch`): fires are
scattered into per-mechanism shot rows of uint64 words and each
detector row is the word-wise XOR of its mechanisms' rows, read off the
DEM's CSR check matrices, so the accumulation never materializes a
dense ``(shots, detectors)`` array.  :meth:`DemSampler.batch_from_fires`
is that fires-to-batch step for any fire list; the fixed-weight sampler
(:mod:`repro.rareevent.sampler`) feeds it its own fires.  ``sample``
returns the dense :class:`SampleBatch` as a thin unpacking view of the
packed batch; ``sample_dense`` keeps the dense sparse-matmul path as an
independent reference implementation for the cross-simulator litmus
tests and benchmarks.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .. import obs
from ..gf2 import kernels
from .bitbatch import BitSampleBatch, SampleBatch, scatter_fires, xor_accumulate_csr
from .dem import DetectorErrorModel

_SAMPLE_SHOTS = obs.counter("sampler.shots")
_SAMPLE_FIRES = obs.counter("sampler.fires")

__all__ = ["DemSampler", "SampleBatch", "BitSampleBatch"]


class DemSampler:
    """Compiled sampler for a fixed DEM."""

    def __init__(self, dem: DetectorErrorModel):
        self.dem = dem
        # CSR, one row per detector / observable: a row's mechanisms are
        # the shot rows its packed accumulation XORs together.
        self.h, self.l = dem.check_matrices()
        self.probs = dem.probabilities()

    # -- fire generation (shared by every path) ------------------------------

    def _sample_fires(
        self, shots: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw fire events as (shot_idx, mechanism_idx) index arrays.

        The draw order is pinned: one vector binomial, then one
        ``choice(shots, size=count, replace=False)`` per firing
        mechanism in index order (:func:`repro.gf2.kernels.sample_fires`
        draws those exactly as numpy does).  Everything else here is
        non-random bookkeeping and free to change without perturbing
        sampled batches.
        """
        counts = rng.binomial(shots, self.probs)
        fired = np.nonzero(counts)[0]
        fired_counts = counts[fired]
        shot_idx = kernels.sample_fires(rng.bit_generator, shots, fired_counts)
        cols = np.repeat(fired.astype(np.int64), fired_counts)
        return shot_idx, cols

    # -- packed hot path -----------------------------------------------------

    def batch_from_fires(
        self, shot_idx: np.ndarray, mech_idx: np.ndarray, shots: int
    ) -> BitSampleBatch:
        """The packed batch of a fire-event list: every shot's detector
        and observable bits are the XOR of its fired mechanisms' columns."""
        fires = scatter_fires(shot_idx, mech_idx, self.dem.num_errors, shots)
        return BitSampleBatch(
            detectors=xor_accumulate_csr(
                self.h.indptr, self.h.indices, fires, self.dem.num_detectors
            ),
            observables=xor_accumulate_csr(
                self.l.indptr, self.l.indices, fires, self.dem.num_observables
            ),
            shots=shots,
        )

    def sample_packed(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> BitSampleBatch:
        """Sample a batch in packed form — the hot path."""
        rng = rng or np.random.default_rng()
        shot_idx, mech_idx = self._sample_fires(shots, rng)
        _SAMPLE_SHOTS.add(shots)
        _SAMPLE_FIRES.add(len(shot_idx))
        return self.batch_from_fires(shot_idx, mech_idx, shots)

    def sample(self, shots: int, rng: np.random.Generator | None = None) -> SampleBatch:
        """Dense view of :meth:`sample_packed` (backward-compatible API)."""
        return self.sample_packed(shots, rng).to_dense()

    # -- dense reference path ------------------------------------------------

    def sample_dense(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> SampleBatch:
        """Original dense sparse-matmul path, kept as a reference.

        Consumes the RNG identically to :meth:`sample_packed`, so with
        the same generator state the two are bit-identical — the litmus
        tests pin the packed kernels to this implementation.
        """
        rng = rng or np.random.default_rng()
        shot_idx, mech_idx = self._sample_fires(shots, rng)
        fires = sparse.csr_matrix(
            (np.ones(len(shot_idx), dtype=np.int64), (shot_idx, mech_idx)),
            shape=(shots, self.dem.num_errors),
        )
        detectors = np.asarray(fires.dot(self.h.T).todense(), dtype=np.int64) % 2
        observables = np.asarray(fires.dot(self.l.T).todense(), dtype=np.int64) % 2
        return SampleBatch(
            detectors=detectors.astype(np.uint8),
            observables=observables.astype(np.uint8),
        )
