"""Decoder interface.

Two decode entry points share one contract:

``decode_batch``
    Dense ``(shots, num_detectors)`` → ``(shots, num_observables)``.
    The pinned reference implementation — simple, per-shot, and the
    ground truth the packed path is litmus-tested against.

``decode_batch_packed``
    :class:`~repro.sim.bitbatch.BitSampleBatch` in, ``BitSampleBatch``
    out (same detectors, predicted observables) — the production hot
    path.  The base implementation does **unique-syndrome batching**: at
    sub-threshold error rates most shots repeat a small set of syndromes
    (the all-zero syndrome alone is frequently >90% of shots), so shots
    are grouped by their packed per-shot syndrome words
    (:meth:`~repro.sim.bitbatch.BitSampleBatch.shot_syndromes`), each
    distinct syndrome is decoded exactly once, and predictions are
    scattered back into packed observable words.  No dense ``(shots,
    num_detectors)`` array is ever materialized; the dense minority that
    does get decoded is the unique syndromes only.

Subclasses override ``_decode_unique_packed`` (or the full packed entry
point) to consume the deduplicated packed syndromes natively; the
default falls back to ``decode_batch`` on the unpacked unique rows,
which is already asymptotically packed — correct for any decoder.

Every decoder remembers decoded syndromes in exactly one place: its
:attr:`Decoder.syndrome_cache`, a :class:`~repro.decoders.syncache.
SyndromeCache` consulted only by :meth:`Decoder._decode_unique_cached`.
It lives in memory until :meth:`Decoder.attach_syndrome_cache` swaps in
an on-disk one.  The dense ``decode_batch`` references keep no memo
across calls, so packed ≡ dense compares two independent paths.
"""

from __future__ import annotations

import abc

import numpy as np

from .. import obs
from ..gf2.bitmat import unpack_rows
from ..sim.bitbatch import (
    BitSampleBatch,
    count_differing_shots,
    mask_shot_tail,
    num_shot_words,
    scatter_unique,
    unique_shot_words,
)
from ..sim.dem import DetectorErrorModel
from .syncache import SyndromeCache

# Unique-syndrome dedup ratio: decode.unique / decode.shots is the
# fraction of shots that actually reached a decoder.
_DECODE_SHOTS = obs.counter("decode.shots")
_DECODE_UNIQUE = obs.counter("decode.unique")


class Decoder(abc.ABC):
    """Predicts observable flips from detector outcomes."""

    def __init__(self, dem: DetectorErrorModel):
        self.dem = dem
        self._syndrome_cache: SyndromeCache | None = None

    @abc.abstractmethod
    def decode_batch(self, detectors: np.ndarray) -> np.ndarray:
        """Map (shots, num_detectors) syndromes to (shots, num_observables)
        predicted observable flips."""

    # -- persistent syndrome cache addressing ----------------------------------

    @property
    def cache_namespace(self) -> str:
        """Cache address component: decoder family + every parameter that
        changes its output.  Subclasses with such parameters must extend
        this — two decoders may share cache entries iff their namespaces
        (and DEM fingerprints) are equal."""
        return type(self).__name__.lower()

    @property
    def cache_key_words(self) -> int:
        """Packed words per cached syndrome key (full detector set)."""
        return max(1, (self.dem.num_detectors + 63) // 64)

    @property
    def cache_value_bytes(self) -> int:
        """Bytes per cached value: the observable bits, packed."""
        return max(1, (self.dem.num_observables + 7) // 8)

    @property
    def syndrome_cache(self) -> SyndromeCache:
        """The decoder's syndrome memo: in memory, built on first use,
        until :meth:`attach_syndrome_cache` replaces it."""
        if self._syndrome_cache is None:
            self._syndrome_cache = SyndromeCache.for_decoder(self, None)
        return self._syndrome_cache

    def attach_syndrome_cache(self, cache: SyndromeCache) -> None:
        """Replace the memo with ``cache`` (typically on disk); the caller
        owns addressing (see :meth:`SyndromeCache.for_decoder`)."""
        self._syndrome_cache = cache

    def logical_failures(
        self, detectors: np.ndarray, observables: np.ndarray
    ) -> np.ndarray:
        """Per-shot boolean: did the decoder mispredict any observable?"""
        predictions = self.decode_batch(detectors)
        return (predictions != observables).any(axis=1)

    # -- packed-native decoding ----------------------------------------------

    def decode_batch_packed(self, batch: BitSampleBatch) -> BitSampleBatch:
        """Decode a packed batch; returns predictions in packed form.

        The result shares ``batch``'s detector words and carries the
        predicted observable flips as ``(num_observables, num_words)``
        packed words.  Bit-identical to running :meth:`decode_batch` on
        the unpacked syndromes (the property/litmus tests pin this), but
        decodes each *distinct* syndrome exactly once.
        """
        shots = batch.shots
        num_obs = self.dem.num_observables
        nwords = num_shot_words(shots)
        if shots == 0 or num_obs == 0:
            observables = np.zeros((num_obs, nwords), dtype=np.uint64)
            return BitSampleBatch(batch.detectors, observables, shots)
        if self.dem.num_detectors == 0:
            # Degenerate DEM: every shot shares the (empty) syndrome.
            # Decode it once and broadcast — note the prediction is not
            # necessarily zero (an MLE decoder may bet on a flip).
            pred = self.decode_batch(np.zeros((1, 0), dtype=np.uint8))
            pred = np.asarray(pred, dtype=bool).reshape(num_obs, 1)
            full = np.where(pred, ~np.uint64(0), np.uint64(0))
            observables = mask_shot_tail(np.repeat(full, nwords, axis=1), shots)
            return BitSampleBatch(batch.detectors, observables, shots)
        unique, inverse = unique_shot_words(batch.shot_syndromes())
        _DECODE_SHOTS.add(shots)
        _DECODE_UNIQUE.add(unique.shape[0])
        predictions = self._decode_unique_cached(unique, num_obs)
        observables = scatter_unique(predictions, inverse)
        return BitSampleBatch(batch.detectors, observables, shots)

    def _decode_unique_cached(self, unique: np.ndarray, width: int) -> np.ndarray:
        """Decode distinct syndrome keys through the syndrome memo.

        Returns ``(groups, width)`` uint8 prediction columns (every
        observable on the base path, one for matching).  Memo hits skip
        the decoder; only misses reach :meth:`_decode_unique_packed`,
        and their columns are stored as little-endian ``packbits``.
        """
        memo = self.syndrome_cache
        values, hit_mask = memo.lookup(unique)
        predictions = np.unpackbits(values, axis=1, count=width, bitorder="little")
        miss_idx = np.nonzero(~hit_mask)[0]
        if miss_idx.size:
            decoded = np.asarray(
                self._decode_unique_packed(unique[miss_idx]), dtype=np.uint8
            )
            predictions[miss_idx] = decoded
            memo.insert(
                unique[miss_idx], np.packbits(decoded, axis=1, bitorder="little")
            )
        return predictions

    def _decode_unique_packed(self, unique: np.ndarray) -> np.ndarray:
        """Decode deduplicated packed syndrome keys.

        ``unique``: ``(groups, ceil(num_detectors/64))`` uint64 distinct
        per-shot keys; returns ``(groups, num_observables)`` uint8.  The
        default unpacks the (small) unique set and defers to
        :meth:`decode_batch`; subclasses override for fully packed paths.
        """
        dense = unpack_rows(unique, self.dem.num_detectors)
        return np.asarray(self.decode_batch(dense), dtype=np.uint8)

    # -- failure counting ----------------------------------------------------

    def count_failures_packed(self, batch: BitSampleBatch) -> int:
        """Number of shots in ``batch`` whose observables are mispredicted.

        Fully packed: predictions come from
        :meth:`decode_batch_packed`, are XOR-ed against the sampled
        observable words, OR-reduced across observables, and popcounted.
        Tail bits are zero on both sides, so the popcount is exact —
        including for degenerate ``num_detectors == 0`` batches.
        """
        if batch.num_observables == 0:
            return 0
        predicted = self.decode_batch_packed(batch)
        return count_differing_shots(
            predicted.observables, batch.observables, batch.shots
        )

    def count_failures_dense(self, batch: BitSampleBatch) -> int:
        """Dense reference of :meth:`count_failures_packed`.

        Unpacks the whole batch and decodes shot-by-shot through
        :meth:`decode_batch` — the pre-packed-pipeline behavior, kept as
        the pinned baseline for cross-checks and benchmarks.
        """
        if batch.num_observables == 0:
            return 0
        dense = batch.to_dense()
        predictions = self.decode_batch(dense.detectors)
        return int((predictions != dense.observables).any(axis=1).sum())
