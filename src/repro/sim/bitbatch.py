"""Bit-packed shot batches.

The hot path of every experiment is Monte-Carlo shot sampling; this
module gives it a Stim-style representation: detector/observable
outcomes are packed 64 shots per ``uint64`` word along the *shot* axis,
so one row holds one detector across the whole batch.  XOR-accumulating
error-mechanism columns then costs ``ceil(shots / 64)`` word ops per
flip instead of ``shots`` bytes, and failure counting is a popcount.

Packing is :func:`repro.gf2.bitmat.pack_rows`' layout along the shot
axis.  The packed kernels (bit transpose, shot grouping, popcount) live
in :mod:`repro.gf2.kernels` and are re-exported here under their own
names; this module adds the shot-axis conventions (tail bits, the
"shots that differ" count) plus the scatter/reduce steps the samplers
need.  The dense ``SampleBatch`` lives here too and is kept as a thin
unpacked view for code that wants plain ``(shots, k)`` uint8 arrays.

Tail bits (shot positions ``>= shots`` in the last word) are always
zero; every producer in this module preserves that invariant, which is
what makes popcount-based counting exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gf2.bitmat import pack_rows, unpack_rows
from ..gf2.kernels import popcount_words, transpose_words
from ..gf2.kernels import unique_shot_words  # noqa: F401 -- re-exported

# Bits per packed word along the shot axis — the alignment every packed
# producer/consumer (and the chunk planners) share.
WORD_BITS = 64
_WORD = WORD_BITS


def num_shot_words(shots: int) -> int:
    """Words needed to hold ``shots`` bits (at least one)."""
    return max(1, (shots + _WORD - 1) // _WORD)


def pack_shots(dense: np.ndarray) -> np.ndarray:
    """Pack a dense ``(shots, k)`` 0/1 array into ``(k, ceil(shots/64))``
    uint64 words: row ``i`` of the result is column ``i`` of the input,
    bit ``s`` of the row (little-endian per word) is shot ``s``."""
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ValueError(f"expected a (shots, k) array, got shape {dense.shape}")
    return pack_rows(np.ascontiguousarray(dense.T))


def unpack_shots(words: np.ndarray, shots: int) -> np.ndarray:
    """Inverse of :func:`pack_shots`; returns a dense ``(shots, k)`` uint8."""
    return np.ascontiguousarray(unpack_rows(words, shots).T)


def scatter_fires(
    shot_idx: np.ndarray, mech_idx: np.ndarray, num_mechanisms: int, shots: int
) -> np.ndarray:
    """Scatter fire events into packed per-mechanism shot rows.

    Returns ``(num_mechanisms, ceil(shots/64))`` uint64 words with bit
    ``s`` of row ``j`` set iff mechanism ``j`` fired in shot ``s`` an
    odd number of times — XOR accumulation, matching the mod-2
    semantics of the dense sparse-matmul path for any event list.
    """
    nwords = num_shot_words(shots)
    words = np.zeros(num_mechanisms * nwords, dtype=np.uint64)
    if len(shot_idx):
        shot_idx = np.asarray(shot_idx, dtype=np.int64)
        mech_idx = np.asarray(mech_idx, dtype=np.int64)
        flat = mech_idx * nwords + (shot_idx >> 6)
        bits = np.uint64(1) << (shot_idx & 63).astype(np.uint64)
        np.bitwise_xor.at(words, flat, bits)
    return words.reshape(num_mechanisms, nwords)


def xor_accumulate_csr(
    indptr: np.ndarray, indices: np.ndarray, source: np.ndarray, num_rows: int
) -> np.ndarray:
    """Row-wise XOR gather: ``out[r] = XOR of source[indices[indptr[r]:indptr[r+1]]]``.

    ``(indptr, indices)`` is CSR structure (e.g. of a check matrix with
    one row per detector, columns indexing mechanisms); ``source`` holds
    one packed shot-row per mechanism.  The loop is over output rows
    only — detectors, not shots — so it stays cheap at any batch size.
    """
    if source.ndim != 2:
        raise ValueError(f"expected a 2-D source, got shape {source.shape}")
    nwords = source.shape[1]
    out = np.zeros((num_rows, nwords), dtype=np.uint64)
    for r in range(num_rows):
        lo, hi = indptr[r], indptr[r + 1]
        if hi > lo:
            np.bitwise_xor.reduce(source[indices[lo:hi]], axis=0, out=out[r])
    return out


def scatter_unique(values: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Scatter per-group rows back into packed per-shot bit rows.

    ``values`` is ``(groups, k)`` uint8 and ``inverse`` maps each shot to
    its group; the result is ``(k, ceil(shots/64))`` uint64 with bit
    ``s`` of row ``i`` equal to ``values[inverse[s], i]``.  The dense
    intermediate is ``(shots, k)`` with ``k`` the number of *observables*
    — a handful of columns, never the detector count.
    """
    return pack_shots(np.ascontiguousarray(values)[inverse])


def mask_shot_tail(words: np.ndarray, shots: int) -> np.ndarray:
    """Zero the tail bits (positions ``>= shots``) of the last word, in place.

    Every producer in this module already maintains the tail-bit
    invariant; this is the defensive re-assertion for consumers that
    popcount words from *outside* sources (e.g. the failure-counting
    path fed by decoder predictions), where a garbage tail bit would
    silently inflate counts.  Returns ``words`` for chaining.
    """
    if words.ndim != 2 or words.shape[1] == 0:
        return words
    tail = shots % _WORD
    if tail:
        keep = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
        words[:, -1] &= keep
    return words


def count_differing_shots(a: np.ndarray, b: np.ndarray, shots: int) -> int:
    """Shots in which packed rows ``a`` and ``b`` differ in any row.

    XOR, OR-reduced across rows, tail bits masked, then one popcount.
    Both sides usually keep the tail-bit invariant already, but these
    counts feed stored logical error rates: a garbage tail bit (say,
    from an externally built batch at a 63-shot chunk boundary) must
    never inflate them.  No rows means no differences (and no popcount).
    """
    if a.shape[0] == 0:
        return 0
    differ = np.bitwise_or.reduce(a ^ b, axis=0)
    mask_shot_tail(differ[None, :], shots)
    return int(popcount_words(differ))


@dataclass
class SampleBatch:
    """One batch of sampled shots, dense layout (unpacked view)."""

    detectors: np.ndarray  # (shots, num_detectors) uint8
    observables: np.ndarray  # (shots, num_observables) uint8

    @property
    def shots(self) -> int:
        return self.detectors.shape[0]


@dataclass
class BitSampleBatch:
    """One batch of sampled shots, bit-packed along the shot axis.

    ``detectors`` is ``(num_detectors, ceil(shots/64))`` uint64 and
    ``observables`` is ``(num_observables, ceil(shots/64))`` uint64; bit
    ``s`` (little-endian within each word) is shot ``s``.  Tail bits are
    zero.
    """

    detectors: np.ndarray
    observables: np.ndarray
    shots: int

    @property
    def num_detectors(self) -> int:
        return self.detectors.shape[0]

    @property
    def num_observables(self) -> int:
        return self.observables.shape[0]

    @property
    def num_words(self) -> int:
        return self.detectors.shape[1]

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_dense(cls, batch: SampleBatch) -> "BitSampleBatch":
        return cls(
            detectors=pack_shots(batch.detectors),
            observables=pack_shots(batch.observables),
            shots=batch.shots,
        )

    def to_dense(self) -> SampleBatch:
        return SampleBatch(
            detectors=unpack_shots(self.detectors, self.shots),
            observables=unpack_shots(self.observables, self.shots),
        )

    def detectors_dense(self) -> np.ndarray:
        """Just the ``(shots, num_detectors)`` uint8 view (decoder input)."""
        return unpack_shots(self.detectors, self.shots)

    def shot_syndromes(self) -> np.ndarray:
        """Per-shot packed syndrome keys, ``(shots, ceil(num_detectors/64))``.

        The word-hash the packed decoders group shots by; computed by bit
        transpose, never via a dense ``(shots, num_detectors)`` array.
        """
        return transpose_words(self.detectors, self.shots)

    # -- counting ------------------------------------------------------------

    def detector_counts(self) -> np.ndarray:
        """Per-detector number of shots in which it fired."""
        return popcount_words(self.detectors, axis=1)

    def observable_counts(self) -> np.ndarray:
        """Per-observable number of shots in which it flipped."""
        return popcount_words(self.observables, axis=1)
