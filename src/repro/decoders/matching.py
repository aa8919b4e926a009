"""Minimum-weight perfect-matching decoder (PyMatching substitute).

Surface-code DEMs are *graph-like*: every mechanism flips at most two
detectors of a given stabilizer type.  Decoding reduces to minimum-weight
perfect matching of the flipped detectors on that graph (with a boundary
node absorbing odd defects).

Implementation: the decoding graph (edge weight ``log((1 - p) / p)``)
is compiled from the DEM arrays in one pass; all-pairs shortest paths
come from scipy's C Dijkstra and their observable parities from its
predecessor matrix by pointer doubling.  Per shot, the flipped
detectors (plus a boundary that absorbs odd defects) are matched at
minimum weight.  Small defect sets — the overwhelming majority at
sub-threshold error rates — are matched by exact enumeration of every
pairing-with-boundary (there are at most 764 for eight defects), either
scalar per syndrome or vectorized over whole groups of deduplicated
syndromes; networkx's blossom algorithm is the fallback for larger sets.
The packed path decodes each *distinct* subset syndrome only once
(unique-syndrome batching) and remembers it in the decoder's syndrome
memo (:meth:`~repro.decoders.base.Decoder._decode_unique_cached`).
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from ..gf2.bitmat import unpack_rows
from ..gf2.kernels import popcount_words, transpose_words, unique_shot_words
from ..sim.bitbatch import BitSampleBatch, num_shot_words, scatter_unique
from ..sim.dem import DetectorErrorModel
from .base import _DECODE_SHOTS, _DECODE_UNIQUE, Decoder

_BOUNDARY = -1

# Defect sets up to this size are matched by exhaustive enumeration of
# pairings (9 496 candidates at 10 defects); larger sets fall back to
# blossom.  Shared by the scalar and vectorized paths so both explore
# candidates in the same order — ties then break identically and packed
# decoding stays bit-identical to the dense reference.
_MAX_ENUM_DEFECTS = 10

# Element budget for one (groups x patterns) enumeration block: ~16 MB
# of float64 costs, the dominant temporary.
_ENUM_BLOCK_ELEMS = 2_000_000


@lru_cache(maxsize=None)
def _pairings(
    k: int,
) -> tuple[tuple[tuple[tuple[int, int], ...], tuple[int, ...]], ...]:
    """Every way to match ``k`` defects: ``(pairs, boundary_singles)``.

    Each entry partitions ``range(k)`` into disjoint pairs plus leftover
    singles (matched to the boundary).  The enumeration order is fixed
    (smallest element first unmatched, then paired with each later
    element in index order), which the tie-breaking contract above
    relies on.
    """

    def rec(elems: tuple[int, ...]):
        if not elems:
            return [((), ())]
        first, rest = elems[0], elems[1:]
        out = []
        for pairs, singles in rec(rest):
            out.append((pairs, (first, *singles)))
        for i, partner in enumerate(rest):
            others = rest[:i] + rest[i + 1 :]
            for pairs, singles in rec(others):
                out.append((((first, partner), *pairs), singles))
        return out

    return tuple(rec(tuple(range(k))))


@lru_cache(maxsize=None)
def _pairing_slots(k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pairings` flattened to fixed-width index tensors.

    Each pattern becomes exactly ``k`` slots of column indices ``(i, j)``
    into an extended defect row ``[d_0 .. d_{k-1}, boundary]``: real
    pairs first, then singles as ``(s, k)`` (matched to the boundary
    column), then padding slots ``(0, 0)`` — a defect paired with
    itself, whose distance ``0.0`` and parity ``0`` are exact no-ops.
    Slot order mirrors the scalar scan in ``_enum_match``, so both
    accumulate costs in the same IEEE order and tie-break identically.
    """
    patterns = _pairings(k)
    slots_i = np.zeros((len(patterns), k), dtype=np.int64)
    slots_j = np.zeros((len(patterns), k), dtype=np.int64)
    for t, (pairs, singles) in enumerate(patterns):
        slot = 0
        for i, j in pairs:
            slots_i[t, slot] = i
            slots_j[t, slot] = j
            slot += 1
        for s in singles:
            slots_i[t, slot] = s
            slots_j[t, slot] = k
            slot += 1
        # Remaining slots stay (0, 0): dist[d0, d0] == 0.0.
    return slots_i, slots_j


class MatchingDecoder(Decoder):
    """MWPM on a detector subset (one observable's graph).

    ``detector_subset``: indices of the detectors to match on (e.g. the
    Z-type detectors for a Z-basis memory).  ``None`` uses all detectors —
    valid when the DEM is already single-type.
    """

    def __init__(
        self,
        dem: DetectorErrorModel,
        detector_subset: list[int] | None = None,
        observable: int = 0,
    ):
        super().__init__(dem)
        self.observable = observable
        if detector_subset is None:
            detector_subset = range(dem.num_detectors)
        self.subset = np.asarray(detector_subset, dtype=np.int64)
        self._build_graph()

    # -- persistent syndrome cache addressing ----------------------------------
    # Matching dedups on the *subset* syndrome, so its memo keys are
    # subset words and its one-byte values are the predicted flip; the
    # namespace must pin everything that shapes the result: which
    # observable is predicted and which detectors form the graph.

    @property
    def cache_namespace(self) -> str:
        sub = hashlib.sha256(
            ",".join(map(str, self.subset.tolist())).encode()
        ).hexdigest()[:12]
        return f"matching:obs{self.observable}:sub{sub}"

    @property
    def cache_key_words(self) -> int:
        return max(1, (len(self.subset) + 63) // 64)

    @property
    def cache_value_bytes(self) -> int:
        return 1

    def _build_graph(self) -> None:
        """Compile the graph, ``dist`` and ``parity`` from the DEM arrays.

        Parallel edges keep the first mechanism of minimum weight.  Weights
        come from ``math.log``: ``np.log`` is off by an ulp on some inputs,
        which can flip a tie in ``dist``.
        """
        dem, nsub = self.dem, len(self.subset)
        self.boundary, n_nodes = nsub, nsub + 1
        dets, obs = dem.bits()
        bits = dets[:, self.subset]
        counts = bits.sum(axis=1, dtype=np.int64)
        if (counts > 2).any():
            raise ValueError(
                f"mechanism flips {counts[counts > 2][0]} same-type detectors; "
                "DEM is not graph-like — use BpOsdDecoder instead"
            )
        # A mechanism's edge joins its one or two subset columns (ascending),
        # the boundary standing in for a missing second.
        touched = np.flatnonzero(counts)
        c, cols = counts[touched], np.nonzero(bits)[1]
        last = np.cumsum(c) - 1
        u, v = cols[last - c + 1], np.where(c == 2, cols[last], nsub)
        flips = np.zeros_like(c)
        if self.observable < dem.num_observables:
            flips = obs[touched, self.observable]
        p = np.clip(dem.probs[touched], 1e-15, 0.5 - 1e-12)
        weight = np.fromiter(map(math.log, ((1 - p) / p).tolist()), float, c.size)
        pair = u * n_nodes + v
        order = np.lexsort((weight, pair))  # stable: ties keep mechanism order
        keep = order[np.diff(pair[order], prepend=-1) != 0]
        u, v, weight = u[keep], v[keep], weight[keep]
        self.graph = sparse.csr_matrix(
            (np.r_[weight, weight], (np.r_[u, v], np.r_[v, u])), shape=(n_nodes,) * 2
        )
        edge_parity = np.zeros((n_nodes, n_nodes), dtype=np.uint8)
        edge_parity[u, v] = edge_parity[v, u] = flips[keep]
        self.dist, pred = csgraph.dijkstra(
            self.graph, directed=False, return_predecessors=True
        )
        # Pointer doubling: ``anc[s, n]`` is an ancestor of ``n`` on the
        # shortest-path tree from ``s`` and ``parity[s, n]`` the parity
        # between them.  Roots point at themselves with parity 0.
        nodes = np.arange(n_nodes)
        anc = np.where(pred < 0, nodes, pred)
        self.parity = edge_parity[anc, nodes]
        for _ in range((n_nodes - 1).bit_length() + 1):
            self.parity ^= np.take_along_axis(self.parity, anc, axis=1)
            anc = np.take_along_axis(anc, anc, axis=1)

    # -- decoding ------------------------------------------------------------

    def _decode_defects(self, defects: tuple[int, ...]) -> int:
        """MWPM over a defect set; returns predicted observable flip.

        Sizes one and two have closed forms, sizes up to
        ``_MAX_ENUM_DEFECTS`` are matched by scanning every pairing in
        :func:`_pairings` order, and only larger sets reach blossom.
        """
        if not defects:
            return 0
        b = self.boundary
        if len(defects) == 1:
            return int(self.parity[defects[0], b])
        if len(defects) == 2:
            u, v = defects
            if self.dist[u, v] <= self.dist[u, b] + self.dist[v, b]:
                return int(self.parity[u, v])
            return int(self.parity[u, b] ^ self.parity[v, b])
        if len(defects) <= _MAX_ENUM_DEFECTS:
            return self._enum_match(defects)
        return self._blossom_match(defects)

    def _enum_match(self, defects: tuple[int, ...]) -> int:
        """Exact matching by first-minimum scan over all pairings.

        Mirrors :meth:`_enum_match_group` term for term: candidates in
        :func:`_pairings` order, costs accumulated pair terms first then
        boundary terms, strict ``<`` keeping the first minimum — so the
        scalar and vectorized paths agree bit-for-bit even on ties.
        """
        dist, parity, b = self.dist, self.parity, self.boundary
        best_cost = math.inf
        best_flip = 0
        for pairs, singles in _pairings(len(defects)):
            cost = 0.0
            flip = 0
            for i, j in pairs:
                u, v = defects[i], defects[j]
                cost += dist[u, v]
                flip ^= int(parity[u, v])
            for s in singles:
                u = defects[s]
                cost += dist[u, b]
                flip ^= int(parity[u, b])
            if cost < best_cost:
                best_cost = cost
                best_flip = flip
        return best_flip

    def _enum_match_group(self, defect_rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_enum_match` over syndromes of equal weight.

        ``defect_rows``: ``(groups, k)`` defect indices (ascending per
        row).  One gather per candidate term, vectorized across all
        groups — the packed path's workhorse for the deduplicated
        syndrome minority.
        """
        groups, k = defect_rows.shape
        slots_i, slots_j = _pairing_slots(k)
        num_patterns = slots_i.shape[0]
        # Bound the (block x patterns) work arrays: at k = 10 there are
        # 9 496 patterns, so an uncapped near-threshold chunk with many
        # distinct high-weight syndromes would allocate multi-hundred-MB
        # temporaries.  Blocks are independent (per-row argmin), so
        # splitting changes nothing.
        block = max(1, _ENUM_BLOCK_ELEMS // num_patterns)
        if groups > block:
            return np.concatenate(
                [
                    self._enum_match_group(defect_rows[start : start + block])
                    for start in range(0, groups, block)
                ]
            )
        # Extended rows: defects plus a trailing boundary column.
        ext = np.concatenate(
            [defect_rows, np.full((groups, 1), self.boundary, dtype=np.int64)],
            axis=1,
        )
        costs = np.zeros((groups, num_patterns), dtype=np.float64)
        flips = np.zeros((groups, num_patterns), dtype=np.uint8)
        for slot in range(k):
            u = ext[:, slots_i[:, slot]]  # (groups, num_patterns)
            v = ext[:, slots_j[:, slot]]
            costs += self.dist[u, v]
            flips ^= self.parity[u, v]
        best = np.argmin(costs, axis=1)  # first minimum, like the scalar scan
        return flips[np.arange(groups), best]

    def _blossom_match(self, defects: tuple[int, ...]) -> int:
        """Blossom fallback for large defect sets (boundary-twin trick)."""
        b = self.boundary
        graph = nx.Graph()
        for i, u in enumerate(defects):
            # Twin node for boundary matching (negative ids).
            graph.add_edge(u, -u - 1000, weight=float(self.dist[u, b]))
            for v in defects[i + 1 :]:
                graph.add_edge(u, v, weight=float(self.dist[u, v]))
                graph.add_edge(-u - 1000, -v - 1000, weight=0.0)
        matching = nx.algorithms.matching.min_weight_matching(graph)
        flip = 0
        for a, c in matching:
            if a >= 0 and c >= 0:
                flip ^= int(self.parity[a, c])
            elif a >= 0 > c and c == -a - 1000:
                flip ^= int(self.parity[a, b])
            elif c >= 0 > a and a == -c - 1000:
                flip ^= int(self.parity[c, b])
        return flip

    def decode_batch(self, detectors: np.ndarray) -> np.ndarray:
        detectors = np.asarray(detectors, dtype=np.uint8)
        out = np.zeros((detectors.shape[0], self.dem.num_observables), dtype=np.uint8)
        for i, row in enumerate(detectors[:, self.subset]):
            defects = tuple(int(d) for d in np.nonzero(row)[0])
            out[i, self.observable] = self._decode_defects(defects)
        return out

    def decode_batch_packed(self, batch: BitSampleBatch) -> BitSampleBatch:
        """Packed-native MWPM: dedup on the *subset* syndrome.

        Gathers the subset's packed detector rows, bit-transposes them
        into per-shot words, and matches each distinct subset syndrome
        exactly once — defect index lists come straight out of the
        packed key rows, so the graph side never sees a dense syndrome.
        Deduplicating on the subset (rather than the full detector set)
        collapses shots that differ only in other-basis detectors.
        """
        shots = batch.shots
        num_obs = self.dem.num_observables
        observables = np.zeros((num_obs, num_shot_words(shots)), dtype=np.uint64)
        if shots == 0 or num_obs == 0:
            return BitSampleBatch(batch.detectors, observables, shots)
        sub_rows = batch.detectors[self.subset]
        unique, inverse = unique_shot_words(transpose_words(sub_rows, shots))
        _DECODE_SHOTS.add(shots)
        _DECODE_UNIQUE.add(unique.shape[0])
        flips = self._decode_unique_cached(unique, 1)
        observables[self.observable] = scatter_unique(flips, inverse)[0]
        return BitSampleBatch(batch.detectors, observables, shots)

    def _decode_unique_packed(self, unique: np.ndarray) -> np.ndarray:
        return self._decode_unique_keys(unique, len(self.subset))[:, None]

    def _decode_unique_keys(self, keys: np.ndarray, nsub: int) -> np.ndarray:
        """Match a set of distinct packed subset syndromes, grouped by
        defect count so each weight class decodes in one vectorized
        enumeration; only counts past ``_MAX_ENUM_DEFECTS`` fall back to
        the scalar blossom path."""
        counts = popcount_words(keys, axis=1)
        out = np.zeros(keys.shape[0], dtype=np.uint8)
        b = self.boundary
        for k in np.unique(counts):
            sel = np.nonzero(counts == k)[0]
            if k == 0:
                continue
            # np.nonzero is row-major, so each row contributes exactly k
            # ascending defect indices — reshape recovers per-row lists.
            dense = unpack_rows(keys[sel], nsub)
            defect_rows = np.nonzero(dense)[1].reshape(len(sel), int(k))
            if k == 1:
                out[sel] = self.parity[defect_rows[:, 0], b]
            elif k == 2:
                u, v = defect_rows[:, 0], defect_rows[:, 1]
                direct = self.dist[u, v]
                via_boundary = self.dist[u, b] + self.dist[v, b]
                out[sel] = np.where(
                    direct <= via_boundary,
                    self.parity[u, v],
                    self.parity[u, b] ^ self.parity[v, b],
                )
            elif k <= _MAX_ENUM_DEFECTS:
                out[sel] = self._enum_match_group(defect_rows)
            else:
                for row_idx, row in zip(sel, defect_rows):
                    out[row_idx] = self._blossom_match(
                        tuple(int(d) for d in row)
                    )
        return out


def detector_subset_for_basis(
    dem: DetectorErrorModel, basis: str
) -> list[int] | None:
    """Detectors whose label kind matches the memory basis.

    Builder detector labels are ``(round, kind, stab)``; a Z-basis memory
    decodes X errors on the Z-type (kind == "z") detector graph.  A DEM
    with no such label (say, one extracted from a hand-written circuit)
    gives ``None``: match on every detector.
    """
    labels = dem.detector_labels
    if not any(len(label) == 3 for label in labels):
        return None
    return [
        i for i, label in enumerate(labels) if len(label) == 3 and label[1] == basis
    ]
