"""Pluggable backends for the packed-bit kernels and the BP+OSD loops.

Profiling the packed sample→decode pipeline (PR 2) puts essentially all
of its non-decoder time in three word-level kernels:

``transpose_words``
    The blockwise 64x64 butterfly bit transpose that turns packed
    detector rows into per-shot syndrome keys.
``popcount_words``
    Set-bit reductions — failure counting, defect weights, row weights.
``unique_shot_words``
    Grouping shots by identical syndrome key (the unique-syndrome
    batching core).

and BP+OSD decoding (:class:`repro.decoders.BpOsdDecoder`) spends nearly
all of its time in two loops:

``bp_min_sum``
    Normalized min-sum belief propagation over a :class:`TannerGraph`.
``osd_basis``
    The reliability-ordered column basis of OSD: pivots, the syndrome's
    solution on them, and the pivot sums of the first free columns.

and the Monte-Carlo sampler (:class:`repro.sim.DemSampler`) spends most
of a batch drawing which shots each fired mechanism hits:

``sample_fires``
    One ``Generator.choice(shots, size=c, replace=False)`` per fire
    count, drawn in order from one bit generator.

and DEM extraction (:func:`repro.sim.extract_dem`) has two loops over
the circuit's faults:

``walk_back``
    The backward sensitivity walk over a circuit's op table, writing
    every noise op's snapshot rows into one ``uint64`` buffer.
``group_faults``
    First-occurrence grouping of the fault signatures into mechanisms,
    with each mechanism's probability composed in site order.

This module gives each of them swappable implementations behind one
dispatch point:

``numpy``
    The original vectorized single-thread implementations — the pinned
    reference every other backend is parity-tested against bit for bit
    (``tests/test_kernels.py``, ``tests/test_bposd_kernels.py``,
    ``tests/test_sample_fires_kernel.py``, ``tests/test_dem_kernels.py``).
``cnative``
    A tiny C translation unit (``_kernels.c``) compiled on first use
    with the system compiler (``cc -O3 -ffp-contract=off -shared
    -fPIC``) and loaded through ctypes.  Each kernel runs a small
    self-test case against the numpy reference on its first call; a
    kernel whose case fails serves the numpy reference from then on
    (listed in ``CNativeBackend.fallbacks``), and the others stay
    native.  Grouping sorts on a splitmix64 hash-fold of each multi-word
    key instead of lexsorting column by column, with exact collision
    repair — the grouping is identical, only group *order* differs
    (explicitly arbitrary by contract; callers map through
    ``inverse``).  BP runs one syndrome at a time and repeats numpy's
    floating-point operations one for one; OSD builds the greedy column
    basis instead of an RREF.  ``sample_fires`` drives the caller's
    generator through numpy's C ``bitgen_t`` interface and repeats
    ``choice``'s draws (Floyd's algorithm or a tail shuffle) one for
    one, so the shot indices and the generator's final state are
    numpy's.  The DEM walk runs over fixed-width word rows instead of
    Python ints, and fault grouping uses a hash table keyed like the
    hash-fold sort; composing in site order with ``-ffp-contract=off``
    keeps every probability byte-identical.  No build step, no new
    dependency: if anything in that chain is missing the resolver
    silently falls back.

Both run on the calling thread only.  Parallelism is the process
fan-out of the shot runner and the subgraph sampler
(:func:`repro.core.parallel.process_pool`); a kernel that started its own
thread team would leave forked workers waiting on threads that do not
exist in the child.

Selection happens at import from ``REPRO_KERNELS`` (``auto`` |
``numpy`` | ``cnative``; default ``auto`` = ``cnative`` when it compiles
and loads, else ``numpy``).  Tests switch backends with
:func:`set_backend` / :func:`use_backend`.

The dense-reference decode paths never route through here — they stay
pinned to plain numpy — so litmus tests compare every backend against
an implementation this module cannot affect.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import obs
from .bitmat import BitMatrix, pack_rows, popcount_u64, unpack_rows

_WORD = 64
_LLR_CLIP = 25.0  # bound on a check-to-variable message magnitude

# Dispatch instruments: per-kernel call counts plus a per-backend call
# counter (rebound by set_backend) so a fleet summary shows which
# implementation actually served the hot path.
_TRANSPOSE_CALLS = obs.counter("kernel.transpose")
_POPCOUNT_CALLS = obs.counter("kernel.popcount")
_UNIQUE_CALLS = obs.counter("kernel.unique")
_BP_CALLS = obs.counter("kernel.bp")
_OSD_CALLS = obs.counter("kernel.osd")
_FIRES_CALLS = obs.counter("kernel.sample_fires")
_WALK_CALLS = obs.counter("kernel.walk_back")
_GROUP_CALLS = obs.counter("kernel.group_faults")
_BACKEND_CALLS = obs.counter("kernel.backend.numpy")

# Butterfly masks for the in-register 64x64 bit transpose: at step ``j``
# the mask selects the low ``j`` bit positions of every ``2j`` group.
_TRANSPOSE_STEPS: list[tuple[int, int]] = [
    (32, 0x00000000FFFFFFFF),
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
]


# The gate codes the DEM walk reads, by position: the clean gates, then
# the noise gates it snapshots.  repro.circuits.gates numbers the IR from
# these (annotations and registered noise gates come after them, and the
# walk skips every later code); the enum in _kernels.c spells them out.
WALK_GATES = ("H", "CNOT", "R", "RX", "M", "MX")
WALK_NOISE_GATES = ("DEPOLARIZE1", "DEPOLARIZE2", "PAULI_CHANNEL_1", "PAULI_CHANNEL_2")
WALK_GATE_CODES = {name: code for code, name in enumerate(WALK_GATES)}
WALK_NOISE_CODES = range(len(WALK_GATES), len(WALK_GATES) + len(WALK_NOISE_GATES))


# -- shared validation + grouping scaffolding ---------------------------------


def _check_words_2d(words: np.ndarray) -> np.ndarray:
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(f"expected packed 2-D words, got shape {words.shape}")
    return words


def _group_nonzero(per_shot: np.ndarray):
    """Zero-key prefilter shared by every grouping implementation.

    Sub-threshold sampling makes the all-zero key the huge majority;
    pulling those shots out first means the sort cost tracks the
    *defective* shots only.  Returns ``(nz_idx, has_zero, inverse)``
    with ``inverse`` pre-zeroed (group 0 is reserved for the zero key
    when present).
    """
    shots = per_shot.shape[0]
    nonzero = per_shot.any(axis=1)
    nz_idx = np.nonzero(nonzero)[0]
    has_zero = nz_idx.size < shots
    inverse = np.zeros(shots, dtype=np.int64)
    return nz_idx, has_zero, inverse


def _assemble_groups(per_shot, nz_idx, has_zero, inverse, unique_nz, inv_nz):
    nwords = per_shot.shape[1]
    offset = 1 if has_zero else 0
    inverse[nz_idx] = inv_nz + offset
    if not has_zero:
        return unique_nz, inverse
    zero_row = np.zeros((1, nwords), dtype=np.uint64)
    return np.vstack([zero_row, unique_nz]), inverse


def _group_sorted(keys: np.ndarray, order: np.ndarray):
    """Run-boundary grouping of ``keys`` under a sort ``order``.

    ``order`` must bring equal rows adjacent.  Returns ``(unique rows,
    inverse)`` over the *nonzero* keys only.
    """
    ordered = keys[order]
    new_group = np.empty(len(ordered), dtype=bool)
    new_group[0] = True
    new_group[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    unique_nz = ordered[new_group]
    inv_sorted = np.cumsum(new_group) - 1
    inv_nz = np.empty(len(keys), dtype=np.int64)
    inv_nz[order] = inv_sorted
    return unique_nz, inv_nz


# -- BP+OSD inputs and outputs --------------------------------------------------


@dataclass(frozen=True)
class TannerGraph:
    """A check matrix's edges as the BP kernels walk them.

    Edges are numbered row-major: edge ``k`` joins row ``edge_row[k]``
    and column ``edge_col[k]``, and row ``r`` owns edges
    ``row_ptr[r]:row_ptr[r + 1]``.  ``col_order`` lists the edges
    grouped by column (rows ascending), column ``c`` owning
    ``col_order[col_ptr[c]:col_ptr[c + 1]]``.  ``prior`` holds the
    columns' prior LLRs in float32.
    """

    edge_row: np.ndarray
    edge_col: np.ndarray
    row_ptr: np.ndarray
    col_order: np.ndarray
    col_ptr: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        # The C kernel reads these buffers as they are.
        for name, value in vars(self).items():
            dtype = np.float32 if name == "prior" else np.int64
            if value.dtype != dtype or not value.flags.c_contiguous:
                raise ValueError(f"{name} must be a contiguous {dtype.__name__} array")

    @classmethod
    def from_edges(
        cls, edge_row: np.ndarray, edge_col: np.ndarray, rows: int, prior: np.ndarray
    ) -> "TannerGraph":
        """Build from a row-major edge list (rows ascending, then columns)."""
        edge_row = np.ascontiguousarray(edge_row, dtype=np.int64)
        edge_col = np.ascontiguousarray(edge_col, dtype=np.int64)
        col_order = np.argsort(edge_col, kind="stable")
        row_ptr = np.searchsorted(edge_row, np.arange(rows + 1))
        col_ptr = np.searchsorted(edge_col[col_order], np.arange(len(prior) + 1))
        return cls(
            edge_row=edge_row,
            edge_col=edge_col,
            row_ptr=row_ptr.astype(np.int64),
            col_order=col_order.astype(np.int64),
            col_ptr=col_ptr.astype(np.int64),
            prior=np.ascontiguousarray(prior, dtype=np.float32),
        )


class OsdBasis(NamedTuple):
    """The greedy basis of H's columns in a given order.

    Positions index the order, not H.  ``pivots`` are the independent
    columns (ascending), ``solution`` the syndrome's coefficient on each
    pivot (``None`` when the syndrome is outside H's column space),
    ``free`` the first non-pivot positions asked for, and
    ``combos[f, k] = 1`` iff pivot ``k`` is in the sum equal to column
    ``free[f]`` — the RREF's entries.
    """

    pivots: np.ndarray
    solution: np.ndarray | None
    free: np.ndarray
    combos: np.ndarray


# -- the numpy reference backend ----------------------------------------------


class NumpyBackend:
    """Single-thread vectorized numpy — the pinned reference."""

    name = "numpy"

    def transpose_words(self, words: np.ndarray, ncols: int) -> np.ndarray:
        words = _check_words_2d(words)
        m, nwords = words.shape
        row_blocks = max(1, (m + _WORD - 1) // _WORD)
        padded = np.zeros((row_blocks * _WORD, max(1, nwords)), dtype=np.uint64)
        if m and nwords:
            padded[:m, :nwords] = words
        # blocks[b, c, i] = row 64b+i, word column c.
        blocks = np.ascontiguousarray(
            padded.reshape(row_blocks, _WORD, -1).transpose(0, 2, 1)
        )
        half = np.arange(_WORD)
        for j, mask in _TRANSPOSE_STEPS:
            lo = half[(half & j) == 0]
            hi = lo + j
            shift = np.uint64(j)
            mask = np.uint64(mask)
            # Little-endian bit order flips the classic network: swap the
            # *high* bit-halves of the low rows with the *low* bit-halves
            # of the high rows (the off-diagonal sub-blocks).
            a = blocks[..., lo]
            b = blocks[..., hi]
            t = ((a >> shift) ^ b) & mask
            blocks[..., lo] = a ^ (t << shift)
            blocks[..., hi] = b ^ t
        # Now blocks[b, c, j] holds bit i = element (64b+i, 64c+j): word
        # column b of transposed row 64c+j.
        out = blocks.transpose(1, 2, 0).reshape(-1, row_blocks)
        return np.ascontiguousarray(out[:ncols])

    def popcount_words(
        self, words: np.ndarray, axis: int | None = None
    ) -> np.ndarray | int:
        counts = popcount_u64(words)
        if axis is None:
            return int(counts.sum())
        return counts.sum(axis=axis).astype(np.int64)

    def unique_shot_words(
        self, per_shot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        per_shot = _check_words_2d(per_shot)
        nwords = per_shot.shape[1]
        nz_idx, has_zero, inverse = _group_nonzero(per_shot)
        if nz_idx.size == 0:
            return np.zeros((1, nwords), dtype=np.uint64), inverse
        keys = per_shot[nz_idx]
        if nwords == 1:
            unique_nz, inv_nz = np.unique(keys[:, 0], return_inverse=True)
            unique_nz = unique_nz[:, None]
            # numpy 2.0 briefly reshaped return_inverse to match the
            # input (reverted in 2.1); flatten so every version agrees.
            inv_nz = np.asarray(inv_nz, dtype=np.int64).reshape(-1)
        else:
            # Multi-word keys: lexsort + run boundaries beats np.unique's
            # void-view row sort by a wide margin.
            order = np.lexsort(keys.T[::-1])
            unique_nz, inv_nz = _group_sorted(keys, order)
        return _assemble_groups(
            per_shot, nz_idx, has_zero, inverse, unique_nz, inv_nz
        )

    def bp_min_sum(
        self, graph: TannerGraph, syndromes: np.ndarray, max_iterations: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched normalized min-sum BP.

        ``syndromes``: (shots, rows).  Returns (hard_decisions (shots,
        cols) uint8, converged (shots,) bool, posterior_llr (shots, cols)
        float32).  Shots that satisfy their syndrome are compacted out of
        the message arrays, so the cost tracks the hard shots only.
        """
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        shots = syndromes.shape[0]
        num_errors = len(graph.prior)
        edge_row, edge_col = graph.edge_row, graph.edge_col
        row_starts = graph.row_ptr[:-1]
        cols_present = np.nonzero(np.diff(graph.col_ptr))[0]
        col_starts = graph.col_ptr[cols_present]
        scale = np.float32(0.8)  # standard min-sum normalization
        prior_edge = graph.prior[edge_col][:, None]

        active = np.arange(shots)
        var_to_check = np.tile(prior_edge, (1, shots))
        sign_target = (1.0 - 2.0 * syndromes.T[edge_row]).astype(np.float32)

        decisions = np.zeros((shots, num_errors), dtype=np.uint8)
        posterior = np.tile(graph.prior[None, :], (shots, 1))
        converged = np.zeros(shots, dtype=bool)

        for _ in range(max_iterations):
            # Check-node update: extrinsic sign and min|.| per row.
            mag = np.abs(var_to_check)
            neg = var_to_check < 0
            row_neg = np.add.reduceat(neg.astype(np.int8), row_starts, axis=0)
            ext_neg = (row_neg[edge_row] - neg) & 1
            row_min1 = np.minimum.reduceat(mag, row_starts, axis=0)
            at_min = mag == row_min1[edge_row]
            # Ties at the minimum are counted wide: a narrow count wraps
            # on a row of degree >= 257 (only parity survives a wrap).
            min_count = np.add.reduceat(at_min, row_starts, axis=0, dtype=np.int64)
            mag_no_min = np.where(at_min, np.float32(np.inf), mag)
            row_min2 = np.minimum.reduceat(mag_no_min, row_starts, axis=0)
            row_min2 = np.where(min_count > 1, row_min1, row_min2)
            ext_min = np.where(
                at_min & (min_count[edge_row] == 1),
                row_min2[edge_row],
                row_min1[edge_row],
            )
            ext_min = np.minimum(ext_min, np.float32(_LLR_CLIP))
            check_to_var = scale * sign_target * (1.0 - 2.0 * ext_neg) * ext_min
            # Variable-node update.
            ctv_col = check_to_var[graph.col_order]
            col_sum = np.zeros((num_errors, ctv_col.shape[1]), dtype=np.float32)
            col_sum[cols_present] = np.add.reduceat(ctv_col, col_starts, axis=0)
            post = graph.prior[None, :] + col_sum.T
            var_to_check = prior_edge + col_sum[edge_col] - check_to_var
            # Hard decision + convergence; compact out converged shots.
            dec = (post < 0).astype(np.uint8)
            syn_hat = np.bitwise_xor.reduceat(dec.T[edge_col], row_starts, axis=0).T
            ok = (syn_hat == syndromes[active]).all(axis=1)
            decisions[active] = dec
            posterior[active] = post
            converged[active] = ok
            if ok.all():
                break
            if ok.any():
                keep = ~ok
                active = active[keep]
                var_to_check = var_to_check[:, keep]
                sign_target = (1.0 - 2.0 * syndromes[active].T[edge_row]).astype(
                    np.float32
                )
        return decisions, converged, posterior

    def osd_basis(
        self,
        h_cols: np.ndarray,
        num_rows: int,
        order: np.ndarray,
        syndrome: np.ndarray,
        rank: int | None,
        n_free: int,
    ) -> OsdBasis:
        """Row-reduce ``[H[:, order] | syndrome]`` (``H`` given as packed
        columns ``h_cols``) and read the basis off the RREF.  The
        reduction stops on its own, so ``rank`` is not needed here."""
        num_cols = len(order)
        h_dense = unpack_rows(h_cols, num_rows).T
        permuted = np.concatenate(
            [h_dense[:, order], np.asarray(syndrome, dtype=np.uint8)[:, None]], axis=1
        )
        aug = BitMatrix.from_dense(permuted)
        pivots = aug.row_reduce(ncols=num_cols)
        reduced = aug.to_dense()
        found = len(pivots)
        consistent = not np.any(reduced[found:, -1])
        pivot_set = set(pivots)
        free = [c for c in range(num_cols) if c not in pivot_set][:n_free]
        return OsdBasis(
            pivots=np.array(pivots, dtype=np.int64),
            solution=reduced[:found, -1] if consistent else None,
            free=np.array(free, dtype=np.int64),
            combos=reduced[:found, free].T,
        )

    def sample_fires(
        self, bit_generator: np.random.BitGenerator, shots: int, counts: np.ndarray
    ) -> np.ndarray:
        rng = np.random.Generator(bit_generator)
        rows = [
            rng.choice(shots, size=c, replace=False)
            for c in np.asarray(counts).tolist()
        ]
        if rows:
            return np.concatenate(rows)
        return np.zeros(0, dtype=np.int64)


    def walk_back(
        self,
        gates: np.ndarray,
        target_ptr: np.ndarray,
        targets: np.ndarray,
        meas_rows: np.ndarray,
        num_qubits: int,
    ) -> np.ndarray:
        """The backward walk over Python-int rows, one bit per
        detector/observable; the snapshots are joined into the word
        buffer at the end."""
        nwords = meas_rows.shape[1]
        meas_bits = [
            int.from_bytes(row.tobytes(), "little")
            for row in np.ascontiguousarray(meas_rows, dtype="<u8")
        ]
        cnot, h = WALK_GATE_CODES["CNOT"], WALK_GATE_CODES["H"]
        resets = (WALK_GATE_CODES["R"], WALK_GATE_CODES["RX"])
        m_code, mx_code = WALK_GATE_CODES["M"], WALK_GATE_CODES["MX"]
        sx = [0] * num_qubits
        sz = [0] * num_qubits
        snaps = [0]
        m = len(meas_bits)
        ptr, flat = np.asarray(target_ptr).tolist(), np.asarray(targets).tolist()
        gates = np.asarray(gates).tolist()
        for i in range(len(gates) - 1, -1, -1):
            gate, t = gates[i], flat[ptr[i] : ptr[i + 1]]
            if gate == cnot:
                for k in range(len(t) - 2, -1, -2):
                    c, tg = t[k], t[k + 1]
                    sx[c] ^= sx[tg]
                    sz[tg] ^= sz[c]
            elif gate == h:
                for q in t:
                    sx[q], sz[q] = sz[q], sx[q]
            elif gate in resets:
                for q in t:
                    sx[q] = sz[q] = 0
            elif gate == m_code:
                for q in reversed(t):
                    m -= 1
                    sx[q] ^= meas_bits[m]
            elif gate == mx_code:
                for q in reversed(t):
                    m -= 1
                    sz[q] ^= meas_bits[m]
            elif gate in WALK_NOISE_CODES:
                for q in t:
                    snaps.append(sx[q])
                    snaps.append(sz[q])
        buf = np.frombuffer(
            b"".join(v.to_bytes(8 * nwords, "little") for v in snaps), dtype="<u8"
        )
        return buf.astype(np.uint64).reshape(-1, nwords)

    def group_faults(
        self, sig: np.ndarray, probs: np.ndarray, merge: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group by :meth:`unique_shot_words`, order the groups by their
        first fault, then compose each mechanism's probability with one
        elementwise step per member rank."""
        sig = _check_words_2d(sig)
        visible = np.flatnonzero(sig.any(axis=1))
        if not merge or visible.size == 0:
            signatures, mech_of = sig[visible], np.arange(visible.size)
        else:
            uniq, inv = self.unique_shot_words(sig[visible])
            _, first = np.unique(inv, return_index=True)
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            signatures, mech_of = uniq[order], rank[inv]
        num = len(signatures)
        mech_probs = np.zeros(num, dtype=np.float64)
        by_mech = np.argsort(mech_of, kind="stable")
        members = mech_of[by_mech]
        member_probs = np.asarray(probs, dtype=np.float64)[visible][by_mech]
        starts = np.flatnonzero(np.r_[True, members[1:] != members[:-1]])
        counts = np.diff(np.r_[starts, members.size])
        member_rank = np.arange(members.size) - np.repeat(starts, counts)
        for r in range(int(member_rank.max(initial=-1)) + 1):
            j, p = members[member_rank == r], member_probs[member_rank == r]
            a = mech_probs[j]
            mech_probs[j] = p if r == 0 else a * (1 - p) + p * (1 - a)
        fault_mechanism = np.full(len(sig), -1, dtype=np.int32)
        fault_mechanism[visible] = mech_of
        return np.ascontiguousarray(signatures), fault_mechanism, mech_probs


# -- hash-fold grouping (the cnative fast path) --------------------------------


def _unique_hashfold(per_shot: np.ndarray, fold) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by sorting on a 64-bit fold of each row.

    One single-key argsort replaces the column-by-column lexsort.  Hash
    collisions (different rows, equal fold) are detected exactly —
    differing adjacent rows *inside* one fold run — and repaired with a
    local lexsort of that run, so the grouping is always exact; only
    the (contractually arbitrary) group order differs from the
    reference.
    """
    per_shot = _check_words_2d(per_shot)
    nwords = per_shot.shape[1]
    nz_idx, has_zero, inverse = _group_nonzero(per_shot)
    if nz_idx.size == 0:
        return np.zeros((1, nwords), dtype=np.uint64), inverse
    keys = per_shot[nz_idx]
    if nwords == 1:
        order = np.argsort(keys[:, 0], kind="stable")
        unique_nz, inv_nz = _group_sorted(keys, order)
        return _assemble_groups(
            per_shot, nz_idx, has_zero, inverse, unique_nz, inv_nz
        )
    folded = fold(keys)
    order = np.argsort(folded, kind="stable")
    of = folded[order]
    okeys = keys[order]
    run_boundary = np.empty(len(of), dtype=bool)
    run_boundary[0] = True
    run_boundary[1:] = of[1:] != of[:-1]
    row_diff = np.empty(len(of), dtype=bool)
    row_diff[0] = True
    row_diff[1:] = (okeys[1:] != okeys[:-1]).any(axis=1)
    collisions = row_diff & ~run_boundary
    if collisions.any():
        # Genuine 64-bit fold collisions — astronomically rare, so a
        # python loop over the affected runs costs nothing.
        run_ids = np.cumsum(run_boundary) - 1
        for r in np.unique(run_ids[collisions]):
            sel = np.nonzero(run_ids == r)[0]
            sub = okeys[sel]
            sub_order = np.lexsort(sub.T[::-1])
            okeys[sel] = sub[sub_order]
            order[sel] = order[sel][sub_order]
        row_diff[1:] = (okeys[1:] != okeys[:-1]).any(axis=1)
    unique_nz = okeys[row_diff]
    inv_sorted = np.cumsum(row_diff) - 1
    inv_nz = np.empty(len(keys), dtype=np.int64)
    inv_nz[order] = inv_sorted
    return _assemble_groups(per_shot, nz_idx, has_zero, inverse, unique_nz, inv_nz)


# -- native (C + ctypes) backend ------------------------------------------------


def _native_cache_dir() -> str:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return env
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _compile_native() -> ctypes.CDLL | None:
    """Compile ``_kernels.c`` into a cached shared object and load it.

    The cache tag covers the source, the flags and the compiler's
    identity (resolved path, size and mtime of the executable), so a
    different ``CC`` or an upgraded compiler never loads an object some
    other compiler built.  Reading that identity is a ``stat``, not a
    compiler run, so a warm cache costs nothing at import.
    """
    compiler = shutil.which(os.environ.get("CC") or shutil.which("cc") or "gcc")
    if compiler is None:
        return None
    src = os.path.join(os.path.dirname(__file__), "_kernels.c")
    try:
        with open(src, "rb") as fh:
            source = fh.read()
        stat = os.stat(compiler)
    except OSError:
        return None
    flags = ["-O3", "-ffp-contract=off", "-shared", "-fPIC"]
    identity = [os.path.realpath(compiler), str(stat.st_size), str(stat.st_mtime_ns)]
    tag = hashlib.sha256(source + " ".join(flags + identity).encode()).hexdigest()
    cache_dir = _native_cache_dir()
    so_path = os.path.join(cache_dir, f"repro_kernels_{tag[:16]}.so")
    if not os.path.exists(so_path):
        try:
            os.makedirs(cache_dir, exist_ok=True)
            tmp = so_path + f".tmp{os.getpid()}"
            subprocess.run(
                [compiler, *flags, src, "-o", tmp],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, so_path)  # atomic under concurrent builders
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        return ctypes.CDLL(so_path)
    except OSError:
        return None


def _ptr(arr: np.ndarray, ctype):
    """A C pointer to a contiguous array's data (callers fix the layout)."""
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


class CNativeBackend(NumpyBackend):
    """ctypes-loaded C kernels, single-threaded like the reference.

    Each kernel runs its self-test case (``_SELF_TESTS``) on its first
    call, so a process pays only for the kernels it uses.  A kernel
    whose case fails is served by the numpy reference from then on and
    named in ``fallbacks``; the others stay native.
    """

    name = "cnative"

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        self.fallbacks: set[str] = set()
        for kernel in _SELF_TESTS:
            setattr(self, kernel, self._first_call(kernel))
        u64p = ctypes.POINTER(ctypes.c_uint64)
        i64p = ctypes.POINTER(ctypes.c_int64)
        lib.repro_transpose_words.argtypes = [
            u64p,
            u64p,
            ctypes.c_long,
            ctypes.c_long,
        ]
        lib.repro_transpose_words.restype = None
        lib.repro_popcount_rows.argtypes = [
            u64p,
            ctypes.c_long,
            ctypes.c_long,
            i64p,
        ]
        lib.repro_popcount_rows.restype = None
        lib.repro_fold_rows.argtypes = [u64p, ctypes.c_long, ctypes.c_long, u64p]
        lib.repro_fold_rows.restype = None
        u8p = ctypes.POINTER(ctypes.c_uint8)
        f32p = ctypes.POINTER(ctypes.c_float)
        f64p = ctypes.POINTER(ctypes.c_double)
        long_ = ctypes.c_long
        lib.repro_bp_min_sum.argtypes = [
            u8p,
            long_,
            long_,
            long_,
            i64p,
            i64p,
            i64p,
            i64p,
            f32p,
            long_,
            f64p,
            f32p,
            u8p,
            u8p,
        ]
        lib.repro_bp_min_sum.restype = None
        lib.repro_osd_basis.argtypes = [
            u64p,
            long_,
            long_,
            i64p,
            u64p,
            long_,
            long_,
            long_,
            u64p,
            i64p,
            u8p,
            i64p,
            u8p,
            i64p,
        ]
        lib.repro_osd_basis.restype = None
        lib.repro_sample_fires.argtypes = [
            ctypes.c_void_p,
            ctypes.c_int64,
            i64p,
            long_,
            u8p,
            i64p,
            i64p,
        ]
        lib.repro_sample_fires.restype = None
        i32p = ctypes.POINTER(ctypes.c_int32)
        lib.repro_walk_back.argtypes = [
            i32p,
            long_,
            i64p,
            i64p,
            u64p,
            long_,
            long_,
            u64p,
            u64p,
            u64p,
        ]
        lib.repro_walk_back.restype = None
        lib.repro_group_faults.argtypes = [
            u64p,
            long_,
            long_,
            f64p,
            ctypes.c_int,
            i64p,
            long_,
            u64p,
            f64p,
            i32p,
        ]
        lib.repro_group_faults.restype = long_

    def _first_call(self, kernel: str):
        """Stand-in for ``kernel`` until its first call: run the
        kernel's self-test case, then bind the native method (or the
        reference, if the case fails) over this stand-in.  Threads that
        race here each run the case and bind the same result."""

        def verify_then_call(*args, **kwargs):
            native = getattr(type(self), kernel).__get__(self)
            try:
                passed = _SELF_TESTS[kernel](native, getattr(_REFERENCE, kernel))
            except Exception:  # a case that raises has failed
                passed = False
            if not passed:
                self.fallbacks.add(kernel)
            impl = native if passed else getattr(_REFERENCE, kernel)
            setattr(self, kernel, impl)
            return impl(*args, **kwargs)

        return verify_then_call

    def transpose_words(self, words: np.ndarray, ncols: int) -> np.ndarray:
        words = _check_words_2d(words)
        m, nwords = words.shape
        row_blocks = max(1, (m + _WORD - 1) // _WORD)
        nwords_eff = max(1, nwords)
        padded = np.zeros((row_blocks * _WORD, nwords_eff), dtype=np.uint64)
        if m and nwords:
            padded[:m, :nwords] = words
        out = np.empty((nwords_eff * _WORD, row_blocks), dtype=np.uint64)
        self._lib.repro_transpose_words(
            _ptr(padded, ctypes.c_uint64),
            _ptr(out, ctypes.c_uint64),
            row_blocks,
            nwords_eff,
        )
        return np.ascontiguousarray(out[:ncols])

    def popcount_words(
        self, words: np.ndarray, axis: int | None = None
    ) -> np.ndarray | int:
        arr = np.asarray(words, dtype=np.uint64)
        if arr.ndim != 2 or axis not in (None, 1) or arr.size == 0:
            return super().popcount_words(words, axis)
        arr = np.ascontiguousarray(arr)
        out = np.empty(arr.shape[0], dtype=np.int64)
        self._lib.repro_popcount_rows(
            _ptr(arr, ctypes.c_uint64),
            arr.shape[0],
            arr.shape[1],
            _ptr(out, ctypes.c_int64),
        )
        if axis is None:
            return int(out.sum())
        return out

    def _fold_rows(self, keys: np.ndarray) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        out = np.empty(keys.shape[0], dtype=np.uint64)
        self._lib.repro_fold_rows(
            _ptr(keys, ctypes.c_uint64),
            keys.shape[0],
            keys.shape[1],
            _ptr(out, ctypes.c_uint64),
        )
        return out

    def unique_shot_words(
        self, per_shot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return _unique_hashfold(per_shot, self._fold_rows)

    def bp_min_sum(
        self, graph: TannerGraph, syndromes: np.ndarray, max_iterations: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        syndromes = np.ascontiguousarray(syndromes, dtype=np.uint8)
        shots, rows = syndromes.shape
        if rows != len(graph.row_ptr) - 1:
            raise ValueError(f"expected {len(graph.row_ptr) - 1} bits per syndrome")
        cols = len(graph.prior)
        posterior = np.empty((shots, cols), dtype=np.float32)
        decisions = np.empty((shots, cols), dtype=np.uint8)
        converged = np.empty(shots, dtype=np.uint8)
        work = np.empty(2 * len(graph.edge_col), dtype=np.float64)
        self._lib.repro_bp_min_sum(
            _ptr(syndromes, ctypes.c_uint8),
            shots,
            rows,
            cols,
            _ptr(graph.row_ptr, ctypes.c_int64),
            _ptr(graph.edge_col, ctypes.c_int64),
            _ptr(graph.col_ptr, ctypes.c_int64),
            _ptr(graph.col_order, ctypes.c_int64),
            _ptr(graph.prior, ctypes.c_float),
            max_iterations,
            _ptr(work, ctypes.c_double),
            _ptr(posterior, ctypes.c_float),
            _ptr(decisions, ctypes.c_uint8),
            _ptr(converged, ctypes.c_uint8),
        )
        return decisions, converged.astype(bool), posterior

    def osd_basis(
        self,
        h_cols: np.ndarray,
        num_rows: int,
        order: np.ndarray,
        syndrome: np.ndarray,
        rank: int | None,
        n_free: int,
    ) -> OsdBasis:
        h_cols = _check_words_2d(h_cols)
        cols, nwords = h_cols.shape
        order = np.ascontiguousarray(order, dtype=np.int64)
        if order.shape != (cols,) or len(syndrome) != num_rows:
            raise ValueError("order must list every column, syndrome every row")
        packed = pack_rows(np.asarray(syndrome)[None, :])
        cap = min(num_rows, cols)
        work = np.empty(2 * _WORD * nwords * nwords + 3 * nwords, dtype=np.uint64)
        pivots = np.empty(cap, dtype=np.int64)
        solution = np.empty(cap, dtype=np.uint8)
        free = np.empty(n_free, dtype=np.int64)
        combos = np.zeros((n_free, cap), dtype=np.uint8)
        counts = np.zeros(3, dtype=np.int64)
        self._lib.repro_osd_basis(
            _ptr(h_cols, ctypes.c_uint64),
            cols,
            nwords,
            _ptr(order, ctypes.c_int64),
            _ptr(packed, ctypes.c_uint64),
            -1 if rank is None else rank,
            n_free,
            cap,
            _ptr(work, ctypes.c_uint64),
            _ptr(pivots, ctypes.c_int64),
            _ptr(solution, ctypes.c_uint8),
            _ptr(free, ctypes.c_int64),
            _ptr(combos, ctypes.c_uint8),
            _ptr(counts, ctypes.c_int64),
        )
        found, nfree, consistent = counts.tolist()
        return OsdBasis(
            pivots=pivots[:found],
            solution=solution[:found] if consistent else None,
            free=free[:nfree],
            combos=combos[:nfree, :found],
        )

    def sample_fires(
        self, bit_generator: np.random.BitGenerator, shots: int, counts: np.ndarray
    ) -> np.ndarray:
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        if counts.size and (counts.min() < 0 or counts.max() > shots):
            raise ValueError("every count must lie in [0, shots]")
        if shots > 2**32:
            # numpy bounds its draws with 64-bit words here; no batch
            # that fits in memory reaches it.
            return super().sample_fires(bit_generator, shots, counts)
        marks = np.zeros(shots, dtype=np.uint8)
        perm = np.empty(shots, dtype=np.int64)
        out = np.empty(int(counts.sum()), dtype=np.int64)
        with bit_generator.lock:
            self._lib.repro_sample_fires(
                bit_generator.ctypes.bit_generator,
                shots,
                _ptr(counts, ctypes.c_int64),
                len(counts),
                _ptr(marks, ctypes.c_uint8),
                _ptr(perm, ctypes.c_int64),
                _ptr(out, ctypes.c_int64),
            )
        return out


    def walk_back(
        self,
        gates: np.ndarray,
        target_ptr: np.ndarray,
        targets: np.ndarray,
        meas_rows: np.ndarray,
        num_qubits: int,
    ) -> np.ndarray:
        gates = np.ascontiguousarray(gates, dtype=np.int32)
        target_ptr = np.ascontiguousarray(target_ptr, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        meas = _check_words_2d(meas_rows)
        nwords = meas.shape[1]
        # The C walk indexes without bounds checks: check what it reads.
        counts = np.diff(target_ptr)
        if len(target_ptr) != len(gates) + 1 or targets.size < target_ptr[-1]:
            raise ValueError("target_ptr must hold one offset per op, plus the end")
        walked = np.repeat(gates < WALK_NOISE_CODES.stop, counts)
        on_qubits = targets[: target_ptr[-1]][walked]
        if on_qubits.size and (on_qubits.min() < 0 or on_qubits.max() >= num_qubits):
            raise ValueError(f"a gate target lies outside {num_qubits} qubits")
        measured = np.isin(gates, (WALK_GATE_CODES["M"], WALK_GATE_CODES["MX"]))
        if int(counts[measured].sum()) != meas.shape[0]:
            raise ValueError("meas_rows must hold one row per measurement")
        noise = (gates >= WALK_NOISE_CODES.start) & (gates < WALK_NOISE_CODES.stop)
        out = np.zeros((1 + 2 * int(counts[noise].sum()), nwords), dtype=np.uint64)
        sx = np.zeros((num_qubits, nwords), dtype=np.uint64)
        sz = np.zeros((num_qubits, nwords), dtype=np.uint64)
        self._lib.repro_walk_back(
            _ptr(gates, ctypes.c_int32),
            len(gates),
            _ptr(target_ptr, ctypes.c_int64),
            _ptr(targets, ctypes.c_int64),
            _ptr(meas, ctypes.c_uint64),
            meas.shape[0],
            nwords,
            _ptr(sx, ctypes.c_uint64),
            _ptr(sz, ctypes.c_uint64),
            _ptr(out, ctypes.c_uint64),
        )
        return out

    def group_faults(
        self, sig: np.ndarray, probs: np.ndarray, merge: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sig = _check_words_2d(sig)
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        faults, nwords = sig.shape
        if probs.shape != (faults,):
            raise ValueError("probs must hold one probability per fault")
        cap = 1 << (2 * faults).bit_length()  # a power of two above 2x
        table = np.full(cap, -1, dtype=np.int64)
        out_sig = np.empty((faults, nwords), dtype=np.uint64)
        out_probs = np.empty(faults, dtype=np.float64)
        fault_mechanism = np.empty(faults, dtype=np.int32)
        count = self._lib.repro_group_faults(
            _ptr(sig, ctypes.c_uint64),
            faults,
            nwords,
            _ptr(probs, ctypes.c_double),
            int(bool(merge)),
            _ptr(table, ctypes.c_int64),
            cap,
            _ptr(out_sig, ctypes.c_uint64),
            _ptr(out_probs, ctypes.c_double),
            _ptr(fault_mechanism, ctypes.c_int32),
        )
        return out_sig[:count].copy(), fault_mechanism, out_probs[:count].copy()


# -- per-kernel self-test cases ------------------------------------------------
#
# Each case gets the candidate kernel and the numpy reference as bound
# methods and returns whether they agree on a tiny input.


def _case_transpose(run, ref) -> bool:
    words = np.random.default_rng(1).integers(0, 2**63, size=(70, 3), dtype=np.uint64)
    return np.array_equal(run(words, 130), ref(words, 130))


def _case_popcount(run, ref) -> bool:
    words = np.random.default_rng(2).integers(0, 2**63, size=(70, 3), dtype=np.uint64)
    return run(words) == ref(words) and np.array_equal(run(words, 1), ref(words, 1))


def _case_unique(run, ref) -> bool:
    keys = np.random.default_rng(3).integers(0, 4, size=(97, 2), dtype=np.uint64)
    got_u, got_inv = run(keys)
    want_u, want_inv = ref(keys)
    return (
        got_u.shape == want_u.shape
        and np.array_equal(got_u[got_inv], want_u[want_inv])
        and np.array_equal(got_u[got_inv], keys)
    )


def _case_check_matrix(rng: np.random.Generator) -> np.ndarray:
    """A random rank-deficient 12 x 24 check matrix (its last two rows
    are equal) whose first column has degree 10, so BP's column sum
    takes numpy's blocked pairwise path."""
    h = (rng.random((12, 24)) < 0.2).astype(np.uint8)
    h[:10, 0] = 1
    h[np.arange(11), 1 + np.arange(11)] = 1
    h[11] = h[10]
    return h


def _case_bp(run, ref) -> bool:
    rng = np.random.default_rng(4)
    h = _case_check_matrix(rng)
    rows, cols = np.nonzero(h)
    graph = TannerGraph.from_edges(rows, cols, 12, rng.uniform(0.5, 6.0, 24))
    syndromes = (rng.random((6, 12)) < 0.4).astype(np.uint8)
    # And one iteration on a column whose three messages round
    # differently when summed in order than numpy's pairwise way.
    pairwise = TannerGraph.from_edges(
        np.array([0, 0, 1, 1, 2, 2]),
        np.array([0, 1, 0, 2, 0, 3]),
        3,
        np.float32([0.00015644815, 0.00019651184, 18.677338, 18.675581]),
    )
    for g, syn, iterations in (
        (graph, syndromes, 5),
        (pairwise, np.uint8([[0, 0, 1]]), 1),
    ):
        for got, want in zip(run(g, syn, iterations), ref(g, syn, iterations)):
            if got.dtype != want.dtype or got.tobytes() != want.tobytes():
                return False
    return True


def _case_osd(run, ref) -> bool:
    rng = np.random.default_rng(5)
    h = _case_check_matrix(rng)
    h_cols = pack_rows(np.ascontiguousarray(h.T))
    order = rng.permutation(24)
    # A consistent syndrome and one outside H's column space.
    for syndrome in (h[:, :5].sum(axis=1) % 2, np.eye(12, dtype=np.uint8)[11]):
        got = run(h_cols, 12, order, syndrome, None, 3)
        want = ref(h_cols, 12, order, syndrome, None, 3)
        if (got.solution is None) != (want.solution is None):
            return False
        for a, b in zip(got, want):
            if a is not None and not np.array_equal(a, b):
                return False
    return True


def _case_sample_fires(run, ref) -> bool:
    # Floyd's path with collisions (a small population, a full draw)
    # and both sides of the 1/50 cut above 10,000, the tail path included.
    for shots, counts in ((5, [5, 3, 1, 0]), (10001, [1, 200, 201, 10001])):
        got_bits, want_bits = np.random.PCG64(6), np.random.PCG64(6)
        counts = np.array(counts, dtype=np.int64)
        got, want = run(got_bits, shots, counts), ref(want_bits, shots, counts)
        if not (
            got.dtype == want.dtype
            and np.array_equal(got, want)
            and got_bits.random_raw(4).tolist() == want_bits.random_raw(4).tolist()
            and got_bits.state == want_bits.state
        ):
            return False
    return True


def _case_op_table(rng: np.random.Generator):
    """A random 5-qubit op table of every gate the walk reads, with
    two-word measurement rows (108 bits)."""
    pairs = ("CNOT", "DEPOLARIZE2", "PAULI_CHANNEL_2")
    arity = {
        code: 2 if name in pairs else 1
        for code, name in enumerate(WALK_GATES + WALK_NOISE_GATES)
    }
    arity[WALK_NOISE_CODES.stop + 2] = 0  # a code the walk skips
    gates = rng.choice(list(arity), size=60)
    targets = [rng.permutation(5)[: arity[g] * int(rng.integers(1, 3))] for g in gates]
    target_ptr = np.cumsum([0] + [len(t) for t in targets])
    measured = (WALK_GATE_CODES["M"], WALK_GATE_CODES["MX"])
    measurements = sum(len(t) for g, t in zip(gates, targets) if g in measured)
    meas_rows = rng.integers(0, 2**63, size=(measurements, 2), dtype=np.uint64)
    meas_rows[:, 1] &= np.uint64(2**44 - 1)
    return gates.astype(np.int32), target_ptr, np.concatenate(targets), meas_rows


def _same_bytes(got, want) -> bool:
    """Equal dtypes, shapes and bytes, array by array."""
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, want)
    )


def _case_walk_back(run, ref) -> bool:
    table = _case_op_table(np.random.default_rng(7))
    return _same_bytes([run(*table, 5)], [ref(*table, 5)])


def _case_group_faults(run, ref) -> bool:
    # Few distinct two-word rows (zero among them), so faults merge in
    # runs of several whose composed probability depends on site order.
    rng = np.random.default_rng(8)
    palette = rng.integers(0, 2**63, size=(6, 2), dtype=np.uint64)
    palette[0] = 0
    sig = palette[rng.integers(0, 6, size=80)]
    probs = rng.uniform(0.0, 0.3, size=80)
    return all(
        _same_bytes(run(sig, probs, merge), ref(sig, probs, merge))
        for merge in (True, False)
    )


_SELF_TESTS = {
    "transpose_words": _case_transpose,
    "popcount_words": _case_popcount,
    "unique_shot_words": _case_unique,
    "bp_min_sum": _case_bp,
    "osd_basis": _case_osd,
    "sample_fires": _case_sample_fires,
    "walk_back": _case_walk_back,
    "group_faults": _case_group_faults,
}


# -- backend registry / selection ----------------------------------------------

_REFERENCE = NumpyBackend()
_ACTIVE: NumpyBackend = _REFERENCE
_NATIVE_RESULT: CNativeBackend | None | bool = False  # False = not tried yet


def _native_backend() -> CNativeBackend | None:
    global _NATIVE_RESULT
    if _NATIVE_RESULT is False:
        lib = _compile_native()
        _NATIVE_RESULT = CNativeBackend(lib) if lib is not None else None
    return _NATIVE_RESULT


def _make_backend(name: str) -> NumpyBackend | None:
    if name == "numpy":
        return _REFERENCE
    if name == "cnative":
        return _native_backend()
    if name == "auto":
        return _native_backend() or _REFERENCE
    raise ValueError(
        f"unknown kernel backend {name!r}; expected one of auto, numpy, cnative"
    )


def available_backends() -> list[str]:
    """Names of the backends that actually work on this machine."""
    if _native_backend() is None:
        return ["numpy"]
    return ["numpy", "cnative"]


def set_backend(name: str) -> str:
    """Activate a backend by name; returns the previous backend's name."""
    backend = _make_backend(name)
    if backend is None:
        raise RuntimeError(f"kernel backend {name!r} is unavailable here")
    global _ACTIVE, _BACKEND_CALLS
    previous = _ACTIVE.name
    _ACTIVE = backend
    _BACKEND_CALLS = obs.counter(f"kernel.backend.{backend.name}")
    return previous


@contextmanager
def use_backend(name: str):
    """Context manager flavor of :func:`set_backend` (for tests)."""
    previous = set_backend(name)
    try:
        yield _ACTIVE
    finally:
        set_backend(previous)


def backend_name() -> str:
    """The active backend's name (reported by campaign status + benches)."""
    return _ACTIVE.name


# -- dispatched public kernels ---------------------------------------------------


def transpose_words(words: np.ndarray, ncols: int) -> np.ndarray:
    """Transpose a bit-packed matrix without unpacking it.

    ``words`` is ``(m, ceil(ncols/64))`` uint64 in
    :func:`repro.gf2.bitmat.pack_rows` layout (bit ``j`` of row ``i`` =
    matrix element ``(i, j)``); the result is ``(ncols, ceil(m/64))`` in
    the same layout, so bit ``i`` of result row ``j`` = element ``(i,
    j)``.  Works blockwise: the matrix is tiled into 64x64 bit blocks
    and each block is transposed with the classic butterfly-swap network
    (Hacker's Delight 7-3) — ``O(m * ncols / 64)`` word ops with no
    dense intermediate.

    Input tail bits (columns ``>= ncols``) are assumed zero, the
    invariant every packer in this package maintains; output tail bits
    (rows ``>= m``) come out zero for the same reason.
    """
    _TRANSPOSE_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.transpose_words(words, ncols)


def popcount_words(words: np.ndarray, axis: int | None = None) -> np.ndarray | int:
    """Total set bits, optionally along one axis."""
    _POPCOUNT_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.popcount_words(words, axis)


def unique_shot_words(per_shot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group shots by their packed word key.

    ``per_shot`` is ``(shots, nwords)`` uint64 (one key row per shot).
    Returns ``(unique, inverse)`` with ``unique`` the distinct key rows
    and ``inverse[s]`` the group id of shot ``s`` — the unique-syndrome
    batching core: decode ``unique`` once, scatter through ``inverse``.
    Group order is arbitrary by contract (backends differ); group 0 is
    the all-zero key whenever any shot has it.
    """
    _UNIQUE_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.unique_shot_words(per_shot)



def bp_min_sum(
    graph: TannerGraph, syndromes: np.ndarray, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized min-sum BP on ``graph`` for each row of ``syndromes``.

    Returns ``(decisions, converged, posterior)``: uint8 hard decisions
    and float32 posterior LLRs, ``(shots, cols)`` each, from the first
    iteration whose decisions reproduce the shot's syndrome (the last
    iteration when none does), and a bool per shot.  With
    ``max_iterations == 0`` these are zeros, ``False`` and the priors.
    """
    _BP_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.bp_min_sum(graph, syndromes, max_iterations)


def osd_basis(
    h_cols: np.ndarray,
    num_rows: int,
    order: np.ndarray,
    syndrome: np.ndarray,
    rank: int | None,
    n_free: int,
) -> OsdBasis:
    """The greedy basis of H's columns taken in ``order`` (see
    :class:`OsdBasis`), with the syndrome solved on it.

    ``h_cols`` is ``(cols, ceil(num_rows/64))`` uint64: H's columns in
    :func:`repro.gf2.bitmat.pack_rows` layout.  ``rank`` is ``rank(H)``
    when known, so a backend may stop once it has that many pivots;
    ``None`` walks every column.  ``n_free`` asks for the first non-pivot
    columns and their pivot sums.
    """
    _OSD_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.osd_basis(h_cols, num_rows, order, syndrome, rank, n_free)


def sample_fires(
    bit_generator: np.random.BitGenerator, shots: int, counts: np.ndarray
) -> np.ndarray:
    """The shot indices of every fired mechanism, concatenated.

    For each count ``c`` in order, the int64 result of
    ``Generator(bit_generator).choice(shots, size=c, replace=False)``:
    every backend returns numpy's indices and leaves ``bit_generator``
    in numpy's state afterwards.
    """
    _FIRES_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.sample_fires(bit_generator, shots, counts)


def walk_back(
    gates: np.ndarray,
    target_ptr: np.ndarray,
    targets: np.ndarray,
    meas_rows: np.ndarray,
    num_qubits: int,
) -> np.ndarray:
    """The backward sensitivity walk of DEM extraction.

    Walks a circuit's op table (gate codes, target offsets and flat
    targets; see :class:`repro.circuits.circuit.OpTable`) from the last
    op to the first.  Each qubit carries an X and a Z row of
    ``meas_rows.shape[1]`` words — ``meas_rows`` holds each
    measurement's detector/observable bits in
    :func:`repro.gf2.bitmat.pack_rows` layout.  Returns ``(1 + 2 *
    noise targets, nwords)`` uint64: row 0 zero, then for every noise
    op in walk (backward) order the X and Z row of each of its targets,
    in target order, as they stand just after the op.
    """
    _WALK_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.walk_back(gates, target_ptr, targets, meas_rows, num_qubits)


def group_faults(
    sig: np.ndarray, probs: np.ndarray, merge: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge faults with equal signatures into mechanisms.

    ``sig`` is ``(faults, nwords)`` uint64 in site order, ``probs``
    each fault's probability.  Returns ``(signatures, fault_mechanism,
    mechanism_probs)``: mechanisms in the order of their first fault,
    the int32 mechanism of each fault (-1 for one that flips nothing),
    and each mechanism's probability composed over its faults in site
    order as ``p = a(1 - p') + p'(1 - a)``.  ``merge=False`` makes every
    visible fault its own mechanism.
    """
    _GROUP_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.group_faults(sig, probs, merge)


set_backend(os.environ.get("REPRO_KERNELS", "auto"))
