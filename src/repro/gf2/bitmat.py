"""Bit-packed GF(2) matrices.

Rows are packed into ``uint64`` words so that row XOR — the inner loop of
every elimination — touches ``ceil(ncols / 64)`` words instead of ``ncols``
bytes.  All heavy routines in :mod:`repro.gf2.core` bottom out here.
"""

from __future__ import annotations

import numpy as np

_WORD = 64

# numpy-version-portable popcount; the kernel backends import it from here.
if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    popcount_u64 = np.bitwise_count
else:  # numpy 1.x: 8-bit lookup over the byte view

    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def popcount_u64(words: np.ndarray) -> np.ndarray:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        as_bytes = words.reshape(-1).view(np.uint8)
        return _POP8[as_bytes].reshape(words.shape + (8,)).sum(
            axis=-1, dtype=np.int64
        )


def pack_rows(dense: np.ndarray) -> np.ndarray:
    """Pack a dense ``(m, n)`` 0/1 matrix into ``(m, ceil(n/64))`` uint64 words.

    Bit ``j`` of a row lives in word ``j // 64`` at bit position ``j % 64``
    (little-endian within the word).
    """
    dense = np.asarray(dense, dtype=np.uint8) & 1
    if dense.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {dense.shape}")
    m, n = dense.shape
    nwords = max(1, (n + _WORD - 1) // _WORD)
    padded = np.zeros((m, nwords * _WORD), dtype=np.uint8)
    padded[:, :n] = dense
    # np.packbits is big-endian per byte; request little-endian bit order so
    # bit j of the row is bit j of the packed stream, then view as uint64.
    packed_bytes = np.packbits(padded, axis=1, bitorder="little")
    return packed_bytes.view(np.uint64).reshape(m, nwords)


def unpack_rows(packed: np.ndarray, ncols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`; returns a dense uint8 ``(m, ncols)``."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    m = packed.shape[0]
    if m == 0:
        return np.zeros((0, ncols), dtype=np.uint8)
    as_bytes = packed.reshape(m, -1).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :ncols].astype(np.uint8)


class BitMatrix:
    """A mutable GF(2) matrix with bit-packed rows.

    Supports the operations the rest of the library needs: in-place row
    reduction, rank, row-space membership, nullspace and linear solving.
    """

    __slots__ = ("words", "ncols")

    def __init__(self, words: np.ndarray, ncols: int):
        self.words = np.ascontiguousarray(words, dtype=np.uint64)
        self.ncols = int(ncols)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.asarray(dense, dtype=np.uint8)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {dense.shape}")
        return cls(pack_rows(dense), dense.shape[1])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        nwords = max(1, (ncols + _WORD - 1) // _WORD)
        return cls(np.zeros((nrows, nwords), dtype=np.uint64), ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        out = cls.zeros(n, n)
        for i in range(n):
            out.set(i, i, 1)
        return out

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.words.copy(), self.ncols)

    # -- basic accessors -----------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.words.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def get(self, i: int, j: int) -> int:
        return int((self.words[i, j // _WORD] >> np.uint64(j % _WORD)) & np.uint64(1))

    def set(self, i: int, j: int, value: int) -> None:
        mask = np.uint64(1) << np.uint64(j % _WORD)
        if value & 1:
            self.words[i, j // _WORD] |= mask
        else:
            self.words[i, j // _WORD] &= ~mask

    def to_dense(self) -> np.ndarray:
        return unpack_rows(self.words, self.ncols)

    def row_weight(self, i: int) -> int:
        return int(popcount_u64(self.words[i]).sum())

    def row_weights(self) -> np.ndarray:
        return popcount_u64(self.words).sum(axis=1).astype(np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.ncols == other.ncols and np.array_equal(self.words, other.words)

    def __repr__(self) -> str:
        return f"BitMatrix(shape={self.shape})"

    # -- elimination ---------------------------------------------------------

    def row_reduce(self, ncols: int | None = None) -> list[int]:
        """In-place row-echelon reduction (full RREF); returns pivot columns.

        ``ncols`` limits elimination to the leading columns, which lets
        callers reduce an augmented system ``[A | b]`` over ``A`` only.
        """
        limit = self.ncols if ncols is None else min(ncols, self.ncols)
        words = self.words
        nrows = self.nrows
        pivots: list[int] = []
        rank = 0
        next_liveness_check = 0
        for col in range(limit):
            # Periodically bail out once every remaining row is zero — big
            # win for wide, rank-deficient matrices (OSD's common case).
            if col >= next_liveness_check:
                if not words[rank:].any():
                    break
                next_liveness_check = col + 256
            w, b = col // _WORD, np.uint64(col % _WORD)
            colbits = (words[rank:, w] >> b) & np.uint64(1)
            hits = np.nonzero(colbits)[0]
            if hits.size == 0:
                continue
            pivot_row = rank + int(hits[0])
            if pivot_row != rank:
                words[[rank, pivot_row]] = words[[pivot_row, rank]]
            # Eliminate the pivot column from every other row in one shot.
            col_all = (words[:, w] >> b) & np.uint64(1)
            col_all[rank] = 0
            targets = np.nonzero(col_all)[0]
            if targets.size:
                words[targets] ^= words[rank]
            pivots.append(col)
            rank += 1
            if rank == nrows:
                break
        return pivots

    def rank(self) -> int:
        return len(self.copy().row_reduce())

    def nullspace(self) -> "BitMatrix":
        """Basis of the right nullspace, one basis vector per row."""
        reduced = self.copy()
        pivots = reduced.row_reduce()
        n = self.ncols
        pivot_set = set(pivots)
        free_cols = [j for j in range(n) if j not in pivot_set]
        basis = BitMatrix.zeros(len(free_cols), n)
        dense = reduced.to_dense()
        for k, free in enumerate(free_cols):
            basis.set(k, free, 1)
            for r, pcol in enumerate(pivots):
                if dense[r, free]:
                    basis.set(k, pcol, 1)
        return basis

    # -- derived queries ------------------------------------------------------

    def stack(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column counts differ")
        return BitMatrix(np.vstack([self.words, other.words]), self.ncols)

    def contains_in_rowspace(self, vectors: "BitMatrix") -> bool:
        """True iff every row of ``vectors`` lies in this matrix's row space."""
        base = self.rank()
        return self.stack(vectors).rank() == base

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """One solution ``x`` of ``A^T applied? — here: rows as equations``.

        Treats ``self`` as the coefficient matrix ``A`` of ``A x = rhs`` with
        one *row per equation*.  Returns a dense uint8 solution or ``None``
        if the system is inconsistent.
        """
        rhs = np.asarray(rhs, dtype=np.uint8).ravel() & 1
        if rhs.shape[0] != self.nrows:
            raise ValueError("rhs length must equal the number of rows")
        aug_dense = np.concatenate([self.to_dense(), rhs[:, None]], axis=1)
        aug = BitMatrix.from_dense(aug_dense)
        pivots = aug.row_reduce(ncols=self.ncols)
        dense = aug.to_dense()
        rank = len(pivots)
        # Inconsistent if some zero-row of A has rhs bit 1.
        if np.any(dense[rank:, -1]):
            return None
        x = np.zeros(self.ncols, dtype=np.uint8)
        for r, col in enumerate(pivots):
            x[col] = dense[r, -1]
        return x

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x (mod 2)`` for a dense 0/1 vector ``x``."""
        xm = BitMatrix.from_dense(np.asarray(x, dtype=np.uint8).reshape(1, -1))
        if xm.ncols != self.ncols:
            raise ValueError("vector length must equal the number of columns")
        anded = self.words & xm.words[0]
        return (popcount_u64(anded).sum(axis=1) & 1).astype(np.uint8)
