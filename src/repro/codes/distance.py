"""Randomized minimum-distance estimation (information-set decoding).

This is the QDistRnd-style sampler the paper references in §6.2: draw a
random information set, row-reduce the generator matrix, and harvest
low-weight codewords from the reduced rows (and pairs of rows,
Lee-Brickell order 2).  The result is an upper bound that converges to the
true distance rapidly for the small-to-moderate codes used here.

The same routine doubles as the *code-level* d_eff reference; circuit-level
d_eff uses PropHunt's subgraph machinery instead because the global
circuit-level problem is intractable (paper Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import gf2
from ..gf2.bitmat import BitMatrix, popcount_u64
from .css import CSSCode


@dataclass(frozen=True)
class MinWeightResult:
    """Outcome of a randomized min-weight logical search."""

    weight: int
    vector: np.ndarray
    iterations_used: int

    def found(self) -> bool:
        return self.weight < np.iinfo(np.int64).max


def min_weight_logical(
    stabilizer_kernel_of: np.ndarray,
    logicals: np.ndarray,
    iterations: int = 100,
    rng: np.random.Generator | None = None,
    early_stop_weight: int | None = None,
    pair_search: bool = True,
) -> MinWeightResult:
    """Estimate min{|v| : stabilizer_kernel_of @ v = 0, logicals @ v != 0}.

    ``stabilizer_kernel_of`` is the check matrix whose kernel contains the
    candidate operators (e.g. ``hz`` when searching X-type logicals) and
    ``logicals`` the opposing logical matrix used to reject stabilizers
    (e.g. ``lz``).
    """
    rng = rng or np.random.default_rng()
    gen = gf2.nullspace(stabilizer_kernel_of)
    n = stabilizer_kernel_of.shape[1]
    logicals = np.atleast_2d(np.asarray(logicals, dtype=np.uint8))
    best_w = np.iinfo(np.int64).max
    best_v = np.zeros(n, dtype=np.uint8)
    if gen.shape[0] == 0:
        return MinWeightResult(best_w, best_v, 0)

    log_int = logicals.astype(np.int64)

    def consider(rows_dense: np.ndarray, used: int) -> tuple[int, np.ndarray]:
        nonlocal best_w, best_v
        flips = log_int @ rows_dense.T.astype(np.int64) % 2
        is_logical = flips.any(axis=0)
        weights = rows_dense.sum(axis=1)
        for idx in np.nonzero(is_logical)[0]:
            if weights[idx] < best_w:
                best_w = int(weights[idx])
                best_v = rows_dense[idx].copy()
        return best_w, best_v

    it = 0
    for it in range(1, iterations + 1):
        perm = rng.permutation(n)
        permuted = BitMatrix.from_dense(gen[:, perm])
        permuted.row_reduce()
        reduced = permuted.to_dense()
        reduced = reduced[reduced.any(axis=1)]
        # Undo the permutation so harvested rows are codewords of the code.
        unperm = np.empty_like(reduced)
        unperm[:, perm] = reduced
        consider(unperm, it)
        if pair_search and reduced.shape[0] >= 2:
            packed = BitMatrix.from_dense(unperm)
            m = packed.nrows
            # Lee-Brickell order 2: XOR of each pair of reduced rows.
            pair_rows = []
            for i in range(m - 1):
                xors = packed.words[i + 1 :] ^ packed.words[i]
                w = popcount_u64(xors).sum(axis=1)
                keep = np.nonzero(w < best_w)[0]
                for j in keep:
                    pair_rows.append(unperm[i] ^ unperm[i + 1 + j])
            if pair_rows:
                consider(np.array(pair_rows, dtype=np.uint8), it)
        if early_stop_weight is not None and best_w <= early_stop_weight:
            break
    return MinWeightResult(best_w, best_v, it)


def estimate_distance(
    code: CSSCode,
    iterations: int = 100,
    rng: np.random.Generator | None = None,
) -> int:
    """Upper-bound estimate of the code distance min(d_X, d_Z)."""
    rng = rng or np.random.default_rng()
    dx = min_weight_logical(
        code.hz,
        code.lz,
        iterations=iterations,
        rng=rng,
        early_stop_weight=code.distance,
    )
    dz = min_weight_logical(
        code.hx,
        code.lx,
        iterations=iterations,
        rng=rng,
        early_stop_weight=code.distance,
    )
    return int(min(dx.weight, dz.weight))
