"""Belief propagation + ordered-statistics decoding (BP-LSD substitute).

The paper decodes its LP and RQT codes with BP-LSD [20]; the reproduction
uses the closely-related BP+OSD-0 pipeline: sum-product BP on the full
circuit-level check matrix, and when BP fails to converge, an OSD-0
post-processing step that Gaussian-eliminates the check matrix in order
of BP reliability and solves the syndrome exactly on the most-likely
information set.

BP is batched: all shots in a batch iterate together as (edges, shots)
message arrays, so per-iteration work is a handful of ``np.add.reduceat``
segment reductions.
"""

from __future__ import annotations

import numpy as np

from ..gf2.bitmat import BitMatrix, unpack_rows
from ..sim.dem import DetectorErrorModel
from .base import Decoder

_LLR_CLIP = 25.0
_TANH_CLIP = 0.999999999999


class BpOsdDecoder(Decoder):
    """Sum-product BP with OSD-0 fallback on the full DEM."""

    def __init__(
        self,
        dem: DetectorErrorModel,
        max_iterations: int = 30,
        osd: bool = True,
        osd_order: int = 0,
    ):
        """``osd_order`` > 0 enables the combination-sweep search (OSD-CS):
        after the order-0 solve, single flips and the greedy pair of the
        ``osd_order`` least-reliable information-set columns are also
        tried, keeping the lowest soft-weighted candidate."""
        super().__init__(dem)
        self.max_iterations = max_iterations
        self.osd = osd
        self.osd_order = osd_order
        h, l = dem.check_matrices()
        self.h = h.tocsr()
        self.l = l.tocsr()
        probs = np.clip(dem.probabilities(), 1e-12, 0.5 - 1e-9)
        self.prior_llr = np.log((1 - probs) / probs)

        # Edge list in CSR (row-major) order.
        coo = self.h.tocoo()
        order = np.lexsort((coo.col, coo.row))
        self.edge_row = coo.row[order]
        self.edge_col = coo.col[order]
        self.num_edges = len(self.edge_row)
        # Row segment starts for reduceat (rows are contiguous).  Every
        # detector must touch at least one mechanism or the segment
        # reductions would silently misalign.
        row_counts = np.bincount(self.edge_row, minlength=dem.num_detectors)
        if (row_counts == 0).any():
            raise ValueError("DEM has a detector with no incident errors")
        row_starts = np.searchsorted(self.edge_row, np.arange(dem.num_detectors))
        self.row_starts = row_starts
        # Column gathering: edges sorted by column.  Only columns that
        # actually touch a check get a reduceat segment — a mechanism
        # with no detector support (e.g. an undetectable logical) would
        # otherwise shift every later segment and silently corrupt the
        # variable-node update (or index past the edge list).
        self.col_order = np.argsort(self.edge_col, kind="stable")
        self.col_order_inv = np.argsort(self.col_order, kind="stable")
        self.col_sorted = self.edge_col[self.col_order]
        col_counts = np.bincount(self.edge_col, minlength=dem.num_errors)
        self.cols_present = np.nonzero(col_counts)[0]
        self.col_starts = np.searchsorted(self.col_sorted, self.cols_present)
        self._h_dense = np.asarray(self.h.todense(), dtype=np.uint8)
        self.bp_batch_size = 128

    @property
    def cache_namespace(self) -> str:
        # Every knob that changes BP+OSD output addresses a different
        # persistent cache file.
        return (
            f"bposd:i{self.max_iterations}:osd{int(self.osd)}"
            f":cs{self.osd_order}"
        )

    # -- BP core ----------------------------------------------------------------

    def _bp(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched normalized min-sum BP.

        ``syndromes``: (shots, D).  Returns (hard_decisions (shots, E),
        converged (shots,), posterior_llr (shots, E)).  Shots that satisfy
        their syndrome are compacted out of the message arrays, so the
        cost tracks the hard shots only.
        """
        shots, _ = syndromes.shape
        num_errors = self.dem.num_errors
        scale = np.float32(0.8)  # standard min-sum normalization
        prior_edge = self.prior_llr[self.edge_col].astype(np.float32)[:, None]

        active = np.arange(shots)
        var_to_check = np.tile(prior_edge, (1, shots))
        sign_target = (1.0 - 2.0 * syndromes.T[self.edge_row]).astype(np.float32)

        decisions = np.zeros((shots, num_errors), dtype=np.uint8)
        posterior = np.tile(
            self.prior_llr.astype(np.float32)[None, :], (shots, 1)
        )
        converged = np.zeros(shots, dtype=bool)

        for _ in range(self.max_iterations):
            # Check-node update: extrinsic sign and min|.| per row.
            mag = np.abs(var_to_check)
            neg = (var_to_check < 0)
            row_neg = np.add.reduceat(neg.astype(np.int8), self.row_starts, axis=0)
            ext_neg = (row_neg[self.edge_row] - neg) & 1
            row_min1 = np.minimum.reduceat(mag, self.row_starts, axis=0)
            at_min = mag == row_min1[self.edge_row]
            min_count = np.add.reduceat(at_min.astype(np.int8), self.row_starts, axis=0)
            mag_no_min = np.where(at_min, np.float32(np.inf), mag)
            row_min2 = np.minimum.reduceat(mag_no_min, self.row_starts, axis=0)
            row_min2 = np.where(min_count > 1, row_min1, row_min2)
            ext_min = np.where(
                at_min & (min_count[self.edge_row] == 1),
                row_min2[self.edge_row],
                row_min1[self.edge_row],
            )
            ext_min = np.minimum(ext_min, np.float32(_LLR_CLIP))
            check_to_var = scale * sign_target * (1.0 - 2.0 * ext_neg) * ext_min
            # Variable-node update.
            ctv_col = check_to_var[self.col_order]
            col_sum = np.zeros((num_errors, ctv_col.shape[1]), dtype=np.float32)
            col_sum[self.cols_present] = np.add.reduceat(
                ctv_col, self.col_starts, axis=0
            )
            post = self.prior_llr.astype(np.float32)[None, :] + col_sum.T
            var_to_check = prior_edge + col_sum[self.edge_col] - check_to_var
            # Hard decision + convergence; compact out converged shots.
            dec = (post < 0).astype(np.uint8)
            syn_hat = (self.h.dot(dec.T) % 2).astype(np.uint8).T
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
                sign_target = (
                    1.0 - 2.0 * syndromes[active].T[self.edge_row]
                ).astype(np.float32)
        return decisions, converged, posterior.astype(np.float64)

    # -- OSD-0 -------------------------------------------------------------------

    def _osd0(self, syndrome: np.ndarray, posterior: np.ndarray) -> np.ndarray:
        """Most-reliable-basis solve: H e = s with columns ranked by BP."""
        num_errors = self.dem.num_errors
        order = np.argsort(posterior)  # most-likely-error (lowest LLR) first
        permuted = np.concatenate(
            [self._h_dense[:, order], syndrome[:, None].astype(np.uint8)], axis=1
        )
        aug = BitMatrix.from_dense(permuted)
        pivots = aug.row_reduce(ncols=num_errors)
        reduced = aug.to_dense()
        rank = len(pivots)
        if np.any(reduced[rank:, -1]):
            # Inconsistent syndrome (cannot happen for sampled syndromes).
            return np.zeros(num_errors, dtype=np.uint8)
        e_perm = np.zeros(num_errors, dtype=np.uint8)
        for r, c in enumerate(pivots):
            e_perm[c] = reduced[r, -1]

        if self.osd_order > 0:
            e_perm = self._osd_combination_sweep(
                e_perm, reduced, pivots, order, rank
            )

        e = np.zeros(num_errors, dtype=np.uint8)
        e[order] = e_perm
        return e

    def _osd_combination_sweep(
        self,
        e0_perm: np.ndarray,
        reduced: np.ndarray,
        pivots: list[int],
        order: np.ndarray,
        rank: int,
    ) -> np.ndarray:
        """OSD-CS: flip the most plausible free columns and keep the
        candidate with the lowest total log-likelihood cost."""
        num_errors = self.dem.num_errors
        pivot_set = set(pivots)
        free_cols = [c for c in range(num_errors) if c not in pivot_set]
        sweep = free_cols[: self.osd_order]
        llr_perm = self.prior_llr[order]

        def cost(e_perm: np.ndarray) -> float:
            return float(llr_perm[e_perm.astype(bool)].sum())

        def flip(base: np.ndarray, col: int) -> np.ndarray:
            out = base.copy()
            out[col] ^= 1
            for r in range(rank):
                if reduced[r, col]:
                    out[pivots[r]] ^= 1
            return out

        best, best_cost = e0_perm, cost(e0_perm)
        singles: list[tuple[float, int, np.ndarray]] = []
        for col in sweep:
            cand = flip(e0_perm, col)
            c = cost(cand)
            singles.append((c, col, cand))
            if c < best_cost:
                best, best_cost = cand, c
        # Greedy order-2: the best single flip combined with the next-best
        # flip on a different column (flip() per column is an involution,
        # so stacking them yields the genuine pair candidate).
        if len(singles) >= 2:
            singles.sort(key=lambda t: t[0])
            _, col_a, cand_a = singles[0]
            for _, col_b, _ in singles[1:]:
                if col_b != col_a:
                    pair = flip(cand_a, col_b)
                    c = cost(pair)
                    if c < best_cost:
                        best, best_cost = pair, c
                    break
        return best

    # -- public API ----------------------------------------------------------------

    def _decode_unique_dense(self, unique: np.ndarray) -> np.ndarray:
        """Decode already-deduplicated dense syndromes.

        ``unique``: ``(groups, num_detectors)`` distinct syndromes.
        Both decode entry points funnel here, so the dense and packed
        paths share one BP/OSD pipeline.
        """
        unique = np.asarray(unique, dtype=np.uint8)
        results = np.zeros((unique.shape[0], self.dem.num_observables), dtype=np.uint8)
        for start in range(0, unique.shape[0], self.bp_batch_size):
            batch = unique[start : start + self.bp_batch_size]
            decisions, converged, posterior = self._bp(batch)
            for j in range(batch.shape[0]):
                if converged[j] or not self.osd:
                    e = decisions[j]
                else:
                    e = self._osd0(batch[j], posterior[j])
                results[start + j] = (self.l.dot(e) % 2).astype(np.uint8)
        return results

    def _decode_unique_packed(self, unique: np.ndarray) -> np.ndarray:
        # BP+OSD consumes the deduplicated *dense* minority: unpack just
        # the distinct syndromes (a few rows, not the batch) and run the
        # BP/OSD pipeline on them.
        return self._decode_unique_dense(
            unpack_rows(unique, self.dem.num_detectors)
        )

    def decode_batch(self, detectors: np.ndarray) -> np.ndarray:
        detectors = np.asarray(detectors, dtype=np.uint8)
        shots = detectors.shape[0]
        if self.dem.num_detectors == 0:
            # No checks: BP trivially converges to the all-zero error
            # (priors all favor "no flip"), so every prediction is zero.
            # Without this guard the segment reductions in ``_bp`` choke
            # on empty row segments.
            return np.zeros((shots, self.dem.num_observables), dtype=np.uint8)

        # Deduplicate syndromes (sub-threshold sampling repeats them a lot).
        unique, inverse = np.unique(detectors, axis=0, return_inverse=True)
        # numpy 2.0 reshaped the axis-aware inverse to keep the input's
        # dimensionality (reverted to flat in 2.1); flatten so indexing
        # below is correct on 1.x, 2.0.x, and 2.1+.
        inverse = np.asarray(inverse).reshape(-1)
        results = self._decode_unique_dense(unique)
        return results[inverse]
