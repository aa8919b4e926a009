"""Belief propagation + ordered-statistics decoding (BP-LSD substitute).

The paper decodes its LP and RQT codes with BP-LSD [20]; the reproduction
uses the closely-related BP+OSD-0 pipeline: normalized min-sum BP on the
full circuit-level check matrix, and when BP fails to converge, an OSD-0
post-processing step that solves the syndrome exactly on the most
reliable information set.

Min-sum BP (:func:`repro.gf2.kernels.bp_min_sum`) starts every
variable-to-check message at the column's prior LLR in float32.  A check
sends each edge 0.8 (a float32) times the smallest ``|v2c|`` among the
row's other edges, capped at 25, and negative iff the syndrome bit XOR
the parity of the other edges' negative messages is 1; that product and
every later message are float64.  A column sums its incoming messages in
float64 (in numpy's ``add.reduceat`` order) and stores the sum as
float32; the posterior is the float32 prior plus that sum, and the next
message is the posterior minus the edge's own incoming one.  BP stops at
the first iteration whose hard decisions (posterior < 0) reproduce the
syndrome.  Both kernel backends pin this arithmetic bit for bit.

OSD (:func:`repro.gf2.kernels.osd_basis`) ranks the columns by posterior
(most-likely error first, ties in column order), takes the greedy basis
of H's columns in that order, and solves the syndrome on it.  OSD-CS
(``osd_order > 0``) reads each swept free column's pivot sum off the
same basis.
"""

from __future__ import annotations

import numpy as np

from ..gf2 import kernels
from ..gf2.bitmat import unpack_rows
from ..sim.dem import DetectorErrorModel
from .base import Decoder


class BpOsdDecoder(Decoder):
    """Normalized min-sum BP with OSD-0 fallback on the full DEM."""

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
        self.h, self.l = dem.check_matrices()
        probs = np.clip(dem.probabilities(), 1e-12, 0.5 - 1e-9)
        self.prior_llr = np.log((1 - probs) / probs)

        # Edges in CSR (row-major) order.  Every detector must touch at
        # least one mechanism or the numpy kernel's segment reductions
        # would silently misalign.
        row_counts = np.diff(self.h.indptr)
        if (row_counts == 0).any():
            raise ValueError("DEM has a detector with no incident errors")
        self.graph = kernels.TannerGraph.from_edges(
            np.repeat(np.arange(dem.num_detectors), row_counts),
            self.h.indices,
            dem.num_detectors,
            self.prior_llr,
        )
        # OSD's packed columns of H and rank(H), built on first use.
        self._h_cols: np.ndarray | None = None
        self._rank: int | None = None
        self.bp_batch_size = 128

    @property
    def cache_namespace(self) -> str:
        # Every knob that changes BP+OSD output addresses a different
        # persistent cache file.
        return (
            f"bposd:i{self.max_iterations}:osd{int(self.osd)}"
            f":cs{self.osd_order}"
        )

    def _bp(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(decisions, converged, float32 posterior) per syndrome row."""
        return kernels.bp_min_sum(self.graph, syndromes, self.max_iterations)

    # -- OSD ---------------------------------------------------------------------

    def _osd(self, syndrome: np.ndarray, posterior: np.ndarray) -> np.ndarray:
        """Most-reliable-basis solve: H e = s with columns ranked by BP."""
        num_errors = self.dem.num_errors
        num_detectors = self.dem.num_detectors
        if self._h_cols is None:
            self._h_cols = self.dem.detector_words()
            self._rank = len(
                kernels.osd_basis(
                    self._h_cols,
                    num_detectors,
                    np.arange(num_errors),
                    np.zeros(num_detectors, dtype=np.uint8),
                    None,
                    0,
                ).pivots
            )
        # Most-likely error (lowest LLR) first; a stable sort keeps tied
        # columns in index order on every CPU.
        order = np.argsort(posterior, kind="stable")
        basis = kernels.osd_basis(
            self._h_cols, num_detectors, order, syndrome, self._rank, self.osd_order
        )
        if basis.solution is None:
            # Inconsistent syndrome (cannot happen for sampled syndromes).
            return np.zeros(num_errors, dtype=np.uint8)
        e_perm = np.zeros(num_errors, dtype=np.uint8)
        e_perm[basis.pivots] = basis.solution
        if self.osd_order > 0:
            e_perm = self._osd_combination_sweep(e_perm, basis, order)
        e = np.zeros(num_errors, dtype=np.uint8)
        e[order] = e_perm
        return e

    def _osd_combination_sweep(
        self, e0_perm: np.ndarray, basis: kernels.OsdBasis, order: np.ndarray
    ) -> np.ndarray:
        """OSD-CS: flip the most plausible free columns and keep the
        candidate with the lowest total log-likelihood cost."""
        llr_perm = self.prior_llr[order]

        def cost(e_perm: np.ndarray) -> float:
            return float(llr_perm[e_perm.astype(bool)].sum())

        def flip(base: np.ndarray, f: int) -> np.ndarray:
            # Free column f plus the pivots summing to it: a kernel vector.
            out = base.copy()
            out[basis.free[f]] ^= 1
            out[basis.pivots[basis.combos[f].astype(bool)]] ^= 1
            return out

        best, best_cost = e0_perm, cost(e0_perm)
        singles: list[tuple[float, int, np.ndarray]] = []
        for f in range(len(basis.free)):
            cand = flip(e0_perm, f)
            c = cost(cand)
            singles.append((c, f, cand))
            if c < best_cost:
                best, best_cost = cand, c
        # Greedy order-2: the best single flip combined with the next-best
        # flip on a different column (flip() per column is an involution,
        # so stacking them yields the genuine pair candidate).
        if len(singles) >= 2:
            singles.sort(key=lambda t: t[0])
            _, f_a, cand_a = singles[0]
            for _, f_b, _ in singles[1:]:
                if f_b != f_a:
                    pair = flip(cand_a, f_b)
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
                    e = self._osd(batch[j], posterior[j])
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
            # Without this guard the numpy kernel's segment reductions
            # choke on empty row segments.
            return np.zeros((shots, self.dem.num_observables), dtype=np.uint8)

        # Deduplicate syndromes (sub-threshold sampling repeats them a lot).
        unique, inverse = np.unique(detectors, axis=0, return_inverse=True)
        # numpy 2.0 reshaped the axis-aware inverse to keep the input's
        # dimensionality (reverted to flat in 2.1); flatten so indexing
        # below is correct on 1.x, 2.0.x, and 2.1+.
        inverse = np.asarray(inverse).reshape(-1)
        results = self._decode_unique_dense(unique)
        return results[inverse]
