"""Conditional fixed-weight error sampling.

Draws error subsets of a :class:`~repro.sim.dem.DetectorErrorModel`
*conditioned on exactly k mechanisms firing* and emits them as packed
:class:`~repro.sim.bitbatch.BitSampleBatch` shots, so the packed
decode/count hot path (``decode_batch_packed`` /
``count_failures_packed``) runs on rare-event strata completely
unchanged.

Two conditioning modes:

``proportional`` (default)
    The exact conditional distribution ``P(S | |S| = k)`` of the
    model's independent Bernoulli mechanisms — conditional-Bernoulli
    sampling.  Stratum failure frequencies are then directly unbiased
    estimates of ``P(fail | W = k)`` with no reweighting.

``uniform``
    Uniform over all k-subsets of mechanisms, with per-shot log
    importance weights (relative to the conditional distribution)
    returned alongside, for Horvitz-Thompson-style reweighted
    estimates.

Sampling uses *first-fire jumping*: conditioned on needing ``m`` more
fires from mechanisms ``j..``, the position of the next fired mechanism
has an explicit distribution built from the Poisson-binomial suffix
table (:mod:`repro.rareevent.weights`), so each shot costs ``k`` binary
searches instead of a Bernoulli walk over all mechanisms.  Uniform mode
is the same machinery run on constant probabilities (conditioning any
i.i.d. Bernoulli vector on weight k is uniform over k-subsets).
"""

from __future__ import annotations

import math

import numpy as np

from ..sim.bitbatch import BitSampleBatch
from ..sim.dem import DetectorErrorModel
from ..sim.sampler import DemSampler
from .weights import WeightDistribution, log_weight_distribution

__all__ = ["WeightStratifiedSampler"]


def _jump_tables(
    log_p: np.ndarray, log_q: np.ndarray, dist: WeightDistribution
) -> list[np.ndarray | None]:
    """Per-remaining-count cumulative first-fire mass tables.

    Entry ``m`` is the inclusive cumulative sum over positions ``j`` of
    ``P(no fire in 0..j-1) * p_j * P(exactly m-1 fires in j+1..)`` —
    proportional to "the next fire is at j" when ``m`` fires are still
    needed.  Each table is normalized by its peak before
    exponentiating, so spans of hundreds of log-decades stay finite.
    """
    num = log_p.size
    prefix_q = np.concatenate([[0.0], np.cumsum(log_q)])  # log P(no fire < j)
    tables: list[np.ndarray | None] = [None]  # m = 0 never jumps
    for m in range(1, dist.max_weight + 1):
        log_mass = prefix_q[:num] + log_p + dist.log_suffix[1:, m - 1]
        finite = log_mass[np.isfinite(log_mass)]
        if finite.size == 0:
            tables.append(None)  # weight m unreachable
            continue
        tables.append(np.cumsum(np.exp(log_mass - finite.max())))
    return tables


class WeightStratifiedSampler:
    """Compiled fixed-weight sampler for one DEM.

    ``max_weight`` bounds the strata this instance can draw from (it
    sizes the suffix/jump tables).  Zero-probability mechanisms are
    dropped up front; indices returned by the fire-level API refer to
    the original DEM mechanism order.
    """

    def __init__(self, dem: DetectorErrorModel, max_weight: int):
        if max_weight < 1:
            raise ValueError("max_weight must be at least 1")
        self.dem = dem
        all_probs = dem.probabilities()
        self.mech_index = np.nonzero(all_probs > 0)[0]
        self.probs = all_probs[self.mech_index]
        if self.probs.size and self.probs.max() >= 1.0:
            raise ValueError("deterministic (p >= 1) mechanisms are not supported")
        self.max_weight = max_weight
        with np.errstate(divide="ignore"):
            self._log_p = np.log(self.probs)
        self._log_q = np.log1p(-self.probs)
        self.dist = log_weight_distribution(self.probs, max_weight)
        self._jump = _jump_tables(self._log_p, self._log_q, self.dist)
        self._uniform_jump: list[np.ndarray | None] | None = None
        self._packer = DemSampler(dem)

    # -- fire-level API ------------------------------------------------------

    def _tables_for(self, mode: str) -> list[np.ndarray | None]:
        if mode == "proportional":
            return self._jump
        if mode == "uniform":
            if self._uniform_jump is None:
                # Constant-probability Bernoullis conditioned on weight k
                # are uniform over k-subsets; 1/2 keeps the tables tame.
                num = self.probs.size
                const = np.full(num, 0.5)
                dist = log_weight_distribution(const, self.max_weight)
                self._uniform_jump = _jump_tables(
                    np.log(const), np.log1p(-const), dist
                )
            return self._uniform_jump
        raise ValueError(f"unknown sampling mode {mode!r}")

    def sample_fires_at_weight(
        self,
        k: int,
        shots: int,
        rng: np.random.Generator,
        mode: str = "proportional",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``shots`` subsets of exactly ``k`` mechanisms.

        Returns ``(shot_idx, mech_idx)`` fire-event arrays (mechanism
        indices in original DEM order, ``k`` per shot), the same format
        :meth:`~repro.sim.sampler.DemSampler.batch_from_fires` consumes.
        """
        if not 1 <= k <= self.max_weight:
            raise ValueError(f"weight {k} outside [1, {self.max_weight}]")
        tables = self._tables_for(mode)
        if k > self.probs.size or tables[k] is None:
            raise ValueError(f"weight-{k} errors are impossible for this model")
        if shots <= 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        position = np.zeros(shots, dtype=np.int64)  # next candidate mechanism
        picks = np.empty((k, shots), dtype=np.int64)
        for t in range(k):
            cum = tables[k - t]
            base = np.where(position > 0, cum[position - 1], 0.0)
            tail_mass = cum[-1] - base
            if not (tail_mass > 0).all():
                raise RuntimeError(
                    "conditional mass underflowed; split the stratum or "
                    "rescale mechanism probabilities"
                )
            target = base + rng.random(shots) * tail_mass
            chosen = np.searchsorted(cum, target, side="right")
            np.minimum(chosen, cum.size - 1, out=chosen)
            picks[t] = chosen
            position = chosen + 1
        shot_idx = np.repeat(np.arange(shots, dtype=np.int64), k)
        mech_idx = self.mech_index[picks.T.ravel()]
        return shot_idx, mech_idx

    def log_importance_weights(
        self, shot_idx: np.ndarray, mech_idx: np.ndarray, k: int, shots: int
    ) -> np.ndarray:
        """Per-shot ``log[P_conditional(S) / P_uniform(S)]``.

        For fires drawn in ``uniform`` mode, multiplying the failure
        indicator by ``exp`` of this weight makes the stratum mean an
        unbiased estimate under the conditional distribution.
        """
        local = np.searchsorted(self.mech_index, mech_idx)
        log_odds = self._log_p[local] - self._log_q[local]
        per_shot = np.zeros(shots)
        np.add.at(per_shot, shot_idx, log_odds)
        num = self.probs.size
        log_binom = (
            math.lgamma(num + 1) - math.lgamma(k + 1) - math.lgamma(num - k + 1)
        )
        log_cond_norm = self.dist.log_pmf[k] - self._log_q.sum()
        return per_shot - log_cond_norm + log_binom

    # -- packed batches ------------------------------------------------------

    def sample_at_weight(
        self,
        k: int,
        shots: int,
        rng: np.random.Generator,
        mode: str = "proportional",
    ) -> BitSampleBatch:
        """Packed detector/observable batch of ``shots`` weight-``k`` errors."""
        batch, _ = self.sample_at_weight_with_log_weights(
            k, shots, rng, mode=mode, want_weights=False
        )
        return batch

    def sample_at_weight_with_log_weights(
        self,
        k: int,
        shots: int,
        rng: np.random.Generator,
        mode: str = "proportional",
        want_weights: bool = True,
    ) -> tuple[BitSampleBatch, np.ndarray | None]:
        """Like :meth:`sample_at_weight`, optionally with per-shot log
        importance weights (zeros in ``proportional`` mode)."""
        shot_idx, mech_idx = self.sample_fires_at_weight(k, shots, rng, mode=mode)
        batch = self._packer.batch_from_fires(shot_idx, mech_idx, shots)
        if not want_weights:
            return batch, None
        if mode == "proportional":
            return batch, np.zeros(shots)
        return batch, self.log_importance_weights(shot_idx, mech_idx, k, shots)
