"""Stratified rare-event logical-error-rate estimation.

Combines the pieces of this package into one estimator::

    P_L = sum_k P(W = k) * P(fail | W = k)

with ``P(W = k)`` exact (:mod:`repro.rareevent.weights`) and
``P(fail | W = k)`` measured by conditional Monte Carlo
(:mod:`repro.rareevent.sampler` via
:func:`repro.experiments.shotrunner.run_stratified_chunks`).  Direct
Monte Carlo cannot resolve rates below ~1/shots; here each stratum only
needs enough shots to pin its *conditional* failure rate, so logical
error rates far below any feasible shot count fall out of thousands of
shots per stratum.

Shots are allocated adaptively across strata: after each round the
next round's budget is split Neyman-style, proportional to
``P(W=k) * sqrt(p_u (1 - p_u))`` with ``p_u`` the stratum's current
Wilson *upper* bound — optimistic for undersampled strata, so
exploration pays down exactly the strata that still dominate the
interval.  The interval combines delta-method stratum variances, exact
rule-of-three bounds for zero-failure strata, and the analytic weight
tail, all at a configurable confidence level.

Determinism: allocations depend only on accumulated per-stratum counts
and every chunk's RNG substream is spawned from the caller's seed root
in a fixed order, so the full adaptive estimate is a pure function of
the seed for any ``workers`` count.

The estimator compiles the decoder (or takes ``config.dec``) and the
fixed-weight sampler once, and every round runs on one
:class:`repro.core.parallel.FanOut` over them: at most one process
pool per estimate, whose workers only run that state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..analysis.stats import (
    DEFAULT_CONFIDENCE,
    RateEstimate,
    rule_of_three_upper,
    wilson_interval,
    z_for_confidence,
)
from ..core.parallel import FanOut
from ..sim.bitbatch import WORD_BITS, BitSampleBatch, num_shot_words
from ..sim.dem import DetectorErrorModel
from .planner import StratumPlan, plan_strata
from .sampler import WeightStratifiedSampler

__all__ = ["StratumEstimate", "StratifiedEstimate", "estimate_ler_stratified"]

_ALIGN = WORD_BITS


@dataclass
class StratumEstimate:
    """Accumulated conditional failure statistics for one weight."""

    weight: int
    log_prob: float
    assume_zero: bool
    shots: int = 0
    failures: int = 0
    weighted_failures: float = 0.0
    weighted_sq: float = 0.0
    promoted: bool = False  # audit of an assume-zero stratum found a failure

    @property
    def prob(self) -> float:
        return math.exp(self.log_prob)

    @property
    def estimated(self) -> bool:
        """Does this stratum contribute a sampled term to the estimate?"""
        return not self.assume_zero or self.promoted

    @property
    def cond_rate(self) -> float:
        """Estimated P(fail | W = weight)."""
        if not self.estimated or self.shots == 0:
            return 0.0
        return self.weighted_failures / self.shots

    def cond_variance(self) -> float:
        """Variance of :attr:`cond_rate` (delta method, weighted form)."""
        if not self.estimated or self.shots == 0:
            return 0.0
        mean = self.weighted_failures / self.shots
        second = self.weighted_sq / self.shots
        return max(0.0, second - mean * mean) / self.shots

    def cond_interval(self, confidence: float) -> tuple[float, float]:
        return wilson_interval(self.failures, self.shots, confidence=confidence)


@dataclass
class StratifiedEstimate:
    """A stratified logical-error-rate estimate with full provenance.

    Duck-compatible with :class:`~repro.analysis.stats.RateEstimate`
    (``rate`` / ``interval`` / ``failures`` / ``shots``) so existing
    reporting code consumes it unchanged; :meth:`to_rate_estimate`
    collapses it into a real ``RateEstimate`` for combination across
    bases.
    """

    strata: list[StratumEstimate]
    log_zero: float
    zero_weight_fails: bool  # deterministic decode of the empty syndrome
    log_tail: float
    confidence: float = DEFAULT_CONFIDENCE
    mode: str = "proportional"
    rounds: int = 0
    converged: bool = False
    audit_violations: list[int] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.strata)

    @property
    def shots(self) -> int:
        """Total decoded shots across all strata (the estimator's cost)."""
        return sum(s.shots for s in self.strata)

    @property
    def tail_prob(self) -> float:
        return math.exp(self.log_tail)

    @property
    def rate(self) -> float:
        point = sum(s.prob * s.cond_rate for s in self.strata)
        if self.zero_weight_fails:
            point += math.exp(self.log_zero)
        return point

    def _sampling_halfwidth(self) -> float:
        z = z_for_confidence(self.confidence)
        variance = sum(s.prob * s.prob * s.cond_variance() for s in self.strata)
        return z * math.sqrt(variance)

    def _zero_stratum_upper(self) -> float:
        """Upper-edge mass from sampled strata that saw no failures."""
        return sum(
            s.prob * rule_of_three_upper(s.shots, self.confidence)
            for s in self.strata
            if s.estimated and s.failures == 0
        )

    @property
    def interval(self) -> tuple[float, float]:
        point = self.rate
        hw = self._sampling_halfwidth()
        upper_extra = self._zero_stratum_upper() + self.tail_prob
        return (max(0.0, point - hw), min(1.0, point + hw + upper_extra))

    @property
    def halfwidth(self) -> float:
        lo, hi = self.interval
        return (hi - lo) / 2.0

    def direct_mc_shots_for_same_ci(self) -> float:
        """Shots direct Monte Carlo would need for this absolute halfwidth.

        Normal-approximation shot count ``z^2 p (1-p) / hw^2`` — the
        denominator of the rare-event speedup this estimator reports.
        """
        p = self.rate
        hw = self.halfwidth
        if hw <= 0 or p <= 0:
            return math.inf
        z = z_for_confidence(self.confidence)
        return z * z * p * (1.0 - p) / (hw * hw)

    def to_rate_estimate(self) -> RateEstimate:
        point = self.rate
        lo, hi = self.interval
        return RateEstimate(
            failures=self.failures,
            shots=self.shots,
            confidence=self.confidence,
            point=point,
            halfwidth=max(point - lo, hi - point),
        )

    def to_dict(self) -> dict:
        """JSON-safe summary with full per-stratum provenance.

        What the campaign result store persists for rare-event jobs:
        the combined estimate, its exact interval edges (asymmetric —
        the upper edge carries zero-failure and tail mass), and every
        stratum's counts, so ``status``/``export`` and figure tables
        rebuild their rows without re-running the estimator.
        """
        lo, hi = self.interval
        equiv = self.direct_mc_shots_for_same_ci()
        return {
            "rate": self.rate,
            "lo": lo,
            "hi": hi,
            "decoded_shots": self.shots,
            "failures": self.failures,
            "converged": self.converged,
            "rounds": self.rounds,
            "confidence": self.confidence,
            "mode": self.mode,
            "audit_violations": list(self.audit_violations),
            "direct_mc_equiv": None if math.isinf(equiv) else equiv,
            "strata": self.summary_rows(),
        }

    def summary_rows(self) -> list[dict]:
        """Per-stratum rows for experiment tables / CLI printing."""
        rows = []
        for s in sorted(self.strata, key=lambda s: s.weight):
            status = "sampled" if s.estimated else "assumed-zero"
            if s.promoted:
                status = "promoted"
            rows.append(
                {
                    "weight": s.weight,
                    "prob": s.prob,
                    "shots": s.shots,
                    "failures": s.failures,
                    "cond_rate": s.cond_rate,
                    "contribution": s.prob * s.cond_rate,
                    "status": status,
                }
            )
        return rows

    def __repr__(self) -> str:
        lo, hi = self.interval
        return (
            f"StratifiedEstimate({self.rate:.3e} [{lo:.1e}, {hi:.1e}], "
            f"decoded_shots={self.shots}, strata={len(self.strata)}, "
            f"converged={self.converged})"
        )


def _zero_weight_fails(dem: DetectorErrorModel, dec) -> bool:
    """Does the decoder mispredict the all-zero (no-error) shot?"""
    if dem.num_observables == 0:
        return False
    batch = BitSampleBatch(
        detectors=np.zeros((dem.num_detectors, num_shot_words(1)), dtype=np.uint64),
        observables=np.zeros((dem.num_observables, num_shot_words(1)), dtype=np.uint64),
        shots=1,
    )
    return dec.count_failures_packed(batch) > 0


def _align_down(shots: int) -> int:
    return (shots // _ALIGN) * _ALIGN


def _allocate(
    strata: list[StratumEstimate], budget: int, confidence: float
) -> list[tuple[int, int]]:
    """Neyman-style split of ``budget`` shots across active strata.

    Allocation weight is ``P_k * sqrt(p_u (1 - p_u))`` with ``p_u`` the
    Wilson upper bound of the stratum's conditional rate — optimistic
    where data is thin, proportional to the true standard deviation
    where it is not.  Audited-clean assume-zero strata get nothing.
    """
    active = [s for s in strata if s.estimated]
    if not active or budget < _ALIGN:
        return []
    scores = []
    for s in active:
        _, upper = s.cond_interval(confidence)
        scores.append(s.prob * math.sqrt(max(upper * (1.0 - upper), 0.0)))
    total = sum(scores)
    if total <= 0:
        return []
    allocations = []
    for s, score in zip(active, scores):
        shots = _align_down(int(budget * score / total))
        if shots > 0:
            allocations.append((s.weight, shots))
    if not allocations:
        # Budget too small to split: give it to the neediest stratum.
        best = max(zip(active, scores), key=lambda pair: pair[1])[0]
        allocations.append((best.weight, _align_down(budget)))
    return allocations


def estimate_ler_stratified(
    dem: DetectorErrorModel,
    basis: str = "z",
    decoder: str = "auto",
    rng: np.random.Generator | None = None,
    plan: StratumPlan | None = None,
    min_failure_weight: int = 1,
    tail_epsilon: float = 1e-6,
    max_weight: int | None = None,
    target_rel_halfwidth: float = 0.1,
    target_halfwidth: float | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
    initial_shots: int = 512,
    max_shots: int = 2_000_000,
    max_rounds: int = 16,
    mode: str = "proportional",
    config=None,
) -> StratifiedEstimate:
    """Weight-stratified logical error rate of one DEM.

    Runs adaptive rounds of fixed-weight conditional sampling until the
    interval halfwidth drops to ``target_rel_halfwidth * rate`` (or the
    absolute ``target_halfwidth``, when given), the ``max_shots``
    decoded-shot budget is spent, or ``max_rounds`` pass.  See the
    module docstring for the estimator and its guarantees; see
    :func:`~repro.rareevent.planner.plan_strata` for
    ``min_failure_weight`` / ``tail_epsilon`` / ``max_weight``.

    Execution knobs ride ``config``, an
    :class:`~repro.experiments.shotrunner.ExecutionConfig`: ``workers``,
    ``chunk_shots``, ``dec`` (a pre-built decoder, e.g. the campaign's
    compile cache) and the syndrome cache.  Its ``sampler``,
    ``max_failures`` and ``dense_reference`` have no use here and are
    ignored.  The estimate is a pure function of ``rng``'s seed root
    for any ``workers`` count, which is how the campaign engine
    re-enters it: a resumed campaign re-derives the same seed and gets
    a byte-identical estimate.

    ``mode="uniform"`` draws uniform instead of conditional subsets and
    reweights (Horvitz-Thompson); zero-failure bounds are then heuristic,
    so proportional mode is the default and the recommended path.
    """
    # Imported here: shotrunner imports this package's sampler.
    from ..experiments.shotrunner import (
        ExecutionConfig,
        compiled_decoder,
        run_stratified_chunks,
    )

    cfg = config or ExecutionConfig()
    rng = rng or np.random.default_rng()
    if plan is None:
        plan = plan_strata(
            dem,
            min_failure_weight=min_failure_weight,
            tail_epsilon=tail_epsilon,
            max_weight=max_weight,
        )
    strata = [
        StratumEstimate(
            weight=s.weight, log_prob=s.log_prob, assume_zero=s.assume_zero
        )
        for s in plan.strata
    ]
    by_weight = {s.weight: s for s in strata}
    dec = compiled_decoder(dem, basis, decoder, cfg)
    estimate = StratifiedEstimate(
        strata=strata,
        log_zero=plan.log_zero,
        zero_weight_fails=_zero_weight_fails(dem, dec),
        log_tail=plan.log_tail,
        confidence=confidence,
        mode=mode,
    )
    if not strata:
        estimate.converged = True
        return estimate
    # Compiled once; every adaptive round runs on this one fan-out and
    # shares its pool, if it opens one.
    sampler = WeightStratifiedSampler(dem, max_weight=plan.max_weight)
    fan = FanOut((sampler, dec, mode), cfg.workers)

    def _target() -> float:
        if target_halfwidth is not None:
            return target_halfwidth
        return target_rel_halfwidth * estimate.rate

    def _run_round(allocations: list[tuple[int, int]]) -> None:
        tallies = run_stratified_chunks(
            dem, allocations, rng=rng, config=cfg, fanout=fan
        )
        for weight, tally in tallies.items():
            s = by_weight[weight]
            s.shots += tally.shots
            s.failures += tally.failures
            s.weighted_failures += tally.weighted_failures
            s.weighted_sq += tally.weighted_sq
            if s.assume_zero and s.failures > 0 and not s.promoted:
                s.promoted = True
                estimate.audit_violations.append(weight)

    with fan:
        # Round 0: seed every stratum — audit shots for assume-zero
        # strata, a variance bootstrap for the rest.  The seeding
        # respects the total budget: with max_shots below
        # strata * initial_shots, later strata get less (or nothing)
        # rather than overshooting.
        first = max(_ALIGN, _align_down(initial_shots))
        seed_alloc = []
        remaining = max_shots
        for s in strata:
            shots = min(first, _align_down(remaining))
            if shots <= 0:
                break
            seed_alloc.append((s.weight, shots))
            remaining -= shots
        _run_round(seed_alloc)
        estimate.rounds = 1

        while estimate.rounds < max_rounds:
            target = _target()
            if target > 0 and estimate.halfwidth <= target:
                break
            used = estimate.shots
            budget = min(max_shots - used, max(used, _ALIGN))
            allocations = _allocate(strata, budget, confidence)
            if not allocations:
                break
            _run_round(allocations)
            estimate.rounds += 1
    target = _target()
    estimate.converged = bool(target > 0 and estimate.halfwidth <= target)
    return estimate
