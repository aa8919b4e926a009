"""Tests for the weight-stratified rare-event estimation subsystem.

Pins the three claims the subsystem rests on: the Poisson-binomial
weight distribution is *exact* (brute-force enumeration), the
fixed-weight sampler draws from the *true conditional* distribution
(marginal inclusion frequencies), and the stratified estimator is an
*unbiased, worker-count-independent* replacement for direct Monte
Carlo (cross-check within confidence intervals on real DEMs).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import coloration_schedule, nz_schedule
from repro.codes import load_benchmark_code, rotated_surface_code
from repro.decoders.metrics import dem_for
from repro.experiments.shotrunner import (
    ExecutionConfig,
    run_shot_chunks,
    run_stratified_chunks,
)
from repro.noise import NoiseModel
from repro.rareevent import (
    WeightStratifiedSampler,
    estimate_ler_stratified,
    log_weight_distribution,
    plan_strata,
)
from repro.rareevent.estimator import StratifiedEstimate, StratumEstimate
from repro.sim.dem import DetectorErrorModel, ErrorMechanism


def brute_force_pmf(probs: np.ndarray, kmax: int) -> tuple[np.ndarray, float]:
    """Exact weight pmf by enumerating all 2^E subsets (E <= ~15)."""
    num = len(probs)
    masks = np.arange(1 << num, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(num)) & 1
    weights = bits.sum(axis=1)
    terms = np.where(bits == 1, probs, 1.0 - probs).prod(axis=1)
    pmf = np.array(
        [terms[weights == k].sum() for k in range(kmax + 1)], dtype=np.float64
    )
    tail = terms[weights > kmax].sum()
    return pmf, float(tail)


def tiny_dem(probs, num_detectors=2) -> DetectorErrorModel:
    """A synthetic DEM whose mechanisms have the given probabilities."""
    mechanisms = [
        ErrorMechanism(
            prob=float(p),
            detectors=(j % num_detectors,),
            observables=(0,) if j % 3 == 0 else (),
            sources=(),
        )
        for j, p in enumerate(probs)
    ]
    return DetectorErrorModel.from_mechanisms(
        mechanisms=mechanisms, num_detectors=num_detectors, num_observables=1
    )


class TestWeightDistribution:
    @settings(max_examples=30, deadline=None)
    @given(
        probs=st.lists(
            st.floats(min_value=1e-6, max_value=0.95), min_size=1, max_size=12
        ),
        kmax=st.integers(min_value=0, max_value=6),
    )
    def test_matches_brute_force_enumeration(self, probs, kmax):
        probs = np.array(probs)
        dist = log_weight_distribution(probs, kmax)
        pmf, tail = brute_force_pmf(probs, kmax)
        np.testing.assert_allclose(
            np.exp(dist.log_pmf[: kmax + 1]), pmf, rtol=1e-10, atol=1e-300
        )
        assert math.exp(dist.log_tail) == pytest.approx(tail, rel=1e-10, abs=1e-15)

    def test_survival_function(self):
        probs = np.array([0.1, 0.2, 0.3, 0.05])
        dist = log_weight_distribution(probs, 3)
        pmf, tail = brute_force_pmf(probs, 3)
        for k in range(4):
            expected = pmf[k + 1 :].sum() + tail
            assert math.exp(dist.log_sf(k)) == pytest.approx(expected, rel=1e-10)

    def test_window_wider_than_mechanism_count_pads(self):
        dist = log_weight_distribution(np.array([0.25, 0.25]), 5)
        assert dist.max_weight == 5
        assert np.isneginf(dist.log_pmf[3:]).all()
        assert np.isneginf(dist.log_tail)

    def test_stable_for_many_mechanisms(self):
        rng = np.random.default_rng(0)
        probs = np.exp(rng.uniform(np.log(1e-7), np.log(1e-3), size=20_000))
        dist = log_weight_distribution(probs, 30)
        total = np.exp(dist.log_pmf).sum() + math.exp(dist.log_tail)
        assert total == pytest.approx(1.0, rel=1e-9)
        # Mean of the exact distribution reproduces sum of probabilities.
        mean = (np.exp(dist.log_pmf) * np.arange(31)).sum()
        assert mean == pytest.approx(probs.sum(), rel=1e-6)

    def test_rejects_certain_mechanisms(self):
        with pytest.raises(ValueError):
            log_weight_distribution(np.array([0.5, 1.0]), 2)


@pytest.fixture(scope="module")
def d3_dem():
    code = rotated_surface_code(3)
    return dem_for(code, nz_schedule(code), NoiseModel(p=3e-3), basis="z")


class TestConditionalSampler:
    def test_every_shot_has_exact_weight(self, d3_dem):
        sampler = WeightStratifiedSampler(d3_dem, max_weight=5)
        for k in (1, 3, 5):
            shot_idx, mech_idx = sampler.sample_fires_at_weight(
                k, 500, np.random.default_rng(k)
            )
            counts = np.bincount(shot_idx, minlength=500)
            assert (counts == k).all()
            # Mechanisms within one shot are distinct.
            for s in range(0, 500, 97):
                mechs = mech_idx[shot_idx == s]
                assert len(set(mechs.tolist())) == k

    def test_marginals_match_conditional_distribution(self, d3_dem):
        """Empirical P(j in S | W=k) vs the exact leave-one-out formula."""
        sampler = WeightStratifiedSampler(d3_dem, max_weight=4)
        k, shots = 2, 30_000
        shot_idx, mech_idx = sampler.sample_fires_at_weight(
            k, shots, np.random.default_rng(42)
        )
        local = np.searchsorted(sampler.mech_index, mech_idx)
        freq = np.bincount(local, minlength=len(sampler.probs)) / shots
        theory = np.empty(len(sampler.probs))
        for j in range(len(sampler.probs)):
            others = np.delete(sampler.probs, j)
            loo = log_weight_distribution(others, k)
            theory[j] = sampler.probs[j] * math.exp(
                loo.log_pmf[k - 1] - sampler.dist.log_pmf[k]
            )
        assert theory.sum() == pytest.approx(k, rel=1e-9)
        sigma = np.sqrt(theory * (1 - theory) / shots)
        assert (np.abs(freq - theory) < 5 * sigma + 5e-4).all()

    def test_packed_batch_matches_fires(self, d3_dem):
        """The emitted BitSampleBatch is exactly H @ x, L @ x (mod 2)."""
        sampler = WeightStratifiedSampler(d3_dem, max_weight=4)
        shots = 257  # deliberately not word-aligned
        shot_idx, mech_idx = sampler.sample_fires_at_weight(
            3, shots, np.random.default_rng(5)
        )
        batch = sampler.sample_at_weight(3, shots, np.random.default_rng(5))
        x = np.zeros((shots, d3_dem.num_errors), dtype=np.uint8)
        x[shot_idx, mech_idx] = 1
        h, l = d3_dem.check_matrices()
        np.testing.assert_array_equal(
            batch.to_dense().detectors, (x @ h.T.toarray()) % 2
        )
        np.testing.assert_array_equal(
            batch.to_dense().observables, (x @ l.T.toarray()) % 2
        )

    def test_uniform_mode_weights_are_unit_mean(self, d3_dem):
        sampler = WeightStratifiedSampler(d3_dem, max_weight=4)
        _, log_w = sampler.sample_at_weight_with_log_weights(
            3, 20_000, np.random.default_rng(3), mode="uniform"
        )
        assert np.exp(log_w).mean() == pytest.approx(1.0, abs=0.1)

    def test_uniform_mode_on_equal_probs_is_unweighted(self):
        dem = tiny_dem([0.01] * 9)
        sampler = WeightStratifiedSampler(dem, max_weight=3)
        _, log_w = sampler.sample_at_weight_with_log_weights(
            2, 100, np.random.default_rng(0), mode="uniform"
        )
        np.testing.assert_allclose(log_w, 0.0, atol=1e-9)

    def test_invalid_weight_rejected(self, d3_dem):
        sampler = WeightStratifiedSampler(d3_dem, max_weight=3)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sampler.sample_fires_at_weight(4, 10, rng)
        with pytest.raises(ValueError):
            sampler.sample_fires_at_weight(0, 10, rng)

    def test_weight_above_mechanism_count_rejected(self):
        dem = tiny_dem([0.1, 0.2])
        sampler = WeightStratifiedSampler(dem, max_weight=5)
        with pytest.raises(ValueError):
            sampler.sample_fires_at_weight(3, 10, np.random.default_rng(0))


class TestPlanner:
    def test_plan_partitions_probability(self, d3_dem):
        plan = plan_strata(d3_dem, min_failure_weight=2)
        total = (
            math.exp(plan.log_zero)
            + sum(s.prob for s in plan.strata)
            + math.exp(plan.log_tail)
        )
        assert total == pytest.approx(1.0, rel=1e-9)
        assert [s.weight for s in plan.audited] == [1]
        assert plan.sampled[0].weight == 2

    def test_tail_criterion(self, d3_dem):
        eps = 1e-8
        plan = plan_strata(d3_dem, min_failure_weight=2, tail_epsilon=eps)
        mass_at_risk = math.exp(plan.distribution.log_sf(1))
        assert math.exp(plan.log_tail) <= eps * mass_at_risk

    def test_max_weight_override(self, d3_dem):
        plan = plan_strata(d3_dem, max_weight=3)
        assert plan.max_weight == 3
        assert [s.weight for s in plan.strata] == [1, 2, 3]

    def test_empty_dem(self):
        dem = DetectorErrorModel.from_mechanisms(
            mechanisms=[], num_detectors=0, num_observables=0
        )
        plan = plan_strata(dem)
        assert plan.strata == ()
        assert math.exp(plan.log_zero) == 1.0


class TestStratifiedEstimate:
    def _single(self, **kwargs) -> StratifiedEstimate:
        defaults = dict(
            weight=2, log_prob=math.log(0.01), assume_zero=False, shots=1000
        )
        defaults.update(kwargs)
        return StratifiedEstimate(
            strata=[StratumEstimate(**defaults)],
            log_zero=math.log(0.9),
            zero_weight_fails=False,
            log_tail=math.log(1e-9),
        )

    def test_point_and_interval(self):
        est = self._single(failures=100, weighted_failures=100.0, weighted_sq=100.0)
        assert est.rate == pytest.approx(0.01 * 0.1)
        lo, hi = est.interval
        phat = 0.1
        hw = 1.959964 * math.sqrt(0.01**2 * phat * (1 - phat) / 1000)
        assert hi - est.rate == pytest.approx(hw + 1e-9, rel=1e-3)
        assert est.rate - lo == pytest.approx(hw, rel=1e-3)

    def test_zero_failure_stratum_uses_rule_of_three(self):
        est = self._single(failures=0)
        assert est.rate == 0.0
        lo, hi = est.interval
        assert lo == 0.0
        # Upper edge: P_k * (1 - 0.05**(1/1000)) + tail.
        assert hi == pytest.approx(0.01 * (1 - 0.05 ** (1 / 1000)) + 1e-9, rel=1e-6)

    def test_assumed_zero_contributes_nothing(self):
        est = self._single(assume_zero=True, failures=0)
        assert est.rate == 0.0
        _, hi = est.interval
        assert hi == pytest.approx(1e-9, rel=1e-6)  # only the tail bound

    def test_zero_weight_failure_dominates(self):
        est = self._single(failures=0)
        est.zero_weight_fails = True
        assert est.rate == pytest.approx(0.9)


class TestEstimatorOnRealDems:
    def test_agrees_with_direct_mc_surface_d3(self, d3_dem):
        strat = estimate_ler_stratified(
            d3_dem,
            rng=np.random.default_rng(7),
            min_failure_weight=2,
            target_rel_halfwidth=0.08,
            max_shots=400_000,
        )
        direct = run_shot_chunks(
            d3_dem, shots=120_000, rng=np.random.default_rng(11)
        )
        assert strat.converged
        s_lo, s_hi = strat.interval
        d_lo, d_hi = direct.interval
        assert s_lo <= d_hi and d_lo <= s_hi, (strat, direct)

    def test_agrees_with_direct_mc_surface_d5(self):
        code = load_benchmark_code("surface_d5")
        dem = dem_for(code, nz_schedule(code), NoiseModel(p=3e-3), basis="z")
        strat = estimate_ler_stratified(
            dem,
            rng=np.random.default_rng(1),
            min_failure_weight=3,
            target_rel_halfwidth=0.12,
            max_shots=200_000,
        )
        direct = run_shot_chunks(dem, shots=60_000, rng=np.random.default_rng(2))
        s_lo, s_hi = strat.interval
        d_lo, d_hi = direct.interval
        assert s_lo <= d_hi and d_lo <= s_hi, (strat, direct)

    def test_worker_count_independent(self, d3_dem):
        results = {}
        for workers in (1, 2):
            est = estimate_ler_stratified(
                d3_dem,
                rng=np.random.default_rng(3),
                min_failure_weight=2,
                target_rel_halfwidth=0.15,
                max_shots=60_000,
                config=ExecutionConfig(workers=workers),
            )
            results[workers] = (
                est.rate,
                est.shots,
                [(s.weight, s.shots, s.failures) for s in est.strata],
            )
        assert results[1] == results[2]

    def test_audit_promotes_violated_assumption(self):
        """Coloration circuits mispredict some weight-1 errors; claiming
        min_failure_weight=2 anyway must be caught by the audit."""
        code = rotated_surface_code(3)
        dem = dem_for(
            code, coloration_schedule(code), NoiseModel(p=3e-3), basis="z"
        )
        est = estimate_ler_stratified(
            dem,
            rng=np.random.default_rng(0),
            min_failure_weight=2,
            target_rel_halfwidth=0.1,
            max_shots=60_000,
        )
        assert est.audit_violations == [1]
        one = next(s for s in est.strata if s.weight == 1)
        assert one.promoted and one.failures > 0
        assert one.prob * one.cond_rate > 0  # contributes to the estimate

    def test_run_stratified_chunks_worker_parity(self, d3_dem):
        alloc = [(2, 1280), (3, 640)]
        runs = {}
        for workers in (1, 2):
            tallies = run_stratified_chunks(
                d3_dem,
                alloc,
                rng=np.random.default_rng(9),
                config=ExecutionConfig(chunk_shots=512, workers=workers),
            )
            runs[workers] = {
                w: (t.shots, t.failures) for w, t in sorted(tallies.items())
            }
        assert runs[1] == runs[2]
        assert runs[1][2][0] == 1280 and runs[1][3][0] == 640

    def test_uniform_mode_agrees_with_proportional(self, d3_dem):
        ests = {}
        for mode in ("proportional", "uniform"):
            ests[mode] = estimate_ler_stratified(
                d3_dem,
                rng=np.random.default_rng(17),
                min_failure_weight=2,
                target_rel_halfwidth=0.1,
                max_shots=120_000,
                mode=mode,
            )
        p_lo, p_hi = ests["proportional"].interval
        u_lo, u_hi = ests["uniform"].interval
        assert p_lo <= u_hi and u_lo <= p_hi, ests
