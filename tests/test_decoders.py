"""Tests for the decoders: matching, BP+OSD, lookup, and the LER pipeline."""

import numpy as np
import pytest

from repro.circuits import coloration_schedule, nz_schedule
from repro.circuits.text import circuit_from_text
from repro.codes import load_benchmark_code, rotated_surface_code
from repro.decoders import (
    BpOsdDecoder,
    LookupDecoder,
    MatchingDecoder,
    detector_subset_for_basis,
    make_decoder,
)
from repro.decoders.metrics import dem_for
from repro.experiments.shotrunner import ExecutionConfig, estimate_logical_error_rate
from repro.noise import NoiseModel
from repro.sim import DemSampler, extract_dem


@pytest.fixture(scope="module")
def surface_dem():
    code = rotated_surface_code(3)
    return dem_for(code, nz_schedule(code), NoiseModel(p=2e-3), basis="z", rounds=3)


@pytest.fixture(scope="module")
def lp_dem():
    code = load_benchmark_code("lp39")
    return dem_for(
        code, coloration_schedule(code), NoiseModel(p=1e-3), basis="z", rounds=2
    )


class TestMatchingDecoder:
    def test_trivial_syndrome_decodes_trivially(self, surface_dem):
        dec = MatchingDecoder(
            surface_dem, detector_subset_for_basis(surface_dem, "z")
        )
        zeros = np.zeros((5, surface_dem.num_detectors), dtype=np.uint8)
        assert not dec.decode_batch(zeros).any()

    def test_single_mechanism_syndromes_decode_correctly(self, surface_dem):
        """Firing any single mechanism must be decoded without a logical
        error — weight-1 errors are always correctable at d=3."""
        subset = detector_subset_for_basis(surface_dem, "z")
        dec = MatchingDecoder(surface_dem, subset)
        for m in surface_dem.mechanisms[:80]:
            det = np.zeros((1, surface_dem.num_detectors), dtype=np.uint8)
            for d in m.detectors:
                det[0, d] = 1
            obs = np.zeros((1, surface_dem.num_observables), dtype=np.uint8)
            for o in m.observables:
                obs[0, o] = 1
            assert not dec.logical_failures(det, obs)[0]

    def test_monte_carlo_beats_raw_rate(self, surface_dem):
        sampler = DemSampler(surface_dem)
        batch = sampler.sample(5000, np.random.default_rng(0))
        dec = MatchingDecoder(
            surface_dem, detector_subset_for_basis(surface_dem, "z")
        )
        failures = dec.logical_failures(batch.detectors, batch.observables)
        assert failures.mean() < batch.observables.mean()

    def test_rejects_non_graphlike(self, lp_dem):
        with pytest.raises(ValueError):
            MatchingDecoder(lp_dem, detector_subset_for_basis(lp_dem, "z"))

    def test_auto_decoding_matches_every_detector_of_an_unlabeled_dem(self):
        """A DEM extracted from a hand-written circuit carries no builder
        labels, so there is no basis subset: auto decoding matches on
        every detector instead of on none."""
        circuit = circuit_from_text(
            """
            R 0 1 2 3 4 5 6 7 8
            DEPOLARIZE1(0.06) 0 1 2 3 4
            CNOT 0 5 1 5 1 6 2 6 2 7 3 7 3 8 4 8
            M 5 6 7 8
            DETECTOR 0
            DETECTOR 1
            DETECTOR 2
            DETECTOR 3
            M 0 1 2 3 4
            DETECTOR 0 4 5
            DETECTOR 1 5 6
            DETECTOR 2 6 7
            DETECTOR 3 7 8
            OBSERVABLE_INCLUDE(0) 4
            """
        )
        dem = extract_dem(circuit)
        batch = DemSampler(dem).sample(2000, np.random.default_rng(5))
        auto = make_decoder(dem, "z")
        assert isinstance(auto, MatchingDecoder)
        reference = MatchingDecoder(dem).decode_batch(batch.detectors)
        assert reference.any()
        np.testing.assert_array_equal(auto.decode_batch(batch.detectors), reference)


class TestBpOsd:
    def test_trivial_syndrome(self, lp_dem):
        dec = BpOsdDecoder(lp_dem)
        zeros = np.zeros((3, lp_dem.num_detectors), dtype=np.uint8)
        assert not dec.decode_batch(zeros).any()

    def test_single_mechanisms_decode(self, lp_dem):
        dec = BpOsdDecoder(lp_dem)
        dets = []
        obss = []
        for m in lp_dem.mechanisms[:60]:
            det = np.zeros(lp_dem.num_detectors, dtype=np.uint8)
            det[list(m.detectors)] = 1
            obs = np.zeros(lp_dem.num_observables, dtype=np.uint8)
            obs[list(m.observables)] = 1
            dets.append(det)
            obss.append(obs)
        failures = dec.logical_failures(np.array(dets), np.array(obss))
        assert failures.mean() < 0.1  # single faults nearly always decoded

    def test_monte_carlo_decoding_works(self, lp_dem):
        sampler = DemSampler(lp_dem)
        batch = sampler.sample(1500, np.random.default_rng(0))
        dec = BpOsdDecoder(lp_dem)
        failures = dec.logical_failures(batch.detectors, batch.observables)
        assert failures.mean() < batch.observables.any(axis=1).mean()

    def test_cache_consistency(self, lp_dem):
        dec = BpOsdDecoder(lp_dem)
        batch = DemSampler(lp_dem).sample(200, np.random.default_rng(1))
        first = dec.decode_batch(batch.detectors)
        second = dec.decode_batch(batch.detectors)
        assert np.array_equal(first, second)

    def test_osd_disabled_still_runs(self, lp_dem):
        dec = BpOsdDecoder(lp_dem, osd=False)
        batch = DemSampler(lp_dem).sample(100, np.random.default_rng(2))
        out = dec.decode_batch(batch.detectors)
        assert out.shape == (100, lp_dem.num_observables)


class TestLookupDecoder:
    def test_exact_on_tiny_dem(self):
        from repro.circuits import Circuit

        c = Circuit()
        c.append("R", [0, 1, 2])
        c.append("DEPOLARIZE1", [0, 1, 2], args=[0.03])
        c.append("CNOT", [0, 2])
        c.append("CNOT", [1, 2])
        c.append("M", [0, 1, 2])
        c.append("DETECTOR", [2])
        c.append("OBSERVABLE_INCLUDE", [0], args=[0])
        dem = extract_dem(c)
        dec = LookupDecoder(dem)
        sampler = DemSampler(dem)
        batch = sampler.sample(4000, np.random.default_rng(0))
        failures = dec.logical_failures(batch.detectors, batch.observables)
        # MLE is optimal; failure rate bounded by the ambiguous mass.
        assert failures.mean() < 0.05

    def test_predicts_most_likely_class_not_most_likely_error(self):
        """Syndrome [1]: the single likeliest error flips the observable
        (0.10 * 0.93^2 = 0.087), but the no-flip class (either 0.07
        mechanism alone, 0.117 in total) outweighs the flip class
        (0.087), so exact MLE must predict no flip."""
        from repro.sim.dem import DetectorErrorModel, ErrorMechanism

        dem = DetectorErrorModel.from_mechanisms(
            [
                ErrorMechanism(prob=0.10, detectors=(0,), observables=(0,), sources=()),
                ErrorMechanism(prob=0.07, detectors=(0,), observables=(), sources=()),
                ErrorMechanism(prob=0.07, detectors=(0,), observables=(), sources=()),
            ],
            num_detectors=1,
            num_observables=1,
        )
        dec = LookupDecoder(dem)
        assert dec.decode_batch(np.array([[1]], dtype=np.uint8)).tolist() == [[0]]
        batch = DemSampler(dem).sample_packed(64, np.random.default_rng(0))
        got = dec.decode_batch_packed(batch).observables
        assert not got.any()

    def test_too_many_errors_rejected(self, surface_dem):
        with pytest.raises(ValueError):
            LookupDecoder(surface_dem)


class TestMakeDecoder:
    def test_auto_picks_matching_for_surface(self, surface_dem):
        assert isinstance(make_decoder(surface_dem, "z"), MatchingDecoder)

    def test_auto_falls_back_to_bposd(self, lp_dem):
        assert isinstance(make_decoder(lp_dem, "z"), BpOsdDecoder)

    def test_explicit_matching_raises_on_ldpc(self, lp_dem):
        with pytest.raises(ValueError):
            make_decoder(lp_dem, "z", "matching")

    def test_unknown_kind(self, surface_dem):
        with pytest.raises(ValueError):
            make_decoder(surface_dem, "z", "magic")


class TestPipeline:
    def test_distance_ordering_at_low_p(self):
        """d=5 must beat d=3 below threshold — the defining QEC property."""
        rng = np.random.default_rng(0)
        p = 1e-3
        d3 = rotated_surface_code(3)
        d5 = rotated_surface_code(5)
        r3 = estimate_logical_error_rate(
            d3, nz_schedule(d3), p=p, shots=6000, rng=rng
        )
        r5 = estimate_logical_error_rate(
            d5, nz_schedule(d5), p=p, shots=6000, rng=rng
        )
        assert r5.rate < r3.rate

    def test_rate_monotone_in_p(self):
        rng = np.random.default_rng(0)
        code = rotated_surface_code(3)
        sched = nz_schedule(code)
        lo = estimate_logical_error_rate(code, sched, p=1e-3, shots=6000, rng=rng)
        hi = estimate_logical_error_rate(code, sched, p=8e-3, shots=6000, rng=rng)
        assert hi.rate > lo.rate

    def test_max_failures_caps_work(self):
        code = rotated_surface_code(3)
        r = estimate_logical_error_rate(
            code,
            nz_schedule(code),
            p=2e-2,
            shots=50_000,
            rng=np.random.default_rng(0),
            config=ExecutionConfig(chunk_shots=500, max_failures=20),
        )
        assert r.shots < 50_000

    def test_result_combines_bases(self):
        code = rotated_surface_code(3)
        r = estimate_logical_error_rate(
            code, nz_schedule(code), p=3e-3, shots=1000, rng=np.random.default_rng(0)
        )
        assert set(r.per_basis) == {"z", "x"}
        pz = r.per_basis["z"].estimate.rate
        px = r.per_basis["x"].estimate.rate
        assert r.rate == pytest.approx(1 - (1 - pz) * (1 - px))
