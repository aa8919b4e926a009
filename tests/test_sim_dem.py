"""Tests for DEM extraction: propagation rules, merging, provenance."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from repro.circuits import Circuit, build_memory_experiment, nz_schedule, poor_schedule
from repro.codes import rotated_surface_code
from repro.decoders import BpOsdDecoder
from repro.noise import NoiseModel
from repro.rareevent.sampler import WeightStratifiedSampler
from repro.sim import DemSampler, DetectorErrorModel, extract_dem


def single_error_circuit(pauli_gate_sequence):
    """One noisy qubit measured in Z, detector on the measurement."""
    c = Circuit()
    c.append("R", [0])
    for item in pauli_gate_sequence:
        c.append(*item)
    c.append("M", [0])
    c.append("DETECTOR", [0])
    return c


class TestPropagationRules:
    def test_x_before_measurement_flips_detector(self):
        c = single_error_circuit([("DEPOLARIZE1", [0], [0.3])])
        dem = extract_dem(c)
        # X and Y flip the Z measurement; Z does not -> they merge into one
        # mechanism with combined probability.
        assert dem.num_errors == 1
        p = 0.1  # each Pauli has probability 0.3/3
        assert dem.mechanisms[0].prob == pytest.approx(p * (1 - p) + p * (1 - p))

    def test_error_after_reset_is_cleared(self):
        c = Circuit()
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("R", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = extract_dem(c)
        assert dem.num_errors == 0

    def test_x_propagates_control_to_target(self):
        """Paper §2.6: X_c -> X_c X_t."""
        c = Circuit()
        c.append("R", [0, 1])
        c.append("DEPOLARIZE1", [0], args=[0.3])  # X on control
        c.append("CNOT", [0, 1])
        c.append("M", [0, 1])
        c.append("DETECTOR", [0], label=("d0",))
        c.append("DETECTOR", [1], label=("d1",))
        dem = extract_dem(c)
        # X on qubit 0 flips both measurements; Z flips none; Y both.
        assert dem.num_errors == 1
        assert dem.mechanisms[0].detectors == (0, 1)

    def test_z_propagates_target_to_control(self):
        """Paper §2.6: Z_t -> Z_c Z_t, visible in X-basis measurements."""
        c = Circuit()
        c.append("RX", [0, 1])
        c.append("DEPOLARIZE1", [1], args=[0.3])
        c.append("CNOT", [0, 1])
        c.append("MX", [0, 1])
        c.append("DETECTOR", [0])
        c.append("DETECTOR", [1])
        dem = extract_dem(c)
        mechs = {m.detectors for m in dem.mechanisms}
        # Z (and Y, via its Z part) on the target spreads to the control;
        # a pure X on the target is invisible to X-basis measurements, so
        # the only signature is the two-detector one.
        assert mechs == {(0, 1)}

    def test_h_swaps_x_and_z(self):
        c = Circuit()
        c.append("R", [0])
        c.append("H", [0])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("H", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = extract_dem(c)
        # Between the H's, Z and Y flip the eventual Z measurement.
        assert dem.num_errors == 1
        sources = dem.mechanisms[0].sources
        paulis = {s.pauli for s in sources}
        assert paulis == {"Z0", "Y0"}


class TestMergingAndProvenance:
    def test_merge_combines_probabilities(self):
        c = Circuit()
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = extract_dem(c)
        assert dem.num_errors == 1
        assert len(dem.mechanisms[0].sources) == 4  # X,Y from both channels

    def test_no_merge_keeps_mechanisms_separate(self):
        c = Circuit()
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = extract_dem(c, merge=False)
        assert dem.num_errors == 4

    def test_cnot_labels_propagate_to_mechanisms(self):
        code = rotated_surface_code(3)
        exp = build_memory_experiment(code, nz_schedule(code), rounds=2)
        dem = extract_dem(NoiseModel(p=1e-3).apply(exp.circuit))
        cnot_sources = [
            s
            for m in dem.mechanisms
            for s in m.sources
            if s.label and s.label[0] == "cnot"
        ]
        assert cnot_sources
        # Labels carry (kind, stab, data qubit, round).
        _, kind, stab, q, rnd = cnot_sources[0].label
        assert kind in ("x", "z") and 0 <= q < code.n


class TestSurfaceCodeDem:
    @pytest.fixture(scope="class")
    def dem(self):
        code = rotated_surface_code(3)
        exp = build_memory_experiment(code, nz_schedule(code), rounds=3)
        return extract_dem(NoiseModel(p=1e-3).apply(exp.circuit))

    def test_no_undetectable_logicals(self, dem):
        assert dem.undetectable_logical_mechanisms() == []

    def test_graphlike_for_z_detectors(self, dem):
        """Every mechanism flips at most 2 same-type detectors (matchable)."""
        for m in dem.mechanisms:
            by_kind = {"x": 0, "z": 0}
            for d in m.detectors:
                by_kind[dem.detector_labels[d][1]] += 1
            assert by_kind["x"] <= 2 and by_kind["z"] <= 2

    def test_check_matrices_shapes(self, dem):
        h, l_mat = dem.check_matrices()
        assert h.shape == (dem.num_detectors, dem.num_errors)
        assert l_mat.shape == (1, dem.num_errors)
        assert l_mat.sum() > 0

    def test_check_matrices_built_once_and_read_only(self, dem):
        """A sampler and a decoder built from one DEM share its matrices,
        whose arrays nobody can write."""
        sampler, decoder = DemSampler(dem), BpOsdDecoder(dem)
        assert sampler.h is decoder.h and sampler.l is decoder.l
        assert (sampler.h, sampler.l) == dem.check_matrices()
        for matrix in (sampler.h, sampler.l):
            for array in (matrix.indptr, matrix.indices, matrix.data):
                assert not array.flags.writeable

    def test_consumers_work_on_read_only_matrices(self, dem):
        """Every reader of the shared matrices runs on them: both sampler
        paths, BP+OSD, the fixed-weight sampler, and scipy products."""
        sampler = DemSampler(dem)
        packed = sampler.sample_packed(300, np.random.default_rng(4))
        dense = sampler.sample_dense(300, np.random.default_rng(4))
        assert np.array_equal(packed.to_dense().detectors, dense.detectors)
        decoder = BpOsdDecoder(dem)
        assert decoder.count_failures_packed(packed) == (
            decoder.count_failures_dense(packed)
        )
        weighted = WeightStratifiedSampler(dem, max_weight=3)
        assert weighted.sample_at_weight(2, 64, np.random.default_rng(5)).shots == 64
        h, l_mat = dem.check_matrices()
        e = np.zeros(dem.num_errors, dtype=np.uint8)
        e[:3] = 1
        assert (h @ e).shape == (dem.num_detectors,)
        assert (l_mat.T @ l_mat).shape == (dem.num_errors, dem.num_errors)

    def test_poor_schedule_changes_dem(self):
        """Different CNOT orders give different circuit-level H (paper §2.7)."""
        code = rotated_surface_code(3)
        a = extract_dem(
            NoiseModel(p=1e-3).apply(
                build_memory_experiment(code, nz_schedule(code), rounds=2).circuit
            )
        )
        b = extract_dem(
            NoiseModel(p=1e-3).apply(
                build_memory_experiment(code, poor_schedule(code), rounds=2).circuit
            )
        )
        sig_a = {(m.detectors, m.observables) for m in a.mechanisms}
        sig_b = {(m.detectors, m.observables) for m in b.mechanisms}
        assert sig_a != sig_b


class TestSampler:
    def test_zero_noise_samples_zero(self):
        code = rotated_surface_code(3)
        exp = build_memory_experiment(code, nz_schedule(code), rounds=2)
        noisy = extract_dem(NoiseModel(p=1e-3).apply(exp.circuit))
        # Zero out probabilities: no detection events.
        dem = DetectorErrorModel.from_mechanisms(
            [dataclasses.replace(m, prob=0.0) for m in noisy.mechanisms],
            noisy.num_detectors,
            noisy.num_observables,
            noisy.detector_labels,
        )
        batch = DemSampler(dem).sample(100, np.random.default_rng(0))
        assert not batch.detectors.any()
        assert not batch.observables.any()

    def test_sample_rates_match_probabilities(self):
        c = Circuit()
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = extract_dem(c)
        batch = DemSampler(dem).sample(200_000, np.random.default_rng(0))
        expected = dem.mechanisms[0].prob
        assert batch.detectors.mean() == pytest.approx(expected, rel=0.05)

    def test_sample_errors_consistent_with_matrices(self):
        code = rotated_surface_code(3)
        exp = build_memory_experiment(code, nz_schedule(code), rounds=2)
        dem = extract_dem(NoiseModel(p=5e-3).apply(exp.circuit))
        sampler = DemSampler(dem)
        # The same RNG state draws the same fires for both calls.
        shot_idx, mech_idx = sampler._sample_fires(500, np.random.default_rng(1))
        batch = sampler.sample_packed(500, np.random.default_rng(1)).to_dense()
        fires = sparse.csr_matrix(
            (np.ones(len(shot_idx), dtype=np.int64), (shot_idx, mech_idx)),
            shape=(500, dem.num_errors),
        )
        h, l_mat = dem.check_matrices()
        det = np.asarray(fires.dot(h.T).todense()) % 2
        obs = np.asarray(fires.dot(l_mat.T).todense()) % 2
        assert np.array_equal(det.astype(np.uint8), batch.detectors)
        assert np.array_equal(obs.astype(np.uint8), batch.observables)
