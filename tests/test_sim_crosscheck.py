"""Randomized cross-simulator litmus tests.

In the spirit of TransForm's synthesized litmus tests: instead of
checking the samplers only on the handful of structured memory circuits
the paper uses, generate a battery of small random Clifford+noise
circuits and pin down two properties on every one of them:

1. **Representation safety** — the bit-packed hot paths of
   :class:`FrameSimulator` and :class:`DemSampler` are *bit-identical*
   to the dense reference paths for the same RNG state (the packing is
   pure representation, no resampling).
2. **Cross-simulator agreement** — the two completely independent
   samplers (direct Pauli-frame propagation vs DEM mechanism XOR) give
   the same detector/observable marginals up to sampling noise plus the
   DEM's O(p^2) independence approximation (chi-square-style z
   tolerance with fixed seeds, so the suite is deterministic).
"""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import register_noise_gate, unregister_noise_gate
from repro.noise import (
    BiasedPauliChannel,
    CorrelatedPauliChannel,
    DepolarizingChannel,
    DeviceProfile,
    DriftSchedule,
    NoiseSpec,
)
from repro.sim import DemSampler, FrameSimulator, extract_dem
from repro.sim.bitbatch import BitSampleBatch, SampleBatch, pack_shots, unpack_shots

NUM_RANDOM_CIRCUITS = 50
MARGINAL_CIRCUITS = 12
SPEC_CIRCUITS = 10


def random_clifford_noise_circuit(
    rng: np.random.Generator,
    num_qubits: int = 4,
    layers: int = 5,
    p: float = 0.01,
    include_noise: bool = True,
) -> Circuit:
    """A small random noisy Clifford circuit with detectors/observables.

    Every layer applies a random disjoint mix of CNOT/H/R plus one noise
    channel; some layers measure a qubit mid-circuit.  Detectors and the
    observable reference random measurement subsets — both simulators
    compute *flips relative to the noiseless reference*, so agreement is
    well-defined even for physically non-deterministic detectors.

    ``include_noise=False`` skips the inline channels, producing the
    noiseless structural circuit a :class:`~repro.noise.NoiseSpec` can
    be applied to.
    """
    circ = Circuit()
    circ.append("R", tuple(range(num_qubits)))
    circ.tick()
    num_meas = 0
    for _ in range(layers):
        qubits = [int(q) for q in rng.permutation(num_qubits)]
        while len(qubits) >= 2 and rng.random() < 0.7:
            a, b = qubits.pop(), qubits.pop()
            circ.append("CNOT", (a, b))
        for q in qubits:
            r = rng.random()
            if r < 0.35:
                circ.append("H", (q,))
            elif r < 0.45:
                circ.append("M" if rng.random() < 0.5 else "MX", (q,))
                num_meas += 1
            elif r < 0.55:
                circ.append("R" if rng.random() < 0.5 else "RX", (q,))
        choice = rng.random()
        if not include_noise:
            pass
        elif choice < 0.4:
            circ.append("DEPOLARIZE1", tuple(range(num_qubits)), (p,))
        elif choice < 0.6:
            pair = tuple(int(q) for q in rng.choice(num_qubits, 2, replace=False))
            circ.append("DEPOLARIZE2", pair, (p,))
        elif choice < 0.75:
            pair = tuple(int(q) for q in rng.choice(num_qubits, 2, replace=False))
            probs = rng.dirichlet(np.ones(15)) * p
            circ.append("PAULI_CHANNEL_2", pair, tuple(float(x) for x in probs))
        else:
            circ.append(
                "PAULI_CHANNEL_1", tuple(range(num_qubits)), (p / 2, p / 4, p / 4)
            )
        circ.tick()
    circ.append("M", tuple(range(num_qubits)))
    num_meas += num_qubits
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, num_meas + 1))
        targets = tuple(int(t) for t in rng.choice(num_meas, size=k, replace=False))
        circ.append("DETECTOR", targets)
    k = int(rng.integers(1, num_meas + 1))
    circ.append(
        "OBSERVABLE_INCLUDE",
        tuple(int(t) for t in rng.choice(num_meas, size=k, replace=False)),
        (0,),
    )
    circ.validate()
    return circ


def assert_batches_equal(a: SampleBatch, b: SampleBatch) -> None:
    np.testing.assert_array_equal(a.detectors, b.detectors)
    np.testing.assert_array_equal(a.observables, b.observables)


def rates_compatible(
    count_a: int, shots_a: int, count_b: int, shots_b: int, bias: float
) -> bool:
    """Two-sample z test with an absolute slack for the DEM approximation."""
    pa, pb = count_a / shots_a, count_b / shots_b
    se = np.sqrt(pa * (1 - pa) / shots_a + pb * (1 - pb) / shots_b) + 1e-9
    return abs(pa - pb) <= 5.0 * se + bias


class TestPackedDenseBitIdentity:
    """Packed hot paths must be bit-for-bit the dense reference paths."""

    # 517 shots: exercises the uint64 tail (517 = 8*64 + 5).
    SHOTS = 517

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_CIRCUITS))
    def test_frame_simulator(self, seed):
        circ = random_clifford_noise_circuit(np.random.default_rng(seed))
        sim = FrameSimulator(circ)
        packed = sim.sample_packed(self.SHOTS, np.random.default_rng(1000 + seed))
        dense = sim.sample_dense(self.SHOTS, np.random.default_rng(1000 + seed))
        assert_batches_equal(packed.to_dense(), dense)

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_CIRCUITS))
    def test_dem_sampler(self, seed):
        circ = random_clifford_noise_circuit(np.random.default_rng(seed))
        sampler = DemSampler(extract_dem(circ))
        packed = sampler.sample_packed(self.SHOTS, np.random.default_rng(2000 + seed))
        dense = sampler.sample_dense(self.SHOTS, np.random.default_rng(2000 + seed))
        assert_batches_equal(packed.to_dense(), dense)

    def test_sample_is_view_of_packed(self):
        """The public dense API is exactly the unpacked packed batch."""
        circ = random_clifford_noise_circuit(np.random.default_rng(3))
        sampler = DemSampler(extract_dem(circ))
        a = sampler.sample(300, np.random.default_rng(7))
        b = sampler.sample_packed(300, np.random.default_rng(7)).to_dense()
        assert_batches_equal(a, b)


class TestCrossSimulatorMarginals:
    """FrameSimulator and DemSampler must tell the same statistical story."""

    SHOTS = 8_000
    P = 0.01
    # DEM merges mechanisms under an independence approximation that is
    # exact to O(p); allow an O(p^2)-scale systematic offset on top of
    # the sampling-noise z bound.
    BIAS = 3e-3

    @pytest.mark.parametrize("seed", range(MARGINAL_CIRCUITS))
    def test_detector_and_observable_marginals(self, seed):
        circ = random_clifford_noise_circuit(np.random.default_rng(seed), p=self.P)
        frame = FrameSimulator(circ).sample_packed(
            self.SHOTS, np.random.default_rng(3000 + seed)
        )
        demb = DemSampler(extract_dem(circ)).sample_packed(
            self.SHOTS, np.random.default_rng(4000 + seed)
        )
        assert frame.num_detectors == demb.num_detectors
        assert frame.num_observables == demb.num_observables
        f_det, d_det = frame.detector_counts(), demb.detector_counts()
        for d in range(frame.num_detectors):
            assert rates_compatible(
                int(f_det[d]), self.SHOTS, int(d_det[d]), self.SHOTS, self.BIAS
            ), f"detector {d}: frame {f_det[d]} vs dem {d_det[d]} of {self.SHOTS}"
        f_obs, d_obs = frame.observable_counts(), demb.observable_counts()
        for o in range(frame.num_observables):
            assert rates_compatible(
                int(f_obs[o]), self.SHOTS, int(d_obs[o]), self.SHOTS, self.BIAS
            ), f"observable {o}: frame {f_obs[o]} vs dem {d_obs[o]} of {self.SHOTS}"

    def test_noiseless_random_circuit_all_zero(self):
        circ = random_clifford_noise_circuit(np.random.default_rng(11), p=0.0)
        batch = FrameSimulator(circ).sample_packed(600, np.random.default_rng(0))
        assert not batch.detectors.any()
        assert not batch.observables.any()
        assert int(batch.detector_counts().sum()) == 0


def random_noise_spec(rng: np.random.Generator) -> NoiseSpec:
    """Draw a random scenario mixing every registered channel axis."""

    def channel(two_qubit: bool = False):
        r = rng.random()
        if r < 0.25:
            return None
        p = float(rng.uniform(0.002, 0.015))
        if r < 0.55:
            return DepolarizingChannel(p)
        if two_qubit and r < 0.75:
            return CorrelatedPauliChannel.depolarizing(p)
        return BiasedPauliChannel(p, eta=float(rng.choice([0.5, 2.0, 10.0, 100.0])))

    profile = None
    if rng.random() < 0.4:
        # Modest multipliers: scaled rates stay in the O(p^2) regime the
        # marginal-agreement slack was tuned for.
        profile = DeviceProfile(
            qubits={
                q: round(float(rng.uniform(0.6, 1.6)), 3)
                for q in range(int(rng.integers(1, 5)))
            },
            gates={"cnot": 1.3} if rng.random() < 0.5 else {},
        )
    drift = None
    if rng.random() < 0.4:
        drift = DriftSchedule(
            multipliers=tuple(
                round(float(m), 3) for m in rng.uniform(0.6, 1.6, size=3)
            ),
            mode=str(rng.choice(["hold", "cycle"])),
        )
    return NoiseSpec(
        sq=channel(),
        cnot=channel(two_qubit=True),
        meas=channel(),
        readout=float(rng.choice([0.0, 0.004, 0.01])),
        idle_strength=float(rng.choice([0.0, 0.0, 0.01])),
        crosstalk=float(rng.choice([0.0, 0.003, 0.008])),
        profile=profile,
        drift=drift,
    )


# One spec per channel axis in isolation, plus kitchen-sink mixes drawn
# at random — "per channel" coverage the bit-identity contract demands.
TARGETED_SPECS = {
    "sq-depolarizing": NoiseSpec(sq=DepolarizingChannel(0.01)),
    "cnot-depolarizing": NoiseSpec(cnot=DepolarizingChannel(0.01)),
    "meas-depolarizing": NoiseSpec(meas=DepolarizingChannel(0.01)),
    "sq-biased": NoiseSpec(sq=BiasedPauliChannel(0.01, eta=10.0)),
    "cnot-biased": NoiseSpec(cnot=BiasedPauliChannel(0.01, eta=100.0)),
    "meas-biased": NoiseSpec(meas=BiasedPauliChannel(0.01, eta=0.5)),
    "readout-only": NoiseSpec(readout=0.01),
    "idle-only": NoiseSpec(idle_strength=0.01),
    "cnot-correlated": NoiseSpec(cnot=CorrelatedPauliChannel.depolarizing(0.01)),
    "cnot-correlated-sparse": NoiseSpec(
        cnot=CorrelatedPauliChannel.from_pairs(
            {"XX": 0.004, "IZ": 0.003, "ZY": 0.002}
        )
    ),
    "crosstalk-only": NoiseSpec(crosstalk=0.01),
    "profile-hot-qubit": NoiseSpec.depolarizing(
        0.01,
        readout=0.005,
        profile=DeviceProfile(qubits={0: 2.0, 2: 0.5}, gates={"cnot": 1.3}),
    ),
    "drift-ramp": NoiseSpec.depolarizing(
        0.01, drift=DriftSchedule.linear(0.5, 1.5, 4)
    ),
    "calibrated-kitchen-sink": NoiseSpec(
        sq=DepolarizingChannel(0.008),
        cnot=CorrelatedPauliChannel.depolarizing(0.01),
        meas=BiasedPauliChannel(0.006, eta=10.0),
        readout=0.005,
        idle_strength=0.01,
        crosstalk=0.004,
        profile=DeviceProfile(qubits={0: 1.6, 2: 0.7}, gates={"readout": 1.4}),
        drift=DriftSchedule((0.8, 1.2), mode="cycle"),
    ),
}


class TestNoiseSpecLitmus:
    """The litmus battery over random pluggable noise scenarios.

    Every channel the registry can express must satisfy the same two
    properties the fixed model satisfies: packed hot paths bit-identical
    to the dense references, and frame↔DEM statistical agreement.
    """

    SHOTS = 517

    def _spec_for(self, seed: int) -> tuple[Circuit, NoiseSpec]:
        rng = np.random.default_rng(seed)
        circ = random_clifford_noise_circuit(rng, include_noise=False)
        names = sorted(TARGETED_SPECS)
        if seed < len(names):
            spec = TARGETED_SPECS[names[seed]]
        else:
            spec = random_noise_spec(rng)
        return spec.apply(circ), spec

    @pytest.mark.parametrize("seed", range(len(TARGETED_SPECS) + SPEC_CIRCUITS))
    def test_packed_dense_bit_identity(self, seed):
        noisy, _ = self._spec_for(seed)
        sim = FrameSimulator(noisy)
        packed = sim.sample_packed(self.SHOTS, np.random.default_rng(5000 + seed))
        dense = sim.sample_dense(self.SHOTS, np.random.default_rng(5000 + seed))
        assert_batches_equal(packed.to_dense(), dense)
        sampler = DemSampler(extract_dem(noisy))
        packed = sampler.sample_packed(self.SHOTS, np.random.default_rng(6000 + seed))
        dense = sampler.sample_dense(self.SHOTS, np.random.default_rng(6000 + seed))
        assert_batches_equal(packed.to_dense(), dense)

    SHOTS_MARGINAL = 6_000
    # Same O(p^2) independence-approximation slack as the fixed-model
    # marginal check (channel rates here are capped at 0.015).
    BIAS = 3e-3

    @pytest.mark.parametrize("seed", range(len(TARGETED_SPECS) + SPEC_CIRCUITS))
    def test_frame_dem_marginal_agreement(self, seed):
        noisy, _ = self._spec_for(seed)
        frame = FrameSimulator(noisy).sample_packed(
            self.SHOTS_MARGINAL, np.random.default_rng(7000 + seed)
        )
        demb = DemSampler(extract_dem(noisy)).sample_packed(
            self.SHOTS_MARGINAL, np.random.default_rng(8000 + seed)
        )
        assert frame.num_detectors == demb.num_detectors
        assert frame.num_observables == demb.num_observables
        f_det, d_det = frame.detector_counts(), demb.detector_counts()
        for d in range(frame.num_detectors):
            assert rates_compatible(
                int(f_det[d]),
                self.SHOTS_MARGINAL,
                int(d_det[d]),
                self.SHOTS_MARGINAL,
                self.BIAS,
            ), f"detector {d}: frame {f_det[d]} vs dem {d_det[d]}"
        f_obs, d_obs = frame.observable_counts(), demb.observable_counts()
        for o in range(frame.num_observables):
            assert rates_compatible(
                int(f_obs[o]),
                self.SHOTS_MARGINAL,
                int(d_obs[o]),
                self.SHOTS_MARGINAL,
                self.BIAS,
            ), f"observable {o}: frame {f_obs[o]} vs dem {d_obs[o]}"

    def test_readout_flip_hits_only_its_measurement(self):
        """p_m on an ancilla-style measure-then-reset qubit flips exactly
        the detectors referencing that outcome — decoupled from gates."""
        circ = Circuit()
        circ.append("R", (0,))
        circ.tick()
        circ.append("M", (0,))
        circ.tick()
        circ.append("R", (0,))
        circ.tick()
        circ.append("M", (0,))
        circ.append("DETECTOR", (0,))
        circ.append("DETECTOR", (1,))
        noisy = NoiseSpec(readout=0.3).apply(circ)
        batch = FrameSimulator(noisy).sample_packed(4096, np.random.default_rng(0))
        counts = batch.detector_counts()
        # Each detector flips only through its own measurement's readout
        # channel: both marginals ~ p_m, independently.
        for d in range(2):
            assert 0.25 * 4096 < counts[d] < 0.35 * 4096
        dem = extract_dem(noisy)
        assert all(len(m.detectors) == 1 for m in dem.mechanisms)

    def test_correlated_uniform_split_matches_depolarize2_dem(self):
        """The correlated channel's uniform p/15 split enumerates the
        exact mechanism set DEPOLARIZE2 does — the two lowerings must
        produce fingerprint-identical error models."""
        circ = random_clifford_noise_circuit(
            np.random.default_rng(21), include_noise=False
        )
        legacy = NoiseSpec.depolarizing(0.01).apply(circ)
        correlated = NoiseSpec.correlated(0.01).apply(circ)
        assert (
            extract_dem(legacy).fingerprint()
            == extract_dem(correlated).fingerprint()
        )

    def test_crosstalk_mechanism_is_correlated_in_dem(self):
        """Measurement crosstalk must appear as ONE mechanism flipping
        both neighboring detectors — not two independent singles."""
        circ = Circuit()
        circ.append("R", (0, 1))
        circ.tick()
        circ.append("M", (0,))
        circ.append("M", (1,))
        circ.append("DETECTOR", (0,))
        circ.append("DETECTOR", (1,))
        dem = extract_dem(NoiseSpec(crosstalk=0.01).apply(circ))
        assert [m.detectors for m in dem.mechanisms] == [(0, 1)]
        assert dem.mechanisms[0].prob == pytest.approx(0.01)


class TestNoiseGateStrictness:
    """Unrecognized noise gates fail loudly in every lowering consumer.

    Before the fix, ``_enumerate_noise_sites`` silently skipped gates
    outside its handled set: the decoder would run happily against a DEM
    missing mechanisms.  The frame simulator mirrors the same guard.
    """

    def _stub_circuit(self) -> Circuit:
        circ = Circuit()
        circ.append("R", (0,))
        circ.append("STUB_NOISE", (0,), (0.01,))
        circ.tick()
        circ.append("M", (0,))
        circ.append("DETECTOR", (0,))
        return circ

    def test_unhandled_noise_gate_raises_everywhere(self):
        register_noise_gate("STUB_NOISE", arity=1, num_args=1)
        try:
            circ = self._stub_circuit()
            with pytest.raises(
                ValueError, match="no lowering for noise gate 'STUB_NOISE'"
            ):
                extract_dem(circ)
            sim = FrameSimulator(circ)
            with pytest.raises(
                ValueError, match="no lowering for noise gate 'STUB_NOISE'"
            ):
                sim.sample_packed(8, np.random.default_rng(0))
            with pytest.raises(
                ValueError, match="no lowering for noise gate 'STUB_NOISE'"
            ):
                sim.sample_dense(8, np.random.default_rng(0))
        finally:
            unregister_noise_gate("STUB_NOISE")

    def test_unregistered_gate_rejected_at_append(self):
        with pytest.raises(ValueError):
            self._stub_circuit()


class TestBitBatchRepresentation:
    """Unit checks of the packing layer itself."""

    def test_pack_unpack_roundtrip_with_tail(self):
        rng = np.random.default_rng(0)
        dense = (rng.random((130, 7)) < 0.3).astype(np.uint8)
        words = pack_shots(dense)
        assert words.shape == (7, 3)  # ceil(130/64) == 3
        np.testing.assert_array_equal(unpack_shots(words, 130), dense)

    def test_counts_match_dense_sums(self):
        rng = np.random.default_rng(1)
        dense = SampleBatch(
            detectors=(rng.random((517, 5)) < 0.2).astype(np.uint8),
            observables=(rng.random((517, 2)) < 0.4).astype(np.uint8),
        )
        packed = BitSampleBatch.from_dense(dense)
        np.testing.assert_array_equal(
            packed.detector_counts(), dense.detectors.sum(axis=0)
        )
        np.testing.assert_array_equal(
            packed.observable_counts(), dense.observables.sum(axis=0)
        )
