"""Tests for the pluggable noise-scenario subsystem (NoiseSpec).

Covers the channel registry contract, the lowering of each channel to
labeled Pauli noise ops, exact equivalence of the depolarizing spec with
the legacy two-knob ``NoiseModel``, token resolution, and the
acceptance-level check that the rare-event stratified estimator agrees
with direct Monte Carlo on a biased ``NoiseSpec`` (the Poisson-binomial
weight pmf handles the heterogeneous mechanism probabilities biased
channels produce).
"""

import dataclasses

import numpy as np
import pytest

from repro.circuits import Circuit, nz_schedule
from repro.codes import load_benchmark_code
from repro.decoders.metrics import dem_for
from repro.experiments.shotrunner import run_shot_chunks
from repro.noise import (
    CHANNEL_REGISTRY,
    BiasedPauliChannel,
    CorrelatedPauliChannel,
    DepolarizingChannel,
    DeviceProfile,
    DriftSchedule,
    GateChannel,
    NoiseModel,
    NoiseSpec,
    channel_from_payload,
    register_channel,
    resolve_noise,
    synthetic_profile,
)
from repro.rareevent import estimate_ler_stratified


def tiny_circuit():
    c = Circuit()
    c.append("R", [0, 1])
    c.tick()
    c.append("H", [0])
    c.tick()
    c.append("CNOT", [0, 1])
    c.tick()
    c.append("M", [0, 1])
    return c


class TestRegistry:
    def test_builtin_channels_registered(self):
        assert CHANNEL_REGISTRY["depolarizing"] is DepolarizingChannel
        assert CHANNEL_REGISTRY["biased"] is BiasedPauliChannel

    def test_payload_dispatch(self):
        ch = channel_from_payload({"kind": "biased", "p": 0.01, "eta": 10.0})
        assert ch == BiasedPauliChannel(p=0.01, eta=10.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError, match="unknown channel kind"):
            channel_from_payload({"kind": "cosmic-rays", "p": 1.0})

    def test_third_party_channel_roundtrips(self):
        """The plugin contract: register, serialize, rebuild, lower."""

        @register_channel
        @dataclasses.dataclass(frozen=True)
        class XOnlyChannel(GateChannel):
            p: float
            KIND = "test-x-only"

            def ops(self, arity):
                return [("PAULI_CHANNEL_1", (self.p, 0.0, 0.0))]

            def to_payload(self):
                return {"kind": self.KIND, "p": self.p}

            @classmethod
            def from_payload(cls, payload):
                return cls(p=payload["p"])

        try:
            spec = NoiseSpec(sq=XOnlyChannel(0.02))
            rebuilt = NoiseSpec.from_payload(spec.to_payload())
            assert rebuilt == spec
            noisy = spec.apply(tiny_circuit())
            ops = [op for op in noisy if op.gate == "PAULI_CHANNEL_1"]
            assert ops and all(op.args == (0.02, 0.0, 0.0) for op in ops)
        finally:
            del CHANNEL_REGISTRY["test-x-only"]

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_channel
            class Imposter(GateChannel):
                KIND = "depolarizing"


class TestChannelValidation:
    def test_depolarizing_rate_bounds(self):
        with pytest.raises(ValueError):
            DepolarizingChannel(p=1.5)

    def test_biased_eta_positive(self):
        with pytest.raises(ValueError):
            BiasedPauliChannel(p=0.01, eta=0.0)
        with pytest.raises(ValueError):
            BiasedPauliChannel(p=0.01, eta=float("inf"))

    def test_spec_readout_bounds(self):
        with pytest.raises(ValueError):
            NoiseSpec(readout=1.5)
        with pytest.raises(ValueError):
            NoiseSpec(idle_strength=-0.1)

    def test_biased_split_sums_to_p(self):
        ch = BiasedPauliChannel(p=0.01, eta=10.0)
        px, py, pz = ch.pauli_probs()
        assert px == py
        assert px + py + pz == pytest.approx(0.01)
        assert pz / (px + py) == pytest.approx(10.0)

    def test_eta_half_is_depolarizing_split(self):
        px, py, pz = BiasedPauliChannel(p=0.03, eta=0.5).pauli_probs()
        assert px == pytest.approx(0.01)
        assert py == pytest.approx(0.01)
        assert pz == pytest.approx(0.01)


class TestLowering:
    def test_depolarizing_lowering_matches_hand_built_legacy_circuit(self):
        """Pin the exact op sequence the pre-registry ``NoiseModel``
        produced (``NoiseModel.apply`` now *delegates* to the spec, so
        the expectation is built by hand, not by calling the model)."""
        p, idle = 0.01, 0.02
        idle_p = (1.0 - np.exp(-idle)) / 4.0
        expected = Circuit()
        expected.append("R", [0, 1])
        expected.append("DEPOLARIZE1", [0, 1], (p,))
        expected.tick()
        expected.append("H", [0])
        expected.append("DEPOLARIZE1", [0], (p,))
        expected.append("PAULI_CHANNEL_1", [1], (idle_p, idle_p, idle_p))
        expected.tick()
        expected.append("CNOT", [0, 1])
        expected.append("DEPOLARIZE2", [0, 1], (p,))
        expected.tick()
        expected.append("DEPOLARIZE1", [0, 1], (p,))
        expected.append("M", [0, 1])
        noisy = NoiseSpec.depolarizing(p, idle_strength=idle).apply(tiny_circuit())
        assert noisy == expected
        # And the legacy shorthand still routes through the same spec.
        assert NoiseModel(p=p, idle_strength=idle).apply(tiny_circuit()) == expected

    def test_zero_p_spec_adds_nothing(self):
        assert NoiseSpec.depolarizing(0.0).apply(tiny_circuit()) == tiny_circuit()

    def test_biased_lowering_per_gate_class(self):
        spec = NoiseSpec.biased(0.01, eta=10.0)
        noisy = spec.apply(tiny_circuit())
        ops = [op.gate for op in noisy]
        # Every gate class lowers to PAULI_CHANNEL_1; none of the
        # depolarizing ops appear.
        assert "DEPOLARIZE1" not in ops and "DEPOLARIZE2" not in ops
        channels = [op for op in noisy if op.gate == "PAULI_CHANNEL_1"]
        # R(x2 qubits as one op), H, CNOT (independent per-qubit), M.
        assert len(channels) == 4
        px, py, pz = BiasedPauliChannel(0.01, 10.0).pauli_probs()
        assert all(op.args == (px, py, pz) for op in channels)
        i_cnot = ops.index("CNOT")
        assert ops[i_cnot + 1] == "PAULI_CHANNEL_1"
        cnot_noise = noisy.operations[i_cnot + 1]
        assert cnot_noise.targets == noisy.operations[i_cnot].targets

    def test_readout_flip_basis_alignment(self):
        c = Circuit()
        c.append("R", [0])
        c.append("RX", [1])
        c.tick()
        c.append("M", [0])
        c.append("MX", [1])
        noisy = NoiseSpec(readout=0.02).apply(c)
        flips = [op for op in noisy if op.gate == "PAULI_CHANNEL_1"]
        assert len(flips) == 2
        by_target = {op.targets[0]: op.args for op in flips}
        assert by_target[0] == (0.02, 0.0, 0.0)  # X flips a Z-basis M
        assert by_target[1] == (0.0, 0.0, 0.02)  # Z flips an X-basis MX
        # And each precedes its measurement.
        gates = [op.gate for op in noisy]
        assert gates.index("PAULI_CHANNEL_1") < gates.index("M")

    def test_per_gate_class_rates_are_independent(self):
        spec = NoiseSpec(
            sq=DepolarizingChannel(0.001),
            cnot=DepolarizingChannel(0.01),
            meas=None,
            readout=0.0,
        )
        noisy = spec.apply(tiny_circuit())
        d1 = [op for op in noisy if op.gate == "DEPOLARIZE1"]
        d2 = [op for op in noisy if op.gate == "DEPOLARIZE2"]
        assert {op.args for op in d1} == {(0.001,)}
        assert {op.args for op in d2} == {(0.01,)}
        # meas=None: no channel right before M.
        gates = [op.gate for op in noisy]
        assert gates[gates.index("M") - 1] != "DEPOLARIZE1"

    def test_channels_inherit_gate_labels(self):
        c = Circuit()
        c.append("CNOT", [0, 1], label=("cnot", "x", 0, 1, 0))
        noisy = NoiseSpec.biased(0.01, eta=2.0).apply(c)
        ch = [op for op in noisy if op.gate == "PAULI_CHANNEL_1"][0]
        assert ch.label == ("cnot", "x", 0, 1, 0)

    def test_refuses_double_noise(self):
        noisy = NoiseSpec.depolarizing(0.01).apply(tiny_circuit())
        with pytest.raises(ValueError):
            NoiseSpec(readout=0.01).apply(noisy)


class TestResolution:
    def test_none_is_depolarizing(self):
        assert resolve_noise(None, 1e-3) == NoiseSpec.depolarizing(1e-3)

    def test_spec_passthrough(self):
        spec = NoiseSpec.biased(1e-3, 10.0)
        assert resolve_noise(spec, 5e-2) is spec

    def test_inline_payload_is_absolute(self):
        payload = NoiseSpec.biased(2e-3, eta=10.0).to_payload()
        # The job's p does not rescale an inline payload.
        assert resolve_noise(payload, 9e-1) == NoiseSpec.biased(2e-3, eta=10.0)

    def test_bad_tokens_rejected(self):
        # Bad tokens normalize to ValueError naming the offender —
        # never a bare KeyError/float-parse traceback.
        with pytest.raises(ValueError, match="unknown noise token"):
            resolve_noise("quantum-gravity", 1e-3)
        with pytest.raises(ValueError, match="unknown noise clause 'volume=11'"):
            resolve_noise("biased:10,volume=11", 1e-3)
        with pytest.raises(ValueError, match="malformed bias eta 'big'"):
            resolve_noise("biased:big", 1e-3)

    def test_bare_relative_readout_clause(self):
        # "pm=p" (coefficient omitted) means 1*p; it used to crash with
        # an unhelpful float('') ValueError.
        assert resolve_noise("pm=p", 2e-3).readout == 2e-3
        assert resolve_noise("biased:10,pm=p", 2e-3).readout == 2e-3

    def test_malformed_clause_values_name_the_clause(self):
        with pytest.raises(ValueError, match="malformed noise clause pm='x2p'"):
            resolve_noise("pm=x2p", 1e-3)
        with pytest.raises(ValueError, match="malformed noise clause ct=''"):
            resolve_noise("depolarizing,ct=", 1e-3)

    def test_duplicate_clauses_rejected(self):
        # Last-wins duplicates used to be silently accepted.
        with pytest.raises(ValueError, match="duplicate noise clause 'pm'"):
            resolve_noise("biased:2,pm=0.01,pm=0.02", 1e-3)
        with pytest.raises(ValueError, match="duplicate noise clause 'ct'"):
            resolve_noise("pm=0.01,ct=2p,ct=3p", 1e-3)

    def test_crosstalk_clause_threads_through_tokens(self):
        spec = resolve_noise("correlated,ct=2p,pm=0.004", 1e-3)
        assert spec.crosstalk == 2e-3
        assert spec.readout == 0.004
        assert spec.cnot == CorrelatedPauliChannel.depolarizing(1e-3)

    def test_misspelled_payload_fields_rejected(self):
        """Unknown payload keys fail loudly: a typo'd field must not
        silently run different physics while perturbing the hash."""
        good = NoiseSpec.biased(1e-3, 10.0, readout=0.01).to_payload()
        typo = dict(good)
        typo["redout"] = typo.pop("readout")
        with pytest.raises(ValueError, match="unknown noise-spec fields"):
            NoiseSpec.from_payload(typo)
        chan_typo = dict(good)
        chan_typo["sq"] = {"kind": "depolarizing", "p": 5e-3, "eta": 99}
        with pytest.raises(ValueError, match="unknown channel payload"):
            NoiseSpec.from_payload(chan_typo)

    def test_idle_strength_threads_through_tokens(self):
        spec = resolve_noise("biased:10", 1e-3, idle_strength=0.02)
        assert spec.idle_strength == 0.02


class TestBiasedPhysics:
    """The scenario family must produce the physics it claims."""

    def test_z_bias_spares_z_memory(self):
        """Z-biased noise barely flips a z-basis memory observable but
        dominates the x-basis one — the asymmetry the sweep studies."""
        code = load_benchmark_code("surface_d3")
        sched = nz_schedule(code)
        spec = NoiseSpec.biased(8e-3, eta=100.0)
        rng = np.random.default_rng(0)
        z = run_shot_chunks(dem_for(code, sched, spec, basis="z"), 20_000, rng=rng)
        x = run_shot_chunks(
            dem_for(code, sched, spec, basis="x"), 20_000, basis="x", rng=rng
        )
        assert x.rate > 3 * z.rate

    def test_readout_error_decoupled_from_gate_error(self):
        """p_m alone produces logical errors even at zero gate error."""
        code = load_benchmark_code("surface_d3")
        sched = nz_schedule(code)
        dem = dem_for(code, sched, NoiseSpec(readout=0.02), basis="z")
        est = run_shot_chunks(dem, 20_000, rng=np.random.default_rng(1))
        assert est.rate > 0

    def test_rare_event_agrees_with_direct_mc_on_biased_spec(self):
        """Acceptance: stratified estimates on a biased NoiseSpec agree
        with direct MC within combined CIs on surface_d3."""
        code = load_benchmark_code("surface_d3")
        dem = dem_for(
            code,
            nz_schedule(code),
            NoiseSpec.biased(8e-3, eta=10.0, readout=0.01),
            basis="z",
        )
        strat = estimate_ler_stratified(
            dem,
            rng=np.random.default_rng(1),
            target_rel_halfwidth=0.08,
            max_shots=400_000,
        )
        direct = run_shot_chunks(dem, shots=400_000, rng=np.random.default_rng(3))
        assert strat.converged
        s_lo, s_hi = strat.interval
        d_lo, d_hi = direct.interval
        assert s_lo <= d_hi and d_lo <= s_hi, (strat, direct)


class TestCorrelatedChannel:
    def test_needs_15_probs(self):
        with pytest.raises(ValueError, match="15 pair probabilities"):
            CorrelatedPauliChannel(probs=(0.01,) * 3)

    def test_total_bounded(self):
        with pytest.raises(ValueError, match="sum"):
            CorrelatedPauliChannel(probs=(0.1,) * 15)

    def test_lowers_to_pauli_channel_2(self):
        ch = CorrelatedPauliChannel.from_pairs({"XX": 0.01, "ZZ": 0.02})
        ((gate, args),) = ch.ops(arity=2)
        assert gate == "PAULI_CHANNEL_2"
        assert args[4] == 0.01 and args[14] == 0.02 and sum(args) == 0.03

    def test_rejects_single_qubit_slots(self):
        ch = CorrelatedPauliChannel.depolarizing(0.01)
        with pytest.raises(ValueError, match="cannot attach"):
            ch.ops(arity=1)
        # ...and the spec catches the misconfiguration at construction.
        with pytest.raises(ValueError, match="'sq' slot"):
            NoiseSpec(sq=ch)
        with pytest.raises(ValueError, match="'meas' slot"):
            NoiseSpec(meas=ch)

    def test_payload_roundtrip(self):
        ch = CorrelatedPauliChannel.from_pairs({"XY": 1e-3})
        assert channel_from_payload(ch.to_payload()) == ch

    def test_unknown_pair_labels_rejected(self):
        with pytest.raises(ValueError, match="unknown two-qubit Pauli labels"):
            CorrelatedPauliChannel.from_pairs({"XQ": 0.1})

    def test_spec_lowering_emits_pauli_channel_2(self):
        noisy = NoiseSpec.correlated(0.01).apply(tiny_circuit())
        ((op),) = [op for op in noisy if op.gate == "PAULI_CHANNEL_2"]
        assert op.targets == (0, 1)
        assert op.args == (0.01 / 15,) * 15


class TestDeviceProfile:
    def test_scale_composes_gate_and_qubit_means(self):
        prof = DeviceProfile(qubits={0: 2.0, 1: 4.0}, gates={"cnot": 1.5})
        assert prof.scale("cnot", (0, 1)) == 1.5 * 3.0
        assert prof.scale("sq", (0,)) == 2.0
        assert prof.scale("sq", (5,)) == 1.0  # default

    def test_unknown_gate_class_rejected(self):
        with pytest.raises(ValueError, match="unknown device-profile gate classes"):
            DeviceProfile(gates={"cz": 2.0})

    def test_payload_roundtrip(self):
        prof = DeviceProfile(qubits={3: 1.7}, gates={"readout": 2.0}, default=0.9)
        assert DeviceProfile.from_payload(prof.to_payload()) == prof

    def test_profile_splits_lowered_ops_by_factor(self):
        prof = DeviceProfile(qubits={0: 2.0})
        spec = NoiseSpec.depolarizing(0.01, profile=prof)
        noisy = spec.apply(tiny_circuit())
        # R [0, 1] lowers to two DEPOLARIZE1 ops now: qubit 0 at 2x.
        d1 = [op for op in noisy if op.gate == "DEPOLARIZE1"]
        assert (tuple(d1[0].targets), d1[0].args) == ((0,), (0.02,))
        assert (tuple(d1[1].targets), d1[1].args) == ((1,), (0.01,))
        # The CNOT pair averages the qubit multipliers: (2 + 1) / 2.
        (d2,) = [op for op in noisy if op.gate == "DEPOLARIZE2"]
        assert d2.args == (0.015,)

    def test_uniform_profile_is_lowering_noop(self):
        base = NoiseSpec.depolarizing(0.01, readout=0.002)
        uniform = NoiseSpec.depolarizing(
            0.01, readout=0.002, profile=DeviceProfile(qubits={0: 1.0})
        )
        assert [
            (op.gate, tuple(op.targets), op.args) for op in base.apply(tiny_circuit())
        ] == [
            (op.gate, tuple(op.targets), op.args)
            for op in uniform.apply(tiny_circuit())
        ]
        # ...and content-addresses identically.
        assert uniform.key() == base.key()

    def test_overscaling_fails_loudly(self):
        prof = DeviceProfile(qubits={0: 100.0, 1: 100.0})
        with pytest.raises(ValueError, match="pushes DEPOLARIZE1"):
            NoiseSpec.depolarizing(0.5, profile=prof).apply(tiny_circuit())

    def test_synthetic_profile_deterministic(self):
        assert synthetic_profile(9, seed=3) == synthetic_profile(9, seed=3)
        assert synthetic_profile(9, seed=3) != synthetic_profile(9, seed=4)
        assert not synthetic_profile(9).is_uniform()

    def test_payload_roundtrips_through_spec(self):
        spec = NoiseSpec.depolarizing(0.01, profile=synthetic_profile(5, seed=1))
        assert NoiseSpec.from_payload(spec.to_payload()) == spec


class TestDriftSchedule:
    def test_hold_and_cycle_indexing(self):
        hold = DriftSchedule((1.0, 2.0, 3.0))
        assert [hold.factor(r) for r in (-1, 0, 2, 5)] == [1.0, 1.0, 3.0, 3.0]
        cyc = DriftSchedule((1.0, 2.0, 3.0), mode="cycle")
        assert [cyc.factor(r) for r in (3, 4)] == [1.0, 2.0]

    def test_linear_ramp(self):
        sched = DriftSchedule.linear(1.0, 2.0, 5)
        assert sched.multipliers == (1.0, 1.25, 1.5, 1.75, 2.0)

    def test_payload_roundtrip(self):
        sched = DriftSchedule((0.5, 1.5), mode="cycle")
        assert DriftSchedule.from_payload(sched.to_payload()) == sched
        with pytest.raises(ValueError, match="unknown drift-schedule fields"):
            DriftSchedule.from_payload({"multipliers": [1.0], "model": "hold"})

    def test_drift_scales_rounds_independently(self):
        c = Circuit()
        c.append("CNOT", [0, 1], label=("cnot", "x", 0, 1, 0))
        c.tick()
        c.append("CNOT", [0, 1], label=("cnot", "x", 0, 1, 1))
        spec = NoiseSpec.depolarizing(0.01, drift=DriftSchedule((1.0, 3.0)))
        d2 = [op for op in spec.apply(c) if op.gate == "DEPOLARIZE2"]
        assert [op.args for op in d2] == [(0.01,), (0.03,)]

    def test_unlabeled_circuit_uses_round_zero(self):
        spec = NoiseSpec.depolarizing(0.01, drift=DriftSchedule((2.0, 9.0)))
        d2 = [op for op in spec.apply(tiny_circuit()) if op.gate == "DEPOLARIZE2"]
        assert [op.args for op in d2] == [(0.02,)]

    def test_uniform_drift_keeps_key(self):
        base = NoiseSpec.depolarizing(0.01)
        held = NoiseSpec.depolarizing(0.01, drift=DriftSchedule((1.0, 1.0)))
        assert held.key() == base.key()


class TestMeasurementCrosstalk:
    def test_chain_pairs_same_basis_measurements(self):
        c = Circuit()
        c.append("M", [0])
        c.append("M", [1])
        c.append("MX", [2])
        c.append("M", [3])
        noisy = NoiseSpec(crosstalk=0.01).apply(c)
        pc2 = [op for op in noisy if op.gate == "PAULI_CHANNEL_2"]
        # Three M qubits -> chain (0,1), (1,3); single MX qubit -> none.
        assert [tuple(op.targets) for op in pc2] == [(0, 1), (1, 3)]
        for op in pc2:
            assert op.args[4] == 0.01 and sum(op.args) == 0.01  # XX flavor
        # Injected before the layer's first measurement.
        gates = [op.gate for op in noisy]
        assert gates.index("PAULI_CHANNEL_2") < gates.index("M")

    def test_mx_pairs_use_zz_flavor(self):
        c = Circuit()
        c.append("MX", [0])
        c.append("MX", [1])
        (op,) = [
            op
            for op in NoiseSpec(crosstalk=0.02).apply(c)
            if op.gate == "PAULI_CHANNEL_2"
        ]
        assert op.args[14] == 0.02 and sum(op.args) == 0.02

    def test_ticks_reset_pairing(self):
        c = Circuit()
        c.append("M", [0])
        c.tick()
        c.append("M", [1])
        noisy = NoiseSpec(crosstalk=0.01).apply(c)
        assert not [op for op in noisy if op.gate == "PAULI_CHANNEL_2"]

    def test_crosstalk_flips_neighboring_readouts(self):
        """The correlated flip really lands on both outcomes at once."""
        c = Circuit()
        c.append("R", [0, 1])
        c.tick()
        c.append("M", [0])
        c.append("M", [1])
        c.append("DETECTOR", [0], label=(0, "z", 0))
        c.append("DETECTOR", [1], label=(0, "z", 1))
        from repro.sim import FrameSimulator

        batch = FrameSimulator(NoiseSpec(crosstalk=1.0).apply(c)).sample_dense(
            shots=64, rng=np.random.default_rng(0)
        )
        assert batch.detectors.all()  # both readouts flip in every shot
