"""Tests for the noise model (paper §6.1 gate noise + §6.3 idle noise)."""

import math

import numpy as np
import pytest

from repro.circuits import Circuit, nz_schedule
from repro.codes import rotated_surface_code
from repro.noise import HARDWARE_IDLE_POINTS, NoiseModel


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


class TestGateNoise:
    def test_channel_placement(self):
        noisy = NoiseModel(p=0.01).apply(tiny_circuit())
        ops = [op.gate for op in noisy]
        # R -> D1, H -> D1, CNOT -> D2, D1 -> M (before measurement).
        assert ops.count("DEPOLARIZE1") == 3
        assert ops.count("DEPOLARIZE2") == 1
        i_m = ops.index("M")
        assert ops[i_m - 1] == "DEPOLARIZE1"
        i_cnot = ops.index("CNOT")
        assert ops[i_cnot + 1] == "DEPOLARIZE2"

    def test_noise_inherits_gate_labels(self):
        c = Circuit()
        c.append("CNOT", [0, 1], label=("cnot", "x", 0, 1, 0))
        noisy = NoiseModel(p=0.01).apply(c)
        d2 = [op for op in noisy if op.gate == "DEPOLARIZE2"][0]
        assert d2.label == ("cnot", "x", 0, 1, 0)

    def test_zero_p_adds_nothing(self):
        noisy = NoiseModel(p=0.0).apply(tiny_circuit())
        assert noisy == tiny_circuit()

    def test_refuses_double_noise(self):
        noisy = NoiseModel(p=0.01).apply(tiny_circuit())
        with pytest.raises(ValueError):
            NoiseModel(p=0.01).apply(noisy)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoiseModel(p=1.5)
        with pytest.raises(ValueError):
            NoiseModel(p=0.1, idle_strength=-1)


class TestIdleNoise:
    def test_idle_pauli_probability_formula(self):
        m = NoiseModel(p=0.0, idle_strength=0.1)
        assert m.idle_pauli_prob == pytest.approx((1 - math.exp(-0.1)) / 4)

    def test_idle_channels_on_idle_qubits_only(self):
        c = Circuit()
        c.append("H", [0])  # qubits 1, 2 idle
        c.tick()
        c.append("H", [1])
        c.append("H", [2])  # qubit 0 idle
        c.tick()
        noisy = NoiseModel(p=0.0, idle_strength=0.5).apply(c)
        # num_qubits comes from the gates: 3 qubits.
        idles = [op for op in noisy if op.gate == "PAULI_CHANNEL_1"]
        assert len(idles) == 2
        assert idles[0].targets == (1, 2)
        assert idles[1].targets == (0,)

    def test_zero_idle_strength_adds_no_channels(self):
        noisy = NoiseModel(p=0.01, idle_strength=0.0).apply(tiny_circuit())
        assert all(op.gate != "PAULI_CHANNEL_1" for op in noisy)

    def test_idle_noise_increases_logical_error(self):
        """More idling must hurt — the premise of Figure 15."""
        from repro.experiments.shotrunner import estimate_logical_error_rate

        code = rotated_surface_code(3)
        sched = nz_schedule(code)
        rng = np.random.default_rng(0)
        quiet = estimate_logical_error_rate(
            code, sched, p=2e-3, shots=4000, idle_strength=0.0, rng=rng
        )
        noisy = estimate_logical_error_rate(
            code, sched, p=2e-3, shots=4000, idle_strength=0.05, rng=rng
        )
        assert noisy.rate > quiet.rate

    def test_hardware_points_ordering(self):
        """Relative idle strength: movement-based atoms worst, static
        neutral atoms best (their gates are fast relative to seconds-long
        coherence), superconducting in between (§6.3 / Figure 15)."""
        assert (
            HARDWARE_IDLE_POINTS["neutral_atom_movement"]
            > HARDWARE_IDLE_POINTS["superconducting"]
            > HARDWARE_IDLE_POINTS["neutral_atom"]
        )
