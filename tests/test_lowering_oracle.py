"""The op-table builder and noise lowering against the object oracle.

``build_memory_experiment`` and ``NoiseSpec.apply`` write rows straight
into the circuit's op table; ``circuit_oracle`` builds the same circuits
one validated ``Operation`` at a time, the way both worked before.
``Operation.label`` is not part of ``Operation`` (or ``Circuit``)
equality, and labels are how PropHunt maps faults back to schedule
edges (§5.3), so every op is compared as ``(gate, targets, args,
label)``.

The sweep: every ``codes.library`` code under its coloration schedule
(and NZ where the code admits one), both memory bases, rounds 1 and 3,
lowered with every targeted scenario of ``test_sim_crosscheck`` and the
two-knob depolarizing model, plus 20 random specs.
"""

import dataclasses

import numpy as np
import pytest
from circuit_oracle import oracle_apply, oracle_build
from test_sim_crosscheck import TARGETED_SPECS, random_noise_spec

from repro.circuits import (
    Circuit,
    build_memory_experiment,
    coloration_schedule,
    nz_schedule,
)
from repro.codes.library import BENCHMARK_CODES
from repro.noise import BiasedPauliChannel, GateChannel, NoiseModel, NoiseSpec

SPECS = dict(
    TARGETED_SPECS, depolarizing=NoiseModel(1e-3, idle_strength=0.01).to_spec()
)


def rows(ops) -> list[tuple]:
    return [(op.gate, op.targets, op.args, op.label) for op in ops]


def experiments(name):
    """``(key, experiment, oracle ops)`` for one library code."""
    code = BENCHMARK_CODES[name]()
    schedules = [("coloration", coloration_schedule(code))]
    try:
        schedules.append(("nz", nz_schedule(code)))
    except ValueError:
        pass  # NZ needs the surface code's layout
    for sched_name, schedule in schedules:
        for basis in ("z", "x"):
            for rounds in (1, 3):
                yield (
                    (name, sched_name, basis, rounds),
                    build_memory_experiment(code, schedule, rounds, basis),
                    oracle_build(code, schedule, rounds, basis),
                )


def assert_same_rows(got: Circuit, want, key):
    assert len(got) == len(want), key
    assert rows(got) == rows(want), key
    assert got == Circuit(want), key
    assert len(set(got.labels)) == len(got.labels), key  # interned once


@pytest.mark.parametrize("name", sorted(BENCHMARK_CODES))
def test_builder_and_lowering_match_oracle(name):
    for key, experiment, want in experiments(name):
        assert_same_rows(experiment.circuit, want, key)
        assert experiment.detector_labels == [
            op.label for op in want if op.gate == "DETECTOR"
        ], key
        for spec_name, spec in SPECS.items():
            noisy = spec.apply(experiment.circuit)
            assert_same_rows(noisy, oracle_apply(spec, want), key + (spec_name,))


def test_random_specs_match_oracle():
    rng = np.random.default_rng(2024)
    names = sorted(BENCHMARK_CODES)
    circuits = [
        (key, experiment.circuit, want)
        for name in names[:4]
        for key, experiment, want in experiments(name)
    ]
    for i in range(20):
        spec = random_noise_spec(rng)
        key, circuit, want = circuits[(7 * i) % len(circuits)]
        assert_same_rows(spec.apply(circuit), oracle_apply(spec, want), key + (i,))


def test_lowering_refuses_noisy_circuits():
    c = Circuit()
    c.append("DEPOLARIZE1", [0], [0.1])
    with pytest.raises(ValueError, match="already contains noise"):
        NoiseModel(1e-3).apply(c)


def test_multi_instruction_channel_keeps_its_order():
    """A channel lowering each application to several instructions puts
    them after every op in the channel's order, as the oracle does."""

    @dataclasses.dataclass(frozen=True)
    class TwoStep(GateChannel):
        p: float
        KIND = "test-two-step"

        def ops(self, arity):
            depolarize = "DEPOLARIZE1" if arity == 1 else "DEPOLARIZE2"
            return [("PAULI_CHANNEL_1", (self.p, 0.0, 0.0)), (depolarize, (self.p,))]

        def to_payload(self):
            return {"kind": self.KIND, "p": self.p}

    code = BENCHMARK_CODES["surface_d3"]()
    schedule = coloration_schedule(code)
    experiment = build_memory_experiment(code, schedule, 2, "z")
    want = oracle_build(code, schedule, 2, "z")
    spec = NoiseSpec(
        sq=TwoStep(0.01),
        cnot=TwoStep(0.02),
        meas=BiasedPauliChannel(0.01, eta=10.0),
        readout=0.002,
    )
    assert_same_rows(spec.apply(experiment.circuit), oracle_apply(spec, want), "two")


def hand_built_circuits():
    empty = Circuit()
    ticks = Circuit()
    ticks.tick()
    ticks.tick()
    # Mixed-basis measurement layers for crosstalk, a gate after them.
    readout = Circuit()
    readout.append("M", [0, 1, 2])
    readout.append("MX", [3, 4])
    readout.append("M", [5])
    readout.tick()
    readout.append("H", [0])
    readout.append("MX", [1, 2])
    # A detector without targets, a CNOT op of two pairs, drift labels.
    labelled = Circuit()
    labelled.append("R", [0, 1])
    labelled.append("DETECTOR", [])
    labelled.tick()
    labelled.append("CNOT", [0, 1, 2, 3], label=("cnot", "x", 0, 0, 2))
    labelled.append("M", [0])
    return [empty, ticks, readout, labelled]


@pytest.mark.parametrize("spec_name", sorted(TARGETED_SPECS))
def test_hand_built_circuits_match_oracle(spec_name):
    spec = TARGETED_SPECS[spec_name]
    for i, circuit in enumerate(hand_built_circuits()):
        want = oracle_apply(spec, list(circuit))
        assert_same_rows(spec.apply(circuit), want, (spec_name, i))
