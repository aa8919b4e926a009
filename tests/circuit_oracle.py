"""Reference memory-experiment builder and noise lowering, one object per op.

This is how ``repro.circuits.builder.build_memory_experiment`` and
``repro.noise.NoiseSpec.apply`` produced circuits before both wrote the
circuit's op table directly: every instruction is a validated
:class:`~repro.circuits.gates.Operation`, appended one at a time.  It is
kept, in behaviour unchanged, as the oracle the table writers are
compared against op for op, labels included
(``tests/test_lowering_oracle.py``).

Both functions return plain ``list[Operation]``: the oracle never goes
through the op table it checks.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.builder import FINAL_ROUND
from repro.circuits.gates import GATE_ARITY, MEASURE_GATES, NOISE_GATES, Operation
from repro.noise.channels import TWO_QUBIT_PAULI_LABELS, GateChannel
from repro.noise.drift import label_round
from repro.noise.spec import NoiseSpec, _scaled_args

_XTALK_INDEX = {
    "M": TWO_QUBIT_PAULI_LABELS.index("XX"),
    "MX": TWO_QUBIT_PAULI_LABELS.index("ZZ"),
}


def _ancilla_index(code, kind: str, stab: int) -> int:
    if kind == "x":
        return code.n + stab
    return code.n + code.num_x_stabs + stab


def oracle_build(code, schedule, rounds: int, basis: str = "z") -> list[Operation]:
    """The memory experiment's ops, built one ``Operation`` at a time."""
    if basis not in ("x", "z"):
        raise ValueError("basis must be 'x' or 'z'")
    if rounds < 1:
        raise ValueError("need at least one round")
    if not schedule.is_valid():
        raise ValueError("schedule is invalid (commutation or cyclic dependency)")

    ops: list[Operation] = []

    def append(gate, targets=(), args=(), label=()):
        ops.append(Operation(gate, tuple(targets), tuple(args), tuple(label)))

    n = code.n
    mx, mz = code.num_x_stabs, code.num_z_stabs
    cnot_layers = schedule.cnot_layers()
    x_ancillas = [_ancilla_index(code, "x", s) for s in range(mx)]
    z_ancillas = [_ancilla_index(code, "z", s) for s in range(mz)]
    meas_index: dict[tuple, int] = {}

    def record(label: tuple) -> None:
        meas_index[label] = len(meas_index)

    for r in range(rounds):
        if r == 0:
            append("R" if basis == "z" else "RX", range(n), label=("data_init",))
        for a in x_ancillas + z_ancillas:
            append("R", [a], label=("anc_reset", r))
        append("TICK")
        for s, a in enumerate(x_ancillas):
            append("H", [a], label=("anc_h", "x", s, r))
        append("TICK")
        for layer in cnot_layers:
            for kind, s, q in layer:
                anc = _ancilla_index(code, kind, s)
                pair = (anc, q) if kind == "x" else (q, anc)
                append("CNOT", pair, label=("cnot", kind, s, q, r))
            append("TICK")
        for s, a in enumerate(x_ancillas):
            append("H", [a], label=("anc_h", "x", s, r))
        append("TICK")
        for s, a in enumerate(x_ancillas):
            append("M", [a], label=("anc_meas", "x", s, r))
            record((r, "x", s))
        for s, a in enumerate(z_ancillas):
            append("M", [a], label=("anc_meas", "z", s, r))
            record((r, "z", s))
        for kind, count in (("x", mx), ("z", mz)):
            for s in range(count):
                label = (r, kind, s)
                if r == 0:
                    if kind == basis:
                        append("DETECTOR", [meas_index[(0, kind, s)]], label=label)
                else:
                    append(
                        "DETECTOR",
                        [meas_index[(r, kind, s)], meas_index[(r - 1, kind, s)]],
                        label=label,
                    )
        append("TICK")

    for q in range(n):
        append("M" if basis == "z" else "MX", [q], label=("data_meas", q))
        record(("data", q))
    stab_matrix = code.hz if basis == "z" else code.hx
    last = rounds - 1
    for s in range(stab_matrix.shape[0]):
        support = np.nonzero(stab_matrix[s])[0]
        targets = [meas_index[("data", int(q))] for q in support]
        targets.append(meas_index[(last, basis, s)])
        append("DETECTOR", targets, label=(FINAL_ROUND, basis, s))
    logicals = code.lz if basis == "z" else code.lx
    for i, row in enumerate(logicals):
        support = np.nonzero(row)[0]
        append(
            "OBSERVABLE_INCLUDE",
            [meas_index[("data", int(q))] for q in support],
            args=[i],
            label=("observable", basis, i),
        )
    return ops


def _measurement_crosstalk_pairs(ops):
    """``{first_meas_op_idx: [(basis, (a, b)), ...]}`` per TICK layer."""
    pairs_at: dict[int, list[tuple[str, tuple[int, int]]]] = {}
    layer_meas: dict[str, list[int]] = {g: [] for g in MEASURE_GATES}
    first_idx: int | None = None

    def flush():
        nonlocal first_idx
        pairs = [
            (gate, (a, b))
            for gate in sorted(layer_meas)
            for a, b in zip(layer_meas[gate], layer_meas[gate][1:])
        ]
        if pairs and first_idx is not None:
            pairs_at[first_idx] = pairs
        for qs in layer_meas.values():
            qs.clear()
        first_idx = None

    for idx, op in enumerate(ops):
        if op.gate == "TICK":
            flush()
        elif op.gate in MEASURE_GATES:
            if first_idx is None:
                first_idx = idx
            layer_meas[op.gate].extend(op.targets)
    flush()
    return pairs_at


def oracle_apply(spec: NoiseSpec, circuit_ops) -> list[Operation]:
    """``spec`` lowered onto ``circuit_ops``, one ``Operation`` at a time."""
    circuit_ops = list(circuit_ops)
    if any(op.is_noise() for op in circuit_ops):
        raise ValueError("circuit already contains noise operations")
    noisy: list[Operation] = []
    highest = -1
    for op in circuit_ops:
        if op.gate in GATE_ARITY and op.targets:
            highest = max(highest, max(op.targets))
    all_qubits = frozenset(range(highest + 1))
    idle_p = spec.idle_pauli_prob
    profile = spec.profile
    drift = spec.drift
    xtalk_at = _measurement_crosstalk_pairs(circuit_ops) if spec.crosstalk > 0 else {}
    current_round = 0
    layer_active: set[int] = set()
    layer_had_gates = False

    def append(gate, targets, args, label):
        noisy.append(Operation(gate, tuple(targets), tuple(args), tuple(label)))

    def append_scaled(gate, targets, args, gate_class, label):
        if profile is None and drift is None:
            append(gate, targets, args, label)
            return
        arity = GATE_ARITY[gate]
        groups = [tuple(targets[i : i + arity]) for i in range(0, len(targets), arity)]
        round_factor = drift.factor(current_round) if drift is not None else 1.0
        factors = [
            round_factor * (1.0 if profile is None else profile.scale(gate_class, g))
            for g in groups
        ]
        start = 0
        for i in range(1, len(groups) + 1):
            if i < len(groups) and factors[i] == factors[start]:
                continue
            run = [q for g in groups[start:i] for q in g]
            f = factors[start]
            append(gate, run, args if f == 1.0 else _scaled_args(gate, args, f), label)
            start = i

    def emit(channel: GateChannel | None, op, gate_class: str) -> None:
        if channel is None:
            return
        arity = GATE_ARITY[op.gate]
        for gate, args in channel.ops(arity):
            append_scaled(gate, op.targets, args, gate_class, op.label)

    def close_layer():
        nonlocal layer_had_gates
        if idle_p > 0 and layer_had_gates:
            idle = sorted(all_qubits - layer_active)
            if idle:
                append_scaled(
                    "PAULI_CHANNEL_1", idle, (idle_p, idle_p, idle_p), "idle", ("idle",)
                )
        layer_active.clear()
        layer_had_gates = False

    for op_idx, op in enumerate(circuit_ops):
        if op.gate == "TICK":
            close_layer()
            noisy.append(op)
            continue
        round_index = label_round(op.label)
        if round_index is not None and round_index > current_round:
            current_round = round_index
        if op.gate in GATE_ARITY and op.gate not in NOISE_GATES:
            layer_active.update(op.targets)
            layer_had_gates = True
        if op.gate in MEASURE_GATES:
            for basis, pair in xtalk_at.get(op_idx, ()):
                args = [0.0] * 15
                args[_XTALK_INDEX[basis]] = spec.crosstalk
                label = ("crosstalk",) + pair
                append_scaled("PAULI_CHANNEL_2", pair, tuple(args), "crosstalk", label)
            emit(spec.meas, op, "meas")
            if spec.readout > 0:
                if op.gate == "M":
                    args = (spec.readout, 0.0, 0.0)
                else:
                    args = (0.0, 0.0, spec.readout)
                append_scaled("PAULI_CHANNEL_1", op.targets, args, "readout", op.label)
            noisy.append(op)
        elif op.gate == "CNOT":
            noisy.append(op)
            emit(spec.cnot, op, "cnot")
        elif op.gate in ("R", "RX", "H"):
            noisy.append(op)
            emit(spec.sq, op, "sq")
        else:
            noisy.append(op)
    close_layer()
    return noisy
