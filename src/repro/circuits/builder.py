"""Build memory-experiment circuits from a code + schedule.

A memory experiment prepares all data qubits in the Z (or X) basis, runs
``rounds`` rounds of the SM circuit, measures the data, and declares
detectors (parity checks between consecutive syndrome measurements) and
logical observables — exactly the circuit family the paper simulates for
every logical-error-rate figure ("a standard circuit-level model of d
rounds of the SM circuit", §6.1).

Qubit layout: data qubits ``0 .. n-1``, X ancillas ``n .. n+mx-1``,
Z ancillas ``n+mx .. n+mx+mz-1``.

Every CNOT carries a ``label`` of the Tanner edge it implements,
``("cnot", kind, stab, data_qubit, round)``; the noise model propagates
labels onto the error channels so that PropHunt can map circuit-level
errors back to schedule edges (§5.3).  Detectors are labelled
``(round, kind, stab)`` (with round ``-1`` for the final data-parity
detectors), a naming that is *stable across schedules* of the same code —
the property §5.4's ambiguity-removal check relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..codes.css import CSSCode
from .circuit import Circuit, OpTable, ragged_offsets
from .gates import GATE_CODES
from .schedule import Schedule

FINAL_ROUND = -1


@dataclass
class MemoryExperiment:
    """A built memory circuit plus the bookkeeping to interpret it."""

    circuit: Circuit
    code: CSSCode
    schedule: Schedule
    rounds: int
    basis: str
    detector_labels: list[tuple] = field(default_factory=list)
    observable_labels: list[tuple] = field(default_factory=list)

    def detector_index(self, label: tuple) -> int:
        return self.detector_labels.index(label)


def _ancilla_index(code: CSSCode, kind: str, stab: int) -> int:
    if kind == "x":
        return code.n + stab
    return code.n + code.num_x_stabs + stab


def build_memory_experiment(
    code: CSSCode,
    schedule: Schedule,
    rounds: int,
    basis: str = "z",
) -> MemoryExperiment:
    """Build a noiseless memory experiment (apply a NoiseModel afterwards).

    ``basis="z"`` protects the logical Z observables (detects X errors via
    the Z stabilizers); ``basis="x"`` is the mirror experiment.  The
    paper's reported logical error rates combine both (§6.1).

    Rows are written straight into the circuit's op table.  Every round
    repeats the same resets, Hadamards, CNOT layers and ancilla
    measurements, so their gates and targets are laid out once and only
    the labels (which carry the round) are made per round.
    """
    if basis not in ("x", "z"):
        raise ValueError("basis must be 'x' or 'z'")
    if rounds < 1:
        raise ValueError("need at least one round")
    if not schedule.is_valid():
        raise ValueError("schedule is invalid (commutation or cyclic dependency)")
    cnot_layers = schedule.cnot_layers()

    n = code.n
    mx, mz = code.num_x_stabs, code.num_z_stabs
    per_round = mx + mz  # ancilla measurements per round
    ancillas = list(range(n, n + per_round))
    x_ancillas = ancillas[:mx]
    tick, reset, hadamard, cnot, measure, detector = (
        GATE_CODES[g] for g in ("TICK", "R", "H", "CNOT", "M", "DETECTOR")
    )
    edges = [e for layer in cnot_layers for e in layer]

    # One round's rows as (gate, targets, label slot): slot k is the k-th
    # label of the round's block, -1 the TICK label.  The block holds the
    # shared reset label, the Hadamards', the CNOTs', the measurements'
    # and then the round's detectors'.
    hadamards = list(range(1, 1 + mx))
    meas_slot = 1 + mx + len(edges)
    det_slot = meas_slot + per_round
    gates = [reset] * per_round + [tick] + [hadamard] * mx + [tick]
    slots = [0] * per_round + [-1] + hadamards + [-1]
    targets = ancillas + x_ancillas
    slot = 1 + mx
    for layer in cnot_layers:
        for kind, s, q in layer:
            # X check: ancilla is control.  Z check: data is control.
            anc = _ancilla_index(code, kind, s)
            targets += (anc, q) if kind == "x" else (q, anc)
            gates.append(cnot)
            slots.append(slot)
            slot += 1
        gates.append(tick)
        slots.append(-1)
    gates += [hadamard] * mx + [tick] + [measure] * per_round
    slots += hadamards + [-1] + list(range(meas_slot, det_slot))
    targets += x_ancillas + ancillas
    round_gates = np.array(gates, dtype=np.int32)
    round_slots = np.array(slots)
    round_counts = np.where(round_gates == cnot, 2, np.where(round_gates == tick, 0, 1))
    round_labels = [("cnot", k, s, q) for k, s, q in edges]
    round_labels += [("anc_meas", "x", s) for s in range(mx)]
    round_labels += [("anc_meas", "z", s) for s in range(mz)]

    labels: list[tuple] = [()]  # every TICK row has label 0
    parts: list[tuple] = []  # (gate codes, target counts, targets, label ids)

    def one_row(gate: int, flat, label: tuple) -> None:
        parts.append(([gate], [len(flat)], flat, [len(labels)]))
        labels.append(label)

    detector_labels: list[tuple] = []
    for r in range(rounds):
        if r == 0:
            data_reset = GATE_CODES["R" if basis == "z" else "RX"]
            one_row(data_reset, range(n), ("data_init",))
        base = len(labels)
        labels.append(("anc_reset", r))
        labels.extend(("anc_h", "x", s, r) for s in range(mx))
        labels.extend(label + (r,) for label in round_labels)
        label_ids = np.where(round_slots < 0, 0, base + round_slots)
        parts.append((round_gates, round_counts, targets, label_ids))

        # Detectors: in round 0 only the basis-aligned stabilizers are
        # deterministic; afterwards every stabilizer is compared to its
        # previous-round value.
        now = r * per_round + np.arange(per_round)
        if r == 0:
            kinds, flat = (basis,), now[:mx] if basis == "x" else now[mx:]
        else:
            kinds, flat = ("x", "z"), np.stack([now, now - per_round], axis=1)
        block = [(r, k, s) for k in kinds for s in range(mx if k == "x" else mz)]
        detector_labels.extend(block)
        labels.extend(block)
        parts.append(
            (
                np.full(len(block), detector),
                np.full(len(block), 1 if r == 0 else 2),
                flat.reshape(-1),
                base + det_slot + np.arange(len(block)),
            )
        )
        parts.append(([tick], [0], np.zeros(0, dtype=int), [0]))

    # Final transversal data measurement in the memory basis.
    data_meas = rounds * per_round + np.arange(n)
    data_measure = GATE_CODES["M" if basis == "z" else "MX"]
    data_labels = len(labels) + np.arange(n)
    labels.extend(("data_meas", q) for q in range(n))
    parts.append(
        (np.full(n, data_measure), np.ones(n, dtype=int), range(n), data_labels)
    )
    stab_matrix = code.hz if basis == "z" else code.hx
    last = (rounds - 1) * per_round + (0 if basis == "x" else mx)
    for s, row in enumerate(stab_matrix):
        label = (FINAL_ROUND, basis, s)
        flat = np.append(data_meas[np.flatnonzero(row)], last + s)
        one_row(detector, flat, label)
        detector_labels.append(label)
    logicals = code.lz if basis == "z" else code.lx
    observable_labels = [("observable", basis, i) for i in range(len(logicals))]
    for row, label in zip(logicals, observable_labels):
        flat = data_meas[np.flatnonzero(row)]
        one_row(GATE_CODES["OBSERVABLE_INCLUDE"], flat, label)

    gate_codes, counts, flat, label_ids = (
        np.concatenate([np.asarray(part[i]) for part in parts]) for i in range(4)
    )
    # Only the observables (the last rows) carry an argument: their index.
    arg_counts = np.zeros(len(gate_codes), dtype=np.int64)
    arg_counts[len(gate_codes) - len(logicals) :] = 1
    table = OpTable(
        gates=gate_codes.astype(np.int32),
        target_ptr=ragged_offsets(counts),
        targets=flat.astype(np.int64),
        arg_ptr=ragged_offsets(arg_counts),
        args=np.arange(len(logicals), dtype=np.float64),
        label_ids=label_ids.astype(np.int32),
    )
    circuit = Circuit.from_table(table, labels)
    circuit.validate()
    return MemoryExperiment(
        circuit=circuit,
        code=code,
        schedule=schedule,
        rounds=rounds,
        basis=basis,
        detector_labels=detector_labels,
        observable_labels=observable_labels,
    )
