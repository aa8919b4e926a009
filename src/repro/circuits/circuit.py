"""The SM-circuit container.

A :class:`Circuit` is an ordered op table: one row per instruction,
held as arrays (:class:`OpTable`) — gate codes (:data:`GATE_NAMES`),
flat targets and arguments with per-row offsets, and label ids into
the circuit's interned ``labels`` list.  The builder, the noise
lowering and DEM extraction read and write these arrays directly.
:class:`Operation` objects are a view of the rows, built on first
iteration and cached, for the consumers that walk the circuit op by op
(simulators, resource counts, text output).

Layer boundaries are explicit ``TICK`` operations — the noise model
uses them to locate idle qubits and the idle-error study (§6.3) counts
them as gate layers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain
from typing import NamedTuple

import numpy as np

from .gates import (
    GATE_ARITY,
    GATE_CODES,
    GATE_NAMES,
    Operation,
    check_instruction,
    gate_tables,
)


class OpTable(NamedTuple):
    """A circuit's instructions as arrays, one row per op.

    Row ``i`` is gate ``GATE_NAMES[gates[i]]`` on
    ``targets[target_ptr[i]:target_ptr[i + 1]]`` with arguments
    ``args[arg_ptr[i]:arg_ptr[i + 1]]`` and label
    ``labels[label_ids[i]]`` of the owning circuit.
    """

    gates: np.ndarray  # (n,) int32 gate codes
    target_ptr: np.ndarray  # (n + 1,) int64
    targets: np.ndarray  # int64
    arg_ptr: np.ndarray  # (n + 1,) int64
    args: np.ndarray  # float64
    label_ids: np.ndarray  # (n,) int32

    @classmethod
    def empty(cls) -> "OpTable":
        ptr, no_rows = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32)
        return cls(no_rows, ptr, ptr[:0], ptr, np.zeros(0), no_rows)

    def take(self, rows: np.ndarray) -> "OpTable":
        """The table of the given rows, in the given order."""
        target_ptr, targets = gather_ragged(self.target_ptr, self.targets, rows)
        arg_ptr, args = gather_ragged(self.arg_ptr, self.args, rows)
        return OpTable(
            self.gates[rows], target_ptr, targets, arg_ptr, args, self.label_ids[rows]
        )


def ragged_offsets(counts: np.ndarray) -> np.ndarray:
    """Row offsets ``(len(counts) + 1,)`` for rows of these lengths."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def gather_ragged(ptr: np.ndarray, flat: np.ndarray, rows: np.ndarray):
    """Rows ``rows`` of a ragged array given as offsets + flat values:
    ``(new offsets, new flat values)``."""
    starts = ptr[rows]
    new_ptr = ragged_offsets(ptr[rows + 1] - starts)
    index = np.arange(new_ptr[-1]) + np.repeat(starts - new_ptr[:-1], np.diff(new_ptr))
    return new_ptr, flat[index]


class Circuit:
    """A mutable sequence of operations forming one experiment."""

    def __init__(self, operations: Iterable[Operation] | None = None):
        self._table = OpTable.empty()
        self.labels: list[tuple] = []
        self._label_index: dict[tuple, int] | None = {}
        self._pending: list[tuple] = []
        self._ops: tuple[Operation, ...] | None = None
        self._num_qubits: int | None = None
        for op in operations or ():
            self.append(op.gate, op.targets, op.args, op.label)

    @classmethod
    def from_table(cls, table: OpTable, labels: list[tuple]) -> "Circuit":
        """A circuit over a finished table.  Its rows are trusted: every
        writer builds them from checked instructions.  ``labels`` must
        hold each label once."""
        circuit = cls()
        circuit._table = table
        circuit.labels = labels
        circuit._label_index = None
        return circuit

    def __getstate__(self) -> dict:
        # The Operation views are a cache: rebuilt on demand, not pickled.
        state = dict(self.__dict__)
        state["_ops"] = None
        return state

    # -- append helpers ------------------------------------------------------

    def append(
        self,
        gate: str,
        targets: Iterable[int] = (),
        args: Iterable[float] = (),
        label: tuple = (),
    ) -> None:
        targets, args = tuple(targets), tuple(args)
        check_instruction(gate, len(targets), len(args))
        self._pending.append((GATE_CODES[gate], targets, args, self.label_id(label)))
        self._ops = None
        self._num_qubits = None

    def tick(self) -> None:
        self.append("TICK")

    def extend(self, other: "Circuit") -> None:
        for op in other:
            self.append(op.gate, op.targets, op.args, op.label)

    # -- the table -----------------------------------------------------------

    @property
    def table(self) -> OpTable:
        """The op table (appended rows included)."""
        if self._pending:
            rows, self._pending = self._pending, []
            old = self._table
            gates, targets, args, label_ids = zip(*rows)
            tcount = np.cumsum([len(t) for t in targets])
            acount = np.cumsum([len(a) for a in args])
            self._table = OpTable(
                np.append(old.gates, gates).astype(np.int32),
                np.append(old.target_ptr, old.target_ptr[-1] + tcount),
                np.append(old.targets, np.fromiter(chain(*targets), np.int64)),
                np.append(old.arg_ptr, old.arg_ptr[-1] + acount),
                np.append(old.args, np.fromiter(chain(*args), np.float64)),
                np.append(old.label_ids, label_ids).astype(np.int32),
            )
        return self._table

    def label_id(self, label: tuple, add: bool = True) -> int:
        """The id of ``label`` in ``labels`` (interned if ``add``; -1 if
        absent and not ``add``)."""
        label = tuple(label)
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        found = self._label_index.get(label)
        if found is None:
            if not add:
                return -1
            found = self._label_index[label] = len(self.labels)
            self.labels.append(label)
        return found

    def _select(self, mask: np.ndarray) -> "Circuit":
        rows = np.flatnonzero(mask)
        return Circuit.from_table(self.table.take(rows), list(self.labels))

    # -- iteration / inspection ----------------------------------------------

    @property
    def operations(self) -> tuple[Operation, ...]:
        """Every row as an :class:`Operation` view (built once)."""
        if self._ops is None:
            t = self.table
            targets, args = t.targets.tolist(), t.args.tolist()
            tp, ap = t.target_ptr.tolist(), t.arg_ptr.tolist()
            labels, view = self.labels, Operation.view
            rows = zip(t.gates.tolist(), t.label_ids.tolist())
            self._ops = tuple(
                view(
                    GATE_NAMES[g],
                    tuple(targets[tp[i] : tp[i + 1]]),
                    tuple(args[ap[i] : ap[i + 1]]),
                    labels[lab],
                )
                for i, (g, lab) in enumerate(rows)
            )
        return self._ops

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self._table.gates) + len(self._pending)

    def __eq__(self, other: object) -> bool:
        """Equal gates, targets and arguments; labels are not compared."""
        if not isinstance(other, Circuit):
            return NotImplemented
        a, b = self.table, other.table
        # Every column but the label ids.
        return all(
            x.shape == y.shape and bool(np.all(x == y)) for x, y in zip(a[:5], b[:5])
        )

    def _code_mask(self, *gates: str) -> np.ndarray:
        return np.isin(self.table.gates, [GATE_CODES[g] for g in gates])

    def _target_counts(self) -> np.ndarray:
        return np.diff(self.table.target_ptr)

    @property
    def num_qubits(self) -> int:
        if self._num_qubits is None:
            t = self.table
            on_qubits = np.repeat(gate_tables().qubit[t.gates], self._target_counts())
            touched = t.targets[on_qubits]
            self._num_qubits = int(touched.max()) + 1 if touched.size else 0
        return self._num_qubits

    @property
    def num_measurements(self) -> int:
        return self.count_gate("M") + self.count_gate("MX")

    @property
    def num_detectors(self) -> int:
        return int(self._code_mask("DETECTOR").sum())

    @property
    def num_observables(self) -> int:
        t = self.table
        rows = np.flatnonzero(self._code_mask("OBSERVABLE_INCLUDE"))
        if rows.size == 0:
            return 0
        return int(t.args[t.arg_ptr[rows]].astype(np.int64).max()) + 1

    def count_gate(self, gate: str) -> int:
        """Applications of ``gate``: target groups for a qubit gate, one
        per op with targets for an annotation."""
        counts = self._target_counts()[self._code_mask(gate)]
        arity = GATE_ARITY.get(gate)
        if arity is None:
            return int(np.count_nonzero(counts))
        return int((-(-counts // arity)).sum())

    def _layer_of_ops(self) -> np.ndarray:
        """Per op, the index of the TICK-delimited layer it lies in."""
        return np.cumsum(self._code_mask("TICK"))

    def _gate_ops(self) -> np.ndarray:
        """Mask of ops that act on qubits and are not noise."""
        tables = gate_tables()
        gates = self.table.gates
        return tables.qubit[gates] & ~tables.noise[gates]

    def num_layers(self) -> int:
        """Number of TICK-delimited layers that contain at least one gate."""
        return len(np.unique(self._layer_of_ops()[self._gate_ops()]))

    def without_noise(self) -> "Circuit":
        return self._select(~gate_tables().noise[self.table.gates])

    def validate(self) -> None:
        """Check measurement references and layer structure.

        Raises ``ValueError`` on: detector/observable referencing a
        measurement that does not exist (yet), or a qubit acted on twice
        within one TICK layer — whichever comes first in op order.
        """
        t = self.table
        counts = self._target_counts()
        op_of = np.repeat(np.arange(len(t.gates)), counts)  # per target
        first = {}

        # A qubit touched twice in a layer: a repeated (layer, qubit) key.
        touch = np.flatnonzero(np.repeat(self._gate_ops(), counts))
        if touch.size:
            key = self._layer_of_ops()[op_of[touch]] * (int(t.targets.max()) + 1)
            key = key + t.targets[touch]
            order = np.argsort(key, kind="stable")
            repeat = np.flatnonzero(key[order][1:] == key[order][:-1]) + 1
            if repeat.size:
                first["touch"] = int(touch[order[repeat]].min())

        # A reference at or past the measurements recorded before its op.
        measured = counts * gate_tables().measure[t.gates]
        before = np.cumsum(measured) - measured
        annotated = self._code_mask("DETECTOR", "OBSERVABLE_INCLUDE")
        refs = np.flatnonzero(np.repeat(annotated, counts))
        idx = t.targets[refs]
        bad = refs[(idx < 0) | (idx >= before[op_of[refs]])]
        if bad.size:
            first["ref"] = int(bad[0])

        if not first:
            return
        kind, pos = min(first.items(), key=lambda item: item[1])
        op = int(op_of[pos])
        gate = GATE_NAMES[t.gates[op]]
        value = int(t.targets[pos])
        if kind == "touch":
            raise ValueError(f"qubit {value} acted on twice in one layer ({gate})")
        raise ValueError(
            f"{gate} references measurement {value}, "
            f"only {int(before[op])} recorded so far"
        )

    def __str__(self) -> str:
        return "\n".join(str(op) for op in self.operations)

    def __repr__(self) -> str:
        return (
            f"Circuit(ops={len(self)}, qubits={self.num_qubits}, "
            f"measurements={self.num_measurements}, detectors={self.num_detectors})"
        )
