"""Operation definitions for the SM-circuit intermediate representation.

The IR mirrors the subset of Stim's language the paper's tooling needs:
Clifford gates, resets/measurements in X and Z bases, Pauli noise
channels, layer separators (TICK), and detector/observable annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..gf2.kernels import WALK_GATES, WALK_NOISE_GATES

# Gates that act on qubits.  NOISE_GATES and ALL_GATES are plain
# (mutable) sets so :func:`register_noise_gate` can extend the IR —
# every importer binds the same set objects, so registration is visible
# stack-wide.  The simulators stay strict about it: a registered noise
# gate they cannot lower raises instead of being silently dropped.
CLIFFORD_GATES = frozenset({"H", "CNOT"})
RESET_GATES = frozenset({"R", "RX"})
MEASURE_GATES = frozenset({"M", "MX"})
NOISE_GATES = {"DEPOLARIZE1", "DEPOLARIZE2", "PAULI_CHANNEL_1", "PAULI_CHANNEL_2"}
ANNOTATIONS = frozenset({"DETECTOR", "OBSERVABLE_INCLUDE", "TICK"})

ALL_GATES = set(
    CLIFFORD_GATES | RESET_GATES | MEASURE_GATES | NOISE_GATES | ANNOTATIONS
)

# How many qubits each qubit-gate consumes per application.
GATE_ARITY = {
    "H": 1,
    "CNOT": 2,
    "R": 1,
    "RX": 1,
    "M": 1,
    "MX": 1,
    "DEPOLARIZE1": 1,
    "DEPOLARIZE2": 2,
    "PAULI_CHANNEL_1": 1,
    "PAULI_CHANNEL_2": 2,
}

# Every gate name has a small integer code, the form the circuit's op
# table stores.  The qubit gates take the codes the DEM walk kernel
# reads, then come the annotations; registered noise gates take the
# next free code, never reused.
GATE_NAMES: list[str] = [
    *WALK_GATES,
    *WALK_NOISE_GATES,
    "DETECTOR",
    "OBSERVABLE_INCLUDE",
    "TICK",
]
GATE_CODES: dict[str, int] = {name: code for code, name in enumerate(GATE_NAMES)}

# Bumped on every registration change, so per-code lookup tables
# derived from the sets above know when to rebuild.
_REGISTRY_VERSION = [0]

# Required argument count per noise gate (None = unconstrained).
NOISE_GATE_ARGS = {
    "DEPOLARIZE1": 1,
    "DEPOLARIZE2": 1,
    "PAULI_CHANNEL_1": 3,
    # The 15 non-identity two-qubit Pauli pair probabilities, in the
    # canonical order of repro.sim.dem._TWO_QUBIT_PAULIS (IX, IY, IZ,
    # XI, XX, ..., ZZ).
    "PAULI_CHANNEL_2": 15,
}


def register_noise_gate(name: str, arity: int, num_args: int | None = None) -> None:
    """Register an additional noise-gate name in the IR.

    Extension hook for experimental channels: the circuit layer accepts
    the gate, but any simulator / DEM extractor that has no lowering for
    it must *raise* rather than skip it (``tests/test_sim_dem.py`` pins
    that contract with a stub gate).  Use :func:`unregister_noise_gate`
    to undo (tests should always clean up).
    """
    if name in ALL_GATES and name not in NOISE_GATES:
        raise ValueError(f"{name!r} already names a non-noise gate")
    NOISE_GATES.add(name)
    ALL_GATES.add(name)
    GATE_ARITY[name] = arity
    if num_args is not None:
        NOISE_GATE_ARGS[name] = num_args
    if name not in GATE_CODES:
        GATE_CODES[name] = len(GATE_NAMES)
        GATE_NAMES.append(name)
    _REGISTRY_VERSION[0] += 1


def unregister_noise_gate(name: str) -> None:
    """Remove a gate added by :func:`register_noise_gate`."""
    NOISE_GATES.discard(name)
    ALL_GATES.discard(name)
    GATE_ARITY.pop(name, None)
    NOISE_GATE_ARGS.pop(name, None)
    _REGISTRY_VERSION[0] += 1


def check_instruction(gate: str, num_targets: int, num_args: int) -> None:
    """Raise ``ValueError`` unless ``gate`` with this many targets and
    arguments is a well-formed instruction."""
    if gate not in ALL_GATES:
        raise ValueError(f"unknown gate {gate!r}")
    arity = GATE_ARITY.get(gate)
    if arity is not None and num_targets % arity != 0:
        raise ValueError(f"{gate} takes groups of {arity} targets, got {num_targets}")
    want_args = NOISE_GATE_ARGS.get(gate)
    if want_args is not None and num_args != want_args:
        raise ValueError(
            f"{gate} needs {want_args} probability argument(s), got {num_args}"
        )
    if gate == "OBSERVABLE_INCLUDE" and num_args != 1:
        raise ValueError("OBSERVABLE_INCLUDE needs the observable index")


@dataclass(frozen=True)
class Operation:
    """A single instruction.

    ``targets`` are qubit indices for gates/noise, or *absolute measurement
    indices* for DETECTOR / OBSERVABLE_INCLUDE.  ``args`` carry noise
    probabilities (or the observable index for OBSERVABLE_INCLUDE).
    ``label`` is opaque metadata — the builder stamps detectors with
    ``(round, kind, stab)`` so they can be matched across different
    schedules of the same code (needed by PropHunt's pruning stage §5.4).
    """

    gate: str
    targets: tuple[int, ...] = ()
    args: tuple[float, ...] = ()
    label: tuple = field(default=(), compare=False)

    def __post_init__(self):
        check_instruction(self.gate, len(self.targets), len(self.args))

    @classmethod
    def view(cls, gate: str, targets: tuple, args: tuple, label: tuple) -> "Operation":
        """An operation read back from a circuit's op table, which was
        checked when the row was written, so it is not checked again."""
        op = object.__new__(cls)
        object.__setattr__(op, "gate", gate)
        object.__setattr__(op, "targets", targets)
        object.__setattr__(op, "args", args)
        object.__setattr__(op, "label", label)
        return op

    def target_groups(self) -> list[tuple[int, ...]]:
        """Split flattened targets into per-application groups."""
        arity = GATE_ARITY.get(self.gate, len(self.targets) or 1)
        if arity == 0:
            return []
        return [
            tuple(self.targets[i : i + arity])
            for i in range(0, len(self.targets), arity)
        ]

    def is_noise(self) -> bool:
        return self.gate in NOISE_GATES

    def is_measurement(self) -> bool:
        return self.gate in MEASURE_GATES

    def __str__(self) -> str:
        parts = [self.gate]
        if self.args:
            parts.append("(" + ",".join(f"{a:g}" for a in self.args) + ")")
        if self.targets:
            parts.append(" " + " ".join(str(t) for t in self.targets))
        return "".join(parts)


class GateTables(NamedTuple):
    """Per-code lookups over :data:`GATE_NAMES`, for array code that
    reads a circuit's op table.  ``arity`` is 0 for annotations."""

    arity: np.ndarray
    qubit: np.ndarray
    noise: np.ndarray
    measure: np.ndarray


_TABLES: list = [None, -1]  # [GateTables, registry version it was built at]


def gate_tables() -> GateTables:
    """The lookups for the current gate registry (rebuilt after a
    noise gate is registered or unregistered)."""
    if _TABLES[1] != _REGISTRY_VERSION[0]:
        names = GATE_NAMES
        _TABLES[0] = GateTables(
            arity=np.array([GATE_ARITY.get(g, 0) for g in names], dtype=np.int64),
            qubit=np.array([g in GATE_ARITY for g in names], dtype=bool),
            noise=np.array([g in NOISE_GATES for g in names], dtype=bool),
            measure=np.array([g in MEASURE_GATES for g in names], dtype=bool),
        )
        _TABLES[1] = _REGISTRY_VERSION[0]
    return _TABLES[0]
