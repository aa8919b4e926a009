"""Composable noise scenarios: the :class:`NoiseSpec`.

A ``NoiseSpec`` assembles per-gate-class channels
(:mod:`repro.noise.channels`) into one circuit-level noise scenario:

* ``sq`` — channel after every single-qubit operation (R, RX, H);
* ``cnot`` — channel after every CNOT;
* ``meas`` — gate-error channel just before every measurement;
* ``readout`` — an *independent* readout flip probability ``p_m``,
  decoupled from the gate error: a basis-aligned Pauli just before the
  measurement (X before M, Z before MX), which flips exactly that
  outcome;
* ``crosstalk`` — measurement crosstalk: a correlated basis-aligned
  two-qubit Pauli (``XX`` before M pairs, ``ZZ`` before MX pairs)
  chaining consecutive same-basis measurements within a TICK layer, so
  one mechanism flips two neighboring readouts at once;
* ``idle_strength`` — the Pauli-twirled idle channel of paper §6.3,
  attached to every qubit not acted on in a TICK-delimited layer;
* ``profile`` — per-qubit / per-gate-class calibration multipliers
  (:class:`~repro.noise.profile.DeviceProfile`) over every lowered
  instruction;
* ``drift`` — round-indexed rate multipliers
  (:class:`~repro.noise.drift.DriftSchedule`), derived from the circuit
  builder's op labels.

Everything lowers to the labeled Pauli noise ops of the IR, so the
frame simulator, DEM extraction, packed samplers, decoders, and the
rare-event estimator run unchanged on any spec (the Poisson-binomial
weight pmf already handles heterogeneous mechanism probabilities).

Specs are serializable (:meth:`NoiseSpec.to_payload` — the canonical
``noise-spec-v1`` dict) and canonical-JSON-hashable
(:meth:`NoiseSpec.key`): the campaign engine hashes the payload into
``CampaignJob`` keys, so every result-affecting noise knob is content-
addressed.  Uniform (all-ones) profiles and drift schedules are
physically no-ops and are omitted from the payload, so a spec with and
without them content-addresses identically — and pre-existing payloads
keep their keys.

Caveat shared by every pre-measurement error (including ``readout`` and
``crosstalk``): the injected Pauli stays on the qubit after the
measurement.  For the memory experiments this is exactly Stim-style
readout error (ancillas are reset each round, data qubits are measured
last), but on circuits that keep using a measured qubit without
resetting it the flip also propagates forward — it is a physical
error, not a classical record-only flip.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from ..circuits.circuit import Circuit, OpTable, gather_ragged, ragged_offsets
from ..circuits.gates import (
    GATE_ARITY,
    GATE_CODES,
    GATE_NAMES,
    check_instruction,
    gate_tables,
)
from .channels import (
    BiasedPauliChannel,
    CorrelatedPauliChannel,
    DepolarizingChannel,
    GateChannel,
    TWO_QUBIT_PAULI_LABELS,
    channel_from_payload,
)
from .drift import DriftSchedule, label_round
from .profile import DeviceProfile

NOISE_FORMAT = "noise-spec-v1"

# Crosstalk flavor per measurement basis: the Pauli pair that flips
# both outcomes, as an index into the canonical PAULI_CHANNEL_2 args.
_XTALK_INDEX = {
    "M": TWO_QUBIT_PAULI_LABELS.index("XX"),
    "MX": TWO_QUBIT_PAULI_LABELS.index("ZZ"),
}


def _canonical_json(payload: Any) -> str:
    # Same canonicalization as repro.experiments.store.canonical_json,
    # inlined so the noise layer does not depend on the experiments
    # layer (which imports this module).
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _scaled_args(gate: str, args: tuple[float, ...], factor: float) -> tuple:
    """Scale a noise op's probabilities, failing loudly past unity."""
    scaled = tuple(a * factor for a in args)
    total = scaled[0] if gate in ("DEPOLARIZE1", "DEPOLARIZE2") else sum(scaled)
    if total > 1.0:
        raise ValueError(
            f"profile/drift scaling (x{factor:g}) pushes {gate} total "
            f"probability to {total:g} > 1"
        )
    return scaled


# Where a lowered row goes relative to the clean op it attaches to:
# phase ``_OP`` is the op itself (see :meth:`NoiseSpec.apply`).
_IDLE, _XTALK, _MEAS, _READOUT, _OP, _AFTER = range(6)


class _Block(NamedTuple):
    """Op-table rows with a sort key each, all of one gate class."""

    keys: np.ndarray
    gates: np.ndarray
    tcount: np.ndarray
    targets: np.ndarray
    acount: np.ndarray
    args: np.ndarray
    label_ids: np.ndarray
    gate_class: str

    @classmethod
    def from_rows(cls, rows: list[tuple], gate_class: str) -> "_Block":
        """From ``(key, gate code, targets, args, label id)`` tuples."""
        return cls(
            keys=np.array([r[0] for r in rows], dtype=np.int64),
            gates=np.array([r[1] for r in rows], dtype=np.int32),
            tcount=np.array([len(r[2]) for r in rows], dtype=np.int64),
            targets=np.array([q for r in rows for q in r[2]], dtype=np.int64),
            acount=np.array([len(r[3]) for r in rows], dtype=np.int64),
            args=np.array([a for r in rows for a in r[3]], dtype=np.float64),
            label_ids=np.array([r[4] for r in rows], dtype=np.int64),
            gate_class=gate_class,
        )

    def rows(self):
        """The block as ``(key, gate code, targets, args, label id)``."""
        tp = ragged_offsets(self.tcount).tolist()
        ap = ragged_offsets(self.acount).tolist()
        targets, args = self.targets.tolist(), self.args.tolist()
        columns = zip(self.keys.tolist(), self.gates.tolist(), self.label_ids.tolist())
        for i, (key, gate, label) in enumerate(columns):
            row_args = tuple(args[ap[i] : ap[i + 1]])
            yield key, gate, targets[tp[i] : tp[i + 1]], row_args, label


class _Lowering:
    """Noise rows lowered onto one clean op table, and the labels they
    add to the clean circuit's."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.t = circuit.table
        self.labels = list(circuit.labels)
        self.added: dict[tuple, int] = {}
        self.blocks: list[_Block] = []

    def label_id(self, label: tuple) -> int:
        found = self.circuit.label_id(label, add=False)
        if found < 0:
            found = self.added.setdefault(label, len(self.labels))
            if found == len(self.labels):
                self.labels.append(label)
        return found

    def add(self, keys, gate, tcount, targets, args, label_ids, gate_class) -> None:
        """Rows of one gate; ``args`` is ``(rows, num_args)``."""
        args = np.asarray(args, dtype=np.float64)
        block = _Block(
            keys=np.asarray(keys, dtype=np.int64),
            gates=np.full(len(keys), GATE_CODES[gate], dtype=np.int32),
            tcount=np.asarray(tcount, dtype=np.int64),
            targets=np.asarray(targets, dtype=np.int64),
            acount=np.full(len(keys), args.shape[1]),
            args=args.reshape(-1),
            label_ids=np.asarray(label_ids, dtype=np.int64),
            gate_class=gate_class,
        )
        self.blocks.append(block)

    def same_targets(self, ops, phase, gate, args, gate_class) -> None:
        """One ``gate`` row per op of ``ops``, on that op's targets and
        with its label."""
        t = self.t
        ptr, targets = gather_ragged(t.target_ptr, t.targets, ops)
        keys, label_ids = 8 * ops + phase, t.label_ids[ops]
        self.add(keys, gate, np.diff(ptr), targets, args, label_ids, gate_class)

    def channel(self, channel, ops, phase, gate_class, arity) -> None:
        """``channel`` lowered onto every op of ``ops``."""
        if channel is None or ops.size == 0:
            return
        counts = np.unique(np.diff(self.t.target_ptr)[ops]).tolist()
        # One block per lowered instruction: the stable merge keeps an
        # op's instructions in the channel's order.
        for gate, args in channel.ops(arity):
            for count in counts:
                check_instruction(gate, count, len(args))
            args = np.tile(args, (len(ops), 1))
            self.same_targets(ops, phase, gate, args, gate_class)

    def idle(self, p: float) -> None:
        """One idle channel per TICK-delimited layer that has gates, on
        the qubits none of them touches, before the TICK closing it."""
        t = self.t
        counts = np.diff(t.target_ptr)
        is_tick = t.gates == GATE_CODES["TICK"]
        layer = np.cumsum(is_tick) - is_tick  # a TICK closes the layer before
        gate_ops = gate_tables().qubit[t.gates]
        had_gates = np.zeros(int(is_tick.sum()) + 1, dtype=bool)
        had_gates[layer[gate_ops]] = True
        active = np.zeros((len(had_gates), self.circuit.num_qubits), dtype=bool)
        on_qubits = np.repeat(gate_ops, counts)
        active[np.repeat(layer, counts)[on_qubits], t.targets[on_qubits]] = True
        idle = ~active & had_gates[:, None]
        emit = np.flatnonzero(idle.any(axis=1))
        closes = np.append(np.flatnonzero(is_tick), len(t.gates))[emit]
        per_layer, qubits = np.nonzero(idle[emit])
        self.add(
            keys=8 * closes + _IDLE,
            gate="PAULI_CHANNEL_1",
            tcount=np.bincount(per_layer, minlength=len(emit)),
            targets=qubits,
            args=np.full((len(emit), 3), p),
            label_ids=np.full(len(emit), self.label_id(("idle",))),
            gate_class="idle",
        )

    def crosstalk(self, p: float, measure: np.ndarray) -> None:
        """Chain-pair same-basis measurements within each TICK layer.

        The correlated flips go just before a layer's first measurement.
        Qubits are paired consecutively in appearance order (overlapping
        chain ``(q0,q1), (q1,q2), ...``), the usual nearest-neighbor
        readout-crosstalk approximation for a multiplexed readout line.
        """
        t = self.t
        layer = np.cumsum(t.gates == GATE_CODES["TICK"])
        by_layer: dict[int, tuple[int, dict[str, list[int]]]] = {}
        for i in measure.tolist():
            first, qubits = by_layer.setdefault(layer[i], (i, {"M": [], "MX": []}))
            targets = t.targets[t.target_ptr[i] : t.target_ptr[i + 1]]
            qubits[GATE_NAMES[t.gates[i]]].extend(targets.tolist())
        keys, pairs = [], []
        for first, qubits in by_layer.values():
            for gate in sorted(qubits):
                chain = qubits[gate]
                for a, b in zip(chain, chain[1:]):
                    keys.append(8 * first + _XTALK)
                    pairs.append((gate, a, b))
        args = np.zeros((len(pairs), 15))
        args[np.arange(len(pairs)), [_XTALK_INDEX[g] for g, _, _ in pairs]] = p
        self.add(
            keys=keys,
            gate="PAULI_CHANNEL_2",
            tcount=np.full(len(pairs), 2),
            targets=[q for _, a, b in pairs for q in (a, b)],
            args=args,
            label_ids=[self.label_id(("crosstalk", a, b)) for _, a, b in pairs],
            gate_class="crosstalk",
        )

    def scale(self, profile, drift) -> None:
        """Apply profile and drift multipliers row by row.

        Target groups with distinct scale factors are split into
        separate rows; consecutive equal-factor groups stay fused so
        the uniform case emits the exact unscaled rows.
        """
        rounds = _op_rounds(self.t, self.labels)
        scaled = []
        for block in self.blocks:
            rows = []
            for key, code, targets, args, label in block.rows():
                gate = GATE_NAMES[code]
                arity = GATE_ARITY[gate]
                groups = [
                    tuple(targets[i : i + arity]) for i in range(0, len(targets), arity)
                ]
                factor = 1.0 if drift is None else drift.factor(int(rounds[key // 8]))
                factors = [
                    factor
                    * (1.0 if profile is None else profile.scale(block.gate_class, g))
                    for g in groups
                ]
                start = 0
                for i in range(1, len(groups) + 1):
                    if i < len(groups) and factors[i] == factors[start]:
                        continue
                    run = [q for g in groups[start:i] for q in g]
                    f = factors[start]
                    run_args = args if f == 1.0 else _scaled_args(gate, args, f)
                    rows.append((key, code, run, run_args, label))
                    start = i
            scaled.append(_Block.from_rows(rows, block.gate_class))
        self.blocks = scaled

    def merge(self) -> Circuit:
        """The clean rows and every noise row, in sort-key order."""
        t = self.t
        clean = _Block(
            8 * np.arange(len(t.gates)) + _OP,
            t.gates,
            np.diff(t.target_ptr),
            t.targets,
            np.diff(t.arg_ptr),
            t.args,
            t.label_ids,
            "",
        )
        columns = zip(*(block[:7] for block in [clean] + self.blocks))
        keys, gates, tcount, targets, acount, args, label_ids = (
            np.concatenate(column) for column in columns
        )
        order = np.argsort(keys, kind="stable")
        target_ptr, targets = gather_ragged(ragged_offsets(tcount), targets, order)
        arg_ptr, args = gather_ragged(ragged_offsets(acount), args, order)
        table = OpTable(
            gates[order].astype(np.int32),
            target_ptr,
            targets,
            arg_ptr,
            args,
            label_ids[order].astype(np.int32),
        )
        return Circuit.from_table(table, self.labels)


def _op_rounds(t: OpTable, labels: list[tuple]) -> np.ndarray:
    """The QEC round each op is lowered in, from builder op labels
    (monotonic max; unlabeled circuits stay at round 0, making drift a
    uniform scaling there), plus one trailing entry for the end."""
    per_label = [max(label_round(lab) or 0, 0) for lab in labels]
    per_op = np.array(per_label, dtype=np.int64)[t.label_ids]
    return np.maximum.accumulate(np.append(per_op, 0))


@dataclass(frozen=True)
class NoiseSpec:
    """A full noise scenario composed of per-gate-class channels."""

    sq: GateChannel | None = None
    cnot: GateChannel | None = None
    meas: GateChannel | None = None
    readout: float = 0.0
    idle_strength: float = 0.0
    crosstalk: float = 0.0
    profile: DeviceProfile | None = None
    drift: DriftSchedule | None = None

    def __post_init__(self):
        if not 0 <= self.readout <= 1:
            raise ValueError(f"readout flip probability {self.readout} outside [0, 1]")
        if not 0 <= self.crosstalk <= 1:
            raise ValueError(
                f"measurement crosstalk probability {self.crosstalk} outside [0, 1]"
            )
        if self.idle_strength < 0:
            raise ValueError("idle strength must be non-negative")
        # Uniform (all-ones) profiles and drift schedules are physical
        # no-ops: normalize them away at construction so equality,
        # payload round-trips, and content addresses all agree that a
        # no-op is a no-op.
        if self.profile is not None and self.profile.is_uniform():
            object.__setattr__(self, "profile", None)
        if self.drift is not None and self.drift.is_uniform():
            object.__setattr__(self, "drift", None)
        # Channels declare which gate arity they attach to; catch a
        # correlated channel in a single-qubit slot at construction,
        # not at apply time deep inside a sweep.
        for slot, channel, arity in (
            ("sq", self.sq, 1),
            ("cnot", self.cnot, 2),
            ("meas", self.meas, 1),
        ):
            if (
                channel is not None
                and channel.ARITY is not None
                and channel.ARITY != arity
            ):
                raise ValueError(
                    f"channel kind {channel.KIND!r} attaches to "
                    f"{channel.ARITY}-qubit gate classes and cannot fill "
                    f"the {slot!r} slot"
                )

    # -- constructors --------------------------------------------------------

    @classmethod
    def depolarizing(
        cls,
        p: float,
        idle_strength: float = 0.0,
        readout: float = 0.0,
        crosstalk: float = 0.0,
        profile: DeviceProfile | None = None,
        drift: DriftSchedule | None = None,
    ) -> "NoiseSpec":
        """The paper's two-knob model: uniform depolarizing + idle.

        Lowers to exactly the circuits the original ``NoiseModel``
        produced, op for op.
        """
        channel = DepolarizingChannel(p) if p > 0 else None
        return cls(
            sq=channel,
            cnot=channel,
            meas=channel,
            readout=readout,
            idle_strength=idle_strength,
            crosstalk=crosstalk,
            profile=profile,
            drift=drift,
        )

    @classmethod
    def biased(
        cls,
        p: float,
        eta: float,
        idle_strength: float = 0.0,
        readout: float = 0.0,
        crosstalk: float = 0.0,
    ) -> "NoiseSpec":
        """Biased Pauli noise at total rate ``p`` on every gate class."""
        channel = BiasedPauliChannel(p, eta) if p > 0 else None
        return cls(
            sq=channel,
            cnot=channel,
            meas=channel,
            readout=readout,
            idle_strength=idle_strength,
            crosstalk=crosstalk,
        )

    @classmethod
    def correlated(
        cls,
        p: float,
        idle_strength: float = 0.0,
        readout: float = 0.0,
        crosstalk: float = 0.0,
    ) -> "NoiseSpec":
        """Depolarizing singles + genuinely correlated two-qubit noise.

        Marginally identical to :meth:`depolarizing` (the correlated
        channel's uniform ``p/15`` split *is* DEPOLARIZE2), but lowered
        through ``PAULI_CHANNEL_2`` — the litmus scenario pinning that
        the correlated path and the legacy path agree.
        """
        return cls(
            sq=DepolarizingChannel(p) if p > 0 else None,
            cnot=CorrelatedPauliChannel.depolarizing(p) if p > 0 else None,
            meas=DepolarizingChannel(p) if p > 0 else None,
            readout=readout,
            idle_strength=idle_strength,
            crosstalk=crosstalk,
        )

    # -- idle lowering -------------------------------------------------------

    @property
    def idle_pauli_prob(self) -> float:
        """Per-Pauli idle probability from the twirling approximation."""
        if self.idle_strength == 0:
            return 0.0
        return (1.0 - math.exp(-self.idle_strength)) / 4.0

    # -- application ---------------------------------------------------------

    def apply(self, circuit: Circuit) -> Circuit:
        """Return a noisy copy of ``circuit``.

        Error channels inherit the ``label`` of the gate they attach to
        so the detector-error-model can trace mechanisms back to
        schedule edges.  When a device profile or drift schedule is
        set, lowered instructions are split by distinct scale factor;
        with neither (or with uniform ones) the lowering is op-for-op
        identical to the unscaled spec.

        The lowering works on the op table: every noise row gets the
        sort key ``8 * (index of the clean op it attaches to) + phase``
        (idle rows before the TICK closing their layer; crosstalk, the
        measurement channel and readout before a measurement; gate
        channels after their gate), and one stable sort by key
        interleaves them with the clean rows.
        """
        gates = circuit.table.gates
        if gate_tables().noise[gates].any():
            raise ValueError("circuit already contains noise operations")
        lowering = _Lowering(circuit)
        measure = np.flatnonzero(gate_tables().measure[gates])
        if self.crosstalk > 0:
            lowering.crosstalk(self.crosstalk, measure)
        lowering.channel(self.meas, measure, _MEAS, "meas", 1)
        if self.readout > 0:
            # Basis-aligned flip: X toggles a Z-basis outcome, Z toggles
            # an X-basis outcome.
            is_m = (gates[measure] == GATE_CODES["M"])[:, None]
            args = np.where(is_m, [self.readout, 0.0, 0.0], [0.0, 0.0, self.readout])
            lowering.same_targets(measure, _READOUT, "PAULI_CHANNEL_1", args, "readout")
        cnot = np.flatnonzero(gates == GATE_CODES["CNOT"])
        lowering.channel(self.cnot, cnot, _AFTER, "cnot", 2)
        sq = np.flatnonzero(np.isin(gates, [GATE_CODES[g] for g in ("R", "RX", "H")]))
        lowering.channel(self.sq, sq, _AFTER, "sq", 1)
        if self.idle_pauli_prob > 0:
            lowering.idle(self.idle_pauli_prob)
        if self.profile is not None or self.drift is not None:
            lowering.scale(self.profile, self.drift)
        return lowering.merge()

    # -- serialization / hashing ---------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """The canonical ``noise-spec-v1`` dict — exactly what hashes.

        New scenario fields (``crosstalk``, ``profile``, ``drift``) are
        omitted at their physical no-op values, so payloads — and hence
        campaign job keys — written before those fields existed stay
        byte-identical.
        """

        def chan(c: GateChannel | None):
            return None if c is None else c.to_payload()

        payload: dict[str, Any] = {
            "format": NOISE_FORMAT,
            "sq": chan(self.sq),
            "cnot": chan(self.cnot),
            "meas": chan(self.meas),
            "readout": float(self.readout),
            "idle_strength": float(self.idle_strength),
        }
        if self.crosstalk > 0:
            payload["crosstalk"] = float(self.crosstalk)
        if self.profile is not None:
            payload["profile"] = self.profile.to_payload()
        if self.drift is not None:
            payload["drift"] = self.drift.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "NoiseSpec":
        if payload.get("format") != NOISE_FORMAT:
            raise ValueError(f"not a {NOISE_FORMAT} payload")
        known = {
            "format",
            "sq",
            "cnot",
            "meas",
            "readout",
            "idle_strength",
            "crosstalk",
            "profile",
            "drift",
        }
        unknown = set(payload) - known
        if unknown:
            # A misspelled field would otherwise run different physics
            # silently while still perturbing the content address.
            raise ValueError(f"unknown noise-spec fields: {sorted(unknown)}")

        def chan(value):
            return None if value is None else channel_from_payload(value)

        raw_profile = payload.get("profile")
        raw_drift = payload.get("drift")
        return cls(
            sq=chan(payload.get("sq")),
            cnot=chan(payload.get("cnot")),
            meas=chan(payload.get("meas")),
            readout=float(payload.get("readout", 0.0)),
            idle_strength=float(payload.get("idle_strength", 0.0)),
            crosstalk=float(payload.get("crosstalk", 0.0)),
            profile=(
                None if raw_profile is None else DeviceProfile.from_payload(raw_profile)
            ),
            drift=(
                None if raw_drift is None else DriftSchedule.from_payload(raw_drift)
            ),
        )

    def key(self) -> str:
        """Content address of this spec (hex SHA-256 of canonical JSON)."""
        return hashlib.sha256(
            _canonical_json(self.to_payload()).encode("utf-8")
        ).hexdigest()


# -- campaign-facing resolution ----------------------------------------------


def _clause_rate(name: str, value: str, p: float, spec: str) -> float:
    """Parse a clause value: absolute (``0.003``) or relative (``2p``).

    A bare ``p`` (coefficient omitted) means ``1*p``.  Malformed values
    raise ``ValueError`` naming the offending clause.
    """
    raw = value
    relative = value.endswith("p")
    if relative:
        value = value[:-1]
    try:
        coeff = 1.0 if relative and value == "" else float(value)
    except ValueError:
        raise ValueError(
            f"malformed noise clause {name}={raw!r} in {spec!r}: expected "
            f"a probability or a multiple of p like '2p'"
        ) from None
    return coeff * p if relative else coeff


def resolve_noise(
    spec: "NoiseSpec | str | dict[str, Any] | None",
    p: float,
    idle_strength: float = 0.0,
) -> NoiseSpec:
    """Build the noise scenario a campaign job names.

    ``None`` / ``"depolarizing"`` is the paper's two-knob model scaled
    by the job's ``p`` and ``idle_strength``.  String tokens scale with
    the job's ``p`` so a (noise x p) grid sweeps cleanly:

    * ``"biased:<eta>"`` — biased Pauli at total rate ``p``;
    * ``"correlated"`` — depolarizing singles plus a genuinely
      correlated two-qubit channel at total rate ``p`` on CNOTs;
    * a ``",pm=<v>"`` suffix sets the independent readout flip and a
      ``",ct=<v>"`` suffix the measurement crosstalk — absolute
      (``pm=0.003``) or relative to p (``pm=2p``; a bare ``pm=p`` is
      ``1*p``).  A token starting with a clause (``"pm=<v>"``) means
      depolarizing gates plus that clause.  Duplicate clauses and
      unknown clauses are rejected with ``ValueError``.

    A dict is an inline serialized ``noise-spec-v1`` payload: fully
    absolute (how hand-built scenarios enter a campaign content-
    addressed); the job's ``p``/``idle_strength`` do not rescale it.
    """
    if isinstance(spec, NoiseSpec):
        return spec
    if isinstance(spec, dict):
        return NoiseSpec.from_payload(spec)
    if spec is None:
        return NoiseSpec.depolarizing(p, idle_strength=idle_strength)
    if not isinstance(spec, str):
        raise TypeError(f"noise spec must be a token, payload dict, or None: {spec!r}")
    family, _, rest = spec.partition(",")
    if "=" in family:
        family, rest = "depolarizing", spec
    readout = 0.0
    crosstalk = 0.0
    seen: set[str] = set()
    for clause in filter(None, rest.split(",")):
        name, sep, value = clause.partition("=")
        if not sep or name not in ("pm", "ct"):
            raise ValueError(
                f"unknown noise clause {clause!r} in {spec!r} "
                f"(known clauses: pm=<v>, ct=<v>)"
            )
        if name in seen:
            # Last-wins would silently run different physics than the
            # token appears to name.
            raise ValueError(f"duplicate noise clause {name!r} in {spec!r}")
        seen.add(name)
        rate = _clause_rate(name, value, p, spec)
        if name == "pm":
            readout = rate
        else:
            crosstalk = rate
    if family == "depolarizing":
        return NoiseSpec.depolarizing(
            p, idle_strength=idle_strength, readout=readout, crosstalk=crosstalk
        )
    if family == "correlated":
        return NoiseSpec.correlated(
            p, idle_strength=idle_strength, readout=readout, crosstalk=crosstalk
        )
    if family.startswith("biased:"):
        raw_eta = family.split(":", 1)[1]
        try:
            eta = float(raw_eta)
        except ValueError:
            raise ValueError(
                f"malformed bias eta {raw_eta!r} in noise token {spec!r}"
            ) from None
        return NoiseSpec.biased(
            p, eta, idle_strength=idle_strength, readout=readout, crosstalk=crosstalk
        )
    raise ValueError(
        f"unknown noise token {spec!r} (known families: depolarizing, "
        f"biased:<eta>, correlated)"
    )


def noise_display(spec: "str | dict[str, Any] | None") -> str:
    """Short human-readable form of a job's noise spec for tables."""
    if spec is None:
        return "depolarizing"
    if isinstance(spec, dict):
        digest = hashlib.sha256(_canonical_json(spec).encode("utf-8")).hexdigest()
        return f"inline:{digest[:8]}"
    return spec
