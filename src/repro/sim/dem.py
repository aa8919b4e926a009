"""Detector error model (DEM) extraction by a backward sensitivity walk.

This reproduces Stim's ``circuit.detector_error_model()``: every Pauli
fault of every noise channel is mapped to the measurements it flips
(the deterministic propagation rules of paper §2.6), hence to the
detectors and logical observables it flips.  The result is the
circuit-level check matrix ``H`` and observable matrix ``L`` of §2.7:
columns are error mechanisms, rows are detectors / observables.

The walk runs *backwards*, as Stim's error analyzer does (Gidney, "Stim:
a fast stabilizer circuit simulator", Quantum 5, 497 (2021)).  A forward
scan first gives every measurement its set of detectors and observables.
Walking back from the end, each qubit carries two *sensitivity rows*:
the detectors/observables an X (resp. Z) error on it at this point would
flip.  ``M`` XORs its measurement's set into the X row (``MX`` into the
Z row), ``R``/``RX`` clear both rows, ``H`` swaps them, and ``CNOT(c,
t)`` does ``sx[c] ^= sx[t]``, ``sz[t] ^= sz[c]``.  At each noise op the
rows of its qubits are snapshotted; afterwards every fault's signature
is the XOR of at most four snapshot rows (X and Z on each qubit, Y = X
xor Z), gathered for all faults at once.  The walk costs one step per
gate, however many faults there are.

Faults with identical (detector set, observable set) signatures merge
into one mechanism, ordered by their first fault in forward site order,
with probabilities composed as ``p = p1(1-p2) + p2(1-p1)`` in site
order.  Gate provenance is how PropHunt maps errors back to schedule
edges (§5.3).

:class:`DetectorErrorModel` stores arrays: probabilities, packed
signature rows, and per-fault provenance.  Its ``mechanisms`` list of
``ErrorMechanism``/``ErrorSource`` objects is a view built on first
access and cached; the decoders, the decoding graph and PropHunt's §5.3
and §5.4 steps read the arrays and never build it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..circuits.circuit import Circuit
from ..circuits.gates import Operation
from ..gf2 import kernels
from ..gf2.bitmat import unpack_rows

_ONE_QUBIT_PAULIS = ("X", "Y", "Z")

# The 15 non-identity two-qubit Pauli pairs, as (first, second) with
# each in {"I", "X", "Y", "Z"}.
_TWO_QUBIT_PAULIS = [
    (p1, p2)
    for p1 in ("I", "X", "Y", "Z")
    for p2 in ("I", "X", "Y", "Z")
    if (p1, p2) != ("I", "I")
]

# Noise gates the walk lowers, with the Pauli pattern of each channel
# slot: slot ``s`` of a target group is the tuple of single-qubit Paulis
# it applies, one per qubit of the group.
_CHANNEL_PAULIS = {
    1: [(p,) for p in _ONE_QUBIT_PAULIS],
    2: _TWO_QUBIT_PAULIS,
}
_NOISE_ARITY = {
    "DEPOLARIZE1": 1,
    "PAULI_CHANNEL_1": 1,
    "DEPOLARIZE2": 2,
    "PAULI_CHANNEL_2": 2,
}
_MAX_SLOTS = len(_TWO_QUBIT_PAULIS)


def _slot_uses(arity: int) -> np.ndarray:
    """``(15, 4)`` bool: does slot ``s`` use snapshot row ``r`` of its
    group (rows X0, Z0, X1, Z1)?  Unused slots use no row."""
    uses = np.zeros((_MAX_SLOTS, 4), dtype=bool)
    for s, paulis in enumerate(_CHANNEL_PAULIS.get(arity, ())):
        for k, p in enumerate(paulis):
            uses[s, 2 * k] = p in ("X", "Y")
            uses[s, 2 * k + 1] = p in ("Z", "Y")
    return uses


_SLOT_USES = np.stack([_slot_uses(arity) for arity in range(3)])  # [arity, slot]


def _channel_probs(op: Operation) -> tuple[list[float], bool]:
    """Per-slot fault probabilities of one noise op, and whether slots of
    zero probability are dropped (explicit Pauli channels) or kept."""
    if op.gate == "DEPOLARIZE1":
        return [op.args[0] / 3.0] * 3, False
    if op.gate == "DEPOLARIZE2":
        return [op.args[0] / 15.0] * 15, False
    return list(op.args), True


def pack_bits(indices, width: int) -> np.ndarray:
    """Bit set over ``width`` positions as ``ceil(width/64)`` uint64 words
    (at least one), in :func:`repro.gf2.bitmat.pack_rows` layout."""
    value = 0
    for i in indices:
        value |= 1 << int(i)
    nbytes = 8 * max(1, -(-width // 64))
    words = np.frombuffer(value.to_bytes(nbytes, "little"), dtype="<u8")
    return words.astype(np.uint64)


@dataclass(frozen=True)
class ErrorSource:
    """Where a mechanism physically comes from: gate label + Pauli."""

    label: tuple
    pauli: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class ErrorMechanism:
    """A merged circuit-level error: probability, flips, provenance.

    A read-only view of one column of a :class:`DetectorErrorModel`;
    to change a DEM, build a new one with
    :meth:`DetectorErrorModel.from_mechanisms`.
    """

    prob: float
    detectors: tuple[int, ...]
    observables: tuple[int, ...]
    sources: tuple[ErrorSource, ...]


def _pauli_name(op: Operation, slot: int) -> tuple[str, tuple[int, ...]]:
    """Fault ``slot`` of a noise op as ``ErrorSource`` names it: its
    Pauli string (``"X3*Z5"``, identities left out) and its qubits."""
    arity = _NOISE_ARITY[op.gate]
    paulis = _CHANNEL_PAULIS[arity]
    group, s = divmod(slot, len(paulis))
    qubits = op.targets[group * arity : (group + 1) * arity]
    terms = [(p, q) for p, q in zip(paulis[s], qubits) if p != "I"]
    return "*".join(f"{p}{q}" for p, q in terms), tuple(q for _, q in terms)


class DetectorErrorModel:
    """Circuit-level H/L as arrays.

    * ``probs``: ``(mechanisms,)`` float64;
    * ``signatures``: ``(mechanisms, ceil((D+O)/64))`` uint64, bit ``d``
      is detector ``d`` and bit ``D + o`` observable ``o``
      (:func:`repro.gf2.bitmat.pack_rows` layout);
    * per-fault provenance, one entry per single-Pauli fault in forward
      site order: ``fault_op`` indexes ``noise_ops``, ``fault_slot`` is
      ``group * K + pauli`` within that op (``K`` = 3 or 15 channel
      Paulis), ``fault_mechanism`` is the mechanism the fault merged
      into, or -1 for a fault that flips nothing.

    The signature layout is read only here: consumers take H and L as
    CSR (:meth:`check_matrices`), H's packed columns
    (:meth:`detector_words`) or dense bits (:meth:`bits`).

    Hand-built models (no faults) come from :meth:`from_mechanisms`.
    """

    def __init__(
        self,
        probs: np.ndarray,
        signatures: np.ndarray,
        num_detectors: int,
        num_observables: int,
        detector_labels: list[tuple] | None = None,
        noise_ops: tuple[Operation, ...] = (),
        fault_op: np.ndarray | None = None,
        fault_slot: np.ndarray | None = None,
        fault_mechanism: np.ndarray | None = None,
    ):
        empty = np.zeros(0, dtype=np.int32)
        self.probs = probs
        self.signatures = signatures
        self.num_detectors = num_detectors
        self.num_observables = num_observables
        self.detector_labels = list(detector_labels or [])
        self.noise_ops = noise_ops
        self.fault_op = empty if fault_op is None else fault_op
        self.fault_slot = empty if fault_slot is None else fault_slot
        self.fault_mechanism = empty if fault_mechanism is None else fault_mechanism
        # Read-only, so the cached object view cannot drift from them.
        for array in (
            probs, signatures, self.fault_op, self.fault_slot, self.fault_mechanism
        ):
            array.setflags(write=False)
        self._mechanisms: list[ErrorMechanism] | None = None
        self._ops_by_label: dict[tuple, list[int]] | None = None
        self._check_matrices: tuple[sparse.csr_matrix, sparse.csr_matrix] | None = None

    @classmethod
    def from_mechanisms(
        cls,
        mechanisms: list[ErrorMechanism],
        num_detectors: int,
        num_observables: int,
        detector_labels: list[tuple] | None = None,
    ) -> "DetectorErrorModel":
        """A DEM from explicit mechanisms (tests, hand-built models).

        Detector and observable tuples must be strictly increasing, so
        the arrays and the ``mechanisms`` view agree exactly.
        """
        width = num_detectors + num_observables
        rows = []
        for m in mechanisms:
            for support in (m.detectors, m.observables):
                if list(support) != sorted(set(support)):
                    raise ValueError(f"support {support} is not strictly increasing")
            bits = list(m.detectors) + [num_detectors + o for o in m.observables]
            rows.append(pack_bits(bits, width))
        nwords = max(1, -(-width // 64))
        dem = cls(
            probs=np.array([m.prob for m in mechanisms], dtype=np.float64),
            signatures=np.array(rows, dtype=np.uint64).reshape(-1, nwords),
            num_detectors=num_detectors,
            num_observables=num_observables,
            detector_labels=detector_labels,
        )
        dem._mechanisms = list(mechanisms)
        return dem

    @property
    def num_errors(self) -> int:
        return len(self.probs)

    @property
    def mechanisms(self) -> list[ErrorMechanism]:
        """Object view of every mechanism, built once on first access."""
        if self._mechanisms is None:
            sources: list[list[ErrorSource]] = [[] for _ in range(self.num_errors)]
            for f in np.flatnonzero(self.fault_mechanism >= 0).tolist():
                sources[self.fault_mechanism[f]].append(self._source(f))
            dets, obs = self.supports()
            self._mechanisms = [
                ErrorMechanism(prob, d, o, tuple(s))
                for prob, d, o, s in zip(self.probs.tolist(), dets, obs, sources)
            ]
        return self._mechanisms

    def mechanism(self, j: int) -> ErrorMechanism:
        """Mechanism ``j``'s object view, without building the whole list."""
        if self._mechanisms is not None:
            return self._mechanisms[j]
        det_bits, obs_bits = self.bits(self.signatures[j : j + 1])
        (dets,), (obs,) = _row_tuples(det_bits), _row_tuples(obs_bits)
        faults = np.flatnonzero(self.fault_mechanism == j).tolist()
        sources = tuple(self._source(f) for f in faults)
        return ErrorMechanism(float(self.probs[j]), dets, obs, sources)

    def _source(self, f: int) -> ErrorSource:
        op = self.noise_ops[self.fault_op[f]]
        pauli, qubits = _pauli_name(op, int(self.fault_slot[f]))
        return ErrorSource(label=op.label, pauli=pauli, qubits=qubits)

    def supports(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Per mechanism: its detector tuple and its observable tuple."""
        dets, obs = self.bits()
        return _row_tuples(dets), _row_tuples(obs)

    def bits(self, signatures: np.ndarray | None = None):
        """Unpacked uint8 detector bits and observable bits per row of
        ``signatures`` (default: every mechanism's): the rows of H^T and
        L^T."""
        d = self.num_detectors
        if signatures is None:
            signatures = self.signatures
        bits = unpack_rows(signatures, d + self.num_observables)
        return bits[:, :d], bits[:, d:]

    def detector_words(self) -> np.ndarray:
        """H's columns packed: ``(mechanisms, ceil(D/64))`` uint64 (at
        least one word), each mechanism's signature with the observable
        bits dropped, in :func:`repro.gf2.bitmat.pack_rows` layout."""
        d = self.num_detectors
        nwords = max(1, -(-d // 64))
        return self.signatures[:, :nwords] & pack_bits(range(d), nwords * 64)

    def probabilities(self) -> np.ndarray:
        return self.probs.copy()

    def check_matrices(self) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Sparse H (detectors x errors) and L (observables x errors), CSR:
        row ``r`` lists the mechanisms that flip detector (observable)
        ``r``, ascending.  Built once per model and shared by every
        consumer, so their arrays are read-only."""

        def csr(block: np.ndarray) -> sparse.csr_matrix:
            rows, cols = np.nonzero(block.T)
            indptr = np.zeros(block.shape[1] + 1, dtype=np.int32)
            np.cumsum(np.bincount(rows, minlength=block.shape[1]), out=indptr[1:])
            matrix = sparse.csr_matrix(
                (np.ones(len(cols), dtype=np.uint8), cols.astype(np.int32), indptr),
                shape=(block.shape[1], self.num_errors),
            )
            for array in (matrix.indptr, matrix.indices, matrix.data):
                array.setflags(write=False)
            return matrix

        if self._check_matrices is None:
            dets, obs = self.bits()
            self._check_matrices = csr(dets), csr(obs)
        return self._check_matrices

    def undetectable_logical_mechanisms(self) -> list[ErrorMechanism]:
        """Mechanisms that flip an observable but no detector (d_eff = 1!)."""
        dets, obs = self.bits()
        hits = obs.any(axis=1) & ~dets.any(axis=1)
        return [self.mechanism(j) for j in np.flatnonzero(hits).tolist()]

    def locate_fault(self, label: tuple, pauli: str) -> int:
        """The mechanism holding the fault ``(label, pauli)``, or -1.

        Faults are named as ``ErrorSource`` names them.  When several
        visible faults share the name, the last in mechanism order wins
        (mechanism index, then site order): the same answer as indexing
        every source of ``mechanisms`` in order, without building them.
        """
        if self._ops_by_label is None:
            self._ops_by_label = {}
            for i, op in enumerate(self.noise_ops):
                self._ops_by_label.setdefault(op.label, []).append(i)
        best = (-1, -1)
        for i in self._ops_by_label.get(label, ()):
            lo, hi = np.searchsorted(self.fault_op, [i, i + 1])
            for f in range(lo, hi):
                m = int(self.fault_mechanism[f])
                if m < 0 or (m, f) <= best:
                    continue
                name, _ = _pauli_name(self.noise_ops[i], int(self.fault_slot[f]))
                if name == pauli:
                    best = (m, f)
        return best[0]

    def fingerprint(self) -> str:
        """Content hash of the error model, for content-addressed caches.

        Covers everything that determines decode results: dimensions and
        each mechanism's (probability, detectors, observables), in
        mechanism order — extraction is deterministic, so equal circuits
        yield equal fingerprints.  Provenance (``sources``) and detector
        labels are deliberately excluded: they never affect a decoder's
        output.
        """
        h = hashlib.sha256()
        h.update(f"{self.num_detectors}:{self.num_observables}:".encode())
        for prob, d, o in zip(self.probs.tolist(), *self.supports()):
            h.update(repr((prob, d, o)).encode())
        return h.hexdigest()

    def __repr__(self) -> str:
        return (
            f"DetectorErrorModel(errors={self.num_errors}, "
            f"detectors={self.num_detectors}, observables={self.num_observables})"
        )


def _row_tuples(bits: np.ndarray) -> list[tuple[int, ...]]:
    """The set column indices of each row, as tuples."""
    rows, cols = np.nonzero(bits)
    ends = np.cumsum(np.bincount(rows, minlength=bits.shape[0])).tolist()
    cols = cols.tolist()
    out, start = [], 0
    for end in ends:
        out.append(tuple(cols[start:end]))
        start = end
    return out


def _scan(ops: list[Operation]):
    """Forward pass: each measurement's detector/observable bit sets."""
    meas_dets: list[int] = []
    meas_obs: list[int] = []
    detector_labels: list[tuple] = []
    num_observables = 0
    for op in ops:
        gate = op.gate
        if gate in ("M", "MX"):
            meas_dets.extend([0] * len(op.targets))
            meas_obs.extend([0] * len(op.targets))
        elif gate == "DETECTOR":
            bit = 1 << len(detector_labels)
            for idx in op.targets:
                meas_dets[idx] ^= bit
            detector_labels.append(op.label)
        elif gate == "OBSERVABLE_INCLUDE":
            k = int(op.args[0])
            for idx in op.targets:
                meas_obs[idx] ^= 1 << k
            num_observables = max(num_observables, k + 1)
        elif op.is_noise() and gate not in _NOISE_ARITY:
            # A channel lowering to a noise gate outside this set would
            # otherwise yield a DEM silently missing mechanisms — the
            # decoder would run happily against the wrong error model.
            raise ValueError(f"DEM extraction has no lowering for noise gate {gate!r}")
    shift = len(detector_labels)
    meas_bits = [d | (o << shift) for d, o in zip(meas_dets, meas_obs)]
    return meas_bits, detector_labels, num_observables


def _walk_back(ops: list[Operation], num_qubits: int, meas_bits: list[int]):
    """Backward pass: snapshot each noise op's sensitivity rows.

    Returns the snapshot rows as Python ints (row 0 is an all-zero
    sentinel) and, per noise op in forward order, ``(op, first row)``;
    an op's rows are X then Z per target, in target order.
    """
    sx = [0] * num_qubits
    sz = [0] * num_qubits
    snaps = [0]
    noise: list[tuple[Operation, int]] = []
    m = len(meas_bits)
    for op in reversed(ops):
        gate, t = op.gate, op.targets
        if gate == "CNOT":
            for i in range(len(t) - 2, -1, -2):
                c, tg = t[i], t[i + 1]
                sx[c] ^= sx[tg]
                sz[tg] ^= sz[c]
        elif gate == "H":
            for q in t:
                sx[q], sz[q] = sz[q], sx[q]
        elif gate in ("R", "RX"):
            for q in t:
                sx[q] = sz[q] = 0
        elif gate == "M":
            for q in reversed(t):
                m -= 1
                sx[q] ^= meas_bits[m]
        elif gate == "MX":
            for q in reversed(t):
                m -= 1
                sz[q] ^= meas_bits[m]
        elif gate in _NOISE_ARITY:
            noise.append((op, len(snaps)))
            for q in t:
                snaps.append(sx[q])
                snaps.append(sz[q])
    noise.reverse()
    return snaps, noise


def _fault_table(noise: list[tuple[Operation, int]]):
    """Every emitted fault, in forward site order (op, group, slot).

    Returns per fault: its noise-op index, channel slot, probability and
    the four snapshot rows whose XOR is its signature (row 0, the zero
    sentinel, where a slot does not touch that row).
    """
    arity, groups, first, probs, keep_zero = [], [], [], [], []
    for op, row in noise:
        a = _NOISE_ARITY[op.gate]
        slot_probs, drop_zero = _channel_probs(op)
        arity.append(a)
        groups.append(len(op.targets) // a)
        first.append(row)
        probs.append(slot_probs + [0.0] * (_MAX_SLOTS - len(slot_probs)))
        keep_zero.append(not drop_zero)
    groups = np.array(groups, dtype=np.int64)
    op_of = np.repeat(np.arange(len(noise)), groups)  # per target group
    pos = np.arange(op_of.size) - np.repeat(np.cumsum(groups) - groups, groups)
    arity = np.array(arity, dtype=np.int64)[op_of]
    num_slots = np.where(arity == 1, 3, _MAX_SLOTS)
    probs = np.array(probs, dtype=np.float64).reshape(-1, _MAX_SLOTS)[op_of]
    emit = np.arange(_MAX_SLOTS) < num_slots[:, None]
    emit &= (probs > 0) | np.array(keep_zero, dtype=bool)[op_of, None]

    g, s = np.nonzero(emit)
    base = np.array(first, dtype=np.int64)[op_of[g]] + 2 * arity[g] * pos[g]
    rows = np.where(_SLOT_USES[arity[g], s], base[:, None] + np.arange(4), 0)
    slot = pos[g] * num_slots[g] + s
    return op_of[g].astype(np.int32), slot.astype(np.int32), probs[g, s], rows


def _group_signatures(sig: np.ndarray, merge: bool):
    """Mechanisms from fault signatures: ``(signatures, mechanism of
    each visible fault, visible fault indices)``, mechanisms ordered by
    their first fault."""
    visible = np.flatnonzero(sig.any(axis=1))
    if not merge or visible.size == 0:
        return sig[visible], np.arange(visible.size), visible
    uniq, inv = kernels.unique_shot_words(sig[visible])
    _, first = np.unique(inv, return_index=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return uniq[order], rank[inv], visible


def _compose(mech_of: np.ndarray, fault_prob: np.ndarray, num: int) -> np.ndarray:
    """Each mechanism's probability, composed over its faults in site
    order with one elementwise step per member rank."""
    probs = np.zeros(num, dtype=np.float64)
    by_mech = np.argsort(mech_of, kind="stable")
    members, member_probs = mech_of[by_mech], fault_prob[by_mech]
    starts = np.flatnonzero(np.r_[True, members[1:] != members[:-1]])
    counts = np.diff(np.r_[starts, members.size])
    rank = np.arange(members.size) - np.repeat(starts, counts)
    for r in range(int(rank.max(initial=-1)) + 1):
        j, p = members[rank == r], member_probs[rank == r]
        a = probs[j]
        probs[j] = p if r == 0 else a * (1 - p) + p * (1 - a)
    return probs


def extract_dem(circuit: Circuit, merge: bool = True) -> DetectorErrorModel:
    """Map every fault to its signature and assemble the DEM.

    ``merge=False`` keeps one mechanism per visible fault.
    """
    ops = circuit.operations
    meas_bits, detector_labels, num_observables = _scan(ops)
    num_detectors = len(detector_labels)
    nwords = max(1, -(-(num_detectors + num_observables) // 64))
    snaps, noise = _walk_back(ops, circuit.num_qubits, meas_bits)
    buf = np.frombuffer(
        b"".join(v.to_bytes(8 * nwords, "little") for v in snaps), dtype="<u8"
    )
    buf = buf.astype(np.uint64).reshape(-1, nwords)

    fault_op, fault_slot, fault_prob, rows = _fault_table(noise)
    sig = buf[rows[:, 0]] ^ buf[rows[:, 1]] ^ buf[rows[:, 2]] ^ buf[rows[:, 3]]
    signatures, mech_of, visible = _group_signatures(sig, merge)
    fault_mechanism = np.full(len(fault_op), -1, dtype=np.int32)
    fault_mechanism[visible] = mech_of
    return DetectorErrorModel(
        probs=_compose(mech_of, fault_prob[visible], len(signatures)),
        signatures=np.ascontiguousarray(signatures),
        num_detectors=num_detectors,
        num_observables=num_observables,
        detector_labels=detector_labels,
        noise_ops=tuple(op for op, _ in noise),
        fault_op=fault_op,
        fault_slot=fault_slot,
        fault_mechanism=fault_mechanism,
    )
