"""Detector error model (DEM) extraction by a backward sensitivity walk.

This reproduces Stim's ``circuit.detector_error_model()``: every Pauli
fault of every noise channel is mapped to the measurements it flips
(the deterministic propagation rules of paper §2.6), hence to the
detectors and logical observables it flips.  The result is the
circuit-level check matrix ``H`` and observable matrix ``L`` of §2.7:
columns are error mechanisms, rows are detectors / observables.

Everything is read from the circuit's op table
(:class:`~repro.circuits.circuit.OpTable`).  The walk runs *backwards*,
as Stim's error analyzer does (Gidney, "Stim: a fast stabilizer circuit
simulator", Quantum 5, 497 (2021)).  A forward scan first gives every
measurement its set of detectors and observables.  Walking back from
the end, each qubit carries two *sensitivity rows*: the
detectors/observables an X (resp. Z) error on it at this point would
flip.  ``M`` XORs its measurement's set into the X row (``MX`` into the
Z row), ``R``/``RX`` clear both rows, ``H`` swaps them, and ``CNOT(c,
t)`` does ``sx[c] ^= sx[t]``, ``sz[t] ^= sz[c]``.  At each noise op the
rows of its qubits are snapshotted (the :func:`repro.gf2.kernels.walk_back`
kernel); afterwards every fault's signature is the XOR of its Paulis'
rows (X and Z on each qubit, Y = X xor Z), built for all faults at
once.  The walk costs one step per gate, however many faults there are.

Faults with identical (detector set, observable set) signatures merge
into one mechanism, ordered by their first fault in forward site order,
with probabilities composed as ``p = p1(1-p2) + p2(1-p1)`` in site
order (the :func:`repro.gf2.kernels.group_faults` kernel).  Gate
provenance is how PropHunt maps errors back to schedule edges (§5.3).

:class:`DetectorErrorModel` stores arrays: probabilities, packed
signature rows, and per-fault provenance into the circuit's table.  Its
``mechanisms`` list of ``ErrorMechanism``/``ErrorSource`` objects is a
view built on first access and cached; the decoders, the decoding graph
and PropHunt's §5.3 and §5.4 steps read the arrays and never build it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..circuits.circuit import Circuit, OpTable, gather_ragged
from ..circuits.gates import GATE_CODES, GATE_NAMES, gate_tables
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


# Each channel slot's two Paulis as codes (I=0, X=1, Y=2, Z=3; the
# second is I for one-qubit channels), indexed [arity, slot].
_PAULI_LETTERS = "IXYZ"
_SLOT_PAULIS = np.zeros((3, _MAX_SLOTS, 2), dtype=np.int64)
for _arity, _paulis in _CHANNEL_PAULIS.items():
    for _s, _pattern in enumerate(_paulis):
        for _k, _p in enumerate(_pattern):
            _SLOT_PAULIS[_arity, _s, _k] = _PAULI_LETTERS.index(_p)

_ONE_QUBIT_NOISE = [GATE_CODES[g] for g, a in _NOISE_ARITY.items() if a == 1]
_DEPOLARIZE = [GATE_CODES["DEPOLARIZE1"], GATE_CODES["DEPOLARIZE2"]]


def _pauli_key(pauli: str) -> int:
    """A fault's Pauli string (``"X3*Z5"``) as the integer key
    :meth:`DetectorErrorModel.source_names` gives it, or -1 if it names
    no fault: up to two ``code | qubit << 2`` terms, first term high."""
    terms = []
    for term in pauli.split("*"):
        letter, qubit = term[:1], term[1:]
        if letter not in "XYZ" or not letter or not qubit.isdigit():
            return -1
        terms.append(_PAULI_LETTERS.index(letter) | int(qubit) << 2)
    if len(terms) > 2:
        return -1
    return terms[0] << 32 | (terms[1] if len(terms) == 2 else 0)


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


class DetectorErrorModel:
    """Circuit-level H/L as arrays.

    * ``probs``: ``(mechanisms,)`` float64;
    * ``signatures``: ``(mechanisms, ceil((D+O)/64))`` uint64, bit ``d``
      is detector ``d`` and bit ``D + o`` observable ``o``
      (:func:`repro.gf2.bitmat.pack_rows` layout);
    * per-fault provenance, one entry per single-Pauli fault in forward
      site order: ``fault_op`` indexes ``noise_index`` (the rows of the
      source ``circuit``'s op table that hold noise ops), ``fault_slot``
      is ``group * K + pauli`` within that op (``K`` = 3 or 15 channel
      Paulis), ``fault_mechanism`` is the mechanism the fault merged
      into, or -1 for a fault that flips nothing.  A fault's name, as
      ``ErrorSource`` gives it, is read from the circuit's table when
      asked for (:meth:`source_names`, :meth:`locate_fault`).

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
        circuit: Circuit | None = None,
        noise_index: np.ndarray | None = None,
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
        self.circuit = circuit
        self.noise_index = empty if noise_index is None else noise_index
        self.fault_op = empty if fault_op is None else fault_op
        self.fault_slot = empty if fault_slot is None else fault_slot
        self.fault_mechanism = empty if fault_mechanism is None else fault_mechanism
        # Read-only, so the cached object view cannot drift from them.
        for array in (
            probs,
            signatures,
            self.noise_index,
            self.fault_op,
            self.fault_slot,
            self.fault_mechanism,
        ):
            array.setflags(write=False)
        self._mechanisms: list[ErrorMechanism] | None = None
        self._by_mechanism: tuple[np.ndarray, np.ndarray] | None = None
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
            faults = np.flatnonzero(self.fault_mechanism >= 0)
            owners = self.fault_mechanism[faults].tolist()
            for j, src in zip(owners, self._sources(faults)):
                sources[j].append(src)
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
        sources = tuple(self._sources(self.faults_of(j)))
        return ErrorMechanism(float(self.probs[j]), dets, obs, sources)

    def faults_of(self, j: int) -> np.ndarray:
        """The faults merged into mechanism ``j``, in site order."""
        if self._by_mechanism is None:
            order = np.argsort(self.fault_mechanism, kind="stable")
            ptr = np.searchsorted(
                self.fault_mechanism[order], np.arange(self.num_errors + 1)
            )
            self._by_mechanism = order, ptr
        order, ptr = self._by_mechanism
        return order[ptr[j] : ptr[j + 1]]

    def _fault_names(self, faults: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per fault: its op's label id and its Pauli key (the
        :func:`_pauli_key` of the string ``ErrorSource`` gives it)."""
        t = self.circuit.table
        rows = self.noise_index[self.fault_op[faults]]
        arity = np.where(np.isin(t.gates[rows], _ONE_QUBIT_NOISE), 1, 2)
        group, slot = np.divmod(self.fault_slot[faults], np.where(arity == 1, 3, 15))
        base = t.target_ptr[rows] + group * arity
        paulis = _SLOT_PAULIS[arity, slot]
        qubits = np.stack([t.targets[base], t.targets[base + arity - 1]], axis=1)
        terms = np.where(paulis > 0, paulis | qubits << 2, 0)
        # Identities are left out: a lone second term moves up front.
        first = np.where(terms[:, 0] > 0, terms[:, 0], terms[:, 1])
        second = np.where(terms[:, 0] > 0, terms[:, 1], 0)
        return t.label_ids[rows], first << 32 | second

    def _sources(self, faults: np.ndarray) -> list[ErrorSource]:
        if faults.size == 0:
            return []
        label_ids, keys = self._fault_names(faults)
        labels = self.circuit.labels
        out = []
        for lab, key in zip(label_ids.tolist(), keys.tolist()):
            terms = [t for t in (key >> 32, key & 0xFFFFFFFF) if t]
            out.append(
                ErrorSource(
                    label=labels[lab],
                    pauli="*".join(f"{_PAULI_LETTERS[t & 3]}{t >> 2}" for t in terms),
                    qubits=tuple(t >> 2 for t in terms),
                )
            )
        return out

    def source_names(self, j: int) -> list[tuple[tuple, int]]:
        """Mechanism ``j``'s sources in site order, each named by its gate
        label and the integer key of its Pauli string (equal keys, equal
        strings), read from the arrays."""
        if self.circuit is None:
            return [(s.label, _pauli_key(s.pauli)) for s in self.mechanism(j).sources]
        label_ids, keys = self._fault_names(self.faults_of(j))
        labels = self.circuit.labels
        return [(labels[i], key) for i, key in zip(label_ids.tolist(), keys.tolist())]

    def locate_faults(self, names: list[tuple[tuple, int]]) -> np.ndarray:
        """For each ``(label, pauli key)``: the mechanism holding that
        fault, or -1.  When several visible faults share the name, the
        last in mechanism order wins."""
        found = np.full(len(names), -1, dtype=np.int64)
        if self.circuit is None or not names:
            return found
        wanted = [self.circuit.label_id(label, add=False) for label, _ in names]
        # Only the visible faults of noise ops carrying a wanted label.
        noise_labels = self.circuit.table.label_ids[self.noise_index]
        ops = np.flatnonzero(np.isin(noise_labels, [i for i in wanted if i >= 0]))
        op_faults = np.searchsorted(self.fault_op, np.arange(len(self.noise_index) + 1))
        _, faults = gather_ragged(op_faults, np.arange(len(self.fault_op)), ops)
        faults = faults[self.fault_mechanism[faults] >= 0]
        label_ids, keys = self._fault_names(faults)
        best: dict[tuple[int, int], int] = {}
        mechanisms = self.fault_mechanism[faults].tolist()
        for name, m in zip(zip(label_ids.tolist(), keys.tolist()), mechanisms):
            best[name] = max(m, best.get(name, -1))
        for i, (label_id, (_, key)) in enumerate(zip(wanted, names)):
            found[i] = best.get((label_id, key), -1)
        return found

    def locate_fault(self, label: tuple, pauli: str) -> int:
        """The mechanism holding the fault ``(label, pauli)``, or -1.

        Faults are named as ``ErrorSource`` names them.  When several
        visible faults share the name, the last in mechanism order wins
        (mechanism index, then site order): the same answer as indexing
        every source of ``mechanisms`` in order, without building them.
        """
        return int(self.locate_faults([(label, _pauli_key(pauli))])[0])

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


def _scan(circuit: Circuit):
    """Forward pass: each measurement's detector/observable bits, as
    ``(measurements, nwords)`` uint64 rows; the detector labels; the
    number of observables."""
    t = circuit.table
    gates = t.gates
    noise = gate_tables().noise[gates]
    unlowered = np.flatnonzero(noise & ~np.isin(gates, list(kernels.WALK_NOISE_CODES)))
    if unlowered.size:
        # A channel lowering to a noise gate outside this set would
        # otherwise yield a DEM silently missing mechanisms — the
        # decoder would run happily against the wrong error model.
        gate = GATE_NAMES[gates[unlowered[0]]]
        raise ValueError(f"DEM extraction has no lowering for noise gate {gate!r}")
    counts = np.diff(t.target_ptr)
    measured = counts * gate_tables().measure[gates]
    before = np.cumsum(measured) - measured  # measurements before each op
    detectors = np.flatnonzero(gates == GATE_CODES["DETECTOR"])
    observables = np.flatnonzero(gates == GATE_CODES["OBSERVABLE_INCLUDE"])
    obs_index = t.args[t.arg_ptr[observables]].astype(np.int64)
    num_detectors = len(detectors)
    num_observables = int(obs_index.max()) + 1 if obs_index.size else 0
    nwords = max(1, -(-(num_detectors + num_observables) // 64))

    ops = np.concatenate([detectors, observables])
    bits = np.concatenate([np.arange(num_detectors), num_detectors + obs_index])
    ptr, refs = gather_ragged(t.target_ptr, t.targets, ops)
    per_op = np.diff(ptr)
    ref_op, ref_bit = np.repeat(ops, per_op), np.repeat(bits, per_op)
    bad = np.flatnonzero((refs < 0) | (refs >= before[ref_op]))
    if bad.size:
        i = bad[np.argmin(ref_op[bad])]
        raise ValueError(
            f"{GATE_NAMES[gates[ref_op[i]]]} references measurement {refs[i]}, "
            f"only {before[ref_op[i]]} recorded so far"
        )
    meas_rows = np.zeros((int(measured.sum()), nwords), dtype=np.uint64)
    one = np.ones(len(refs), dtype=np.uint64)
    np.bitwise_xor.at(
        meas_rows, (refs, ref_bit >> 6), one << (ref_bit & 63).astype(np.uint64)
    )
    labels = circuit.labels
    detector_labels = [labels[i] for i in t.label_ids[detectors].tolist()]
    return meas_rows, detector_labels, num_observables


def _fault_table(t: OpTable, noise_index: np.ndarray, snaps: np.ndarray):
    """Every emitted fault, in forward site order (op, group, slot).

    Returns per fault: its noise-op index, channel slot, probability and
    signature.  ``snaps`` are the walk's snapshot rows, written last op
    first, two per target; a fault's signature is the XOR of the rows
    its slot uses among its group's X0, Z0, X1, Z1.
    """
    codes = t.gates[noise_index]
    targets = np.diff(t.target_ptr)[noise_index]
    first = 1 + 2 * (targets.sum() - np.cumsum(targets))
    one_qubit = (codes == _ONE_QUBIT_NOISE[0]) | (codes == _ONE_QUBIT_NOISE[1])
    slots = np.arange(_MAX_SLOTS)
    # Explicit Pauli channels list their slot probabilities and drop the
    # zero ones; DEPOLARIZE* split their one argument evenly and keep
    # every slot.
    arg_index = t.arg_ptr[noise_index][:, None] + slots
    has_arg = slots < np.diff(t.arg_ptr)[noise_index][:, None]
    op_probs = np.where(has_arg, t.args[np.where(has_arg, arg_index, 0)], 0.0)
    keep_zero = (codes == _DEPOLARIZE[0]) | (codes == _DEPOLARIZE[1])
    even = t.args[t.arg_ptr[noise_index][keep_zero]] / np.where(
        one_qubit[keep_zero], 3.0, 15.0
    )
    num_slots = np.where(one_qubit, 3, _MAX_SLOTS)
    op_probs[keep_zero] = np.where(
        slots < num_slots[keep_zero, None], even[:, None], 0.0
    )

    arity = np.where(one_qubit, 1, 2)
    groups = targets // arity
    op_of = np.repeat(np.arange(len(noise_index)), groups)  # per target group
    pos = np.arange(op_of.size) - np.repeat(np.cumsum(groups) - groups, groups)
    arity, num_slots, probs = arity[op_of], num_slots[op_of], op_probs[op_of]
    emit = slots < num_slots[:, None]
    emit &= (probs > 0) | keep_zero[op_of, None]

    # Each group's rows X0, Z0, X1, Z1 (row 0, the zero sentinel, for
    # the missing second qubit of a one-qubit group).  The Pauli I, X,
    # Y, Z on qubit k flips 0, Xk, Xk^Zk, Zk, and a slot flips the XOR
    # of its two Paulis'.
    rows = (first[op_of] + 2 * arity * pos)[:, None] + np.arange(4)
    rows[arity == 1, 2:] = 0
    x0, z0, x1, z1 = np.moveaxis(snaps[rows], 1, 0)
    zero = np.zeros_like(x0)
    nwords = snaps.shape[1]
    on_first = np.stack([zero, x0, x0 ^ z0, z0], axis=1).reshape(-1, nwords)
    on_second = np.stack([zero, x1, x1 ^ z1, z1], axis=1).reshape(-1, nwords)
    base = 4 * np.arange(len(rows))[:, None]
    one = arity[:, None] == 1
    for k, on_qubit in enumerate((on_first, on_second)):
        pauli = np.where(one, _SLOT_PAULIS[1, :, k], _SLOT_PAULIS[2, :, k])
        flips = on_qubit.take((base + pauli)[emit], axis=0)
        sig = flips if k == 0 else sig ^ flips
    slot = (pos * num_slots)[:, None] + slots
    fault_op = np.broadcast_to(op_of[:, None], emit.shape)[emit]
    return fault_op.astype(np.int32), slot[emit].astype(np.int32), probs[emit], sig


def extract_dem(circuit: Circuit, merge: bool = True) -> DetectorErrorModel:
    """Map every fault to its signature and assemble the DEM.

    ``merge=False`` keeps one mechanism per visible fault.
    """
    t = circuit.table
    meas_rows, detector_labels, num_observables = _scan(circuit)
    buf = kernels.walk_back(
        t.gates, t.target_ptr, t.targets, meas_rows, circuit.num_qubits
    )
    noise_index = np.flatnonzero(gate_tables().noise[t.gates])
    fault_op, fault_slot, fault_prob, sig = _fault_table(t, noise_index, buf)
    signatures, fault_mechanism, probs = kernels.group_faults(sig, fault_prob, merge)
    return DetectorErrorModel(
        probs=probs,
        signatures=signatures,
        num_detectors=len(detector_labels),
        num_observables=num_observables,
        detector_labels=detector_labels,
        circuit=circuit,
        noise_index=noise_index,
        fault_op=fault_op,
        fault_slot=fault_slot,
        fault_mechanism=fault_mechanism,
    )
