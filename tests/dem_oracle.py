"""Reference DEM extractor: forward boolean-frame propagation.

This is the extractor ``repro.sim.dem`` used before the backward
sensitivity walk, kept verbatim in behaviour as the oracle the new walk
is compared against (``tests/test_dem_oracle.py``,
``tests/test_dem_litmus.py``).  Every fault gets its own row of an
``(errors x qubits)`` X and Z frame; all frames advance together through
the circuit, one column operation per gate, and the detector rows are
XORs of the frames' measurement columns.

It returns an :class:`OracleDem`: plain ``ErrorMechanism`` values plus
the dimensions, and the fingerprint computed by the original formula,
so a comparison checks the production fingerprint bytes independently.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.sim.dem import ErrorMechanism, ErrorSource

_TWO_QUBIT_PAULIS = [
    (p1, p2)
    for p1 in ("I", "X", "Y", "Z")
    for p2 in ("I", "X", "Y", "Z")
    if (p1, p2) != ("I", "I")
]


@dataclass
class OracleDem:
    mechanisms: list[ErrorMechanism]
    num_detectors: int
    num_observables: int
    detector_labels: list[tuple]

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.num_detectors}:{self.num_observables}:".encode())
        for m in self.mechanisms:
            h.update(repr((float(m.prob), m.detectors, m.observables)).encode())
        return h.hexdigest()


def _enumerate_noise_sites(circuit: Circuit):
    """All single-Pauli faults: (op_idx, prob, [(P, qubit)...], label)."""
    sites = []
    for op_idx, op in enumerate(circuit):
        if op.gate == "DEPOLARIZE1":
            p = op.args[0] / 3.0
            for (q,) in op.target_groups():
                for pauli in ("X", "Y", "Z"):
                    sites.append((op_idx, p, [(pauli, q)], op.label))
        elif op.gate == "DEPOLARIZE2":
            p = op.args[0] / 15.0
            for a, b in op.target_groups():
                for p1, p2 in _TWO_QUBIT_PAULIS:
                    terms = []
                    if p1 != "I":
                        terms.append((p1, a))
                    if p2 != "I":
                        terms.append((p2, b))
                    sites.append((op_idx, p, terms, op.label))
        elif op.gate == "PAULI_CHANNEL_1":
            px, py, pz = op.args
            for (q,) in op.target_groups():
                for pauli, prob in (("X", px), ("Y", py), ("Z", pz)):
                    if prob > 0:
                        sites.append((op_idx, prob, [(pauli, q)], op.label))
        elif op.gate == "PAULI_CHANNEL_2":
            for a, b in op.target_groups():
                for (p1, p2), prob in zip(_TWO_QUBIT_PAULIS, op.args):
                    if prob <= 0:
                        continue
                    terms = []
                    if p1 != "I":
                        terms.append((p1, a))
                    if p2 != "I":
                        terms.append((p2, b))
                    sites.append((op_idx, prob, terms, op.label))
        elif op.is_noise():
            raise ValueError(
                f"DEM extraction has no lowering for noise gate {op.gate!r}"
            )
    return sites


def oracle_extract_dem(circuit: Circuit, merge: bool = True) -> OracleDem:
    """Propagate every fault forward through the circuit; assemble the DEM."""
    sites = _enumerate_noise_sites(circuit)
    num_errors = len(sites)
    num_qubits = circuit.num_qubits

    # Frames: xf[e, q] means error e currently carries an X on qubit q.
    xf = np.zeros((num_errors, num_qubits), dtype=bool)
    zf = np.zeros((num_errors, num_qubits), dtype=bool)

    inject: dict[int, list] = defaultdict(list)
    for e, (op_idx, _, terms, _) in enumerate(sites):
        inject[op_idx].append((e, terms))

    meas_flip_cols: list[np.ndarray] = []
    detector_rows: list[np.ndarray] = []
    detector_labels: list[tuple] = []
    observable_rows: dict[int, np.ndarray] = {}

    for op_idx, op in enumerate(circuit):
        if op.is_noise():
            for e, terms in inject[op_idx]:
                for pauli, q in terms:
                    if pauli in ("X", "Y"):
                        xf[e, q] ^= True
                    if pauli in ("Z", "Y"):
                        zf[e, q] ^= True
            continue
        if op.gate == "CNOT":
            for c, t in op.target_groups():
                xf[:, t] ^= xf[:, c]
                zf[:, c] ^= zf[:, t]
        elif op.gate == "H":
            for (q,) in op.target_groups():
                tmp = xf[:, q].copy()
                xf[:, q] = zf[:, q]
                zf[:, q] = tmp
        elif op.gate in ("R", "RX"):
            for (q,) in op.target_groups():
                xf[:, q] = False
                zf[:, q] = False
        elif op.gate == "M":
            for (q,) in op.target_groups():
                meas_flip_cols.append(xf[:, q].copy())
        elif op.gate == "MX":
            for (q,) in op.target_groups():
                meas_flip_cols.append(zf[:, q].copy())
        elif op.gate == "DETECTOR":
            row = np.zeros(num_errors, dtype=bool)
            for idx in op.targets:
                row ^= meas_flip_cols[idx]
            detector_rows.append(row)
            detector_labels.append(op.label)
        elif op.gate == "OBSERVABLE_INCLUDE":
            obs = int(op.args[0])
            row = observable_rows.get(obs)
            if row is None:
                row = np.zeros(num_errors, dtype=bool)
            for idx in op.targets:
                row = row ^ meas_flip_cols[idx]
            observable_rows[obs] = row

    num_detectors = len(detector_rows)
    num_observables = max(observable_rows) + 1 if observable_rows else 0
    det_matrix = (
        np.array(detector_rows, dtype=bool)
        if detector_rows
        else np.zeros((0, num_errors), dtype=bool)
    )
    obs_matrix = np.zeros((num_observables, num_errors), dtype=bool)
    for obs, row in observable_rows.items():
        obs_matrix[obs] = row

    # Merge identical flip signatures: [prob, dets, obs, sources].
    grouped: dict[tuple, list] = {}
    for e, (_, prob, terms, label) in enumerate(sites):
        dets = tuple(int(d) for d in np.nonzero(det_matrix[:, e])[0])
        obs = tuple(int(o) for o in np.nonzero(obs_matrix[:, e])[0])
        if not dets and not obs:
            continue  # invisible and harmless
        source = ErrorSource(
            label=label,
            pauli="*".join(f"{p}{q}" for p, q in terms),
            qubits=tuple(q for _, q in terms),
        )
        key = (dets, obs) if merge else (dets, obs, e)
        entry = grouped.get(key)
        if entry is None:
            grouped[key] = [prob, dets, obs, [source]]
        else:
            entry[0] = entry[0] * (1 - prob) + prob * (1 - entry[0])
            entry[3].append(source)

    mechanisms = [
        ErrorMechanism(prob=p, detectors=d, observables=o, sources=tuple(s))
        for p, d, o, s in grouped.values()
    ]
    return OracleDem(mechanisms, num_detectors, num_observables, detector_labels)
