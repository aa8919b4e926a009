"""Candidate SM-circuit change enumeration (paper §5.3).

Each error mechanism of a found min-weight logical error is mapped back to
the CNOT that caused it (via DEM provenance labels) and spawns:

* **reordering changes** (§5.3.1) when the mechanism is a hook error — for
  a hook on stabilizer ``s`` at data qubit ``q_i``, one candidate per other
  support qubit ``q_j``, moving ``q_j`` in front of ``q_i``;
* **rescheduling changes** (§5.3.2) — for each syndrome qubit ``s_i``
  flipped by the mechanism that shares the data qubit ``q_i`` with the
  source stabilizer ``s_j``, swap their relative order on ``q_i``.  If the
  pair mixes X and Z types, a companion swap on a second shared qubit
  ``q_k`` keeps the stabilizers commuting (unique ``q_k`` when exactly two
  qubits are shared, e.g. the surface code; random otherwise).

A change is a list of primitive schedule edits, so it can be re-applied to
an evolving schedule during §5.5's application stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.schedule import Schedule
from ..codes.css import CSSCode
from ..sim.dem import DetectorErrorModel, ErrorMechanism

# Primitive edits: ("reorder", kind, stab, move, before)
#                  ("swap", qubit, (kind1, s1), (kind2, s2))
Edit = tuple


@dataclass
class CandidateChange:
    """A proposed schedule rewrite and its origin."""

    edits: list[Edit]
    source_error: int  # global mechanism index that spawned it
    kind: str  # "reorder" or "reschedule"
    description: str = ""

    def apply_to(self, schedule: Schedule) -> Schedule:
        """Return a rewritten copy (raises if an edit is inapplicable)."""
        out = schedule.copy()
        for edit in self.edits:
            if edit[0] == "reorder":
                _, kind, stab, move, before = edit
                out.reorder(kind, stab, move, before)
            elif edit[0] == "swap":
                _, qubit, s1, s2 = edit
                out.swap_relative_order(qubit, s1, s2)
            else:
                raise ValueError(f"unknown edit {edit[0]!r}")
        return out

    def signature(self) -> tuple:
        return tuple(self.edits)


def _ancilla_error_kinds(code: CSSCode, source, kind: str) -> bool:
    """Does this fault include a component that propagates off the ancilla?

    X-check ancillas are CNOT *controls*: X/Y on them spreads to later
    targets.  Z-check ancillas are *targets*: Z/Y spreads back to later
    controls (§2.6, §2.8).
    """
    n = code.n
    spreading = ("X", "Y") if kind == "x" else ("Z", "Y")
    for term in source.pauli.split("*"):
        pauli, qubit = term[0], int(term[1:])
        if qubit >= n and pauli in spreading:
            return True
    return False


def _stabs_flipped_by(
    mechanism: ErrorMechanism, dem: DetectorErrorModel
) -> set[tuple[str, int]]:
    """Distinct (kind, stab) syndrome qubits among the flipped detectors."""
    stabs: set[tuple[str, int]] = set()
    for d in mechanism.detectors:
        label = dem.detector_labels[d]
        stabs.add((label[1], label[2]))
    return stabs


def enumerate_candidates(
    code: CSSCode,
    schedule: Schedule,
    dem: DetectorErrorModel,
    logical_error: list[int],
    rng: np.random.Generator,
) -> list[CandidateChange]:
    """All candidate changes for one min-weight logical error (§5.3)."""
    candidates: list[CandidateChange] = []
    seen: set[tuple] = set()

    def add(change: CandidateChange) -> None:
        sig = change.signature()
        if sig not in seen:
            seen.add(sig)
            candidates.append(change)

    for err in logical_error:
        mechanism = dem.mechanism(err)
        for source in mechanism.sources:
            if not source.label or source.label[0] != "cnot":
                continue
            _, kind, stab, q_i, _round = source.label
            support = schedule.stab_orders[(kind, stab)]

            # Reordering changes for hook-type faults (§5.3.1).
            if _ancilla_error_kinds(code, source, kind):
                for q_j in support:
                    if q_j == q_i:
                        continue
                    add(
                        CandidateChange(
                            edits=[("reorder", kind, stab, q_j, q_i)],
                            source_error=err,
                            kind="reorder",
                            description=(
                                f"move q{q_j} before q{q_i} in {kind}{stab}"
                            ),
                        )
                    )

            # Rescheduling changes (§5.3.2).
            s_j = (kind, stab)
            for s_i in _stabs_flipped_by(mechanism, dem):
                if s_i == s_j:
                    continue
                support_i = set(
                    code.x_stab_support(s_i[1])
                    if s_i[0] == "x"
                    else code.z_stab_support(s_i[1])
                )
                if q_i not in support_i:
                    continue
                edits: list[Edit] = [("swap", q_i, s_i, s_j)]
                if s_i[0] != s_j[0]:
                    shared = sorted(
                        support_i
                        & set(
                            code.x_stab_support(stab)
                            if kind == "x"
                            else code.z_stab_support(stab)
                        )
                        - {q_i}
                    )
                    if not shared:
                        continue  # cannot preserve commutation
                    if len(shared) == 1:
                        q_k = shared[0]
                    else:
                        q_k = shared[int(rng.integers(0, len(shared)))]
                    edits.append(("swap", q_k, s_i, s_j))
                add(
                    CandidateChange(
                        edits=edits,
                        source_error=err,
                        kind="reschedule",
                        description=f"swap {s_i}/{s_j} on q{q_i}",
                    )
                )
    return candidates
