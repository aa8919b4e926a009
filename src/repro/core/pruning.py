"""Pruning candidate changes (paper §5.4).

Two gates before a change may be applied:

* **circuit validity** — the rewritten schedule must still preserve
  stabilizer commutation and be schedulable (acyclic precedence);
* **ambiguity removal** — rebuilding the circuit-level matrices for the
  candidate, the original subgraph's syndrome rows (matched by their
  stable ``(round, kind, stab)`` labels) must now satisfy
  ``L' in rowspace(H')``, *and* the transported logical-error mechanisms
  must no longer form a logical error (``H e != 0`` or ``L e = 0``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.schedule import Schedule
from ..codes.css import CSSCode
from ..sim.dem import DetectorErrorModel
from .ambiguity import is_ambiguous
from .changes import CandidateChange
from .decoding_graph import DecodingGraph, Subgraph


@dataclass
class PruneOutcome:
    """Why a candidate survived or died (useful for ablations)."""

    candidate: CandidateChange
    schedule: Schedule | None
    valid_circuit: bool
    removes_ambiguity: bool
    breaks_logical_error: bool

    @property
    def verified(self) -> bool:
        return (
            self.valid_circuit and self.removes_ambiguity and self.breaks_logical_error
        )


def _transport_logical_error(
    old_dem: DetectorErrorModel,
    new_dem: DetectorErrorModel,
    logical_error: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Re-evaluate the old logical error's faults in the new circuit.

    Faults are identified by (gate label, pauli) — the gate set is
    unchanged by schedule rewrites, only its order.  Both DEMs name
    their faults from their provenance arrays, and every name is looked
    up in the new DEM in one batch, so no mechanism object is built and
    no Pauli string is formatted.  Returns the XOR of the transported
    mechanisms' (detector, observable) signatures.
    """
    names = [old_dem.source_names(err) for err in logical_error]
    found = new_dem.locate_faults([name for group in names for name in group])
    acc = np.zeros(new_dem.signatures.shape[1], dtype=np.uint64)
    start = 0
    for group in names:
        hits = found[start : start + len(group)]
        start += len(group)
        # Take one representative fault per old mechanism: its first
        # source that still flips something (a fault that dropped out of
        # the DEM entirely certainly breaks the logical error).  Sources
        # merged in the old circuit can in principle diverge after the
        # rewrite; using the first is the conservative reading of §5.4's
        # "updated circuit-level errors" and errs toward rejecting
        # candidates (a diverged sibling would differ even more from the
        # original logical error).
        located = hits[hits >= 0]
        if located.size:
            acc ^= new_dem.signatures[located[0]]
    dets, obs = new_dem.bits(acc[None, :])
    return dets[0], obs[0]


def check_candidate(
    code: CSSCode,
    schedule: Schedule,
    candidate: CandidateChange,
    subgraph: Subgraph,
    old_dem: DetectorErrorModel,
    logical_error: list[int],
    build_dem,
) -> PruneOutcome:
    """Run both §5.4 checks on one candidate.

    ``build_dem`` is a callable ``Schedule -> DetectorErrorModel`` so the
    caller controls noise model, rounds, basis and caching.
    """
    try:
        new_schedule = candidate.apply_to(schedule)
    except (ValueError, KeyError):
        return PruneOutcome(candidate, None, False, False, False)
    if not new_schedule.is_valid():
        return PruneOutcome(candidate, new_schedule, False, False, False)

    new_dem = build_dem(new_schedule)

    # Match the original ambiguous syndrome rows in the new DEM by label.
    label_to_new = {label: i for i, label in enumerate(new_dem.detector_labels)}
    new_dets = []
    for d in subgraph.detectors:
        label = old_dem.detector_labels[d]
        nd = label_to_new.get(label)
        if nd is None:
            return PruneOutcome(candidate, new_schedule, True, False, False)
        new_dets.append(nd)

    new_graph = DecodingGraph(new_dem)
    det_set = set(new_dets)
    errors = new_graph.closure_errors(det_set)
    h_new, l_new = new_graph.submatrices(sorted(det_set), errors)
    removes = not is_ambiguous(h_new, l_new)

    det_sig, obs_sig = _transport_logical_error(old_dem, new_dem, logical_error)
    breaks = bool(det_sig.any()) or not bool(obs_sig.any())

    return PruneOutcome(candidate, new_schedule, True, removes, breaks)
