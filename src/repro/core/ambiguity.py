"""Ambiguous decoding-subgraph finding (paper §5.1).

Starting from a random error node, the subgraph grows one error node at a
time (always staying connected through shared syndromes); after each step
the closure error set and the submatrices ``H'``, ``L'`` are formed and
the ambiguity test ``L' not in rowspace(H')`` (§4.1) is evaluated.
Expansion halts the moment ambiguity appears — keeping the subsequent
MaxSAT model small is the whole point (Table 2).
"""

from __future__ import annotations

import numpy as np

from .. import gf2
from .decoding_graph import DecodingGraph, Subgraph


def is_ambiguous(h: np.ndarray, l_mat: np.ndarray) -> bool:
    """Paper §4.1: ambiguity iff some logical row is outside rowspace(H')."""
    if l_mat.size == 0 or not l_mat.any():
        return False
    return not gf2.in_rowspace(h, l_mat)


def find_ambiguous_subgraph(
    graph: DecodingGraph,
    rng: np.random.Generator,
    max_errors: int = 60,
    start_error: int | None = None,
) -> Subgraph | None:
    """Grow one random connected subgraph until it contains ambiguity.

    Returns ``None`` if the size cap is hit first (sample again), or if
    the graph is empty.
    """
    if graph.num_errors == 0:
        return None
    if start_error is None:
        start_error = int(rng.integers(0, graph.num_errors))

    det_set: set[int] = set(graph.error_dets[start_error])
    if not det_set:
        return None  # an undetectable mechanism cannot seed a subgraph

    explicit: set[int] = {start_error}
    while True:
        errors = graph.closure_errors(det_set)
        if len(errors) > max_errors:
            return None
        dets = sorted(det_set)
        h, l_mat = graph.submatrices(dets, errors)
        if is_ambiguous(h, l_mat):
            return Subgraph(detectors=dets, errors=errors, h=h, l=l_mat)
        # Expand: a random error adjacent to the current syndromes that
        # brings in at least one new syndrome (stays connected, §5.1).
        frontier: list[int] = []
        seen: set[int] = set()
        for d in det_set:
            for e in graph.det_errors[d]:
                if e in seen:
                    continue
                seen.add(e)
                if any(dd not in det_set for dd in graph.error_dets[e]):
                    frontier.append(e)
        if not frontier:
            return None  # exhausted a connected component without ambiguity
        pick = frontier[int(rng.integers(0, len(frontier)))]
        explicit.add(pick)
        det_set.update(graph.error_dets[pick])

