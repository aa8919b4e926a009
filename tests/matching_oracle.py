"""Reference matching-graph builder: a Python loop over the mechanisms.

This is how ``MatchingDecoder._build_graph`` built its graph before it
became one array pass over ``dem.signatures``, kept in behaviour as the
oracle the array pass is compared against
(``tests/test_matching_graph.py``).  Each mechanism is projected onto
the detector subset through a ``local_index`` dict, the lowest-weight
mechanism per node pair is kept in a dict (strict ``<``, so the earlier
of two equal weights wins), and every source's path parities are walked
down scipy's predecessor tree in distance order.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.sim.dem import DetectorErrorModel


def oracle_graph(
    dem: DetectorErrorModel, subset: list[int], observable: int = 0
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """``(graph, dist, parity)`` for matching on ``subset``.

    The boundary is node ``len(subset)``.  Raises the decoder's
    ``ValueError`` on the first mechanism that flips more than two
    subset detectors.
    """
    local_index = {d: i for i, d in enumerate(subset)}
    nlocal = len(subset)
    boundary = nlocal
    best: dict[tuple[int, int], tuple[float, int]] = {}
    dets, obs = dem.supports()
    for mech_dets, mech_obs, prob in zip(dets, obs, dem.probs.tolist()):
        local = sorted(local_index[d] for d in mech_dets if d in local_index)
        flips_obs = int(observable in mech_obs)
        if not local:
            continue
        if len(local) == 1:
            u, v = local[0], boundary
        elif len(local) == 2:
            u, v = local
        else:
            raise ValueError(
                f"mechanism flips {len(local)} same-type detectors; "
                "DEM is not graph-like — use BpOsdDecoder instead"
            )
        p = min(max(prob, 1e-15), 0.5 - 1e-12)
        weight = math.log((1 - p) / p)
        key = (u, v)
        if key not in best or weight < best[key][0]:
            best[key] = (weight, flips_obs)

    rows, cols, weights = [], [], []
    edge_obs: dict[tuple[int, int], int] = {}
    for (u, v), (w, fo) in best.items():
        rows.append(u)
        cols.append(v)
        weights.append(w)
        edge_obs[(u, v)] = fo
        edge_obs[(v, u)] = fo
    n_nodes = nlocal + 1
    graph = sparse.csr_matrix((weights, (rows, cols)), shape=(n_nodes, n_nodes))
    graph = graph.maximum(graph.T)
    dist, predecessors = csgraph.dijkstra(
        graph, directed=False, return_predecessors=True
    )
    parity = np.zeros((n_nodes, n_nodes), dtype=np.uint8)
    for src in range(n_nodes):
        order = np.argsort(dist[src])
        for node in order:
            pred = predecessors[src, node]
            if pred < 0 or not np.isfinite(dist[src, node]):
                continue
            parity[src, node] = parity[src, pred] ^ edge_obs.get(
                (int(pred), int(node)), 0
            )
    return graph, dist, parity
