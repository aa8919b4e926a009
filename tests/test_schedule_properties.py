"""Property-based tests on schedule rewrites (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import coloration_schedule, nz_schedule
from repro.codes import load_benchmark_code, rotated_surface_code


def adjacent_same_type_pairs(schedule, q):
    """Adjacent same-type stabilizer pairs in qubit q's relative order."""
    order = schedule.qubit_orders[q]
    return [
        (a, b) for a, b in zip(order, order[1:]) if a[0] == b[0]
    ]


class TestRewriteInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_adjacent_same_type_swaps_preserve_commutation(self, seed):
        """Swapping *adjacent* same-type stabilizers on a shared qubit
        never changes any X-before-Z relation, hence never breaks
        commutation.  (Non-adjacent swaps can hop across an opposite-type
        stabilizer and flip two relations — which is why §5.3.2 pairs its
        X/Z swaps.)"""
        code = rotated_surface_code(3)
        sched = nz_schedule(code)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            q = int(rng.integers(0, code.n))
            pairs = adjacent_same_type_pairs(sched, q)
            if not pairs:
                continue
            a, b = pairs[int(rng.integers(0, len(pairs)))]
            sched.swap_relative_order(q, a, b)
        assert not sched.commutation_violations()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_reorders_preserve_commutation(self, seed):
        """Reordering within one stabilizer never changes X-before-Z
        relations, hence never breaks commutation."""
        code = rotated_surface_code(3)
        sched = nz_schedule(code)
        rng = np.random.default_rng(seed)
        keys = list(sched.stab_orders)
        for _ in range(4):
            key = keys[int(rng.integers(0, len(keys)))]
            order = sched.stab_orders[key]
            if len(order) < 2:
                continue
            i, j = rng.choice(len(order), size=2, replace=False)
            sched.reorder(key[0], key[1], move=order[int(i)], before=order[int(j)])
        assert not sched.commutation_violations()

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_layers_always_cover_all_edges_when_schedulable(self, seed):
        code = load_benchmark_code("lp39")
        sched = coloration_schedule(code, np.random.default_rng(seed))
        layers = sched.layers()
        assert layers is not None
        assert set(layers) == set(sched.edges())

    @given(st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None)
    def test_depth_no_less_than_max_stab_weight(self, seed):
        """Each stabilizer's CNOTs are serialized, so depth >= max weight."""
        code = load_benchmark_code("rqt60")
        sched = coloration_schedule(code, np.random.default_rng(seed))
        max_weight = max(
            int(code.hx.sum(axis=1).max()), int(code.hz.sum(axis=1).max())
        )
        assert sched.cnot_depth() >= max_weight


# -- the layering and validity tests against the object-walking oracle ------


def oracle_layers(schedule):
    """ASAP layers by Kahn's algorithm over the precedence DAG, as
    ``Schedule.layers`` computed them before the memo (None if cyclic)."""
    from collections import defaultdict, deque

    succ = defaultdict(list)
    for (kind, s), order in schedule.stab_orders.items():
        for a, b in zip(order, order[1:]):
            succ[(kind, s, a)].append((kind, s, b))
    for q, order in schedule.qubit_orders.items():
        for (k1, s1), (k2, s2) in zip(order, order[1:]):
            succ[(k1, s1, q)].append((k2, s2, q))
    edges = [
        (kind, s, q) for (kind, s), order in schedule.stab_orders.items() for q in order
    ]
    indeg = {e: 0 for e in edges}
    for outs in succ.values():
        for o in outs:
            indeg[o] += 1
    queue = deque(e for e in edges if indeg[e] == 0)
    layer = {e: 0 for e in edges}
    seen = 0
    while queue:
        e = queue.popleft()
        seen += 1
        for o in succ.get(e, ()):
            layer[o] = max(layer[o], layer[e] + 1)
            indeg[o] -= 1
            if indeg[o] == 0:
                queue.append(o)
    return None if seen != len(edges) else layer


def oracle_cnot_layers(schedule):
    layers = oracle_layers(schedule)
    depth = max(layers.values()) + 1 if layers else 0
    out = [[] for _ in range(depth)]
    for e, t in layers.items():
        out[t].append(e)
    return [sorted(bucket) for bucket in out]


def oracle_commutation_violations(schedule):
    """Per overlapping pair, count the shared qubits where X acts first."""
    code = schedule.code
    overlap = code.hx.astype(np.int64) @ code.hz.T.astype(np.int64)
    position = {
        q: {sk: i for i, sk in enumerate(order)}
        for q, order in schedule.qubit_orders.items()
    }
    bad = []
    for xs, zs in zip(*np.nonzero(overlap)):
        xs, zs = int(xs), int(zs)
        shared = np.nonzero(code.hx[xs] & code.hz[zs])[0]
        x_first = sum(
            1
            for q in shared
            if position[int(q)][("x", xs)] < position[int(q)][("z", zs)]
        )
        if x_first % 2 == 1:
            bad.append((xs, zs))
    return bad


def random_rewrite(schedule, rng):
    """One reordering or rescheduling change, valid or not."""
    if rng.random() < 0.5:
        keys = list(schedule.stab_orders)
        kind, stab = keys[int(rng.integers(0, len(keys)))]
        order = schedule.stab_orders[(kind, stab)]
        if len(order) >= 2:
            i, j = rng.choice(len(order), size=2, replace=False)
            schedule.reorder(kind, stab, move=order[int(i)], before=order[int(j)])
    else:
        q = int(rng.integers(0, schedule.code.n))
        order = schedule.qubit_orders[q]
        if len(order) >= 2:
            i, j = rng.choice(len(order), size=2, replace=False)
            schedule.swap_relative_order(q, order[int(i)], order[int(j)])


class TestLayeringMatchesOracle:
    """``layers``, ``cnot_layers``, ``commutation_violations`` and
    ``is_valid`` equal the object-walking implementations after every
    rewrite of one schedule object (so a stale memo would show)."""

    @given(st.integers(0, 10_000), st.sampled_from(["surface", "lp39"]))
    @settings(max_examples=25, deadline=None)
    def test_random_rewrites(self, seed, which):
        if which == "surface":
            code = rotated_surface_code(3)
            sched = nz_schedule(code)
        else:
            code = load_benchmark_code("lp39")
            sched = coloration_schedule(code, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for _ in range(6):
            random_rewrite(sched, rng)
            want_layers = oracle_layers(sched)
            assert sched.layers() == want_layers
            want_violations = oracle_commutation_violations(sched)
            assert sched.commutation_violations() == want_violations
            assert sched.is_valid() == (want_layers is not None and not want_violations)
            if want_layers is not None:
                assert sched.cnot_layers() == oracle_cnot_layers(sched)
