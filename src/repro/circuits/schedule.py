"""CNOT schedules for syndrome measurement circuits.

A :class:`Schedule` is PropHunt's mutable circuit representation (paper
§5.3, Figure 11): for every stabilizer, an *order* over its data qubits,
and for every data qubit, a *relative order* over the stabilizers that
touch it.  Together these define a precedence DAG over Tanner-graph edges
``(kind, stab, qubit)``; an ASAP longest-path layering turns the DAG into
CNOT layers.

Validity (paper §5.4, "Circuit Validity") has two parts:

* **schedulability** — the precedence DAG must be acyclic;
* **stabilizer commutation** — for every overlapping X/Z stabilizer pair,
  the number of shared data qubits on which the X stabilizer acts *first*
  must be even, otherwise the two ancilla measurements entangle and the
  measured operators are no longer the intended stabilizers.

The two rewrite primitives are exactly the paper's: *reordering* (§5.3.1)
moves a data qubit earlier inside one stabilizer's order; *rescheduling*
(§5.3.2) swaps the relative order of two stabilizers on a shared qubit.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..codes.css import CSSCode

Edge = tuple[str, int, int]  # (kind "x"/"z", stabilizer index, data qubit)


class Schedule:
    """CNOT ordering state for one code's SM circuit."""

    def __init__(
        self,
        code: CSSCode,
        stab_orders: dict[tuple[str, int], list[int]],
        qubit_orders: dict[int, list[tuple[str, int]]],
    ):
        self.code = code
        self.stab_orders = {k: list(v) for k, v in stab_orders.items()}
        self.qubit_orders = {k: list(v) for k, v in qubit_orders.items()}
        self._check_consistency()
        self._memo_state: tuple | None = None
        self._memo: dict[str, object] = {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_layer_assignment(
        cls, code: CSSCode, layer_of: dict[Edge, int]
    ) -> "Schedule":
        """Build orders from an explicit edge -> layer map."""
        stab_orders: dict[tuple[str, int], list[int]] = {}
        qubit_orders: dict[int, list[tuple[str, int]]] = defaultdict(list)
        for kind, matrix in (("x", code.hx), ("z", code.hz)):
            for s in range(matrix.shape[0]):
                support = [int(q) for q in np.nonzero(matrix[s])[0]]
                support.sort(key=lambda q: layer_of[(kind, s, q)])
                stab_orders[(kind, s)] = support
        per_qubit: dict[int, list[tuple[int, tuple[str, int]]]] = defaultdict(list)
        for (kind, s, q), layer in layer_of.items():
            per_qubit[q].append((layer, (kind, s)))
        for q, entries in per_qubit.items():
            entries.sort()
            layers = [e[0] for e in entries]
            if len(set(layers)) != len(layers):
                raise ValueError(f"two CNOTs on qubit {q} share a layer")
            qubit_orders[q] = [e[1] for e in entries]
        return cls(code, stab_orders, dict(qubit_orders))

    def copy(self) -> "Schedule":
        return Schedule(self.code, self.stab_orders, self.qubit_orders)

    def _check_consistency(self) -> None:
        code = self.code
        for kind, matrix in (("x", code.hx), ("z", code.hz)):
            for s in range(matrix.shape[0]):
                support = set(int(q) for q in np.nonzero(matrix[s])[0])
                order = self.stab_orders.get((kind, s))
                if order is None or set(order) != support or len(order) != len(support):
                    raise ValueError(
                        f"stab order for ({kind},{s}) must be a permutation of "
                        f"its support"
                    )
        for q in range(code.n):
            touching = {("x", s) for s in code.data_qubit_x_stabs(q)} | {
                ("z", s) for s in code.data_qubit_z_stabs(q)
            }
            order = self.qubit_orders.get(q, [])
            if set(order) != touching or len(order) != len(touching):
                raise ValueError(
                    f"qubit order for {q} must be a permutation of its stabilizers"
                )

    # -- precedence DAG and layering -------------------------------------------

    def edges(self) -> list[Edge]:
        return [
            (kind, s, q)
            for (kind, s), order in self.stab_orders.items()
            for q in order
        ]

    def _memoized(self, name: str, compute):
        """``compute()``, once per state of the orders.  The orders are
        plain mutable lists, so the memo is keyed by a snapshot of them:
        the builder's validity guard, its CNOT layers and §5.4's check
        before it share one layering and one commutation test."""
        state = (
            tuple((k, tuple(v)) for k, v in self.stab_orders.items()),
            tuple((q, tuple(v)) for q, v in self.qubit_orders.items()),
        )
        if state != self._memo_state:
            self._memo_state, self._memo = state, {}
        if name not in self._memo:
            self._memo[name] = compute()
        return self._memo[name]

    def layers(self) -> dict[Edge, int] | None:
        """ASAP layer for every CNOT, or ``None`` if the DAG has a cycle."""
        layers = self._memoized("layers", self._asap_layers)
        return None if layers is None else dict(layers)

    def _asap_layers(self) -> dict[Edge, int] | None:
        """Longest-path layers of the precedence DAG (Kahn's algorithm
        over edge indices), or ``None`` if it has a cycle."""
        edges = self.edges()
        index = {e: i for i, e in enumerate(edges)}
        succ: list[list[int]] = [[] for _ in edges]
        for (kind, s), order in self.stab_orders.items():
            for a, b in zip(order, order[1:]):
                succ[index[kind, s, a]].append(index[kind, s, b])
        for q, order in self.qubit_orders.items():
            for (k1, s1), (k2, s2) in zip(order, order[1:]):
                succ[index[k1, s1, q]].append(index[k2, s2, q])
        indeg = [0] * len(edges)
        for outs in succ:
            for o in outs:
                indeg[o] += 1
        queue = [i for i, d in enumerate(indeg) if d == 0]
        layer = [0] * len(edges)
        for i in queue:  # grows while it is walked
            for o in succ[i]:
                layer[o] = max(layer[o], layer[i] + 1)
                indeg[o] -= 1
                if indeg[o] == 0:
                    queue.append(o)
        if len(queue) != len(edges):
            return None  # cyclic: unschedulable
        return dict(zip(edges, layer))

    def is_schedulable(self) -> bool:
        return self._memoized("layers", self._asap_layers) is not None

    def cnot_depth(self) -> int:
        layers = self.layers()
        if layers is None:
            raise ValueError("schedule is not schedulable (cyclic dependencies)")
        return max(layers.values()) + 1 if layers else 0

    def cnot_layers(self) -> list[list[Edge]]:
        layers = self._memoized("layers", self._asap_layers)
        if layers is None:
            raise ValueError("schedule is not schedulable (cyclic dependencies)")
        return _bucket_layers(layers)

    # -- validity ---------------------------------------------------------------

    def commutation_violations(self) -> list[tuple[int, int]]:
        """(x_stab, z_stab) pairs whose measurement operators anticommute."""
        return list(self._memoized("violations", self._x_first_odd))

    def _x_first_odd(self) -> list[tuple[int, int]]:
        """The pairs with an odd number of shared qubits on which the X
        stabilizer acts first.

        It acts first on ``q`` when it sits earlier in ``q``'s relative
        order.  With ``pos_x`` and ``pos_z`` each stabilizer's position
        per qubit (-1 where it does not act), the count for every pair
        is ``sum_p [pos_x == p] @ [pos_z > p]^T`` over the positions.
        """
        code = self.code
        pos = {"x": np.full(code.hx.shape, -1), "z": np.full(code.hz.shape, -1)}
        for q, order in self.qubit_orders.items():
            for i, (kind, s) in enumerate(order):
                pos[kind][s, q] = i
        pos_x, pos_z = pos["x"], pos["z"]
        x_first = np.zeros((pos_x.shape[0], pos_z.shape[0]), dtype=np.int64)
        for p in range(int(pos_x.max(initial=-1)) + 1):
            x_first += (pos_x == p).astype(np.int64) @ (pos_z > p).T.astype(np.int64)
        return [(int(a), int(b)) for a, b in zip(*np.nonzero(x_first & 1))]

    def is_valid(self) -> bool:
        """Paper §5.4 circuit validity: commutation preserved and schedulable."""
        return self.is_schedulable() and not self.commutation_violations()

    # -- rewrite primitives (paper §5.3) ----------------------------------------

    def reorder(self, kind: str, stab: int, move: int, before: int) -> None:
        """Reordering change: move data qubit ``move`` before ``before``.

        Mirrors §5.3.1: for a hook error caused by the CNOT with data qubit
        ``q_i = before``, each candidate moves another qubit ``q_j = move``
        in front of it, changing which data qubits the hook spreads to.
        """
        order = self.stab_orders[(kind, stab)]
        if move not in order or before not in order:
            raise ValueError("both qubits must be in the stabilizer's support")
        if move == before:
            raise ValueError("cannot move a qubit before itself")
        order.remove(move)
        order.insert(order.index(before), move)

    def swap_relative_order(
        self, qubit: int, s1: tuple[str, int], s2: tuple[str, int]
    ) -> None:
        """Rescheduling change: swap s1 and s2 in ``qubit``'s relative order.

        Mirrors §5.3.2 / Figure 11: flipping the direction of the edge
        between two syndrome qubits on a shared data qubit.
        """
        order = self.qubit_orders[qubit]
        i, j = order.index(s1), order.index(s2)
        order[i], order[j] = order[j], order[i]

    def relative_position(self, qubit: int, stab: tuple[str, int]) -> int:
        return self.qubit_orders[qubit].index(stab)

    def __repr__(self) -> str:
        return (
            f"Schedule(code={self.code.name}, "
            f"stabs={len(self.stab_orders)}, "
            f"valid={self.is_valid()})"
        )


def _bucket_layers(layers: dict[Edge, int]) -> list[list[Edge]]:
    """Edges grouped by ASAP layer, each layer sorted."""
    depth = max(layers.values()) + 1 if layers else 0
    out: list[list[Edge]] = [[] for _ in range(depth)]
    for e, t in layers.items():
        out[t].append(e)
    for bucket in out:
        bucket.sort()
    return out
