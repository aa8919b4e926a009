"""Quantum Tanner codes with random generator sets (RQT codes).

Quadripartite construction (Leverrier-Zemor; explicit small instances per
Radebold et al., which the paper's Table 1 follows):

* group ``G`` with generator sets ``A, B``; qubits on *squares*
  ``(g, a, b)``, so ``n = |G| * |A| * |B|``;
* each square touches four vertices ``(g,00), (ag,10), (gb,01), (agb,11)``;
* X-type checks live on vertices ``00``/``11`` with local code
  ``C_A (x) C_B``; Z-type checks on ``10``/``01`` with local code
  ``C_A^perp (x) C_B^perp``.

Orthogonality of ``C`` and ``C^perp`` row/column restrictions makes all
checks commute.  The *random* quantum Tanner codes of the paper draw
``A`` and ``B`` uniformly; we seed-search the draw so the resulting
``[[n, k]]`` matches Table 1 and record the estimated distance.
"""

from __future__ import annotations


import numpy as np

from .classical import ClassicalCode
from .css import CSSCode
from .groups import Group


def _local_tensor_basis(ca: ClassicalCode, cb: ClassicalCode) -> np.ndarray:
    """Basis of C_A (x) C_B as vectors over the |A| x |B| local view."""
    ga = ca.generator_matrix
    gb = cb.generator_matrix
    if ga.shape[0] == 0 or gb.shape[0] == 0:
        return np.zeros((0, ca.n * cb.n), dtype=np.uint8)
    rows = [np.outer(u, w).ravel() % 2 for u in ga for w in gb]
    return np.array(rows, dtype=np.uint8)


def quantum_tanner_code(
    group: Group,
    gen_a: list[int],
    gen_b: list[int],
    code_a: ClassicalCode,
    code_b: ClassicalCode,
    name: str | None = None,
) -> CSSCode:
    """Build the quadripartite quantum Tanner code Q(G, A, B; C_A, C_B)."""
    if len(set(gen_a)) != len(gen_a) or len(set(gen_b)) != len(gen_b):
        raise ValueError("generator sets must not contain repeats")
    if code_a.n != len(gen_a) or code_b.n != len(gen_b):
        raise ValueError("local code lengths must match generator set sizes")

    ell = group.order
    na, nb = len(gen_a), len(gen_b)
    nqubits = ell * na * nb

    def qubit_index(g: int, ai: int, bi: int) -> int:
        return (g * na + ai) * nb + bi

    x_basis = _local_tensor_basis(code_a, code_b)
    z_basis = _local_tensor_basis(code_a.dual(), code_b.dual())

    x_rows: list[np.ndarray] = []
    z_rows: list[np.ndarray] = []

    inv = group.inv
    mul = group.mul

    for v in range(ell):
        # Vertex (v, 00): squares (v, a, b).
        local00 = [
            qubit_index(v, ai, bi) for ai in range(na) for bi in range(nb)
        ]
        # Vertex (v, 11): squares with a*g*b = v, i.e. g = a^-1 v b^-1.
        local11 = [
            qubit_index(mul(mul(inv(gen_a[ai]), v), inv(gen_b[bi])), ai, bi)
            for ai in range(na)
            for bi in range(nb)
        ]
        for basis_vec in x_basis:
            for local in (local00, local11):
                row = np.zeros(nqubits, dtype=np.uint8)
                for pos, q in enumerate(local):
                    row[q] ^= basis_vec[pos]
                x_rows.append(row)
        # Vertex (v, 10): squares with a*g = v, i.e. g = a^-1 v.
        local10 = [
            qubit_index(mul(inv(gen_a[ai]), v), ai, bi)
            for ai in range(na)
            for bi in range(nb)
        ]
        # Vertex (v, 01): squares with g*b = v, i.e. g = v b^-1.
        local01 = [
            qubit_index(mul(v, inv(gen_b[bi])), ai, bi)
            for ai in range(na)
            for bi in range(nb)
        ]
        for basis_vec in z_basis:
            for local in (local10, local01):
                row = np.zeros(nqubits, dtype=np.uint8)
                for pos, q in enumerate(local):
                    row[q] ^= basis_vec[pos]
                z_rows.append(row)

    hx = np.array(x_rows, dtype=np.uint8)
    hz = np.array(z_rows, dtype=np.uint8)
    return CSSCode(hx=hx, hz=hz, name=name or f"qt({group.name})")


def random_quantum_tanner_code(
    group: Group,
    set_size_a: int,
    set_size_b: int,
    code_a: ClassicalCode,
    code_b: ClassicalCode,
    rng: np.random.Generator,
    name: str | None = None,
) -> CSSCode:
    """Draw random generator sets A, B and build the Tanner code."""
    gen_a = sorted(rng.choice(group.order, size=set_size_a, replace=False).tolist())
    gen_b = sorted(rng.choice(group.order, size=set_size_b, replace=False).tolist())
    return quantum_tanner_code(group, gen_a, gen_b, code_a, code_b, name=name)


def search_rqt_code(
    group: Group,
    set_size: int,
    local_code: ClassicalCode,
    target_k: int,
    max_seeds: int = 2000,
    name: str | None = None,
) -> tuple[CSSCode, int]:
    """Seed-search random generator sets until the code has ``target_k``.

    Returns (code, seed).  Raises if no seed within ``max_seeds`` matches —
    callers should then relax the target.
    """
    for seed in range(max_seeds):
        rng = np.random.default_rng(seed)
        code = random_quantum_tanner_code(
            group, set_size, set_size, local_code, local_code, rng, name=name
        )
        if code.k == target_k:
            return code, seed
    raise ValueError(
        f"no seed in [0,{max_seeds}) gives k={target_k} for {group.name}"
    )
