"""Process fan-out: the one parallelism layer, and parallel subgraph sampling.

The paper parallelizes subgraph finding over 48 CPU cores (§6.1).  This
module provides the same fan-out with ``multiprocessing``: each worker
samples and solves subgraphs independently with its own RNG stream, and
results are merged.  Sequential sampling with the same seeds gives
statistically identical behaviour, so ``workers=1`` (the default
everywhere) keeps runs deterministic and fork-free.

:func:`process_pool` builds every process pool in the package — this
sampler's and the shot runner's — so the start-method decision lives in
one place.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

import numpy as np

from .ambiguity import find_ambiguous_subgraph
from .decoding_graph import DecodingGraph, Subgraph
from .minweight import LogicalErrorSolution, solve_min_weight_logical


def process_pool(
    workers: int, initializer: Callable[..., None], initargs: tuple
) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes, each set up by ``initializer``.

    Prefers ``fork``: workers start cheaply and share the parent's DEM or
    graph copy-on-write, like the paper's multicore runs.  Where fork is
    unavailable the platform default is used; results are unaffected,
    only start-up cost.  A fork copies only the calling thread, so work
    run in the workers must not rely on threads of the parent; the
    kernels start none.  The caller sizes the pool and owns shutdown.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=initializer,
        initargs=initargs,
    )


# Module-level state for fork-based workers (set by the parent before the
# pool starts; inherited by children on fork).
_WORKER_GRAPH: DecodingGraph | None = None


def _init_worker(graph: DecodingGraph) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph


def _sample_one(
    args: tuple[int, int, str, int]
) -> tuple[Subgraph, LogicalErrorSolution] | None:
    seed, max_errors, solver, isd_iterations = args
    graph = _WORKER_GRAPH
    if graph is None:
        raise RuntimeError("worker pool not initialized")
    rng = np.random.default_rng(seed)
    sub = find_ambiguous_subgraph(graph, rng, max_errors=max_errors)
    if sub is None:
        return None
    solution = solve_min_weight_logical(
        sub, rng=rng, method=solver, isd_iterations=isd_iterations
    )
    if solution is None:
        return None
    return sub, solution


def sample_and_solve(
    graph: DecodingGraph,
    samples: int,
    base_seed: int,
    max_errors: int = 60,
    solver: str = "auto",
    isd_iterations: int = 120,
    workers: int = 1,
) -> list[tuple[Subgraph, LogicalErrorSolution]]:
    """Sample ``samples`` subgraphs, solving the ambiguous ones.

    ``workers > 1`` fans out over processes (fork start method shares the
    graph copy-on-write, like the paper's multicore runs).
    """
    jobs = [
        (base_seed + i, max_errors, solver, isd_iterations) for i in range(samples)
    ]
    if workers <= 1:
        _init_worker(graph)
        try:
            results = [_sample_one(job) for job in jobs]
        finally:
            _init_worker(None)  # type: ignore[arg-type]
        return [r for r in results if r is not None]

    workers = min(workers, os.cpu_count() or 1)
    with process_pool(workers, _init_worker, (graph,)) as pool:
        results = list(
            pool.map(_sample_one, jobs, chunksize=max(1, samples // (4 * workers)))
        )
    return [r for r in results if r is not None]
