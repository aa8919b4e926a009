"""Process fan-out: the one parallelism layer, and parallel subgraph sampling.

The paper spreads subgraph finding and shot decoding over 48 cores
(§6.1).  Here all three such loops — shot chunks, fixed-weight chunks
(:mod:`repro.experiments.shotrunner`) and subgraph sampling
(:func:`sample_and_solve`) — go through :class:`FanOut`.  The caller
compiles the state once (a sampler plus decoder, or a decoding graph);
pools only run it.  Every job carries its own seed, so ``workers=1``
(the default, fork-free) and ``workers=N`` give identical results.
:func:`process_pool` builds every pool, so the start-method decision
lives in one place.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from typing import Any, Callable, Iterator

import numpy as np

from .ambiguity import find_ambiguous_subgraph
from .decoding_graph import DecodingGraph, Subgraph
from .minweight import LogicalErrorSolution, solve_min_weight_logical


def process_pool(
    workers: int, initializer: Callable[..., None], initargs: tuple
) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes, each set up by ``initializer``.

    Prefers ``fork``: workers start cheaply and share the parent's
    compiled state copy-on-write, like the paper's multicore runs.
    Where fork is unavailable the platform default is used and
    ``initargs`` are pickled; results are unaffected, only start-up
    cost.  A fork copies only the calling thread, so work run in the
    workers must not rely on threads of the parent; the kernels start
    none.  The caller sizes the pool and owns shutdown.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=initializer,
        initargs=initargs,
    )


# The compiled state of a pool worker, installed once by the pool's
# initializer (inherited under fork, unpickled elsewhere).
_WORKER_STATE: Any = None


def _install(state: Any) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _call(fn: Callable[[Any, Any], Any], job: Any) -> Any:
    return fn(_WORKER_STATE, job)


class FanOut:
    """Runs ``fn(state, job)`` over jobs, inline or on one process pool.

    ``state`` is what the caller compiled once.  ``workers`` is capped
    at the CPU count here and at each call's job count in :meth:`map`,
    so one job (or ``workers=1``) never starts a pool.  The pool opens
    on the first call that needs one, sized by that call, and serves
    later calls until :meth:`close`.  ``fn`` must be a module-level
    function: it is pickled to the workers, and so are results.
    """

    def __init__(self, state: Any, workers: int = 1):
        self.state = state
        self.workers = min(workers, os.cpu_count() or 1)
        self._pool: ProcessPoolExecutor | None = None
        self._size = 0

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        jobs: list,
        inline: Callable[[Any, list], Iterator] | None = None,
    ) -> Iterator:
        """Results of ``fn(state, job)``, lazily and in job order.

        ``inline(state, jobs)``, when given, replaces the plain loop on
        the inline path.  On the pool at most ``2 * size`` jobs are in
        flight, so a caller that stops early never submits the rest.
        """
        if min(self.workers, len(jobs)) <= 1:
            if inline is not None:
                yield from inline(self.state, jobs)
            else:
                yield from (fn(self.state, job) for job in jobs)
            return
        if self._pool is None:
            self._size = min(self.workers, len(jobs))
            self._pool = process_pool(self._size, _install, (self.state,))
        pool, todo = self._pool, iter(jobs)
        window = deque(
            pool.submit(_call, fn, job) for job in islice(todo, 2 * self._size)
        )
        try:
            while window:
                result = window.popleft().result()
                window.extend(pool.submit(_call, fn, job) for job in islice(todo, 1))
                yield result
        finally:
            for future in window:
                future.cancel()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "FanOut":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _sample_one(
    graph: DecodingGraph, job: tuple[int, int, str, int]
) -> tuple[Subgraph, LogicalErrorSolution] | None:
    seed, max_errors, solver, isd_iterations = job
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

    Sample ``i`` seeds from ``base_seed + i``, so ``workers > 1`` (a
    :class:`FanOut` over the caller's ``graph``) gives the
    ``workers=1`` result.
    """
    jobs = [
        (base_seed + i, max_errors, solver, isd_iterations) for i in range(samples)
    ]
    with FanOut(graph, workers) as fan:
        results = list(fan.map(_sample_one, jobs))
    return [r for r in results if r is not None]
