"""The stable client facade: ``import repro.api as api``.

Everything a *user* of this reproduction needs — evaluating a circuit's
logical error rate, sweeping a campaign grid, running the distributed
service — behind one small, ``__all__``-pinned surface.  The internal
packages (``repro.experiments``, ``repro.decoders``, ...) keep evolving
PR to PR; this module is the compatibility contract, and
``tests/test_api_surface.py`` pins both the name list and the call
signatures so accidental breakage fails CI, not user code.

Two styles:

Functions, for one-shot use::

    import repro.api as api

    ler = api.evaluate("surface_d3", "coloration", p=1e-3, shots=20_000)
    report = api.sweep(api.smoke_spec(), store="results/")

A :class:`Session`, when calls share state — one open
:class:`~repro.experiments.store.ResultStore` handle (parsed once,
tailed incrementally), one compile cache, one
:class:`~repro.experiments.shotrunner.ExecutionConfig`::

    sess = api.Session(store="results/", config=api.ExecutionConfig(workers=4))
    sess.sweep(spec)
    rows = sess.query(code="surface_d3", estimator="direct")

The distributed pair: :func:`serve` publishes a campaign's job queue
into the store directory (and can run an in-process worker fleet);
:func:`worker` attaches a worker to a served store from any process or
machine sharing the filesystem.  See ``repro.experiments.service`` for
the protocol.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

from .experiments.campaign import (
    CampaignJob,
    CampaignReport,
    CampaignSpec,
    CompileCache,
    run_campaign,
    smoke_spec,
)
from .experiments.service import (
    ServeReport,
    WorkerReport,
    serve_campaign,
    worker_loop,
)
from .experiments.shotrunner import ExecutionConfig
from .experiments.store import ResultStore

__all__ = [
    "CampaignJob",
    "CampaignSpec",
    "ExecutionConfig",
    "ResultStore",
    "Session",
    "evaluate",
    "serve",
    "smoke_spec",
    "sweep",
    "worker",
]


def evaluate(
    code: str,
    schedule: str | dict[str, Any] = "coloration",
    p: float = 1e-3,
    shots: int = 10_000,
    basis: str | None = None,
    decoder: str = "auto",
    idle_strength: float = 0.0,
    noise: Any = None,
    rounds: int | None = None,
    config: ExecutionConfig | None = None,
):
    """Logical error rate of one (code, schedule) point; no store needed.

    ``code`` and ``schedule`` are campaign tokens (``"surface_d5"``,
    ``"coloration"``, ``"nz"``, an inline serialized schedule dict —
    see :func:`repro.experiments.campaign.resolve_code` /
    :func:`~repro.experiments.campaign.resolve_schedule`).  ``basis``
    restricts to one memory basis; the default simulates both and
    combines them, the paper's convention.  Returns a
    :class:`~repro.decoders.metrics.LogicalErrorRate`.
    """
    from .experiments.campaign import resolve_code, resolve_schedule
    from .experiments.shotrunner import estimate_logical_error_rate

    code_obj = resolve_code(code)
    return estimate_logical_error_rate(
        code_obj,
        resolve_schedule(code_obj, schedule),
        p,
        shots=shots,
        bases=(basis,) if basis is not None else ("z", "x"),
        decoder=decoder,
        idle_strength=idle_strength,
        noise=noise,
        rounds=rounds,
        config=config,
    )


def sweep(
    spec: CampaignSpec | Sequence[CampaignJob],
    store: ResultStore | str | os.PathLike | None = None,
    config: ExecutionConfig | None = None,
    labels: dict[str, str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Run a campaign grid in this process, resuming from ``store``."""
    return run_campaign(
        spec, store=store, config=config, labels=labels, progress=progress
    )


def serve(
    spec: CampaignSpec | Sequence[CampaignJob],
    store: str | os.PathLike,
    n_workers: int = 0,
    ttl: float = 60.0,
    poll: float = 0.5,
    wait: bool = True,
    timeout: float | None = None,
    labels: dict[str, str] | None = None,
    config: ExecutionConfig | None = None,
    progress: Callable[[str], None] | None = None,
) -> ServeReport:
    """Publish a campaign queue; optionally run in-process workers."""
    return serve_campaign(
        spec,
        store,
        n_workers=n_workers,
        ttl=ttl,
        poll=poll,
        wait=wait,
        timeout=timeout,
        labels=labels,
        config=config,
        progress=progress,
    )


def worker(
    store: str | os.PathLike,
    worker_id: str | None = None,
    ttl: float = 60.0,
    poll: float = 0.5,
    once: bool = False,
    max_jobs: int | None = None,
    timeout: float | None = None,
    config: ExecutionConfig | None = None,
    progress: Callable[[str], None] | None = None,
) -> WorkerReport:
    """Attach a worker to a served store until its queue is drained."""
    return worker_loop(
        store,
        worker_id=worker_id,
        ttl=ttl,
        poll=poll,
        once=once,
        max_jobs=max_jobs,
        timeout=timeout,
        config=config,
        progress=progress,
    )


class Session:
    """Shared-state facade: one store handle, one compile cache, one config.

    Figure scripts and notebooks that issue many calls against the same
    store pay the store parse once (the handle tails incrementally
    afterwards — :meth:`reload` folds in records other processes
    appended) and share compiled DEMs/decoders across sweeps.
    """

    def __init__(
        self,
        store: ResultStore | str | os.PathLike | None = None,
        config: ExecutionConfig | None = None,
        cache: CompileCache | None = None,
    ):
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        self.config = config or ExecutionConfig()
        self.cache = cache or CompileCache()

    def reload(self) -> None:
        """Fold in records appended by other processes since the last load."""
        self.store.reload()

    def evaluate(self, code: str, schedule: str | dict[str, Any], p: float, **kw):
        """:func:`evaluate`, sharing this session's execution config."""
        kw.setdefault("config", self.config)
        return evaluate(code, schedule, p, **kw)

    def sweep(
        self,
        spec: CampaignSpec | Sequence[CampaignJob],
        labels: dict[str, str] | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> CampaignReport:
        """Run a grid against this session's store, cache, and config."""
        return run_campaign(
            spec,
            store=self.store,
            cache=self.cache,
            config=self.config,
            labels=labels,
            progress=progress,
        )

    def serve(
        self,
        spec: CampaignSpec | Sequence[CampaignJob],
        n_workers: int = 0,
        **kw,
    ) -> ServeReport:
        """:func:`serve` against this session's (on-disk) store."""
        if self.store.path is None:
            raise ValueError("serving requires an on-disk store")
        kw.setdefault("config", self.config)
        report = serve(spec, self.store.path, n_workers=n_workers, **kw)
        self.store.reload()
        return report

    def query(self, **filters: Any) -> list[dict[str, Any]]:
        """Store records matching job-field filters (after a reload)."""
        self.store.reload()
        return self.store.query(**filters)

    def compact(self) -> dict[str, int]:
        """Canonicalize the store on disk (sorted, deduplicated, sharded)."""
        return self.store.compact()

    def telemetry(self) -> dict[str, Any]:
        """Fleet telemetry summary from this store's sidecar files.

        Aggregates the ``<store>/telemetry/`` span traces and worker
        heartbeats (written when workers run with ``REPRO_OBS=on``)
        into per-stage time shares, merged metric counters/histograms,
        and per-worker liveness — the programmatic face of ``campaign
        status --telemetry``.  Requires an on-disk store; telemetry is
        sidecar-only and never part of the result records themselves.
        """
        if self.store.path is None:
            raise ValueError("telemetry requires an on-disk store")
        from .obs.dashboard import telemetry_summary

        return telemetry_summary(self.store.path)
