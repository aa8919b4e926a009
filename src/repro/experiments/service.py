"""Distributed campaign service: a lease-based worker fleet over one store.

:func:`run_campaign` executes a grid in one process.  This module turns
the same content-addressed machinery into a *service*: ``serve`` writes
the campaign's job queue into the store directory, any number of
``worker`` processes (on any machine sharing the filesystem) claim
batches of jobs via expiring lease files, execute them, and append
results to the store's shard files, the one layout every
:class:`~repro.experiments.store.ResultStore` writes.  There is no
coordinator process and no network protocol — the store directory *is*
the coordination medium:

``<store>/service/queue.json``
    The queue manifest: every job payload (+ display label) of the
    campaign, written atomically.  Workers enumerate misses against the
    store themselves; there is no job-state machine to corrupt.

``<store>/service/leases/<affinity>.lease``
    One lease per *affinity group* — the batch of jobs sharing a
    compile configuration: the seven
    :data:`~repro.experiments.campaign.DEM_FIELDS` plus the decoder.
    Claiming hard-links a fully written temp file into place (atomic
    on POSIX, and it fails if the lease exists); the payload carries
    the owner and an expiry timestamp.  A crashed worker's lease
    simply expires and another worker takes the group over.

Correctness under every race reduces to the store's two invariants:
jobs are content-addressed (double execution writes identical content)
and each job seeds its RNG from its own key (results are byte-identical
no matter who runs them, in what order, after how many crashes).  Lease
takeover races are therefore *tolerated*, not prevented — at worst a
group is executed twice, and ``compact()`` folds the duplicates away.
The acceptance gate: a fleet of racing workers, one killed mid-group,
produces a compacted store byte-identical to single-process
:func:`run_campaign` (``tests/test_service.py``,
``scripts/service_smoke.py``).

Affinity batching is the performance half: grouping a claim unit by
compile configuration means one worker reuses its
:class:`~repro.experiments.campaign.CompileCache` entry (DEM, decoder,
sampler) and warm :class:`~repro.decoders.syncache.SyndromeCache`
across the whole batch, instead of every worker re-extracting every
DEM.  Each worker writes its syndrome-cache appends to a private
per-worker shard (``writer_tag``), so the fleet shares warm caches
without write contention.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .. import obs
from ..obs.log import get_logger
from .campaign import (
    CampaignJob,
    CampaignSpec,
    CompileCache,
    compile_key,
    execute_job,
    syndrome_cache_dir_for,
)
from .shotrunner import ExecutionConfig
from .store import ResultStore, canonical_json, job_key

QUEUE_FORMAT = "campaign-queue-v1"
LEASE_FORMAT = "campaign-lease-v1"

_log = get_logger("service")

# Lease-protocol instruments, maintained inside the lease helpers so
# every caller (worker loop, tests, external tooling) is counted.
_LEASE_CLAIMS = obs.counter("lease.claims")
_LEASE_TAKEOVERS = obs.counter("lease.takeovers")
_LEASE_RENEWS = obs.counter("lease.renews")
_LEASE_RENEW_LOST = obs.counter("lease.renew_lost")
_LEASE_RELEASES = obs.counter("lease.releases")

DEFAULT_TTL = 60.0
DEFAULT_POLL = 0.5
# Clock-skew allowance for cross-host lease expiry checks:
# ``expires_at`` stamps come from *another* worker's wall clock, so a
# lease is only takeover-eligible this many seconds past its nominal
# expiry.  A few seconds covers NTP-disciplined fleets; raise it for
# hosts with free-running clocks, or set 0 for single-host tests.
DEFAULT_SKEW_GRACE = 3.0

# -- queue manifest ----------------------------------------------------------


def service_dir(store_path: str | os.PathLike) -> str:
    return os.path.join(os.fspath(store_path), "service")


def queue_path(store_path: str | os.PathLike) -> str:
    return os.path.join(service_dir(store_path), "queue.json")


def lease_dir(store_path: str | os.PathLike) -> str:
    return os.path.join(service_dir(store_path), "leases")


def write_queue(
    store_path: str | os.PathLike,
    jobs: Sequence[CampaignJob],
    labels: dict[str, str] | None = None,
    name: str | None = None,
) -> str:
    """Publish the campaign's job queue into the store directory.

    Atomic (temp file + rename): workers either see the previous queue
    or the complete new one, never a torn manifest.  Re-publishing is
    how a campaign grows — workers re-read the queue every pass, and
    jobs already in the store are never re-run.
    """
    entries = []
    seen: set[str] = set()
    for campaign_job in jobs:
        payload = campaign_job.to_payload()
        key = job_key(payload)
        if key in seen:
            continue
        seen.add(key)
        entry: dict[str, Any] = {"key": key, "job": payload}
        label = (labels or {}).get(key)
        if label is not None:
            entry["label"] = label
        entries.append(entry)
    manifest = {"format": QUEUE_FORMAT, "name": name, "jobs": entries}
    path = queue_path(store_path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_queue(store_path: str | os.PathLike) -> list[dict[str, Any]] | None:
    """The published queue entries, or ``None`` if no queue exists yet."""
    try:
        with open(queue_path(store_path), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable campaign queue: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != QUEUE_FORMAT:
        raise ValueError(f"not a {QUEUE_FORMAT} manifest")
    return list(manifest.get("jobs", []))


# -- affinity grouping -------------------------------------------------------


def affinity_key(job_payload: dict[str, Any]) -> str:
    """The compile-configuration fingerprint a job batches under."""
    key = compile_key(job_payload, ("decoder",))
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def plan_groups(
    entries: Sequence[dict[str, Any]],
) -> list[tuple[str, list[dict[str, Any]]]]:
    """Deterministic affinity batches: ``[(affinity, [queue entries])]``.

    Groups are ordered by affinity key and entries within a group by job
    key, so every worker derives the identical plan from the manifest —
    coordination needs only the lease files, never shared plan state.
    """
    groups: dict[str, list[dict[str, Any]]] = {}
    for entry in entries:
        groups.setdefault(affinity_key(entry["job"]), []).append(entry)
    return [
        (aff, sorted(groups[aff], key=lambda e: e["key"]))
        for aff in sorted(groups)
    ]


# -- leases ------------------------------------------------------------------


def _lease_payload(worker_id: str, ttl: float) -> dict[str, Any]:
    now = time.time()
    return {
        "format": LEASE_FORMAT,
        "worker": worker_id,
        "claimed_at": now,
        "expires_at": now + ttl,
    }


def read_lease(path: str) -> dict[str, Any] | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError):
        # A torn lease write (claimer killed mid-write).  Treat it as an
        # expired claim: takeover-eligible immediately.
        return {}
    return payload if isinstance(payload, dict) else {}


def lease_expired(
    lease: dict[str, Any],
    now: float | None = None,
    skew_grace_s: float = DEFAULT_SKEW_GRACE,
) -> bool:
    """Whether a lease's TTL has lapsed, allowing for clock skew.

    ``expires_at`` was written with *another host's* ``time.time()`` —
    on a shared filesystem the claimer and the prospective taker need
    not agree on the wall clock, and a taker whose clock runs fast
    would otherwise steal a live worker's group.  ``skew_grace_s``
    pads the expiry by the skew budget (default
    :data:`DEFAULT_SKEW_GRACE`); pass 0 for the raw comparison.
    """
    expires = lease.get("expires_at")
    if not isinstance(expires, (int, float)):
        return True
    grace = max(0.0, float(skew_grace_s))
    return (now if now is not None else time.time()) >= expires + grace


def claim_lease(
    path: str,
    worker_id: str,
    ttl: float,
    skew_grace_s: float = DEFAULT_SKEW_GRACE,
) -> bool:
    """Try to claim (or take over an expired) lease; True if we own it.

    The fresh-claim path is atomic: the lease is written to a private
    temp file and published with ``os.link``, which fails if the lease
    exists, so no reader ever sees a claim without its content (an
    empty file would read as torn, hence takeover-eligible).  The
    takeover path — rewriting an *expired* lease via temp file +
    rename — can race another taker; both then believe they own the
    group, which the execution layer tolerates by design (idempotent,
    content-addressed jobs).  Takeover eligibility honors
    ``skew_grace_s`` (see :func:`lease_expired`) so cross-host clock
    skew cannot trigger a premature takeover of a live lease.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{worker_id}.tmp"
    with open(tmp, "wb") as fh:
        fh.write((canonical_json(_lease_payload(worker_id, ttl)) + "\n").encode())
    try:
        os.link(tmp, path)
    except FileExistsError:
        lease = read_lease(path)
        try:
            if lease is None or not lease_expired(lease, skew_grace_s=skew_grace_s):
                os.remove(tmp)
                return False
            os.replace(tmp, path)
        except OSError:
            return False
        _LEASE_CLAIMS.add()
        _LEASE_TAKEOVERS.add()
        return True
    os.remove(tmp)
    _LEASE_CLAIMS.add()
    return True


def renew_lease(path: str, worker_id: str, ttl: float) -> bool:
    """Extend a lease we hold; False if it was lost to a takeover."""
    lease = read_lease(path)
    if lease is None or lease.get("worker") != worker_id:
        _LEASE_RENEW_LOST.add()
        return False
    tmp = f"{path}.{worker_id}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write((canonical_json(_lease_payload(worker_id, ttl)) + "\n").encode())
        os.replace(tmp, path)
    except OSError:
        return False
    _LEASE_RENEWS.add()
    return True


def release_lease(path: str, worker_id: str) -> None:
    lease = read_lease(path)
    if lease is not None and lease.get("worker") == worker_id:
        try:
            os.remove(path)
            _LEASE_RELEASES.add()
        except OSError:
            pass


# -- the worker --------------------------------------------------------------


@dataclass
class WorkerReport:
    """What one :func:`worker_loop` invocation did."""

    worker_id: str
    executed: list[str] = field(default_factory=list)
    skipped: int = 0  # jobs found already stored while holding a lease
    claims: int = 0
    takeovers: int = 0
    passes: int = 0


def default_worker_id() -> str:
    return f"pid{os.getpid()}"


def worker_loop(
    store_path: str | os.PathLike,
    worker_id: str | None = None,
    ttl: float = DEFAULT_TTL,
    poll: float = DEFAULT_POLL,
    once: bool = False,
    max_jobs: int | None = None,
    timeout: float | None = None,
    config: ExecutionConfig | None = None,
    progress: Callable[[str], None] | None = None,
    chaos_exit_after: int | None = None,
    skew_grace_s: float = DEFAULT_SKEW_GRACE,
) -> WorkerReport:
    """Claim and execute queued jobs until the campaign is complete.

    Each pass re-reads the queue manifest, reloads the store (tailing —
    cheap), and walks the affinity groups that still have missing jobs,
    trying to claim each group's lease.  Holding a lease, the worker
    executes the group's missing jobs through one
    :class:`~repro.experiments.campaign.CompileCache` — the DEM,
    decoder, sampler, and syndrome cache compile once per group — and
    appends each result as it lands, renewing the lease between jobs so
    long groups survive short TTLs.

    ``once`` does a single pass (CI and tests); ``max_jobs`` bounds the
    jobs executed; ``timeout`` bounds wall-clock time spent *waiting*
    (no queue yet, or everything leased to live workers).
    ``chaos_exit_after=N`` hard-kills the process (``os._exit``) after
    N jobs, leaving the held lease dangling — the crash-recovery drill
    used by the service smoke test.  ``skew_grace_s`` is the cross-host
    clock-skew allowance applied before a dangling lease is taken over
    (see :func:`lease_expired`).
    """
    store_path = os.fspath(store_path)
    worker_id = worker_id or default_worker_id()
    if obs.enabled() and obs.state.telemetry_dir is None:
        # Sidecars ride the store directory, like queue and leases.
        obs.configure(telemetry_dir=obs.telemetry_dir_for(store_path))
    report = WorkerReport(worker_id=worker_id)
    started_at = time.time()

    def beat(group: str | None, **extra: Any) -> None:
        obs.write_heartbeat(
            worker_id,
            group=group,
            jobs_done=len(report.executed),
            started_at=started_at,
            metrics=obs.snapshot(),
            extra={
                "claims": report.claims,
                "takeovers": report.takeovers,
                "passes": report.passes,
                **extra,
            },
        )

    with obs.worker_context(worker_id):
        try:
            return _worker_loop(
                store_path,
                worker_id,
                ttl,
                poll,
                once,
                max_jobs,
                timeout,
                config,
                progress,
                chaos_exit_after,
                skew_grace_s,
                report,
                beat,
            )
        finally:
            # Final sidecar state: without this, a finished fleet could
            # not answer `campaign status --telemetry` offline.  (The
            # chaos os._exit path skips it — crashed workers leave no
            # parting snapshot, by design.)
            obs.emit_metrics(obs.snapshot(), worker=worker_id)
            beat(None, done=True)


def _worker_loop(
    store_path: str,
    worker_id: str,
    ttl: float,
    poll: float,
    once: bool,
    max_jobs: int | None,
    timeout: float | None,
    config: ExecutionConfig | None,
    progress: Callable[[str], None] | None,
    chaos_exit_after: int | None,
    skew_grace_s: float,
    report: WorkerReport,
    beat: Callable[..., None],
) -> WorkerReport:
    store = ResultStore(store_path)
    cfg = config or ExecutionConfig()
    cfg = cfg.replace(
        syndrome_cache_dir=syndrome_cache_dir_for(cfg, store_path),
        syndrome_writer_tag=worker_id,
    )
    cache = CompileCache()

    def say(msg: str) -> None:
        # Back-compat callback; the structured logger is the primary
        # progress channel (stderr, REPRO_LOG-leveled).
        if progress is not None:
            progress(msg)

    deadline = time.monotonic() + timeout if timeout is not None else None

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def budget_left() -> bool:
        return max_jobs is None or len(report.executed) < max_jobs

    while True:
        report.passes += 1
        beat(None)
        entries = read_queue(store_path)
        if entries is None:
            if once or out_of_time():
                return report
            time.sleep(poll)
            continue
        store.reload()
        pending = [
            (aff, group)
            for aff, group in plan_groups(entries)
            if any(e["key"] not in store for e in group)
        ]
        if not pending:
            return report
        # Rotate the walk order by worker identity so a fleet starting
        # simultaneously fans out over different groups instead of
        # racing for the first lease in lockstep.
        spin = int(hashlib.sha256(worker_id.encode()).hexdigest(), 16)
        start = spin % len(pending)
        pending = pending[start:] + pending[:start]
        claimed_any = False
        for aff, group in pending:
            if not budget_left():
                return report
            lease_path = os.path.join(lease_dir(store_path), f"{aff}.lease")
            existing = read_lease(lease_path)
            with obs.span("lease", group=aff, action="claim") as lease_sp:
                claimed = claim_lease(
                    lease_path, worker_id, ttl, skew_grace_s=skew_grace_s
                )
                lease_sp.set(claimed=claimed)
            if not claimed:
                continue
            claimed_any = True
            report.claims += 1
            if existing is not None:
                report.takeovers += 1
                say(f"{worker_id}: took over expired lease {aff}")
                _log.warn("lease takeover", worker=worker_id, group=aff)
            beat(aff)
            try:
                store.reload()
                for entry in group:
                    if not budget_left():
                        break
                    key = entry["key"]
                    if key in store:
                        report.skipped += 1
                        continue
                    job = CampaignJob.from_payload(entry["job"])
                    say(f"{worker_id}: run {key[:12]} ({aff})")
                    _log.info(
                        "run job", worker=worker_id, key=key[:12], group=aff
                    )
                    with obs.timed("service.job_s") as clock:
                        result = execute_job(job, cache=cache, config=cfg)
                    with obs.span("store", job=key[:12]):
                        store.put(
                            key,
                            entry["job"],
                            result,
                            label=entry.get("label"),
                            meta={
                                "worker": worker_id,
                                "elapsed_s": clock.elapsed,
                            },
                        )
                    report.executed.append(key)
                    beat(aff)
                    if (
                        chaos_exit_after is not None
                        and len(report.executed) >= chaos_exit_after
                    ):
                        # Crash drill: die without releasing the lease.
                        # Another worker must take the group over once
                        # the TTL lapses.
                        os._exit(42)
                    with obs.span("lease", group=aff, action="renew"):
                        renew_lease(lease_path, worker_id, ttl)
            finally:
                release_lease(lease_path, worker_id)
        if once:
            return report
        if not claimed_any:
            # Everything still missing is leased to someone alive (or a
            # lease has yet to expire): wait, don't spin.
            if out_of_time():
                return report
            time.sleep(poll)


# -- serving -----------------------------------------------------------------


@dataclass
class ServeReport:
    """What :func:`serve_campaign` published, and how it went."""

    store_path: str
    queue_file: str
    total_jobs: int
    already_stored: int
    workers: list[WorkerReport] = field(default_factory=list)
    pending: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def complete(self) -> bool:
        return not self.pending


def serve_campaign(
    spec: CampaignSpec | Sequence[CampaignJob],
    store_path: str | os.PathLike,
    n_workers: int = 0,
    ttl: float = DEFAULT_TTL,
    poll: float = DEFAULT_POLL,
    wait: bool = True,
    timeout: float | None = None,
    labels: dict[str, str] | None = None,
    config: ExecutionConfig | None = None,
    progress: Callable[[str], None] | None = None,
    skew_grace_s: float = DEFAULT_SKEW_GRACE,
) -> ServeReport:
    """Publish a campaign's queue; optionally run an in-process fleet.

    With ``n_workers == 0`` (the distributed deployment) this only
    writes the queue manifest and returns — workers attach from other
    processes or machines via ``repro campaign worker`` /
    :func:`worker_loop`.  With ``n_workers >= 1`` that many in-process
    worker threads run the full protocol — leases, affinity batches,
    sharded appends — which is the CI-friendly mode: one Python
    process, real concurrency semantics.

    ``wait=True`` blocks until every queued job is stored (by *anyone*,
    in-process or external) or ``timeout`` seconds pass, whichever
    first; a timeout raises ``TimeoutError`` so an incomplete campaign
    can never masquerade as a finished one.

    An in-process fleet cannot also fan shots out over processes: a
    pool forked while the other worker threads hold locks (the metrics
    registry's, say) hands the child those locks still held.  So
    ``n_workers >= 1`` with ``config.workers > 1`` is a ``ValueError``,
    raised before the queue is written; run ``n_workers=0`` plus
    external ``repro campaign worker`` processes instead.
    """
    if n_workers >= 1 and config is not None and config.workers > 1:
        raise ValueError(
            f"an in-process fleet (n_workers={n_workers}) cannot also fork "
            f"shot-runner pools (config.workers={config.workers}); serve with "
            "n_workers=0 and attach external 'repro campaign worker' processes, "
            "each with its own workers"
        )
    t0 = time.monotonic()
    store_path = os.fspath(store_path)
    jobs = spec.expand() if isinstance(spec, CampaignSpec) else list(spec)
    name = spec.name if isinstance(spec, CampaignSpec) else None
    queue_file = write_queue(store_path, jobs, labels=labels, name=name)
    entries = read_queue(store_path) or []
    store = ResultStore(store_path)
    stored = sum(1 for e in entries if e["key"] in store)
    report = ServeReport(
        store_path=store_path,
        queue_file=queue_file,
        total_jobs=len(entries),
        already_stored=stored,
    )

    threads: list[threading.Thread] = []
    results: list[WorkerReport | None] = [None] * n_workers
    for i in range(n_workers):

        def run(slot: int = i) -> None:
            results[slot] = worker_loop(
                store_path,
                worker_id=f"w{slot}-{default_worker_id()}",
                ttl=ttl,
                poll=poll,
                timeout=timeout,
                config=config,
                progress=progress,
                skew_grace_s=skew_grace_s,
            )

        thread = threading.Thread(target=run, name=f"campaign-worker-{i}")
        thread.start()
        threads.append(thread)

    if not wait:
        for thread in threads:
            thread.join()
        report.workers = [r for r in results if r is not None]
        report.elapsed_s = time.monotonic() - t0
        return report

    deadline = time.monotonic() + timeout if timeout is not None else None
    while True:
        store.reload()
        pending = [e["key"] for e in entries if e["key"] not in store]
        if not pending:
            break
        if deadline is not None and time.monotonic() >= deadline:
            report.pending = pending
            report.elapsed_s = time.monotonic() - t0
            raise TimeoutError(
                f"campaign incomplete after {timeout:g}s: "
                f"{len(pending)}/{len(entries)} jobs pending"
            )
        time.sleep(poll)
    for thread in threads:
        thread.join()
    report.workers = [r for r in results if r is not None]
    report.elapsed_s = time.monotonic() - t0
    return report


__all__ = [
    "DEFAULT_SKEW_GRACE",
    "ServeReport",
    "WorkerReport",
    "affinity_key",
    "claim_lease",
    "lease_dir",
    "lease_expired",
    "plan_groups",
    "queue_path",
    "read_lease",
    "read_queue",
    "release_lease",
    "renew_lease",
    "serve_campaign",
    "worker_loop",
    "write_queue",
]
