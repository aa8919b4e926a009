"""Declarative sweep campaigns over the content-addressed result store.

A :class:`CampaignSpec` describes a grid — (code x schedule x idle
strength x noise scenario x physical error rate x decoder x estimator x
basis) plus the shot budget and seed — and expands into
:class:`CampaignJob`\\ s.  Every
job is content-addressed: its key is the SHA-256 of the canonical JSON
encoding of everything that affects its result (``workers`` is
deliberately excluded — the shot runner is worker-count independent by
contract).  :func:`run_campaign` looks each key up in a
:class:`~repro.experiments.store.ResultStore`, runs only the missing
jobs, and appends their results, so an interrupted campaign resumes
from where it stopped and a completed one re-invokes with zero
sampling or decoding.

Determinism is the load-bearing property: each job draws its RNG root
from its *own key* (``SeedSequence`` seeded by the hash words), never
from a shared stream, so the estimate a job produces does not depend on
which other jobs ran before it, on the worker count, or on whether the
campaign was interrupted and resumed — byte-identical results either
way (``tests/test_campaign.py``).

Compilation is shared: one :class:`CompileCache` per campaign memoizes
DEM extraction, decoder initialization, and packed samplers across the
grid, keyed by :func:`compile_key` over :data:`DEM_FIELDS` (the same
key the service batches its leases by), so sweeping ten error rates
against one circuit builds the circuit once per (noise, basis), not
once per job invocation.  The persistent syndrome cache of an on-disk
store is attached to the shared decoder in one place,
:func:`~repro.experiments.shotrunner.compiled_decoder`, which every job
passes through.

The figure runners (``fig01``/``fig06``/``fig12``/``fig14lowp``/
``fig15``) are thin wrappers: a spec definition plus table formatting
over store queries.  ``repro.cli campaign run|status|export`` exposes
the same machinery for ad-hoc sweeps.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .. import obs
from ..obs.trace import emit_metrics
from ..analysis.stats import DEFAULT_CONFIDENCE, RateEstimate
from ..circuits import (
    coloration_schedule,
    nz_schedule,
    poor_schedule,
    schedule_from_json,
)
from ..circuits.schedule import Schedule
from ..codes import BENCHMARK_CODES, load_benchmark_code, rotated_surface_code
from ..codes.css import CSSCode
from ..decoders.base import Decoder
from ..decoders.metrics import dem_for, make_decoder
from ..noise.spec import NoiseSpec, noise_display, resolve_noise
from ..sim.dem import DetectorErrorModel
from ..sim.sampler import DemSampler
from .store import ResultStore, canonical_json, job_key
from .shotrunner import ExecutionConfig, run_shot_chunks

_JOBS_EXECUTED = obs.counter("campaign.executed")
_JOBS_HIT = obs.counter("campaign.hits")

JOB_FORMAT = "campaign-job-v1"


# -- code / schedule resolution ---------------------------------------------

_SURFACE_RE = re.compile(r"^surface_d(\d+)$")


def resolve_code(token: str) -> CSSCode:
    """A benchmark code by name, or ``surface_d<k>`` for any odd k."""
    if token in BENCHMARK_CODES:
        return load_benchmark_code(token)
    m = _SURFACE_RE.match(token)
    if m:
        return rotated_surface_code(int(m.group(1)))
    raise KeyError(f"unknown code token {token!r}")


def resolve_schedule(code: CSSCode, spec: str | dict[str, Any]) -> Schedule:
    """Build the schedule a job names.

    String tokens: ``nz`` / ``poor`` (surface codes), ``coloration``
    (deterministic), ``coloration:<seed>`` (the randomized coloration
    circuits of Figure 13).  A dict is an inline serialized schedule
    (the ``prophunt-schedule-v1`` payload) — how optimized schedules
    enter a campaign content-addressed.
    """
    if isinstance(spec, dict):
        return schedule_from_json(json.dumps(spec), code)
    if spec == "nz":
        return nz_schedule(code)
    if spec == "poor":
        return poor_schedule(code)
    if spec == "coloration":
        return coloration_schedule(code)
    if spec.startswith("coloration:"):
        seed = int(spec.split(":", 1)[1])
        return coloration_schedule(code, np.random.default_rng(seed))
    raise KeyError(f"unknown schedule token {spec!r}")


def schedule_display(spec: str | dict[str, Any]) -> str:
    """Short human-readable form of a schedule spec for tables."""
    if isinstance(spec, dict):
        return f"inline:{job_key(spec)[:8]}"
    return spec


# -- jobs -------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignJob:
    """One content-addressed unit of work: a single (DEM, estimator) run.

    ``shots`` is the budget: exact planned shots for the direct
    estimator, the decoded-shot cap for the rare-event estimator.  Every
    field here affects the result and therefore the key; runtime knobs
    that provably do not (worker count) are passed to
    :func:`run_campaign` instead.
    """

    code: str
    schedule: str | dict[str, Any]
    basis: str = "z"
    p: float = 1e-3
    idle_strength: float = 0.0
    # Noise scenario: None (uniform depolarizing at p + idle_strength),
    # a token like "biased:10,pm=0.003" scaled by p, or an inline
    # noise-spec-v1 payload (absolute).  Hashed whenever set.
    noise: str | dict[str, Any] | None = None
    rounds: int | None = None
    decoder: str = "auto"
    estimator: str = "direct"  # "direct" | "rare-event"
    shots: int = 10_000
    max_failures: int | None = None
    chunk_size: int = 5_000
    seed: int = 0
    confidence: float = DEFAULT_CONFIDENCE
    # rare-event knobs (hashed only for rare-event jobs)
    target_rel_halfwidth: float = 0.1
    min_failure_weight: int = 1
    initial_shots: int = 512
    max_rounds: int = 16
    tail_epsilon: float = 1e-6
    mode: str = "proportional"

    def __post_init__(self):
        if self.estimator not in ("direct", "rare-event"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.basis not in ("z", "x"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if isinstance(self.noise, NoiseSpec):
            # Accept spec objects for ergonomics, but store the payload:
            # the job must stay plain-JSON hashable.
            object.__setattr__(self, "noise", self.noise.to_payload())
        # Fail at construction, not at DEM-build time deep in a sweep.
        self.effective_noise()

    def effective_noise(self):
        """The job's resolved :class:`~repro.noise.spec.NoiseSpec`."""
        return resolve_noise(self.noise, self.p, self.idle_strength)

    def to_payload(self) -> dict[str, Any]:
        """The canonical job description — exactly what gets hashed."""
        payload: dict[str, Any] = {
            "format": JOB_FORMAT,
            "code": self.code,
            "schedule": self.schedule,
            "basis": self.basis,
            "p": float(self.p),
            "idle_strength": float(self.idle_strength),
            "rounds": self.rounds,
            # new result-affecting knobs MUST hash (PR 4 convention);
            # the default scenario is omitted so pre-existing stores
            # keep their keys.
            **({"noise": self.noise} if self.noise is not None else {}),
            "decoder": self.decoder,
            "estimator": self.estimator,
            "shots": int(self.shots),
            "chunk_size": int(self.chunk_size),
            "seed": int(self.seed),
            "confidence": float(self.confidence),
        }
        if self.estimator == "direct":
            payload["max_failures"] = self.max_failures
        else:
            payload.update(
                target_rel_halfwidth=float(self.target_rel_halfwidth),
                min_failure_weight=int(self.min_failure_weight),
                initial_shots=int(self.initial_shots),
                max_rounds=int(self.max_rounds),
                tail_epsilon=float(self.tail_epsilon),
                mode=self.mode,
            )
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CampaignJob":
        if payload.get("format") != JOB_FORMAT:
            raise ValueError(f"not a {JOB_FORMAT} payload")
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        job = cls(**kwargs)
        if job.to_payload() != payload:
            raise ValueError("payload carries fields this version does not hash")
        return job

    def key(self) -> str:
        return job_key(self.to_payload())

    def seed_sequence(self) -> np.random.SeedSequence:
        """The job's RNG root, derived from its own content address.

        Seeding from the key (not from a shared stream consumed in grid
        order) is what makes campaigns resumable: a job's substreams are
        identical whether it runs first, last, or alone.
        """
        digest = self.key()
        words = [int(digest[i : i + 8], 16) for i in range(0, 64, 8)]
        return np.random.SeedSequence(words)


# -- specs ------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep grid; :meth:`expand` yields the jobs.

    Axes multiply: ``codes x schedules x idle_strengths x noises x
    p_values x decoders x estimators x bases``, expanded in that nesting
    order.  Scalar fields (budgets, seed, rare-event knobs) apply to
    every job.  ``noises`` entries are noise tokens / inline payloads /
    ``None`` (see :func:`repro.noise.spec.resolve_noise`).
    """

    name: str
    codes: tuple[str, ...]
    p_values: tuple[float, ...]
    schedules: tuple[Any, ...] = ("coloration",)
    bases: tuple[str, ...] = ("z", "x")
    decoders: tuple[str, ...] = ("auto",)
    estimators: tuple[str, ...] = ("direct",)
    idle_strengths: tuple[float, ...] = (0.0,)
    noises: tuple[Any, ...] = (None,)
    shots: int = 10_000
    max_failures: int | None = None
    rounds: int | None = None
    chunk_size: int = 5_000
    seed: int = 0
    confidence: float = DEFAULT_CONFIDENCE
    target_rel_halfwidth: float = 0.1
    min_failure_weight: int = 1
    initial_shots: int = 512
    max_rounds: int = 16
    tail_epsilon: float = 1e-6
    mode: str = "proportional"

    def expand(self) -> list[CampaignJob]:
        grid = itertools.product(
            self.codes,
            self.schedules,
            self.idle_strengths,
            self.noises,
            self.p_values,
            self.decoders,
            self.estimators,
            self.bases,
        )
        return [
            CampaignJob(
                code=code,
                schedule=schedule,
                basis=basis,
                p=p,
                idle_strength=idle,
                noise=noise,
                rounds=self.rounds,
                decoder=decoder,
                estimator=estimator,
                shots=self.shots,
                max_failures=self.max_failures,
                chunk_size=self.chunk_size,
                seed=self.seed,
                confidence=self.confidence,
                target_rel_halfwidth=self.target_rel_halfwidth,
                min_failure_weight=self.min_failure_weight,
                initial_shots=self.initial_shots,
                max_rounds=self.max_rounds,
                tail_epsilon=self.tail_epsilon,
                mode=self.mode,
            )
            for code, schedule, idle, noise, p, decoder, estimator, basis in grid
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "codes": list(self.codes),
            "p_values": list(self.p_values),
            "schedules": list(self.schedules),
            "bases": list(self.bases),
            "decoders": list(self.decoders),
            "estimators": list(self.estimators),
            "idle_strengths": list(self.idle_strengths),
            "noises": list(self.noises),
            "shots": self.shots,
            "max_failures": self.max_failures,
            "rounds": self.rounds,
            "chunk_size": self.chunk_size,
            "seed": self.seed,
            "confidence": self.confidence,
            "target_rel_halfwidth": self.target_rel_halfwidth,
            "min_failure_weight": self.min_failure_weight,
            "initial_shots": self.initial_shots,
            "max_rounds": self.max_rounds,
            "tail_epsilon": self.tail_epsilon,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown campaign spec fields: {sorted(unknown)}")
        kwargs = dict(data)
        for key in (
            "codes",
            "p_values",
            "schedules",
            "bases",
            "decoders",
            "estimators",
            "idle_strengths",
            "noises",
        ):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# -- shared compilation -----------------------------------------------------


# The job fields that fix a compiled DEM.  Jobs agreeing on all seven
# share one circuit, DEM and packed sampler, and one decoder per
# ``decoder`` choice; the service batches its leases by the same fields
# plus ``decoder``.
DEM_FIELDS = ("code", "schedule", "p", "idle_strength", "noise", "rounds", "basis")


def compile_key(payload: dict[str, Any], extra: tuple[str, ...] = ()) -> str:
    """Canonical JSON of a job payload's ``DEM_FIELDS`` plus ``extra``."""
    return canonical_json({f: payload.get(f) for f in DEM_FIELDS + extra})


class CompileCache:
    """Memoized DEM extraction / decoder init / samplers across a grid.

    Keys are :func:`compile_key` strings, so any two jobs describing the
    same circuit under the same noise share one DEM, and any two jobs
    decoding that DEM the same way share one decoder instance — the
    expensive setup runs once per (circuit, decoder) per campaign, not
    once per job.  Process-pool workers run these same instances; none
    compiles its own.
    """

    def __init__(self):
        self._codes: dict[str, CSSCode] = {}
        self._schedules: dict[tuple, Schedule] = {}
        self._dems: dict[str, DetectorErrorModel] = {}
        self._decoders: dict[str, Decoder] = {}
        self._samplers: dict[str, DemSampler] = {}

    def code(self, token: str) -> CSSCode:
        if token not in self._codes:
            self._codes[token] = resolve_code(token)
        return self._codes[token]

    def schedule(self, job: CampaignJob) -> Schedule:
        key = (job.code, canonical_json(job.schedule))
        if key not in self._schedules:
            self._schedules[key] = resolve_schedule(self.code(job.code), job.schedule)
        return self._schedules[key]

    def dem(self, job: CampaignJob) -> DetectorErrorModel:
        key = compile_key(job.to_payload())
        if key not in self._dems:
            self._dems[key] = dem_for(
                self.code(job.code),
                self.schedule(job),
                job.effective_noise(),
                basis=job.basis,
                rounds=job.rounds,
            )
        return self._dems[key]

    def decoder(self, job: CampaignJob) -> Decoder:
        key = compile_key(job.to_payload(), ("decoder",))
        if key not in self._decoders:
            self._decoders[key] = make_decoder(self.dem(job), job.basis, job.decoder)
        return self._decoders[key]

    def sampler(self, job: CampaignJob) -> DemSampler:
        key = compile_key(job.to_payload())
        if key not in self._samplers:
            self._samplers[key] = DemSampler(self.dem(job))
        return self._samplers[key]


# -- execution --------------------------------------------------------------


def execute_job(
    job: CampaignJob,
    cache: CompileCache | None = None,
    config: ExecutionConfig | None = None,
) -> dict[str, Any]:
    """Run one job and return its JSON-safe, *deterministic* result payload.

    The payload always records both the planned budget and the shots
    actually consumed — under ``max_failures`` early stopping the two
    differ, and stored CI widths must reflect real consumption.  It is
    a pure function of the job (every job seeds from its own key and
    the runner is worker-count independent): wall-clock timing and
    other per-run provenance ride the record's ``meta`` envelope
    (:func:`run_campaign`, the service workers), never the result.

    Execution knobs ride ``config`` (an
    :class:`~repro.experiments.shotrunner.ExecutionConfig`).  The job's
    own hashed ``chunk_size`` and ``max_failures`` override whatever the
    config carries — those two affect results, so the content address
    owns them.

    ``config.syndrome_cache_dir`` enables the persistent
    syndrome→correction cache (:mod:`repro.decoders.syncache`): the
    job's decoder consults it before decoding anything, so syndromes
    solved by earlier jobs or runs are free.  Cache state never changes
    results — only which code path produces them — so it is
    deliberately *not* part of the job key, and resumed campaigns stay
    byte-identical.
    """
    cache = cache or CompileCache()
    cfg = config or ExecutionConfig()
    cfg = cfg.replace(
        chunk_shots=job.chunk_size,
        max_failures=job.max_failures,
        sampler=cache.sampler(job),
        dec=cache.decoder(job),
    )
    with obs.span(
        "job", key=job.key()[:16], estimator=job.estimator, code=job.code
    ):
        return _execute_job_inner(job, cache, cfg)


def _execute_job_inner(
    job: CampaignJob, cache: CompileCache, cfg: ExecutionConfig
) -> dict[str, Any]:
    dem = cache.dem(job)
    rng = np.random.default_rng(job.seed_sequence())
    if job.estimator == "direct":
        est = run_shot_chunks(
            dem,
            shots=job.shots,
            basis=job.basis,
            decoder=job.decoder,
            rng=rng,
            config=cfg,
        )
        est = est.with_confidence(job.confidence)
        return {
            "estimator": "direct",
            "estimate": est.to_dict(),
            "planned_shots": int(job.shots),
            "consumed_shots": int(est.shots),
            "early_stopped": est.shots < job.shots,
        }
    from ..rareevent import estimate_ler_stratified

    strat = estimate_ler_stratified(
        dem,
        basis=job.basis,
        decoder=job.decoder,
        rng=rng,
        min_failure_weight=job.min_failure_weight,
        tail_epsilon=job.tail_epsilon,
        target_rel_halfwidth=job.target_rel_halfwidth,
        confidence=job.confidence,
        initial_shots=job.initial_shots,
        max_shots=job.shots,
        max_rounds=job.max_rounds,
        mode=job.mode,
        config=cfg,
    )
    return {
        "estimator": "rare-event",
        "estimate": strat.to_rate_estimate().to_dict(),
        "stratified": strat.to_dict(),
        "planned_shots": int(job.shots),
        "consumed_shots": int(strat.shots),
        "early_stopped": False,
    }


@dataclass
class CampaignReport:
    """What one :func:`run_campaign` invocation did."""

    store: ResultStore
    jobs: list[CampaignJob]
    hits: int = 0
    executed: list[str] = field(default_factory=list)
    records: dict[str, dict[str, Any]] = field(default_factory=dict)

    def record(self, job: CampaignJob) -> dict[str, Any]:
        return self.records[job.key()]

    def estimate(self, job: CampaignJob) -> RateEstimate:
        return RateEstimate.from_dict(self.record(job)["result"]["estimate"])

    def combined_estimate(self, jobs: Iterable[CampaignJob]) -> RateEstimate:
        """Failure-anywhere combination across jobs (e.g. z and x bases)."""
        combined: RateEstimate | None = None
        for job in jobs:
            est = self.estimate(job)
            combined = est if combined is None else combined.combine_with(est)
        if combined is None:
            raise ValueError("no jobs to combine")
        return combined


def as_store(store: ResultStore | str | None) -> ResultStore:
    if isinstance(store, ResultStore):
        return store
    return ResultStore(store)


def syndrome_cache_dir_for(cfg: ExecutionConfig, store_path: str | None) -> str | None:
    """Where a campaign's persistent syndrome→correction cache lives.

    ``cfg.syndrome_cache_dir`` when set; otherwise ``<store>/syndromes``
    for an on-disk store (shared by every run and worker on that
    directory) and no cache for an in-memory store.
    """
    if cfg.syndrome_cache_dir:
        return cfg.syndrome_cache_dir
    return None if store_path is None else os.path.join(store_path, "syndromes")


def run_campaign(
    spec: CampaignSpec | Sequence[CampaignJob],
    store: ResultStore | str | None = None,
    cache: CompileCache | None = None,
    progress: Callable[[str], None] | None = None,
    labels: dict[str, str] | None = None,
    config: ExecutionConfig | None = None,
    meta: dict[str, Any] | None = None,
) -> CampaignReport:
    """Run every job of a spec that the store does not already hold.

    Completed jobs load from the store untouched (no DEM build, no
    sampling, no decoding); missing jobs run through the packed shot
    runner / stratified estimator with ``config.workers`` fan-out and
    are appended to the store as they finish — killing the process
    between jobs loses nothing, and rerunning resumes exactly
    (byte-identical results, since every job seeds from its own key).
    ``labels`` maps job keys to display names carried into stored
    records for ``status``/``export``.

    The persistent syndrome→correction cache goes where
    :func:`syndrome_cache_dir_for` puts it.  The cache only accelerates
    decoding — it is deliberately not part of any job key, so resumed
    campaigns stay byte-identical whether the cache is warm, cold, or
    deleted.

    ``meta`` seeds the per-run provenance envelope stored with every
    executed record (the service workers stamp their worker id); timing
    is always added.
    """
    jobs = spec.expand() if isinstance(spec, CampaignSpec) else list(spec)
    store = as_store(store)
    cache = cache or CompileCache()
    cfg = config or ExecutionConfig()
    cfg = cfg.replace(syndrome_cache_dir=syndrome_cache_dir_for(cfg, store.path))
    if obs.enabled() and obs.state.telemetry_dir is None:
        # Telemetry rides the store directory (sidecars only — never
        # record content); in-memory stores keep metrics but no traces.
        obs.configure(telemetry_dir=obs.telemetry_dir_for(store.path))
    report = CampaignReport(store=store, jobs=jobs)
    seen: set[str] = set()
    for i, job in enumerate(jobs):
        key = job.key()
        if key in seen:
            # Grids can repeat a job (e.g. two figure rows sharing a
            # config); each key runs at most once per campaign.
            report.records[key] = store.get(key)
            continue
        seen.add(key)
        cached = store.get(key)
        if cached is not None:
            report.hits += 1
            _JOBS_HIT.add()
            report.records[key] = cached
            if progress is not None:
                progress(f"[{i + 1}/{len(jobs)}] hit  {_describe(job, labels)}")
            continue
        if progress is not None:
            progress(f"[{i + 1}/{len(jobs)}] run  {_describe(job, labels)}")
        with obs.timed("campaign.job_s") as clock:
            result = execute_job(job, cache=cache, config=cfg)
        store.put(
            key,
            job.to_payload(),
            result,
            label=(labels or {}).get(key),
            meta={**(meta or {}), "elapsed_s": clock.elapsed},
        )
        report.executed.append(key)
        _JOBS_EXECUTED.add()
        report.records[key] = store.get(key)
    if report.executed:
        # Leave final counter/histogram state in the sidecars so a
        # finished run answers `campaign status --telemetry` offline.
        emit_metrics(obs.snapshot())
    return report


def _describe(job: CampaignJob, labels: dict[str, str] | None) -> str:
    label = (labels or {}).get(job.key())
    sched = label or schedule_display(job.schedule)
    noise = "" if job.noise is None else f" noise={noise_display(job.noise)}"
    return (
        f"{job.code} {sched} {job.basis}-basis p={job.p:g}{noise} "
        f"{job.estimator} budget={job.shots}"
    )


def export_rows(
    store: ResultStore, jobs: Sequence[CampaignJob] | None = None
) -> list[dict[str, Any]]:
    """Flatten store records into analysis-ready rows.

    With ``jobs``, exports exactly those (missing ones are skipped);
    otherwise every record in the store.
    """
    if jobs is not None:
        records = [r for r in (store.get(j.key()) for j in jobs) if r is not None]
    else:
        records = list(store.records())
    rows = []
    for record in records:
        payload = record["job"]
        result = record["result"]
        est = RateEstimate.from_dict(result["estimate"])
        lo, hi = est.interval
        row: dict[str, Any] = {
            "key": record["key"][:12],
            "code": payload["code"],
            "schedule": record.get("label") or schedule_display(payload["schedule"]),
            "basis": payload["basis"],
            "p": payload["p"],
            "idle_strength": payload["idle_strength"],
            "noise": noise_display(payload.get("noise")),
            "decoder": payload["decoder"],
            "estimator": payload["estimator"],
            "planned_shots": result["planned_shots"],
            "shots": result["consumed_shots"],
            "failures": est.failures,
            "rate": est.rate,
            "lo": lo,
            "hi": hi,
            "early_stopped": result.get("early_stopped", False),
        }
        if "stratified" in result:
            strat = result["stratified"]
            row.update(
                # The stratified interval is asymmetric (zero-failure and
                # tail mass load the upper edge); report its exact edges.
                rate=strat["rate"],
                lo=strat["lo"],
                hi=strat["hi"],
                converged=strat["converged"],
                rounds=strat["rounds"],
                direct_mc_equiv=strat["direct_mc_equiv"],
            )
        rows.append(row)
    return rows


def smoke_spec(store_seed: int = 0) -> CampaignSpec:
    """The tiny built-in campaign used by ``campaign run --smoke`` and CI.

    Covers both estimators, both bases, a store write, and (on the
    second invocation) a full resume: seconds of work, every moving
    part exercised.
    """
    return CampaignSpec(
        name="smoke",
        codes=("surface_d3",),
        schedules=("nz",),
        p_values=(3e-3,),
        bases=("z", "x"),
        estimators=("direct", "rare-event"),
        shots=1536,
        chunk_size=512,
        seed=store_seed,
        target_rel_halfwidth=0.5,
        min_failure_weight=2,
        initial_shots=256,
        max_rounds=4,
    )


__all__ = [
    "CampaignJob",
    "CampaignSpec",
    "CampaignReport",
    "CompileCache",
    "execute_job",
    "export_rows",
    "resolve_code",
    "resolve_schedule",
    "run_campaign",
    "schedule_display",
    "smoke_spec",
]
