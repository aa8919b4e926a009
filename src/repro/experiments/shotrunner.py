"""Chunked parallel shot runner — the one batching/parallelism entry point.

Every figure's dominant cost is the same loop: sample a batch of shots
from a compiled DEM, decode, count logical failures.  This module owns
that loop.  Shots are sharded into fixed-size chunks (rounded up to a
multiple of 64 so packed batches stay word-aligned), every chunk gets
its own RNG substream spawned from one :class:`numpy.random.SeedSequence`
root, and chunks run either inline or fanned out over processes
(:func:`repro.core.parallel.process_pool`, like the paper's 48-core runs
in §6.1).

Chunk results stream back in chunk order regardless of worker count and
are accumulated in that order, so the outcome — including ``max_failures``
early stopping — is a pure function of the seed root: ``workers=1`` and
``workers=N`` give bit-identical estimates (see
``tests/test_shotrunner.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import obs
from ..analysis.stats import RateEstimate
from ..core.parallel import process_pool
from ..decoders.base import Decoder
from ..decoders.metrics import LogicalErrorRate, MemoryResult, dem_for, make_decoder
from ..decoders.syncache import SyndromeCache
from ..gf2.bitmat import unpack_rows
from ..noise.spec import resolve_noise
from ..rareevent.sampler import WeightStratifiedSampler
from ..sim.bitbatch import WORD_BITS, BitSampleBatch
from ..sim.dem import DetectorErrorModel
from ..sim.sampler import DemSampler

_ALIGN = WORD_BITS

# Chunk-latency instruments; the matching sample/decode spans land in
# the trace sidecars when a telemetry dir is configured.
_CHUNK_SAMPLE_S = obs.histogram("chunk.sample_s")
_CHUNK_DECODE_S = obs.histogram("chunk.decode_s")


@dataclass(frozen=True)
class ChunkResult:
    """Outcome of one chunk of shots."""

    index: int
    shots: int
    failures: int


@dataclass(frozen=True)
class ExecutionConfig:
    """How a shot loop executes — everything that is *not* the physics.

    The one way to pass execution knobs to :func:`run_shot_chunks`,
    :func:`estimate_logical_error_rate` and
    :func:`repro.experiments.campaign.execute_job` (and, through them,
    to every campaign and facade entry point).

    Only ``chunk_shots`` and ``max_failures`` affect results (chunking
    feeds RNG substreams; the failure cap truncates consumption) —
    which is why campaign jobs hash their own copies of those two and
    override whatever a config says.  Everything else changes how fast
    or where, never what.
    """

    workers: int = 1
    chunk_shots: int = 5_000
    max_failures: int | None = None
    dense_reference: bool = False
    sampler: DemSampler | None = None
    dec: Decoder | None = None
    syndrome_cache_dir: str | None = None
    # Service workers write their syndrome-cache entries to a private
    # per-writer shard file (see repro.decoders.syncache) so a fleet
    # never interleaves appends in one cache file.
    syndrome_writer_tag: str | None = None

    def replace(self, **changes) -> "ExecutionConfig":
        return dataclasses.replace(self, **changes)


def plan_chunks(shots: int, chunk_size: int) -> list[int]:
    """Split ``shots`` into chunk sizes.

    ``chunk_size`` is rounded up to a multiple of 64 so every chunk but
    the last is word-aligned in the packed representation.
    """
    if shots <= 0:
        return []
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    aligned = ((chunk_size + _ALIGN - 1) // _ALIGN) * _ALIGN
    full, rest = divmod(shots, aligned)
    return [aligned] * full + ([rest] if rest else [])


def _json_state_default(value):
    """JSON fallback for numpy pieces inside ``BitGenerator.state`` dicts."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"unserializable state component: {type(value).__name__}")


def spawn_chunk_seeds(
    rng: np.random.Generator, n: int
) -> list[np.random.SeedSequence]:
    """Spawn ``n`` child seed sequences from a generator's seed root.

    Chunk ``i`` always gets child ``i`` of the root's current spawn
    counter, so the streams do not depend on which worker runs which
    chunk — the determinism guarantee of the whole runner.

    Never consumes the caller's stream.  For exotic bit generators
    without a ``seed_seq`` the root is a pure function of the
    generator's *state* (the old fallback drew from the rng, silently
    perturbing the caller's subsequent draws); consecutive calls on such
    an un-advanced generator therefore return identical children — the
    ``seed_seq`` path, which every numpy generator has, advances its
    spawn counter per call as before.
    """
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if not isinstance(seed_seq, np.random.SeedSequence):
        state = rng.bit_generator.state
        digest = hashlib.sha256(
            json.dumps(state, sort_keys=True, default=_json_state_default).encode()
        ).digest()
        entropy = np.frombuffer(digest, dtype=np.uint32)
        seed_seq = np.random.SeedSequence(entropy=[int(w) for w in entropy])
    return seed_seq.spawn(n)


# Module-level state for process-pool workers (set by the initializer in
# each worker process; the inline workers=1 path uses locals instead so
# the runner stays re-entrant).
_WORKER_SAMPLER: DemSampler | None = None
_WORKER_DECODER: Decoder | None = None
_WORKER_DENSE: bool = False


def _init_worker(
    dem: DetectorErrorModel,
    basis: str,
    decoder: str,
    dense_reference: bool,
    syndrome_cache_dir: str | None = None,
) -> None:
    global _WORKER_SAMPLER, _WORKER_DECODER, _WORKER_DENSE
    _WORKER_SAMPLER = DemSampler(dem)
    _WORKER_DECODER = make_decoder(dem, basis, decoder)
    _WORKER_DENSE = dense_reference
    if syndrome_cache_dir is not None:
        # Each worker opens its own handle on the shared cache file;
        # concurrent appends are tolerated by the format (partial-line
        # skipping + deterministic duplicate values).
        _WORKER_DECODER.attach_syndrome_cache(
            SyndromeCache.for_decoder(_WORKER_DECODER, syndrome_cache_dir)
        )


def _sample_chunk(
    sampler: DemSampler, job: tuple[int, int, np.random.SeedSequence]
) -> BitSampleBatch:
    """Sampling half of a chunk: pure function of the chunk's own seed,
    so it can run on a prefetch thread without touching decode state."""
    index, chunk_shots, seed = job
    clock = obs.StopWatch()
    with obs.span("sample", chunk=index, shots=chunk_shots):
        rng = np.random.default_rng(seed)
        batch = sampler.sample_packed(chunk_shots, rng)
    _CHUNK_SAMPLE_S.record(clock.elapsed)
    return batch


def _decode_chunk(
    dec: Decoder,
    job: tuple[int, int, np.random.SeedSequence],
    batch: BitSampleBatch,
    dense_reference: bool,
) -> ChunkResult:
    index, chunk_shots, _ = job
    clock = obs.StopWatch()
    with obs.span("decode", chunk=index, shots=chunk_shots) as sp:
        if dense_reference:
            failures = dec.count_failures_dense(batch)
        else:
            failures = dec.count_failures_packed(batch)
        sp.set(failures=failures)
    _CHUNK_DECODE_S.record(clock.elapsed)
    return ChunkResult(index=index, shots=chunk_shots, failures=failures)


def _run_chunk(job: tuple[int, int, np.random.SeedSequence]) -> ChunkResult:
    if _WORKER_SAMPLER is None or _WORKER_DECODER is None:
        raise RuntimeError("worker pool not initialized")
    batch = _sample_chunk(_WORKER_SAMPLER, job)
    return _decode_chunk(_WORKER_DECODER, job, batch, _WORKER_DENSE)


def run_shot_chunks(
    dem: DetectorErrorModel,
    shots: int,
    basis: str = "z",
    decoder: str = "auto",
    rng: np.random.Generator | None = None,
    config: ExecutionConfig | None = None,
    on_chunk: Callable[[ChunkResult], None] | None = None,
) -> RateEstimate:
    """Sample/decode ``shots`` shots of one DEM in chunks.

    Execution knobs — worker fan-out, chunk size, early-stop cap,
    sampler/decoder injection, the persistent syndrome cache — ride one
    :class:`ExecutionConfig`.

    ``on_chunk`` streams per-chunk results (in chunk order) to the
    caller as they are accumulated.  ``config.max_failures`` stops
    after the first chunk that pushes the failure count past the cap,
    applied in chunk order, so early stopping is worker-count
    independent; the returned estimate reports the shots actually
    consumed (the chunks accounted before the stop), never the planned
    budget, so its Wilson interval stays honest.

    ``config.sampler``/``config.dec`` let a caller with a compile cache
    (the campaign engine) reuse a pre-built sampler and decoder on the
    inline path; with ``workers > 1`` each pool worker builds its own
    instead.

    On the inline path, sampling of chunk ``k+1`` (on a single prefetch
    thread) overlaps decoding of chunk ``k``; a one-chunk run starts no
    thread.  Each chunk's sampling is a pure function of its own spawned
    seed, so the overlap is bit-identical to a sequential loop; a
    ``max_failures`` stop wastes at most one presampled chunk.

    ``config.syndrome_cache_dir`` attaches a persistent
    :class:`~repro.decoders.syncache.SyndromeCache` (content-addressed
    by DEM fingerprint + decoder namespace) to the decoder — inline and
    in every pool worker — so distinct syndromes decoded by any earlier
    chunk, job, or run are served from disk.  A decoder injected with a
    cache already attached keeps it.

    The hot path is fully packed: chunks are sampled packed and decoded
    through :meth:`~repro.decoders.base.Decoder.decode_batch_packed`
    (unique-syndrome batching), so no dense ``(shots, num_detectors)``
    array is ever materialized.  ``config.dense_reference`` routes
    decoding through the pinned dense path instead
    (:meth:`~repro.decoders.base.Decoder.count_failures_dense`) — same
    estimates by construction, kept for cross-checks and benchmarks.
    """
    cfg = config or ExecutionConfig()
    workers = cfg.workers
    max_failures = cfg.max_failures
    dense_reference = cfg.dense_reference
    sampler, dec = cfg.sampler, cfg.dec
    syndrome_cache_dir = cfg.syndrome_cache_dir
    rng = rng or np.random.default_rng()
    sizes = plan_chunks(shots, cfg.chunk_shots)
    seeds = spawn_chunk_seeds(rng, len(sizes))
    jobs = [(i, size, seed) for i, (size, seed) in enumerate(zip(sizes, seeds))]
    if not jobs:
        return RateEstimate(0, 0)

    failures = 0
    done = 0

    def _account(result: ChunkResult) -> bool:
        nonlocal failures, done
        failures += result.failures
        done += result.shots
        if on_chunk is not None:
            on_chunk(result)
        return max_failures is not None and failures >= max_failures

    if workers <= 1:
        if sampler is None:
            sampler = DemSampler(dem)
        if dec is None:
            dec = make_decoder(dem, basis, decoder)
        if (
            syndrome_cache_dir is not None
            and getattr(dec, "syndrome_cache", None) is None
        ):
            dec.attach_syndrome_cache(
                SyndromeCache.for_decoder(
                    dec, syndrome_cache_dir, writer_tag=cfg.syndrome_writer_tag
                )
            )
        # DemSampler is read-only after construction and each chunk
        # samples from its own generator, so one prefetch thread can
        # sample chunk k+1 while the main thread decodes chunk k (the
        # executor starts its thread on first submit, so a one-chunk run
        # never starts it).  On early exit (max_failures tripped, or
        # decode raised) the presampled chunk is discarded — shut down
        # without waiting for it, or the caller would block on a full
        # chunk sample nobody will read (tests/test_shotrunner.py pins
        # this).
        prefetch = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-prefetch"
        )
        pending = None
        try:
            batch = _sample_chunk(sampler, jobs[0])
            for k, job in enumerate(jobs):
                if k + 1 < len(jobs):
                    pending = prefetch.submit(_sample_chunk, sampler, jobs[k + 1])
                if _account(_decode_chunk(dec, job, batch, dense_reference)):
                    break
                if pending is not None:
                    batch = pending.result()
                    pending = None
        finally:
            if pending is not None:
                pending.cancel()
            prefetch.shutdown(wait=False, cancel_futures=True)
    else:
        workers = min(workers, len(jobs), os.cpu_count() or 1)
        pool = process_pool(
            workers,
            _init_worker,
            (dem, basis, decoder, dense_reference, syndrome_cache_dir),
        )
        try:
            # Keep a bounded in-flight window and consume results strictly
            # in chunk order: accounting stays deterministic, and once
            # max_failures trips, chunks beyond the window were never
            # submitted — the early stop actually saves their work.
            window = 2 * workers
            pending: dict[int, object] = {}
            next_submit = 0

            def _fill_window() -> None:
                nonlocal next_submit
                while next_submit < len(jobs) and len(pending) < window:
                    pending[next_submit] = pool.submit(_run_chunk, jobs[next_submit])
                    next_submit += 1

            _fill_window()
            for i in range(len(jobs)):
                if _account(pending.pop(i).result()):
                    break
                _fill_window()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    return RateEstimate(failures, done)


# -- stratified (rare-event) chunk running ----------------------------------
#
# Same chunking/seeding discipline as run_shot_chunks, but each chunk
# draws shots *conditioned on a fixed error weight* through
# repro.rareevent.sampler.  There is no early stopping and accumulation
# is a per-stratum sum, so the outcome is a pure function of the seed
# root for any worker count.


@dataclass(frozen=True)
class StratumChunkResult:
    """Outcome of one chunk of fixed-weight shots."""

    index: int
    weight: int
    shots: int
    failures: int
    # Importance-weighted failure sums (equal to `failures` in
    # proportional mode, where every weight is exactly 1).
    weighted_failures: float
    weighted_sq: float


@dataclass
class StratumTally:
    """Accumulated counts for one stratum across chunks and rounds."""

    weight: int
    shots: int = 0
    failures: int = 0
    weighted_failures: float = 0.0
    weighted_sq: float = 0.0

    def add(self, result: StratumChunkResult) -> None:
        self.shots += result.shots
        self.failures += result.failures
        self.weighted_failures += result.weighted_failures
        self.weighted_sq += result.weighted_sq


_STRAT_SAMPLER: WeightStratifiedSampler | None = None
_STRAT_DECODER: Decoder | None = None
_STRAT_MODE: str = "proportional"


def _init_stratified_worker(
    dem: DetectorErrorModel, basis: str, decoder: str, max_weight: int, mode: str
) -> None:
    global _STRAT_SAMPLER, _STRAT_DECODER, _STRAT_MODE
    _STRAT_SAMPLER = WeightStratifiedSampler(dem, max_weight=max_weight)
    _STRAT_DECODER = make_decoder(dem, basis, decoder)
    _STRAT_MODE = mode


def _run_stratified_chunk_with(
    sampler: WeightStratifiedSampler,
    dec: Decoder,
    job: tuple[int, int, int, np.random.SeedSequence],
    mode: str,
) -> StratumChunkResult:
    index, weight, chunk_shots, seed = job
    rng = np.random.default_rng(seed)
    if mode == "proportional":
        batch = sampler.sample_at_weight(weight, chunk_shots, rng)
        failures = dec.count_failures_packed(batch)
        return StratumChunkResult(
            index=index,
            weight=weight,
            shots=chunk_shots,
            failures=failures,
            weighted_failures=float(failures),
            weighted_sq=float(failures),
        )
    batch, log_w = sampler.sample_at_weight_with_log_weights(
        weight, chunk_shots, rng, mode=mode
    )
    predicted = dec.decode_batch_packed(batch)
    mismatch = predicted.observables ^ batch.observables
    failed_words = np.bitwise_or.reduce(mismatch, axis=0)
    mask = unpack_rows(failed_words[None, :], chunk_shots)[0].astype(bool)
    weighted = np.exp(log_w[mask])
    return StratumChunkResult(
        index=index,
        weight=weight,
        shots=chunk_shots,
        failures=int(mask.sum()),
        weighted_failures=float(weighted.sum()),
        weighted_sq=float((weighted * weighted).sum()),
    )


def _run_stratified_chunk(
    job: tuple[int, int, int, np.random.SeedSequence],
) -> StratumChunkResult:
    if _STRAT_SAMPLER is None or _STRAT_DECODER is None:
        raise RuntimeError("stratified worker pool not initialized")
    return _run_stratified_chunk_with(_STRAT_SAMPLER, _STRAT_DECODER, job, _STRAT_MODE)


def make_stratified_pool(
    dem: DetectorErrorModel,
    basis: str,
    decoder: str,
    max_weight: int,
    mode: str,
    workers: int,
) -> ProcessPoolExecutor:
    """A worker pool pre-compiled for stratified chunk jobs.

    Callers running many allocation rounds against one DEM (the
    adaptive estimator) create this once and pass it to every
    :func:`run_stratified_chunks` call, so the per-worker sampler and
    decoder compile once instead of once per round.  The caller owns
    shutdown.
    """
    workers = min(workers, os.cpu_count() or 1)
    return process_pool(
        workers,
        _init_stratified_worker,
        (dem, basis, decoder, max_weight, mode),
    )


def run_stratified_chunks(
    dem: DetectorErrorModel,
    allocations: list[tuple[int, int]],
    basis: str = "z",
    decoder: str = "auto",
    rng: np.random.Generator | None = None,
    chunk_size: int = 5_000,
    workers: int = 1,
    mode: str = "proportional",
    max_weight: int | None = None,
    on_chunk: Callable[[StratumChunkResult], None] | None = None,
    sampler: WeightStratifiedSampler | None = None,
    dec: Decoder | None = None,
    pool: ProcessPoolExecutor | None = None,
) -> dict[int, StratumTally]:
    """Sample/decode fixed-weight shots for several strata in chunks.

    ``allocations`` is ``[(weight, shots), ...]``.  Each chunk draws its
    shots conditioned on the stratum's weight
    (:class:`~repro.rareevent.sampler.WeightStratifiedSampler`) and
    counts failures through the packed decode path.  Chunk seeds are
    spawned from ``rng``'s root in a fixed global order and accumulation
    is a per-stratum sum, so results are worker-count independent —
    the same contract as :func:`run_shot_chunks`.

    ``sampler``/``dec`` let a caller running many rounds (the adaptive
    estimator) reuse its compiled tables and decoder on the inline
    path; ``pool`` (from :func:`make_stratified_pool`) is the same
    reuse for the process fan-out — when given, it overrides
    ``workers`` and the caller owns its shutdown.
    """
    rng = rng or np.random.default_rng()
    jobs: list[tuple[int, int, int, np.random.SeedSequence]] = []
    tallies: dict[int, StratumTally] = {}
    pending_sizes: list[tuple[int, int]] = []
    for weight, shots in allocations:
        tallies.setdefault(weight, StratumTally(weight=weight))
        for size in plan_chunks(shots, chunk_size):
            pending_sizes.append((weight, size))
    seeds = spawn_chunk_seeds(rng, len(pending_sizes))
    for i, ((weight, size), seed) in enumerate(zip(pending_sizes, seeds)):
        jobs.append((i, weight, size, seed))
    if not jobs:
        return tallies
    table_weight = max_weight if max_weight is not None else max(t for t in tallies)

    def _account(result: StratumChunkResult) -> None:
        tallies[result.weight].add(result)
        if on_chunk is not None:
            on_chunk(result)

    if pool is not None:
        for result in pool.map(_run_stratified_chunk, jobs):
            _account(result)
    elif workers <= 1:
        if sampler is None or sampler.max_weight < table_weight:
            sampler = WeightStratifiedSampler(dem, max_weight=table_weight)
        if dec is None:
            dec = make_decoder(dem, basis, decoder)
        for job in jobs:
            _account(_run_stratified_chunk_with(sampler, dec, job, mode))
    else:
        workers = min(workers, len(jobs), os.cpu_count() or 1)
        own_pool = make_stratified_pool(
            dem, basis, decoder, table_weight, mode, workers
        )
        try:
            for result in own_pool.map(_run_stratified_chunk, jobs):
                _account(result)
        finally:
            own_pool.shutdown(wait=True, cancel_futures=True)
    return tallies


def estimate_logical_error_rate(
    code,
    schedule,
    p: float,
    shots: int = 10_000,
    rounds: int | None = None,
    bases: tuple[str, ...] = ("z", "x"),
    decoder: str = "auto",
    idle_strength: float = 0.0,
    rng: np.random.Generator | None = None,
    noise=None,
    config: ExecutionConfig | None = None,
) -> LogicalErrorRate:
    """Monte-Carlo logical error rate of one SM circuit at error rate p.

    The LER entry point: one DEM per memory basis, each run through
    :func:`run_shot_chunks` with ``config`` (worker fan-out, chunk size,
    ``max_failures`` early-stop cap, ...), combined the paper's way
    (§6.1: a failure in either basis).  :func:`repro.api.evaluate` is
    the facade over it that resolves code and schedule names.
    ``noise`` is a :class:`~repro.noise.spec.NoiseSpec`, a noise token
    like ``"biased:10,pm=0.003"``, an inline ``noise-spec-v1`` payload,
    or ``None`` (uniform depolarizing at ``p`` plus ``idle_strength``)
    — resolved through :func:`repro.noise.spec.resolve_noise`.
    """
    # A sampler/decoder instance is bound to one (DEM, basis); this
    # entry point builds a fresh DEM per basis, so injection cannot
    # carry across — strip it rather than decode the x basis with a
    # z-basis decoder.
    cfg = (config or ExecutionConfig()).replace(sampler=None, dec=None)
    rng = rng or np.random.default_rng()
    noise = resolve_noise(noise, p, idle_strength)
    per_basis: dict[str, MemoryResult] = {}
    for basis in bases:
        dem = dem_for(code, schedule, noise, basis=basis, rounds=rounds)
        estimate = run_shot_chunks(
            dem,
            shots=shots,
            basis=basis,
            decoder=decoder,
            rng=rng,
            config=cfg,
        )
        per_basis[basis] = MemoryResult(basis=basis, estimate=estimate, dem=dem)
    return LogicalErrorRate(code_name=code.name, p=p, per_basis=per_basis)
