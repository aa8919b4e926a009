"""Chunked parallel shot runner — the one batching/parallelism entry point.

Every figure's dominant cost is the same loop: sample a batch of shots
from a compiled DEM, decode, count logical failures.  This module owns
that loop.  Shots are sharded into fixed-size chunks (rounded up to a
multiple of 64 so packed batches stay word-aligned) and every chunk
gets its own RNG substream spawned from one
:class:`numpy.random.SeedSequence` root.

The sampler and decoder are compiled once, in the calling process (or
taken ready-made from the :class:`ExecutionConfig`), and the persistent
syndrome cache is attached to that decoder there.  Chunks then run
inline or on a :class:`repro.core.parallel.FanOut` process pool (like
the paper's 48-core runs in §6.1) whose workers only run that state.

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
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .. import obs
from ..analysis.stats import RateEstimate
from ..core.parallel import FanOut
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
    :func:`estimate_logical_error_rate`, the stratified
    :func:`run_stratified_chunks` and
    :func:`repro.rareevent.estimate_ler_stratified`, and
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


def _run_chunk(
    state: tuple[DemSampler, Decoder, bool],
    job: tuple[int, int, np.random.SeedSequence],
) -> ChunkResult:
    sampler, dec, dense_reference = state
    return _decode_chunk(dec, job, _sample_chunk(sampler, job), dense_reference)


def _run_chunks_sampling_ahead(
    state: tuple[DemSampler, Decoder, bool],
    jobs: list[tuple[int, int, np.random.SeedSequence]],
) -> Iterator[ChunkResult]:
    """The inline chunk loop: sample chunk ``k+1`` while decoding ``k``.

    DemSampler is read-only after construction and each chunk samples
    from its own generator, so one prefetch thread can sample ahead of
    the decoding thread bit-identically (the executor starts its thread
    on first submit, so a one-chunk run never starts it).  When the
    caller stops early (max_failures tripped, or decode raised) the
    presampled chunk is discarded — shut down without waiting for it,
    or the caller would block on a full chunk sample nobody will read
    (tests/test_shotrunner.py pins this).
    """
    sampler, dec, dense_reference = state
    prefetch = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-prefetch")
    pending = None
    try:
        batch = _sample_chunk(sampler, jobs[0])
        for k, job in enumerate(jobs):
            if k + 1 < len(jobs):
                pending = prefetch.submit(_sample_chunk, sampler, jobs[k + 1])
            yield _decode_chunk(dec, job, batch, dense_reference)
            if pending is not None:
                batch = pending.result()
                pending = None
    finally:
        if pending is not None:
            pending.cancel()
        prefetch.shutdown(wait=False, cancel_futures=True)


def compiled_decoder(
    dem: DetectorErrorModel, basis: str, decoder: str, cfg: ExecutionConfig
) -> Decoder:
    """``cfg.dec`` or a new decoder, with ``cfg``'s on-disk syndrome cache
    attached; pool workers share the handle.

    The one place an on-disk :class:`SyndromeCache` is attached.  A
    decoder already holding the cache ``cfg`` addresses (same directory
    and writer tag) keeps it, so the jobs of a campaign sharing one
    decoder load the cache once; a decoder shared across two stores
    gets each store's cache in turn.
    """
    dec = cfg.dec if cfg.dec is not None else make_decoder(dem, basis, decoder)
    if cfg.syndrome_cache_dir is not None:
        want = (os.fspath(cfg.syndrome_cache_dir), cfg.syndrome_writer_tag)
        memo = dec.syndrome_cache
        if (memo.directory, memo.writer_tag) != want:
            dec.attach_syndrome_cache(
                SyndromeCache.for_decoder(dec, want[0], writer_tag=want[1])
            )
    return dec


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
    (the campaign engine) reuse a pre-built sampler and decoder; either
    way they are built once here and pool workers receive them.

    On the inline path, sampling of chunk ``k+1`` (on a single prefetch
    thread) overlaps decoding of chunk ``k``; a one-chunk run starts no
    thread.  Each chunk's sampling is a pure function of its own spawned
    seed, so the overlap is bit-identical to a sequential loop; a
    ``max_failures`` stop wastes at most one presampled chunk.

    ``config.syndrome_cache_dir`` attaches a persistent
    :class:`~repro.decoders.syncache.SyndromeCache` (content-addressed
    by DEM fingerprint + decoder namespace) to the decoder, whose handle
    every pool worker shares, so distinct syndromes decoded by any
    earlier chunk, job, or run are served from disk (see
    :func:`compiled_decoder`).

    The hot path is fully packed: chunks are sampled packed and decoded
    through :meth:`~repro.decoders.base.Decoder.decode_batch_packed`
    (unique-syndrome batching), so no dense ``(shots, num_detectors)``
    array is ever materialized.  ``config.dense_reference`` routes
    decoding through the pinned dense path instead
    (:meth:`~repro.decoders.base.Decoder.count_failures_dense`) — same
    estimates by construction, kept for cross-checks and benchmarks.
    """
    cfg = config or ExecutionConfig()
    rng = rng or np.random.default_rng()
    sizes = plan_chunks(shots, cfg.chunk_shots)
    seeds = spawn_chunk_seeds(rng, len(sizes))
    jobs = [(i, size, seed) for i, (size, seed) in enumerate(zip(sizes, seeds))]
    if not jobs:
        return RateEstimate(0, 0)

    sampler = cfg.sampler if cfg.sampler is not None else DemSampler(dem)
    state = (sampler, compiled_decoder(dem, basis, decoder, cfg), cfg.dense_reference)
    failures = 0
    done = 0
    fan = FanOut(state, cfg.workers)
    results = fan.map(_run_chunk, jobs, inline=_run_chunks_sampling_ahead)
    with fan, closing(results):
        for result in results:
            failures += result.failures
            done += result.shots
            if on_chunk is not None:
                on_chunk(result)
            if cfg.max_failures is not None and failures >= cfg.max_failures:
                break
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


def _run_stratified_chunk(
    state: tuple[WeightStratifiedSampler, Decoder, str],
    job: tuple[int, int, int, np.random.SeedSequence],
) -> StratumChunkResult:
    sampler, dec, mode = state
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


def run_stratified_chunks(
    dem: DetectorErrorModel,
    allocations: list[tuple[int, int]],
    basis: str = "z",
    decoder: str = "auto",
    rng: np.random.Generator | None = None,
    mode: str = "proportional",
    config: ExecutionConfig | None = None,
    fanout: FanOut | None = None,
) -> dict[int, StratumTally]:
    """Sample/decode fixed-weight shots for several strata in chunks.

    ``allocations`` is ``[(weight, shots), ...]``.  Each chunk draws its
    shots conditioned on the stratum's weight
    (:class:`~repro.rareevent.sampler.WeightStratifiedSampler`) and
    counts failures through the packed decode path.  Chunk seeds are
    spawned from ``rng``'s root in a fixed global order and accumulation
    is a per-stratum sum, so results are worker-count independent —
    the same contract as :func:`run_shot_chunks`.

    ``config`` supplies ``workers``, ``chunk_shots``, ``dec`` and the
    syndrome cache; its ``sampler``, ``max_failures`` and
    ``dense_reference`` are ignored.  ``fanout`` is an open
    :class:`FanOut` over ``(sampler, decoder, mode)`` for ``dem`` that
    the caller reuses across calls (the adaptive estimator's rounds);
    it replaces ``basis``, ``decoder``, ``mode``, ``config.workers`` and
    ``config.dec``.
    """
    cfg = config or ExecutionConfig()
    rng = rng or np.random.default_rng()
    tallies: dict[int, StratumTally] = {}
    sizes: list[tuple[int, int]] = []
    for weight, shots in allocations:
        tallies.setdefault(weight, StratumTally(weight=weight))
        sizes += [(weight, size) for size in plan_chunks(shots, cfg.chunk_shots)]
    seeds = spawn_chunk_seeds(rng, len(sizes))
    jobs = [(i, w, size, seed) for i, ((w, size), seed) in enumerate(zip(sizes, seeds))]
    if not jobs:
        return tallies
    with ExitStack() as own:
        if fanout is None:
            sampler = WeightStratifiedSampler(dem, max_weight=max(tallies))
            dec = compiled_decoder(dem, basis, decoder, cfg)
            fanout = own.enter_context(FanOut((sampler, dec, mode), cfg.workers))
        for result in fanout.map(_run_stratified_chunk, jobs):
            tallies[result.weight].add(result)
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
