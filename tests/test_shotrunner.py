"""Determinism and chunking tests for the parallel shot runner.

The contract under test: with the same ``SeedSequence`` root, the
runner's output — including streaming order and ``max_failures`` early
stopping — is independent of the worker count.  The same property is
pinned for :func:`repro.core.parallel.sample_and_solve`, the subgraph
sampler that shares the runner's process pool
(:func:`repro.core.parallel.process_pool`).
"""

import threading
import time

import numpy as np
import pytest

from repro.analysis.stats import wilson_interval
from repro.circuits import nz_schedule
from repro.codes import rotated_surface_code
from repro.core import DecodingGraph
from repro.core.parallel import sample_and_solve
from repro.decoders.metrics import dem_for, make_decoder
from repro.experiments.shotrunner import (
    ExecutionConfig,
    estimate_logical_error_rate,
    plan_chunks,
    run_shot_chunks,
    spawn_chunk_seeds,
)
from repro.noise import NoiseModel
from repro.sim.bitbatch import BitSampleBatch
from repro.sim.sampler import DemSampler


@pytest.fixture(scope="module")
def d3_code():
    return rotated_surface_code(3)


@pytest.fixture(scope="module")
def d3_dem(d3_code):
    return dem_for(d3_code, nz_schedule(d3_code), NoiseModel(p=3e-3), basis="z")


@pytest.fixture(scope="module")
def noisy_dem(d3_code):
    """High error rate, so max_failures early stopping actually triggers."""
    return dem_for(d3_code, nz_schedule(d3_code), NoiseModel(p=2e-2), basis="z")


class TestPlanChunks:
    def test_covers_all_shots(self):
        assert sum(plan_chunks(10_000, 3000)) == 10_000

    def test_word_alignment(self):
        sizes = plan_chunks(10_000, 3000)
        assert all(s % 64 == 0 for s in sizes[:-1])

    def test_small_request_is_one_chunk(self):
        assert plan_chunks(100, 5000) == [100]

    def test_zero_shots(self):
        assert plan_chunks(0, 5000) == []

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            plan_chunks(100, 0)


class TestSeedSpawning:
    def test_deterministic_and_distinct(self):
        a = spawn_chunk_seeds(np.random.default_rng(42), 4)
        b = spawn_chunk_seeds(np.random.default_rng(42), 4)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
        states = {tuple(s.generate_state(2)) for s in a}
        assert len(states) == 4

    def test_consecutive_calls_differ(self):
        rng = np.random.default_rng(42)
        first = spawn_chunk_seeds(rng, 2)
        second = spawn_chunk_seeds(rng, 2)
        assert [s.spawn_key for s in first] != [s.spawn_key for s in second]


class _NoSeedSeq(np.random.PCG64):
    """A bit generator that hides its seed sequence — the shape of
    third-party generators the fallback path exists for."""

    @property
    def seed_seq(self):  # numpy's is a plain attribute-backed property
        return None


class TestSeedSpawningFallback:
    """Generators without ``seed_seq`` must not have their stream
    consumed (the old fallback drew from the rng, silently perturbing
    every draw the caller made afterwards)."""

    def _rng(self, seed=42):
        return np.random.Generator(_NoSeedSeq(seed))

    def test_state_untouched_and_stream_unperturbed(self):
        rng = self._rng()
        control = self._rng()
        spawn_chunk_seeds(rng, 8)
        assert rng.bit_generator.state == control.bit_generator.state
        assert np.array_equal(rng.random(16), control.random(16))

    def test_deterministic_and_distinct(self):
        a = spawn_chunk_seeds(self._rng(), 4)
        b = spawn_chunk_seeds(self._rng(), 4)
        states_a = [tuple(s.generate_state(2)) for s in a]
        states_b = [tuple(s.generate_state(2)) for s in b]
        assert states_a == states_b
        assert len(set(states_a)) == 4

    def test_children_track_generator_state(self):
        rng = self._rng()
        first = spawn_chunk_seeds(rng, 2)
        # Documented fallback semantics: un-advanced generator, same
        # children (there is no spawn counter to bump without drawing).
        again = spawn_chunk_seeds(rng, 2)
        assert [tuple(s.generate_state(2)) for s in first] == [
            tuple(s.generate_state(2)) for s in again
        ]
        rng.random()  # caller advances the stream → new root
        moved = spawn_chunk_seeds(rng, 2)
        assert [tuple(s.generate_state(2)) for s in first] != [
            tuple(s.generate_state(2)) for s in moved
        ]

    def test_runner_reproducible_with_fallback_rng(self, d3_dem):
        runs = [
            run_shot_chunks(
                d3_dem,
                shots=640,
                rng=self._rng(7),
                config=ExecutionConfig(chunk_shots=256),
            )
            for _ in range(2)
        ]
        assert (runs[0].failures, runs[0].shots) == (
            runs[1].failures,
            runs[1].shots,
        )


class TestTailWordBoundaries:
    """Shot counts straddling the 64-bit word boundary (satellite
    regression: garbage tail bits in the last word must never leak into
    failure counts)."""

    @pytest.mark.parametrize("shots", [63, 64, 65, 127, 128, 129])
    def test_packed_equals_dense_through_runner(self, noisy_dem, shots):
        counts = {}
        for dense in (False, True):
            est = run_shot_chunks(
                noisy_dem,
                shots=shots,
                rng=np.random.default_rng(31),
                config=ExecutionConfig(chunk_shots=64, dense_reference=dense),
            )
            counts[dense] = (est.failures, est.shots)
        assert counts[False] == counts[True]
        assert counts[False][1] == shots

    def test_failures_bounded_by_shots(self, noisy_dem):
        # With garbage tail bits, 63 shots could report up to 64
        # failures; the count must respect the true shot count.
        est = run_shot_chunks(
            noisy_dem,
            shots=63,
            rng=np.random.default_rng(2),
            config=ExecutionConfig(chunk_shots=64),
        )
        assert 0 <= est.failures <= 63


def _sequential_reference(dem, shots, seed, chunk_shots, max_failures=None):
    """The plain chunk loop the prefetch overlap must reproduce: sample
    chunk k from its own spawned seed, decode it, stop at the cap."""
    sampler = DemSampler(dem)
    dec = make_decoder(dem, "z")
    sizes = plan_chunks(shots, chunk_shots)
    seeds = spawn_chunk_seeds(np.random.default_rng(seed), len(sizes))
    failures = done = 0
    for size, chunk_seed in zip(sizes, seeds):
        batch = sampler.sample_packed(size, np.random.default_rng(chunk_seed))
        failures += dec.count_failures_packed(batch)
        done += size
        if max_failures is not None and failures >= max_failures:
            break
    return failures, done


class _ThreadSpyDecoder:
    """Records the threads started since ``before`` at each decode."""

    def __init__(self, before):
        self.before = before
        self.new_threads = []

    def count_failures_packed(self, batch: BitSampleBatch) -> int:
        self.new_threads += [t for t in threading.enumerate() if t not in self.before]
        return 0


class TestStreaming:
    """The prefetch overlap must be invisible: bit-identical results to
    the sequential chunk loop, in-order chunk streaming, and the same
    early-stop point."""

    def test_streaming_matches_sequential(self, d3_dem):
        est = run_shot_chunks(
            d3_dem,
            shots=2000,
            rng=np.random.default_rng(123),
            config=ExecutionConfig(chunk_shots=256),
        )
        assert (est.failures, est.shots) == _sequential_reference(
            d3_dem, 2000, 123, 256
        )

    def test_streaming_chunks_in_order(self, d3_dem):
        seen = []
        est = run_shot_chunks(
            d3_dem,
            shots=1500,
            rng=np.random.default_rng(5),
            config=ExecutionConfig(chunk_shots=256),
            on_chunk=seen.append,
        )
        assert [c.index for c in seen] == list(range(len(seen)))
        assert sum(c.shots for c in seen) == est.shots == 1500

    def test_streaming_early_stop_identical(self, noisy_dem):
        est = run_shot_chunks(
            noisy_dem,
            shots=20_000,
            rng=np.random.default_rng(7),
            config=ExecutionConfig(chunk_shots=256, max_failures=10),
        )
        reference = _sequential_reference(noisy_dem, 20_000, 7, 256, max_failures=10)
        assert (est.failures, est.shots) == reference
        assert est.shots < 20_000

    @pytest.mark.parametrize("shots, prefetches", [(250, False), (640, True)])
    def test_prefetch_thread_only_for_several_chunks(self, d3_dem, shots, prefetches):
        spy = _ThreadSpyDecoder(set(threading.enumerate()))
        run_shot_chunks(
            d3_dem, shots=shots, config=ExecutionConfig(chunk_shots=256, dec=spy)
        )
        names = {t.name for t in spy.new_threads}
        assert any(n.startswith("repro-prefetch") for n in names) == prefetches


class _GatedSampler:
    """Stub sampler: the first chunk samples instantly, every later one
    blocks on a gate — stands in for a slow prefetch in flight."""

    def __init__(self, gate: threading.Event):
        self.gate = gate
        self.calls = 0

    def sample_packed(self, shots: int, rng) -> BitSampleBatch:
        self.calls += 1
        if self.calls > 1:
            # Self-releases eventually so a regression can't hang the
            # whole test run — the assertion threshold is far smaller.
            self.gate.wait(timeout=20.0)
        nwords = (shots + 63) // 64
        return BitSampleBatch(
            detectors=np.zeros((1, nwords), dtype=np.uint64),
            observables=np.zeros((1, nwords), dtype=np.uint64),
            shots=shots,
        )


class _AllFailDecoder:
    """Every shot fails: trips max_failures on the first chunk."""

    def count_failures_packed(self, batch: BitSampleBatch) -> int:
        return batch.shots


class _RaisingDecoder:
    def count_failures_packed(self, batch: BitSampleBatch) -> int:
        raise RuntimeError("decode blew up")


class TestPrefetchShutdown:
    """An early exit from the streaming loop must not wait out the
    in-flight prefetch sample (the old executor context exit did)."""

    def test_early_stop_returns_without_waiting_for_prefetch(self, d3_dem):
        gate = threading.Event()
        sampler = _GatedSampler(gate)
        cfg = ExecutionConfig(
            chunk_shots=64,
            max_failures=1,
            sampler=sampler,
            dec=_AllFailDecoder(),
        )
        try:
            t0 = time.perf_counter()
            est = run_shot_chunks(d3_dem, shots=192, config=cfg)
            elapsed = time.perf_counter() - t0
        finally:
            gate.set()
        assert elapsed < 5.0
        assert (est.failures, est.shots) == (64, 64)

    def test_decode_exception_returns_without_waiting_for_prefetch(
        self, d3_dem
    ):
        gate = threading.Event()
        sampler = _GatedSampler(gate)
        cfg = ExecutionConfig(
            chunk_shots=64,
            sampler=sampler,
            dec=_RaisingDecoder(),
        )
        try:
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError, match="decode blew up"):
                run_shot_chunks(d3_dem, shots=192, config=cfg)
            elapsed = time.perf_counter() - t0
        finally:
            gate.set()
        assert elapsed < 5.0


class TestRunnerDeterminism:
    def test_workers_1_vs_4_identical(self, d3_dem):
        results = {}
        for workers in (1, 4):
            est = run_shot_chunks(
                d3_dem,
                shots=4000,
                rng=np.random.default_rng(123),
                config=ExecutionConfig(chunk_shots=640, workers=workers),
            )
            results[workers] = (est.failures, est.shots)
        assert results[1] == results[4]
        assert results[1][1] == 4000

    def test_streams_chunks_in_order(self, d3_dem):
        seen = []
        est = run_shot_chunks(
            d3_dem,
            shots=2000,
            rng=np.random.default_rng(5),
            config=ExecutionConfig(chunk_shots=512, workers=2),
            on_chunk=seen.append,
        )
        assert [c.index for c in seen] == list(range(len(seen)))
        assert sum(c.shots for c in seen) == est.shots == 2000
        assert sum(c.failures for c in seen) == est.failures

    def test_early_stop_worker_independent(self, noisy_dem):
        results = {}
        for workers in (1, 3):
            est = run_shot_chunks(
                noisy_dem,
                shots=20_000,
                rng=np.random.default_rng(7),
                config=ExecutionConfig(
                    chunk_shots=256, workers=workers, max_failures=10
                ),
            )
            results[workers] = (est.failures, est.shots)
        assert results[1] == results[3]
        assert results[1][0] >= 10
        assert results[1][1] < 20_000

    def test_full_pipeline_workers_match(self, d3_code):
        rates = {}
        for workers in (1, 2):
            ler = estimate_logical_error_rate(
                d3_code,
                nz_schedule(d3_code),
                p=2e-3,
                shots=2000,
                rng=np.random.default_rng(0),
                config=ExecutionConfig(chunk_shots=512, workers=workers),
            )
            rates[workers] = (
                ler.rate,
                ler.shots,
                {b: r.estimate.failures for b, r in ler.per_basis.items()},
            )
        assert rates[1] == rates[2]

    def test_dense_reference_matches_packed(self, d3_dem):
        """The packed LER loop and the pinned dense-decode path are the
        same estimator — identical failure counts, chunk for chunk."""
        runs = {}
        for dense in (False, True):
            est = run_shot_chunks(
                d3_dem,
                shots=3000,
                rng=np.random.default_rng(17),
                config=ExecutionConfig(chunk_shots=640, dense_reference=dense),
            )
            runs[dense] = (est.failures, est.shots)
        assert runs[False] == runs[True]

    def test_dense_reference_matches_packed_across_workers(self, d3_dem):
        est_packed = run_shot_chunks(
            d3_dem,
            shots=2000,
            rng=np.random.default_rng(23),
            config=ExecutionConfig(chunk_shots=512, workers=2),
        )
        est_dense = run_shot_chunks(
            d3_dem,
            shots=2000,
            rng=np.random.default_rng(23),
            config=ExecutionConfig(
                chunk_shots=512, workers=2, dense_reference=True
            ),
        )
        assert (est_packed.failures, est_packed.shots) == (
            est_dense.failures,
            est_dense.shots,
        )

    def test_injected_sampler_decoder_identical(self, d3_dem):
        """A campaign compile cache injecting sampler/decoder is pure
        reuse — bit-identical to the build-per-call path."""
        fresh = run_shot_chunks(
            d3_dem,
            shots=1000,
            rng=np.random.default_rng(9),
            config=ExecutionConfig(chunk_shots=256),
        )
        injected = run_shot_chunks(
            d3_dem,
            shots=1000,
            rng=np.random.default_rng(9),
            config=ExecutionConfig(
                chunk_shots=256,
                sampler=DemSampler(d3_dem),
                dec=make_decoder(d3_dem, "z", "auto"),
            ),
        )
        assert (fresh.failures, fresh.shots) == (injected.failures, injected.shots)


class TestEarlyStopAccounting:
    """max_failures early stop must report exactly the shots consumed.

    A campaign stores the returned estimate verbatim: if the runner
    reported the planned budget instead of the accounted chunks, stored
    rates and Wilson CI widths would be silently wrong.  Pinned for
    both worker paths (inline and process pool).
    """

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shots_equal_accounted_chunks_not_budget(self, noisy_dem, workers):
        planned = 20_000
        seen = []
        est = run_shot_chunks(
            noisy_dem,
            shots=planned,
            rng=np.random.default_rng(7),
            config=ExecutionConfig(chunk_shots=256, workers=workers, max_failures=10),
            on_chunk=seen.append,
        )
        assert est.shots == sum(c.shots for c in seen)
        assert est.shots < planned
        assert est.failures == sum(c.failures for c in seen)
        assert est.failures >= 10
        # The interval is computed from real consumption, not the plan.
        assert est.interval == wilson_interval(est.failures, est.shots)

    def test_no_early_stop_reports_full_budget(self, d3_dem):
        est = run_shot_chunks(
            d3_dem,
            shots=1280,
            rng=np.random.default_rng(1),
            config=ExecutionConfig(chunk_shots=256, max_failures=10_000),
        )
        assert est.shots == 1280


class TestCoreParallelDeterminism:
    def _canonical(self, results):
        return [
            (sub.detectors, sub.errors, sol.weight, sorted(sol.error_columns))
            for sub, sol in results
        ]

    def test_workers_1_vs_2_identical(self, d3_dem):
        graph = DecodingGraph(d3_dem)
        runs = {}
        for workers in (1, 2):
            out = sample_and_solve(
                graph, samples=4, base_seed=11, max_errors=30, workers=workers
            )
            runs[workers] = self._canonical(out)
        assert runs[1] == runs[2]
        assert runs[1]  # the seeds above do find ambiguous subgraphs
