"""Packed vs dense decoding on the LER hot loop.

Companion to ``test_bench_sampler.py``: where that file benchmarks the
sampling kernel, this one benchmarks the full sample→decode→count loop
(:func:`repro.experiments.shotrunner.run_shot_chunks`) with the packed
unique-syndrome-batching decode path against the pinned dense reference
(``dense_reference=True``, i.e. unpack + per-shot ``decode_batch``).
Both paths are the same estimator — identical failure counts — so the
comparison is pure decode-representation cost.

Acceptance bar from the packed-decoding PR: packed >= 2x faster on
surface_d5 at 100k shots (see CHANGES.md for recorded numbers).  The
in-suite assertion uses a softer 1.3x bound so noisy CI machines do not
flake; the CI benchmark-regression gate tracks the absolute numbers
against ``benchmarks/baseline.json``.
"""

import numpy as np
import pytest

from repro.circuits import coloration_schedule, nz_schedule
from repro.codes import load_benchmark_code
from repro.decoders.metrics import dem_for
from repro.experiments.shotrunner import ExecutionConfig, run_shot_chunks
from repro.noise import NoiseModel

SURFACE_SHOTS = 100_000
BPOSD_SHOTS = 10_000

# min-time results stashed by the benchmarks, compared by the final test.
_RESULTS: dict[str, float] = {}


def _dem(name: str, p: float, rounds=None):
    code = load_benchmark_code(name)
    sched = (
        nz_schedule(code) if name.startswith("surface") else coloration_schedule(code)
    )
    return dem_for(code, sched, NoiseModel(p=p), basis="z", rounds=rounds)


@pytest.fixture(scope="module")
def surface_d5_dem():
    return _dem("surface_d5", 1e-3)


@pytest.fixture(scope="module")
def lp39_dem():
    return _dem("lp39", 5e-4, rounds=2)


def _ler_loop(dem, shots, dense_reference):
    return run_shot_chunks(
        dem,
        shots,
        basis="z",
        rng=np.random.default_rng(0),
        config=ExecutionConfig(chunk_shots=20_000, dense_reference=dense_reference),
    )


def _record(name, benchmark):
    stats = getattr(benchmark, "stats", None)
    if stats is not None and getattr(stats, "stats", None) is not None:
        _RESULTS[name] = stats.stats.min


@pytest.mark.benchmark(group="ler-surface_d5")
def test_ler_packed_surface_d5(benchmark, surface_d5_dem):
    est = benchmark.pedantic(
        lambda: _ler_loop(surface_d5_dem, SURFACE_SHOTS, False),
        rounds=3,
        iterations=1,
    )
    assert est.shots == SURFACE_SHOTS
    _record("packed", benchmark)


@pytest.mark.benchmark(group="ler-surface_d5")
def test_ler_dense_surface_d5(benchmark, surface_d5_dem):
    est = benchmark.pedantic(
        lambda: _ler_loop(surface_d5_dem, SURFACE_SHOTS, True),
        rounds=3,
        iterations=1,
    )
    assert est.shots == SURFACE_SHOTS
    _record("dense", benchmark)


@pytest.mark.benchmark(group="ler-lp39")
def test_ler_packed_lp39(benchmark, lp39_dem):
    """BP+OSD packed path; BP dominates, so this tracks absolute cost
    rather than a packed/dense ratio (the dense run would double the
    benchmark's wall time for the same BP work)."""
    est = benchmark.pedantic(
        lambda: _ler_loop(lp39_dem, BPOSD_SHOTS, False),
        rounds=1,
        iterations=1,
    )
    assert est.shots == BPOSD_SHOTS
    _record("lp39-packed", benchmark)


def test_packed_beats_dense_surface_d5(surface_d5_dem):
    """Guard: the packed LER loop must clearly beat the dense reference
    (recorded speedup lives in CHANGES.md; 1.3x here absorbs CI noise)."""
    if "packed" not in _RESULTS or "dense" not in _RESULTS:
        pytest.skip("benchmark timings unavailable (benchmarks disabled?)")
    ratio = _RESULTS["dense"] / _RESULTS["packed"]
    assert ratio >= 1.3, f"packed speedup degraded: {ratio:.2f}x"
    # Identical estimator: same failures either way.
    packed = _ler_loop(surface_d5_dem, 20_000, False)
    dense = _ler_loop(surface_d5_dem, 20_000, True)
    assert (packed.failures, packed.shots) == (dense.failures, dense.shots)
