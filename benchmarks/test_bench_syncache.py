"""Warm vs cold persistent syndrome cache on the LER hot loop.

Companion to ``test_bench_decoders.py``: the same surface_d5 loop
(:func:`repro.experiments.shotrunner.run_shot_chunks`, packed path),
now with a :class:`repro.decoders.syncache.SyndromeCache` attached.
The cold run decodes every distinct syndrome and pays the append cost;
the warm run reloads the cache file and serves every unique syndrome
from the map, so it times sampling + unique-grouping + lookup with the
decoder almost entirely idle.

Two operating points:

* ``p=1e-3`` — the exact loop ``test_ler_packed_surface_d5`` times, so
  its warm number reads directly against that baseline.json entry (the
  cache PR's acceptance bar: warm >= 2x the pre-PR 0.243s baseline, and
  the cold/cacheless numbers must not regress).
* ``p=3e-3`` — decode-heavy (defect weights high enough that matching
  dominates sampling), where the warm/cold ratio is large and stable;
  this pair carries the in-suite ratio guard (soft 1.5x bound; measured
  ~4x locally — see CHANGES.md) so CI noise cannot flake it.

Caching must never change results: failure counts are asserted
identical across uncached, cold, and warm runs.
"""

import shutil

import numpy as np
import pytest

from repro.circuits import nz_schedule
from repro.codes import load_benchmark_code
from repro.decoders.metrics import dem_for
from repro.experiments.shotrunner import ExecutionConfig, run_shot_chunks
from repro.noise import NoiseModel

SURFACE_SHOTS = 100_000

# min-time results stashed by the benchmarks, compared by the final test.
_RESULTS: dict[str, float] = {}


def _surface_dem(p):
    code = load_benchmark_code("surface_d5")
    return dem_for(code, nz_schedule(code), NoiseModel(p=p), basis="z")


@pytest.fixture(scope="module")
def dem_lowp():
    return _surface_dem(1e-3)


@pytest.fixture(scope="module")
def dem_highp():
    return _surface_dem(3e-3)


def _ler_loop(dem, cache_dir, shots=SURFACE_SHOTS):
    return run_shot_chunks(
        dem,
        shots,
        basis="z",
        rng=np.random.default_rng(0),
        config=ExecutionConfig(
            chunk_shots=20_000,
            syndrome_cache_dir=None if cache_dir is None else str(cache_dir),
        ),
    )


def _record(name, benchmark):
    stats = getattr(benchmark, "stats", None)
    if stats is not None and getattr(stats, "stats", None) is not None:
        _RESULTS[name] = stats.stats.min


def _bench_cold(benchmark, dem, tmp_path):
    cache_dir = tmp_path / "syn"

    def _setup():
        shutil.rmtree(cache_dir, ignore_errors=True)
        return (dem, cache_dir), {}

    est = benchmark.pedantic(_ler_loop, setup=_setup, rounds=3, iterations=1)
    assert est.shots == SURFACE_SHOTS
    return est


def _bench_warm(benchmark, dem, tmp_path):
    cache_dir = tmp_path / "syn"
    reference = _ler_loop(dem, cache_dir)  # prewarm
    est = benchmark.pedantic(
        lambda: _ler_loop(dem, cache_dir), rounds=3, iterations=1
    )
    assert (est.failures, est.shots) == (reference.failures, reference.shots)
    return est


@pytest.mark.benchmark(group="ler-syncache-surface_d5")
def test_ler_syncache_cold_surface_d5(benchmark, dem_lowp, tmp_path):
    """Cold cache at the headline operating point: full decode plus the
    append overhead — the gate that caching never slows a first run."""
    _bench_cold(benchmark, dem_lowp, tmp_path)
    _record("cold", benchmark)


@pytest.mark.benchmark(group="ler-syncache-surface_d5")
def test_ler_syncache_warm_surface_d5(benchmark, dem_lowp, tmp_path):
    """Warm cache: every distinct syndrome served from disk.  Each
    round builds a fresh decoder and reloads the cache file, so load
    cost is inside the measurement.  Compare against the
    ``test_ler_packed_surface_d5`` baseline entry."""
    _bench_warm(benchmark, dem_lowp, tmp_path)
    _record("warm", benchmark)


@pytest.mark.benchmark(group="ler-syncache-surface_d5-highp")
def test_ler_syncache_cold_surface_d5_highp(benchmark, dem_highp, tmp_path):
    _bench_cold(benchmark, dem_highp, tmp_path)
    _record("cold-highp", benchmark)


@pytest.mark.benchmark(group="ler-syncache-surface_d5-highp")
def test_ler_syncache_warm_surface_d5_highp(benchmark, dem_highp, tmp_path):
    _bench_warm(benchmark, dem_highp, tmp_path)
    _record("warm-highp", benchmark)


def test_warm_cache_beats_cold(dem_highp, tmp_path):
    """Guard: in the decode-dominated regime a warm cache must clearly
    beat a cold one (recorded speedup lives in CHANGES.md; 1.5x here
    absorbs CI noise), and caching must not change a single counted
    failure."""
    if "warm-highp" not in _RESULTS or "cold-highp" not in _RESULTS:
        pytest.skip("benchmark timings unavailable (benchmarks disabled?)")
    ratio = _RESULTS["cold-highp"] / _RESULTS["warm-highp"]
    assert ratio >= 1.5, f"warm-cache speedup degraded: {ratio:.2f}x"
    # Same estimator with the cache absent, cold, or warm.
    runs = [
        _ler_loop(dem_highp, None, shots=20_000),
        _ler_loop(dem_highp, tmp_path / "syn2", shots=20_000),
        _ler_loop(dem_highp, tmp_path / "syn2", shots=20_000),
    ]
    assert len({(r.failures, r.shots) for r in runs}) == 1
