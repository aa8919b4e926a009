"""Rare-event estimator vs direct Monte Carlo on surface_d5 at p=5e-4.

The acceptance bar for the rare-event subsystem: at a deep
sub-threshold operating point the stratified estimator must reach a
confidence-interval half-width of <= 10% of the estimate while
decoding >= 100x fewer shots than direct Monte Carlo would need for
the same interval (normal-approximation shot count at the measured
rate).  The direct-MC reference arm runs the *same decoded-shot
budget* through the packed chunk runner to show what that budget buys
without stratification — at this operating point it resolves nothing
(the expected failure count over the whole budget is ~2).
"""

import numpy as np
import pytest

from repro.circuits import nz_schedule
from repro.codes import load_benchmark_code
from repro.decoders.metrics import dem_for
from repro.experiments.shotrunner import ExecutionConfig, run_shot_chunks
from repro.noise import NoiseModel
from repro.rareevent import estimate_ler_stratified

P = 5e-4
MAX_SHOTS = 2_000_000


@pytest.fixture(scope="module")
def d5_dem():
    code = load_benchmark_code("surface_d5")
    return dem_for(code, nz_schedule(code), NoiseModel(p=P), basis="z")


@pytest.fixture(scope="module")
def stratified(d5_dem):
    """One stratified run shared by the benchmark and the reference arm."""
    return estimate_ler_stratified(
        d5_dem,
        rng=np.random.default_rng(0),
        min_failure_weight=3,  # ceil(d/2) on the unambiguous N-Z schedule
        target_rel_halfwidth=0.1,
        max_shots=MAX_SHOTS,
    )


@pytest.mark.benchmark(group="rareevent-surface_d5")
def test_stratified_surface_d5_lowp(benchmark, d5_dem):
    est = benchmark.pedantic(
        lambda: estimate_ler_stratified(
            d5_dem,
            rng=np.random.default_rng(0),
            min_failure_weight=3,
            target_rel_halfwidth=0.1,
            max_shots=MAX_SHOTS,
        ),
        rounds=1,
        iterations=1,
    )
    assert est.converged
    assert est.halfwidth <= 0.1 * est.rate * 1.0001
    ratio = est.direct_mc_shots_for_same_ci() / est.shots
    print(
        f"\nLER={est.rate:.3e} +/- {est.halfwidth:.1e} with "
        f"{est.shots} decoded shots; direct MC would need "
        f"{est.direct_mc_shots_for_same_ci():.2e} ({ratio:.0f}x more)"
    )
    assert ratio >= 100, f"rare-event speedup only {ratio:.1f}x"


@pytest.mark.benchmark(group="rareevent-surface_d5")
def test_direct_reference_surface_d5_lowp(benchmark, d5_dem, stratified):
    """Direct MC on the same decoded-shot budget, for the time/width contrast."""
    budget = stratified.shots
    direct = benchmark.pedantic(
        lambda: run_shot_chunks(
            d5_dem,
            shots=budget,
            rng=np.random.default_rng(1),
            config=ExecutionConfig(chunk_shots=50_000),
        ),
        rounds=1,
        iterations=1,
    )
    assert direct.shots == budget
    d_lo, d_hi = direct.interval
    print(
        f"\ndirect MC at the same budget: {direct.failures} failures in "
        f"{direct.shots} shots, CI [{d_lo:.1e}, {d_hi:.1e}]"
    )
    # The whole point: the same budget spent directly cannot resolve the
    # rate — its interval is far wider than the stratified one.
    assert (d_hi - d_lo) > 5 * (stratified.interval[1] - stratified.interval[0])