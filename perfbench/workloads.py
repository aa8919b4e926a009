"""The benchmark's workloads: set-up, one unit of work, and its checks.

Every workload is a closed loop with one client (``workers=1``): the
next unit starts when the previous one has finished.  A run works
through a fixed set of units made from the seed alone, round robin;
which units are in the set never depends on how fast they run.  Each
unit builds its own decoder (or optimizer), so no memo or cache carries
over between units or runs.  Only the call into the
program's entry point is timed; building the fresh decoder and checking
the output are not.

Program entry points are looked up through their modules at call time
(``shotrunner.run_shot_chunks``, not a name bound at import), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro import decoders, streaming
from repro.circuits import coloration_schedule, nz_schedule, schedule_to_json
from repro.codes import load_benchmark_code
from repro.core import PropHunt, PropHuntConfig
from repro.decoders.metrics import dem_for
from repro.experiments import shotrunner
from repro.noise import NoiseModel
from repro.sim.sampler import DemSampler
from repro.streaming.rounds import RoundLayout

P = 1e-3  # physical error rate of every workload


# The traced run turns this off, so that collections show as a layer.
PAUSE_COLLECTOR = True


@dataclass
class Timer:
    start: float
    elapsed_s: float = 0.0


@contextlib.contextmanager
def timed():
    """Time a block that starts from a collected heap.

    The garbage earlier work left is collected first, untimed.  With
    ``PAUSE_COLLECTOR`` Python's cyclic collector then stays off inside
    the block, as ``timeit`` does.  Left on, it runs when allocations
    pass a threshold, and its full collections scan the whole live heap,
    so a call's time would follow how large the unit's caches have grown
    when a collection falls on it.  On ``optimize-lp39`` (24 requests a
    run) the quartile spread of the median DEM build over five seeds was
    0.46 with the collector on and 0.11 with it paused.  The traced run
    leaves it on and reports its time as the ``python.gc`` layer.
    """
    gc.collect()
    pause = PAUSE_COLLECTOR and gc.isenabled()
    if pause:
        gc.disable()
    timer = Timer(time.perf_counter())
    try:
        yield timer
    finally:
        timer.elapsed_s = time.perf_counter() - timer.start
        if pause:
            gc.enable()


@dataclass
class UnitResult:
    """One unit of work: its timed part, its output and its check."""

    elapsed_s: float  # time inside the program's entry points
    work: float  # units counted by throughput
    latencies_s: list[float]  # the same sequence on every run of a unit
    output: object  # compared across runs of the same unit
    problems: list[str] = field(default_factory=list)  # failed output checks
    index: int = 0  # which unit of the seed's unit set this was


class Workload:
    """Base: ``setup`` builds the inputs, ``run_unit`` does one unit."""

    name = ""
    why = ""
    units = 1  # size of the fixed unit set: units 0..units-1 of the seed

    def setup(self, seed: int, pins: dict):
        raise NotImplementedError

    def run_unit(self, state, k: int) -> UnitResult:
        raise NotImplementedError

    def first_pass(self, state) -> list[UnitResult]:
        """One run of each unit in the set; the run goes on to repeat
        these units.  The set depends on the seed only."""
        return [self.run_unit(state, k) for k in range(self.units)]

    def final_checks(self, state, results: list[UnitResult]) -> list[str]:
        """Run-level checks on each unit's first run, after timing;
        returns the problems found."""
        return []


# -- optimizer loop ------------------------------------------------------------


class _CountingPropHunt(PropHunt):
    """PropHunt that counts the DEMs it asks for, the optimizer's unit of
    work, and times the ones it has to build.  The requests are fixed by
    the algorithm and the seed (one per basis and iteration plus one per
    candidate schedule it checks); whether the DEM cache serves one is
    not."""

    def __init__(self, code, config):
        super().__init__(code, config)
        self.requests = 0
        self.build_latencies_s: list[float] = []
        self._seen: set[int] = set()

    def build_dem(self, schedule, basis):
        self.requests += 1
        start = time.perf_counter()
        dem = super().build_dem(schedule, basis)
        elapsed = time.perf_counter() - start
        if id(dem) not in self._seen:  # a cache hit returns a DEM seen before
            self._seen.add(id(dem))
            self.build_latencies_s.append(elapsed)
        return dem


def history_digest(result) -> str:
    """Per-iteration ambiguous/verified/applied counts plus the final
    schedule, hashed."""
    counts = [
        (r.ambiguous_found, r.changes_verified, r.changes_applied)
        for r in result.history
    ]
    payload = json.dumps(counts) + schedule_to_json(result.final_schedule)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class _OptimizeState:
    code: object
    schedule: object
    seed: int
    pinned: dict  # unit index -> digest, for the seed the pins cover


class OptimizeLp39(Workload):
    """PropHunt on lp39 from the coloration schedule.

    Unit ``k`` is one PropHunt problem (1 iteration x 2 samples, one per
    basis) seeded with ``seed * 1000 + k``.  How much a problem does
    depends on what its samples find: 2 to ~40 DEM requests.  The unit
    set is problems 0, 1, ... up to the first whose cumulative requests
    reach ``request_budget``; the request counts, and so the set, follow
    from the seed alone.  Throughput counts DEM requests, so a seed with
    many small problems and one with a few large ones read alike.
    """

    name = "optimize-lp39"
    why = "the paper's optimizer loop on its LP code; DEM extraction dominates"
    iterations = 1
    samples = 2
    request_budget = 24

    def setup(self, seed, pins):
        code = load_benchmark_code("lp39")
        schedule = coloration_schedule(code)
        pinned = pins.get(self.name, {})
        digests = pinned.get("digests", []) if pinned.get("seed") == seed else []
        return _OptimizeState(code, schedule, seed, dict(enumerate(digests)))

    def first_pass(self, state):
        results = []
        while sum(r.work for r in results) < self.request_budget:
            results.append(self.run_unit(state, len(results)))
        return results

    def config(self, seed: int, k: int) -> PropHuntConfig:
        return PropHuntConfig(
            seed=seed * 1000 + k,
            iterations=self.iterations,
            samples_per_iteration=self.samples,
            stop_when_quiet=False,
            workers=1,
        )

    def run_unit(self, state, k):
        optimizer = _CountingPropHunt(state.code, self.config(state.seed, k))
        with timed() as timer:
            result = optimizer.optimize(state.schedule)
        problems = []
        schedules = [result.final_schedule] + [r.schedule for r in result.history]
        if not all(s.is_valid() for s in schedules):
            problems.append(f"unit {k}: an optimized schedule is invalid")
        digest = history_digest(result)
        expected = state.pinned.get(k)
        if expected is not None and digest != expected:
            problems.append(f"unit {k}: history digest {digest} != pinned {expected}")
        return UnitResult(
            elapsed_s=timer.elapsed_s,
            work=optimizer.requests,
            latencies_s=optimizer.build_latencies_s,
            output=digest,
            problems=problems,
            index=k,
        )


# -- LER loop -----------------------------------------------------------------


@dataclass
class _LerState:
    dem: object
    seed: int
    pinned: list[int]  # failure count per unit index, for the pinned seeds
    setup_decoder: object  # counted in setup_s; units build their own


class LerLp39(Workload):
    """``run_shot_chunks`` on lp39 over a z-basis DEM compiled in set-up;
    ``make_decoder`` resolves to BP+OSD.

    A unit samples and decodes ``shots`` shots with the default execution
    config and a fresh decoder, drawing from ``default_rng([seed, k])``.
    Each unit's failure count is checked against the count pinned for
    the seed, or against the dense reference decode of the same shots
    when it is not pinned.
    """

    name = "ler-lp39"
    why = (
        "the shot runner with BP+OSD, an expensive per-syndrome decode, at "
        "low syndrome sharing; the only run_shot_chunks workload"
    )
    shots = 250
    units = 8

    def setup(self, seed, pins):
        code = load_benchmark_code("lp39")
        dem = dem_for(code, coloration_schedule(code), NoiseModel(p=P), basis="z")
        pinned = pins.get(self.name, {}).get(str(seed), [])
        return _LerState(dem, seed, pinned, decoders.make_decoder(dem, "z"))

    def _run(self, state, k, config, on_chunk=None):
        return shotrunner.run_shot_chunks(
            state.dem,
            self.shots,
            basis="z",
            rng=np.random.default_rng([state.seed, k]),
            config=config,
            on_chunk=on_chunk,
        )

    def run_unit(self, state, k):
        config = shotrunner.ExecutionConfig(dec=decoders.make_decoder(state.dem, "z"))
        stamps: list[float] = []
        with timed() as timer:
            estimate = self._run(
                state, k, config, on_chunk=lambda _: stamps.append(time.perf_counter())
            )
        chunk_s = np.diff([timer.start] + stamps).tolist()
        problems = []
        if estimate.shots != self.shots:
            problems.append(f"unit {k}: ran {estimate.shots} of {self.shots} shots")
        if k < len(state.pinned) and estimate.failures != state.pinned[k]:
            problems.append(
                f"unit {k}: failures {estimate.failures} != pinned {state.pinned[k]}"
            )
        return UnitResult(
            elapsed_s=timer.elapsed_s,
            work=self.shots,
            latencies_s=chunk_s,
            output=estimate.failures,
            problems=problems,
            index=k,
        )

    def reference_failures(self, state, k: int) -> int:
        """Failures of unit ``k``'s shots through the dense reference decode."""
        config = shotrunner.ExecutionConfig(
            dec=decoders.make_decoder(state.dem, "z"), dense_reference=True
        )
        return self._run(state, k, config).failures

    def final_checks(self, state, results):
        problems = []
        for r in results:
            if r.index < len(state.pinned):
                continue
            reference = self.reference_failures(state, r.index)
            if r.output != reference:
                problems.append(
                    f"unit {r.index}: failures {r.output} != dense {reference}"
                )
        return problems


# -- streaming decode ------------------------------------------------------------


@dataclass
class _StreamState:
    dem: object
    sampler: object
    layout: object
    seed: int
    setup_decoder: object  # counted in setup_s; streams build their own


class StreamSurfaceD5(Workload):
    """Free-run sliding-window decode (window 3, commit 1) on surface_d5
    with the nz schedule over a 5-round DEM.

    Unit ``k`` is one stream of ``shots`` shots drawn from
    ``default_rng([seed, k])``, with a fresh decoder.
    """

    name = "stream-surface_d5"
    why = (
        "sampler, packed matching decode and kernels, one call per commit on "
        "small windows; extraction only in set-up; the only streaming workload"
    )
    units = 20
    shots = 4096
    window = streaming.WindowConfig(window_rounds=3, commit_rounds=1)

    def setup(self, seed, pins):
        code = load_benchmark_code("surface_d5")
        dem = dem_for(code, nz_schedule(code), NoiseModel(p=P), basis="z")
        return _StreamState(
            dem,
            DemSampler(dem),
            RoundLayout.from_dem(dem),
            seed,
            decoders.make_decoder(dem, "z"),
        )

    def _stream(self, state, j: int, decoder, verify: bool):
        return streaming.stream_decode(
            state.dem,
            self.shots,
            basis="z",
            decoder=decoder,
            rng=np.random.default_rng([state.seed, j]),
            window=self.window,
            rounds_per_sec=0.0,
            verify_offline=verify,
            sampler=state.sampler,
            layout=state.layout,
        )

    def run_unit(self, state, k):
        decoder = decoders.make_decoder(state.dem, "z")
        with timed() as timer:
            report = self._stream(state, k, decoder, verify=False)
        return UnitResult(
            elapsed_s=timer.elapsed_s,
            work=report.rounds,
            latencies_s=report.round_latencies_s,
            output=report.failures,
            index=k,
        )

    def final_checks(self, state, results):
        decoder = decoders.make_decoder(state.dem, "z")
        report = self._stream(state, 0, decoder, verify=True)
        problems = []
        if report.matches_offline is not True:
            problems.append("stream 0: commits differ from the offline decode")
        if results and report.failures != results[0].output:
            problems.append("stream 0: verified run disagrees with timed runs")
        return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        OptimizeLp39(),
        LerLp39(),
        StreamSurfaceD5(),
    )
}
