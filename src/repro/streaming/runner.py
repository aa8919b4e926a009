"""Paced streaming decode runs and their SLO reports.

:func:`stream_decode` is the serving-side counterpart of
:func:`repro.experiments.shotrunner.run_shot_chunks`: sample one packed
batch, then replay it through a :class:`~repro.streaming.rounds.RoundStream`
against the round clock — rounds *arrive* at ``rounds_per_sec`` (0 =
free-run) and each is pushed into a
:class:`~repro.streaming.window.WindowedDecoder`.  The figures of merit
are per-round latency (measured from scheduled arrival, so queueing
wait counts), sustained rounds/sec, deadline misses, and the maximum
backlog — backpressure is measured, never hidden.

Latency numbers keep the exact per-round list in the
:class:`StreamReport` (quantiles are exact); the ``stream.*`` obs
instruments carry the same signals into heartbeats/telemetry sidecars
in the usual log-bin form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import obs
from ..decoders.base import Decoder
from ..decoders.metrics import make_decoder
from ..sim.bitbatch import count_differing_shots
from ..sim.dem import DetectorErrorModel
from ..sim.sampler import DemSampler
from .rounds import RoundLayout, RoundStream
from .window import WindowConfig, WindowedDecoder

_ROUND_S = obs.histogram("stream.round_s")
_BACKLOG = obs.gauge("stream.backlog")
_ROUNDS = obs.counter("stream.rounds")
_MISSES = obs.counter("stream.deadline_misses")


@dataclass
class StreamReport:
    """What one streaming decode run measured."""

    shots: int
    rounds: int
    window_rounds: int
    commit_rounds: int
    round_latencies_s: list[float] = field(default_factory=list)
    commit_count: int = 0
    revised_shots: int = 0
    target_rounds_per_sec: float = 0.0
    deadline_s: float | None = None
    deadline_misses: int = 0
    max_backlog: int = 0
    failures: int = 0
    matches_offline: bool | None = None
    elapsed_s: float = 0.0

    def latency_percentile(self, q: float) -> float:
        """Exact per-round latency quantile (``q`` in [0, 1])."""
        if not self.round_latencies_s:
            return 0.0
        ordered = sorted(self.round_latencies_s)
        rank = min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))
        return ordered[rank]

    @property
    def p50_round_s(self) -> float:
        return self.latency_percentile(0.50)

    @property
    def p99_round_s(self) -> float:
        return self.latency_percentile(0.99)

    @property
    def max_round_s(self) -> float:
        return max(self.round_latencies_s, default=0.0)

    @property
    def rounds_per_sec(self) -> float:
        """Sustained processing rate over the whole stream."""
        return self.rounds / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        """The SLO report fields, JSON-safe (exact latency list elided)."""
        return {
            "shots": self.shots,
            "rounds": self.rounds,
            "window_rounds": self.window_rounds,
            "commit_rounds": self.commit_rounds,
            "p50_round_s": self.p50_round_s,
            "p99_round_s": self.p99_round_s,
            "max_round_s": self.max_round_s,
            "rounds_per_sec": self.rounds_per_sec,
            "target_rounds_per_sec": self.target_rounds_per_sec,
            "deadline_s": self.deadline_s,
            "deadline_misses": self.deadline_misses,
            "max_backlog": self.max_backlog,
            "commits": self.commit_count,
            "revised_shots": self.revised_shots,
            "failures": self.failures,
            "matches_offline": self.matches_offline,
            "elapsed_s": self.elapsed_s,
        }

    def slo_lines(self) -> list[str]:
        """Human-readable SLO report for the CLI."""
        pace = (
            f"{self.target_rounds_per_sec:g} rounds/s target"
            if self.target_rounds_per_sec > 0
            else "free-run"
        )
        deadline = (
            f"{self.deadline_s * 1e3:.2f} ms/round, "
            f"{self.deadline_misses} missed"
            if self.deadline_s is not None
            else "none"
        )
        lines = [
            f"stream        : {self.shots} shots x {self.rounds} rounds, "
            f"window {self.window_rounds} commit {self.commit_rounds} ({pace})",
            f"round latency : p50 {self.p50_round_s * 1e3:.3f} ms  "
            f"p99 {self.p99_round_s * 1e3:.3f} ms  "
            f"max {self.max_round_s * 1e3:.3f} ms",
            f"sustained     : {self.rounds_per_sec:.1f} rounds/s",
            f"deadline      : {deadline}",
            f"backlog max   : {self.max_backlog} rounds",
            f"commits       : {self.commit_count} "
            f"({self.revised_shots} shot corrections revised)",
            f"failures      : {self.failures} / {self.shots} shots",
        ]
        if self.matches_offline is not None:
            verdict = "yes" if self.matches_offline else "NO"
            lines.append(f"offline match : {verdict}")
        return lines


def stream_decode(
    dem: DetectorErrorModel,
    shots: int,
    basis: str = "z",
    decoder: str | Decoder = "auto",
    rng: np.random.Generator | None = None,
    window: WindowConfig | None = None,
    rounds_per_sec: float = 0.0,
    deadline_s: float | None = None,
    verify_offline: bool = True,
    sampler: DemSampler | None = None,
    layout: RoundLayout | None = None,
) -> StreamReport:
    """Run one paced sliding-window decode over freshly sampled shots.

    ``rounds_per_sec`` is the arrival clock: round ``i`` is *due* at
    ``t0 + i / rate`` and the runner sleeps until then when it is ahead
    (0 disables pacing — rounds arrive the instant the previous one is
    processed).  Per-round latency is completion minus scheduled
    arrival, so a decoder falling behind accumulates queueing delay
    exactly as a real front-end buffer would; backlog is how many
    due-but-unprocessed rounds were waiting when each round completed.

    ``deadline_s`` defaults to the round period when pacing is on
    (keeping up = meeting the clock); with free-run there is no
    deadline unless one is given.

    ``verify_offline`` additionally decodes the whole batch through
    the offline packed path and records whether the committed stream
    corrections are bit-identical — the invariant the property tests
    pin; benches switch it off to time the streaming leg alone.
    """
    window = window or WindowConfig()
    sampler = sampler or DemSampler(dem)
    dec = (
        decoder
        if isinstance(decoder, Decoder)
        else make_decoder(dem, basis, decoder)
    )
    layout = layout or RoundLayout.from_dem(dem)
    rate = max(0.0, float(rounds_per_sec))
    if deadline_s is None and rate > 0:
        deadline_s = 1.0 / rate
    report = StreamReport(
        shots=shots,
        rounds=layout.num_rounds,
        window_rounds=window.window_rounds,
        commit_rounds=window.commit_rounds,
        target_rounds_per_sec=rate,
        deadline_s=deadline_s,
    )
    with obs.span(
        "stream",
        shots=shots,
        rounds=layout.num_rounds,
        window=window.window_rounds,
        commit=window.commit_rounds,
    ) as sp:
        batch = sampler.sample_packed(shots, rng)
        stream = RoundStream(batch, layout)
        windowed = WindowedDecoder(
            decoder=dec, layout=layout, shots=shots, window=window
        )
        t0 = time.perf_counter()
        for rnd in stream:
            if rate > 0:
                # Paced arrival: round i is due at t0 + i/rate; latency
                # is completion minus the due time, so queueing delay
                # from earlier slow rounds carries forward.
                due = t0 + rnd.index / rate
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                windowed.push(rnd)
                done = time.perf_counter()
                latency = done - due
                arrived = min(layout.num_rounds, int((done - t0) * rate) + 1)
                backlog = max(0, arrived - (rnd.index + 1))
            else:
                # Free-run: each round arrives the instant the previous
                # finished; latency is pure processing time.
                start = time.perf_counter()
                windowed.push(rnd)
                latency = time.perf_counter() - start
                backlog = 0
            report.round_latencies_s.append(latency)
            report.max_backlog = max(report.max_backlog, backlog)
            _ROUND_S.record(latency)
            _BACKLOG.set(backlog)
            _ROUNDS.add()
            if deadline_s is not None and latency > deadline_s:
                report.deadline_misses += 1
                _MISSES.add()
        committed = windowed.finish()
        report.elapsed_s = time.perf_counter() - t0
        report.commit_count = len(windowed.commits)
        report.revised_shots = windowed.revised_shots
        # Shots whose committed correction mispredicts any observable.
        report.failures = count_differing_shots(
            committed.observables, batch.observables, batch.shots
        )
        if verify_offline:
            offline = dec.decode_batch_packed(batch)
            report.matches_offline = bool(
                np.array_equal(committed.observables, offline.observables)
            )
        sp.set(
            p99_round_s=report.p99_round_s,
            deadline_misses=report.deadline_misses,
            failures=report.failures,
        )
    return report


__all__ = ["StreamReport", "stream_decode"]
