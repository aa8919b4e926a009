"""The logical-error-rate pipeline's decoder-side pieces.

Build the memory experiment for a (code, schedule, basis), apply the
noise model and extract the DEM (:func:`dem_for`); pick a decoder
(:func:`make_decoder`); hold per-basis and combined results.  The paper's
reported logical error rates "include both logical X and Z error rates"
(§6.1): both memory bases are simulated and combined as independent
failure modes.  The shot loop that fills these results is
:func:`repro.experiments.shotrunner.estimate_logical_error_rate`.

The sample→decode→count loop is packed end to end: chunks are sampled
bit-packed (:meth:`~repro.sim.sampler.DemSampler.sample_packed`),
decoded with unique-syndrome batching
(:meth:`~repro.decoders.base.Decoder.decode_batch_packed`), and
mispredictions are counted by XOR/popcount
(:meth:`~repro.decoders.base.Decoder.count_failures_packed`) — no dense
``(shots, num_detectors)`` array exists anywhere on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.stats import RateEstimate
from ..circuits.builder import build_memory_experiment
from ..circuits.schedule import Schedule
from ..codes.css import CSSCode
from ..noise.model import NoiseModel
from ..noise.spec import NoiseSpec
from ..sim.dem import DetectorErrorModel, extract_dem
from .base import Decoder
from .bposd import BpOsdDecoder
from .matching import MatchingDecoder, detector_subset_for_basis


def dem_for(
    code: CSSCode,
    schedule: Schedule,
    noise: NoiseModel | NoiseSpec,
    basis: str = "z",
    rounds: int | None = None,
) -> DetectorErrorModel:
    """Build + noise + extract in one call (rounds defaults to the code
    distance, the paper's convention).

    ``noise`` is anything with the ``apply(circuit)`` contract: the
    two-knob :class:`~repro.noise.model.NoiseModel` or a full
    :class:`~repro.noise.spec.NoiseSpec` scenario.
    """
    if rounds is None:
        rounds = code.distance or 3
    experiment = build_memory_experiment(code, schedule, rounds=rounds, basis=basis)
    return extract_dem(noise.apply(experiment.circuit))


def make_decoder(dem: DetectorErrorModel, basis: str, kind: str = "auto") -> Decoder:
    """Choose a decoder: matching for graph-like DEMs, BP+OSD otherwise."""
    if kind == "bposd":
        return BpOsdDecoder(dem)
    if kind in ("auto", "matching"):
        subset = detector_subset_for_basis(dem, basis)
        try:
            return MatchingDecoder(dem, detector_subset=subset)
        except ValueError:
            if kind == "matching":
                raise
            return BpOsdDecoder(dem)
    raise ValueError(f"unknown decoder kind {kind!r}")


@dataclass
class MemoryResult:
    """Per-basis logical error estimate."""

    basis: str
    estimate: RateEstimate
    dem: DetectorErrorModel


@dataclass
class LogicalErrorRate:
    """Combined X/Z logical error rate for one (code, schedule, p)."""

    code_name: str
    p: float
    per_basis: dict[str, MemoryResult]

    @property
    def rate(self) -> float:
        rates = [r.estimate.rate for r in self.per_basis.values()]
        combined = 1.0
        for r in rates:
            combined *= 1.0 - r
        return 1.0 - combined

    @property
    def shots(self) -> int:
        return min(r.estimate.shots for r in self.per_basis.values())

    def __repr__(self) -> str:
        return (
            f"LogicalErrorRate({self.code_name}, p={self.p:g}, "
            f"rate={self.rate:.3e})"
        )

