"""Simulation substrate: DEM extraction, sampling, tableau verification."""

from .bitbatch import (
    BitSampleBatch,
    SampleBatch,
    pack_shots,
    scatter_unique,
    unique_shot_words,
    unpack_shots,
)
from .dem import DetectorErrorModel, ErrorMechanism, ErrorSource, extract_dem
from .frame import FrameSimulator
from .sampler import DemSampler
from .tableau import CircuitResult, TableauSimulator, verify_deterministic_detectors

__all__ = [
    "FrameSimulator",
    "DetectorErrorModel",
    "ErrorMechanism",
    "ErrorSource",
    "extract_dem",
    "DemSampler",
    "SampleBatch",
    "BitSampleBatch",
    "pack_shots",
    "unpack_shots",
    "unique_shot_words",
    "scatter_unique",
    "CircuitResult",
    "TableauSimulator",
    "verify_deterministic_detectors",
]
