"""Decoders (MWPM, BP+OSD, exact lookup) and the LER pipeline's DEM helpers."""

from .base import Decoder
from .bposd import BpOsdDecoder
from .lookup import LookupDecoder
from .matching import MatchingDecoder, detector_subset_for_basis
from .metrics import (
    LogicalErrorRate,
    MemoryResult,
    dem_for,
    make_decoder,
)
from .syncache import SyndromeCache

__all__ = [
    "Decoder",
    "SyndromeCache",
    "BpOsdDecoder",
    "LookupDecoder",
    "MatchingDecoder",
    "detector_subset_for_basis",
    "LogicalErrorRate",
    "MemoryResult",
    "dem_for",
    "make_decoder",
]
