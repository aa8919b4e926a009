"""Packed-native decoding must be bit-identical to the dense reference.

Three layers of cross-checks, in the spirit of the TransForm-style
litmus-test methodology: a hypothesis property test over random DEMs and
word-boundary shot counts, randomized checks on real circuit-level DEMs
for all three decoders, and the degenerate ``num_detectors == 0`` edge
case that used to crash BP+OSD and must now count failures exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, coloration_schedule, nz_schedule
from repro.codes import load_benchmark_code, rotated_surface_code
from repro.decoders import (
    BpOsdDecoder,
    LookupDecoder,
    MatchingDecoder,
    detector_subset_for_basis,
)
from repro.decoders.metrics import dem_for
from repro.noise import NoiseModel
from repro.sim import DemSampler, extract_dem
from repro.sim.bitbatch import unpack_shots
from repro.sim.dem import DetectorErrorModel, ErrorMechanism


def assert_packed_matches_dense(dem, decoder, shots, rng):
    """The contract: decode_batch_packed ≡ decode_batch, bit for bit."""
    batch = DemSampler(dem).sample_packed(shots, rng)
    want = decoder.decode_batch(batch.detectors_dense())
    predicted = decoder.decode_batch_packed(batch)
    got = unpack_shots(predicted.observables, shots)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    # Packed prediction words must keep the tail-bit invariant, or the
    # popcount in count_failures_packed would drift.
    assert predicted.shots == shots
    tail = shots % 64
    if tail:
        mask = ~((np.uint64(1) << np.uint64(tail)) - np.uint64(1))
        assert not (predicted.observables[:, -1] & mask).any()
    assert decoder.count_failures_packed(batch) == decoder.count_failures_dense(
        batch
    )


# -- hypothesis property test -------------------------------------------------


@st.composite
def random_dems(draw):
    """Small random DEMs that every decoder family accepts.

    Graph-like (each mechanism flips <= 2 detectors, so MatchingDecoder
    works), every detector covered (BpOsdDecoder's requirement), and few
    enough mechanisms for exact lookup.
    """
    num_detectors = draw(st.integers(min_value=1, max_value=5))
    num_observables = draw(st.integers(min_value=1, max_value=2))
    num_extra = draw(st.integers(min_value=1, max_value=6))
    mechanisms = []
    # Cover every detector with a single-detector mechanism.
    for d in range(num_detectors):
        prob = draw(st.floats(min_value=0.01, max_value=0.3))
        obs = draw(st.sets(st.integers(0, num_observables - 1), max_size=1))
        mechanisms.append(
            ErrorMechanism(
                prob=prob,
                detectors=(d,),
                observables=tuple(sorted(obs)),
                sources=(),
            )
        )
    for _ in range(num_extra):
        prob = draw(st.floats(min_value=0.01, max_value=0.3))
        dets = draw(
            st.sets(st.integers(0, num_detectors - 1), min_size=0, max_size=2)
        )
        obs = draw(st.sets(st.integers(0, num_observables - 1), max_size=1))
        mechanisms.append(
            ErrorMechanism(
                prob=prob,
                detectors=tuple(sorted(dets)),
                observables=tuple(sorted(obs)),
                sources=(),
            )
        )
    return DetectorErrorModel.from_mechanisms(
        mechanisms=mechanisms,
        num_detectors=num_detectors,
        num_observables=num_observables,
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    dem=random_dems(),
    shots=st.sampled_from([1, 63, 64, 65, 200]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_packed_equals_dense_property(dem, shots, seed):
    """All three decoder families agree with their dense selves on random
    DEMs, including shot counts straddling the 64-bit word boundary."""
    rng = np.random.default_rng(seed)
    decoders = [
        LookupDecoder(dem),
        MatchingDecoder(dem),
        BpOsdDecoder(dem),
    ]
    for dec in decoders:
        assert_packed_matches_dense(
            dem, dec, shots, np.random.default_rng(rng.integers(2**63))
        )


# -- randomized cross-checks on real DEMs -------------------------------------


@pytest.fixture(scope="module")
def surface_dem():
    code = rotated_surface_code(3)
    return dem_for(code, nz_schedule(code), NoiseModel(p=3e-3), basis="z", rounds=3)


@pytest.fixture(scope="module")
def lp_dem():
    code = load_benchmark_code("lp39")
    return dem_for(
        code, coloration_schedule(code), NoiseModel(p=1e-3), basis="z", rounds=2
    )


@pytest.mark.parametrize("shots", [1, 63, 64, 65, 2000])
def test_matching_packed_equals_dense_surface(surface_dem, shots):
    dec = MatchingDecoder(
        surface_dem, detector_subset_for_basis(surface_dem, "z")
    )
    assert_packed_matches_dense(surface_dem, dec, shots, np.random.default_rng(shots))


@pytest.mark.parametrize("shots", [1, 63, 64, 65, 500])
def test_bposd_packed_equals_dense_lp39(lp_dem, shots):
    dec = BpOsdDecoder(lp_dem)
    assert_packed_matches_dense(lp_dem, dec, shots, np.random.default_rng(shots))


def test_lookup_packed_equals_dense_tiny():
    c = Circuit()
    c.append("R", [0, 1, 2])
    c.append("DEPOLARIZE1", [0, 1, 2], args=[0.05])
    c.append("CNOT", [0, 2])
    c.append("CNOT", [1, 2])
    c.append("M", [0, 1, 2])
    c.append("DETECTOR", [2])
    c.append("OBSERVABLE_INCLUDE", [0], args=[0])
    dem = extract_dem(c)
    dec = LookupDecoder(dem)
    for shots in (1, 63, 64, 65, 3000):
        assert_packed_matches_dense(dem, dec, shots, np.random.default_rng(shots))


def test_matching_packed_reuses_cache_across_batches(surface_dem):
    """Repeated packed decodes are consistent (warm-cache path)."""
    dec = MatchingDecoder(
        surface_dem, detector_subset_for_basis(surface_dem, "z")
    )
    batch = DemSampler(surface_dem).sample_packed(1000, np.random.default_rng(7))
    first = dec.decode_batch_packed(batch).observables
    second = dec.decode_batch_packed(batch).observables
    assert np.array_equal(first, second)
    assert_packed_matches_dense(surface_dem, dec, 1000, np.random.default_rng(7))


# -- degenerate empty-detector DEMs ------------------------------------------


def _empty_detector_dem(prob: float = 0.49) -> DetectorErrorModel:
    """A DEM whose single mechanism flips an observable but no detector."""
    return DetectorErrorModel.from_mechanisms(
        mechanisms=[
            ErrorMechanism(prob=prob, detectors=(), observables=(0,), sources=())
        ],
        num_detectors=0,
        num_observables=1,
    )


@pytest.mark.parametrize(
    "make",
    [LookupDecoder, MatchingDecoder, BpOsdDecoder],
    ids=["lookup", "matching", "bposd"],
)
@pytest.mark.parametrize("shots", [1, 63, 64, 65, 100])
def test_empty_detector_dem_counts_exactly(make, shots):
    """num_detectors == 0 batches must decode and count, not crash or
    miscount (BP+OSD used to die in its segment reductions here)."""
    dem = _empty_detector_dem()
    dec = make(dem)
    batch = DemSampler(dem).sample_packed(shots, np.random.default_rng(shots))
    dense = batch.to_dense()
    want = int(
        (dec.decode_batch(dense.detectors) != dense.observables).any(axis=1).sum()
    )
    assert dec.count_failures_packed(batch) == want
    assert dec.count_failures_dense(batch) == want


def test_empty_detector_dem_nonzero_prediction_broadcasts():
    """An MLE decoder may predict a flip for the empty syndrome; the
    packed broadcast must honor it (and keep tail bits zero)."""
    dem = _empty_detector_dem(prob=0.6)  # flip is now the likelier outcome

    class ConstantDecoder(LookupDecoder):
        def decode_batch(self, detectors):
            out = np.ones((detectors.shape[0], 1), dtype=np.uint8)
            return out

    dec = ConstantDecoder(dem)
    shots = 70
    batch = DemSampler(dem).sample_packed(shots, np.random.default_rng(3))
    predicted = dec.decode_batch_packed(batch)
    got = unpack_shots(predicted.observables, shots)
    assert got.all()
    tail_mask = ~((np.uint64(1) << np.uint64(shots % 64)) - np.uint64(1))
    assert not (predicted.observables[:, -1] & tail_mask).any()


def test_zero_observable_batch_counts_zero(surface_dem):
    dec = MatchingDecoder(
        surface_dem, detector_subset_for_basis(surface_dem, "z")
    )
    batch = DemSampler(surface_dem).sample_packed(100, np.random.default_rng(0))
    stripped = type(batch)(
        detectors=batch.detectors,
        observables=np.zeros((0, batch.num_words), dtype=np.uint64),
        shots=batch.shots,
    )
    assert dec.count_failures_packed(stripped) == 0
