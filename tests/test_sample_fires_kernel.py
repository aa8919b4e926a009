"""Both kernel backends draw the sampler's fires exactly as numpy does.

``repro.gf2.kernels.sample_fires(bit_generator, shots, counts)`` returns,
for each count ``c`` in order, ``choice(shots, size=c, replace=False)``
drawn from one generator.  The C kernel repeats numpy's draws instead of
calling ``choice``, so every case here checks three things against plain
``Generator.choice`` calls: the shot indices, their dtype, and the
generator's state afterwards.  The corpus covers both of numpy's paths
(Floyd's algorithm for populations up to 10,000 or samples up to 1/50 of
the population, a tail shuffle otherwise), sizes 0, 1, ``pop // 50``, one
above it and ``pop``, populations 1, 10,000 and 10,001, Floyd collisions,
redrawn bounded draws,
an empty count list, and the four bit generators numpy ships.  On top of
the kernel, sampled batches must not depend on the backend, and
``sample_dense`` must still equal ``sample_packed``.
"""

import numpy as np
import pytest

from repro import obs
from repro.gf2 import kernels
from repro.sim import DemSampler
from repro.sim.dem import DetectorErrorModel, ErrorMechanism

BACKENDS = kernels.available_backends()
BIT_GENERATORS = (np.random.PCG64, np.random.Philox, np.random.SFC64, np.random.MT19937)

# (population, sizes), one kernel call each.  Sizes at pop // 50 and one
# above it straddle numpy's cut between the two paths; above 10,000 the
# larger ones take the tail path.  A sample of the whole population ends
# in draws that are certain to collide with Floyd's earlier picks.  A
# bounded draw in [0, j] is redrawn with probability below j / 2**32, so
# the last two cases (Floyd, then the tail path) draw enough large
# bounds that every generator redraws many times.
CORPUS = [
    (1, [1]),
    (1, [0, 1, 0]),
    (2, [2, 1, 2]),
    (8, [8, 7, 8, 1]),
    (100, [2, 3, 100, 99]),
    (4096, [1, 81, 82, 4096]),
    (10000, [0, 1, 200, 201, 10000]),
    (10001, [0, 1, 200, 201, 10001]),
    (10001, [10000, 5001]),
    (50000, [1000, 1001, 3]),
    (2_000_000, [40_000]),
    (400_000, [400_000]),
]


@pytest.fixture(params=BACKENDS)
def backend(request):
    with kernels.use_backend(request.param):
        yield request.param


def _choice_oracle(bit_generator, shots, counts):
    rng = np.random.Generator(bit_generator)
    rows = [rng.choice(shots, size=c, replace=False) for c in counts]
    return np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)


def _same_state(a, b) -> bool:
    """Deep equality of two ``BitGenerator.state`` dicts (MT19937's key
    is an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _assert_matches_choice(make_bits, shots, counts):
    got_bits, want_bits = make_bits(), make_bits()
    got = kernels.sample_fires(got_bits, shots, np.array(counts, dtype=np.int64))
    want = _choice_oracle(want_bits, shots, counts)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert _same_state(got_bits.state, want_bits.state)
    # Nothing is left half-drawn: the next raw words agree too.
    assert np.array_equal(got_bits.random_raw(3), want_bits.random_raw(3))


class TestMatchesChoice:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    @pytest.mark.parametrize("shots,counts", CORPUS)
    def test_corpus(self, backend, bit_generator, shots, counts):
        _assert_matches_choice(lambda: bit_generator(shots), shots, counts)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_no_mechanism_fires(self, backend, bit_generator):
        bits = bit_generator(7)
        before = bits.state
        got = kernels.sample_fires(bits, 4096, np.zeros(0, dtype=np.int64))
        assert got.dtype == np.int64 and got.shape == (0,)
        assert _same_state(bits.state, before)

    def test_random_sweep(self, backend):
        rng = np.random.default_rng(2024)
        for trial in range(60):
            shots = int(rng.choice([3, 64, 999, 10000, 10001, 12345]))
            counts = rng.integers(0, shots + 1, size=int(rng.integers(1, 5)))
            counts[rng.random(len(counts)) < 0.5] //= 60
            _assert_matches_choice(
                lambda: np.random.PCG64(trial), shots, counts.tolist()
            )

    def test_partly_drawn_32_bit_buffer(self, backend):
        """PCG64 hands out 32-bit draws in halves of a 64-bit word; a
        generator caught between the halves must continue the same way."""

        def half_drawn():
            bits = np.random.PCG64(5)
            np.random.Generator(bits).integers(0, 7, dtype=np.uint32)
            return bits

        _assert_matches_choice(half_drawn, 500, [3, 499, 17])

    @pytest.mark.parametrize("counts", [[5, -1], [3, 65]])
    def test_rejects_counts_outside_the_population(self, backend, counts):
        with pytest.raises(ValueError):
            kernels.sample_fires(np.random.PCG64(0), 64, np.array(counts))


def _hand_dem() -> DetectorErrorModel:
    """Four detectors, one observable, probabilities from rare to one in
    two, so that 10,001-shot batches take the tail path."""
    probs = (0.001, 0.03, 0.3, 0.5, 0.02)
    supports = ((0,), (0, 1), (1, 2), (2, 3), (3,))
    mechanisms = [
        ErrorMechanism(
            prob=p, detectors=d, observables=(0,) if i == 4 else (), sources=()
        )
        for i, (p, d) in enumerate(zip(probs, supports))
    ]
    return DetectorErrorModel.from_mechanisms(mechanisms, 4, 1)


class TestSampler:
    @pytest.mark.parametrize("shots", [0, 1, 64, 4096, 10001])
    def test_batches_do_not_depend_on_the_backend(self, shots):
        sampler = DemSampler(_hand_dem())
        batches = []
        for name in BACKENDS:
            with kernels.use_backend(name):
                rng = np.random.default_rng(shots)
                batch = sampler.sample_packed(shots, rng)
                batches.append(
                    (
                        batch.detectors.tobytes(),
                        batch.observables.tobytes(),
                        rng.bit_generator.state,
                    )
                )
        assert all(b == batches[0] for b in batches)

    @pytest.mark.parametrize("shots", [1, 200, 10001])
    def test_dense_equals_packed(self, backend, shots):
        sampler = DemSampler(_hand_dem())
        packed = sampler.sample_packed(shots, np.random.default_rng(9)).to_dense()
        dense = sampler.sample_dense(shots, np.random.default_rng(9))
        assert np.array_equal(packed.detectors, dense.detectors)
        assert np.array_equal(packed.observables, dense.observables)

    def test_counted_once_per_batch(self, backend):
        sampler = DemSampler(_hand_dem())
        calls = obs.counter("kernel.sample_fires")
        with obs.enabled_to(True):
            before = calls.value
            sampler.sample_packed(128, np.random.default_rng(1))
            assert calls.value == before + 1
