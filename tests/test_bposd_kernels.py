"""Both kernel backends run BP+OSD byte for byte alike.

``repro.gf2.kernels`` has a numpy reference and a C implementation of
BP+OSD's two loops: min-sum BP (``bp_min_sum``) and the OSD column basis
(``osd_basis``).  Every test here runs the same input through both and
asserts byte-equal outputs: posteriors, converged flags, decisions, the
basis and the OSD error vector.  The corpus covers sampled lp39 and
surface_d5 syndromes (converged and OSD cases), ``max_iterations`` 0 and
1, a mechanism no detector sees, a rank-deficient H, an inconsistent
syndrome, tied posteriors and OSD-CS.
"""

import numpy as np
import pytest

from repro.circuits import coloration_schedule, nz_schedule
from repro.codes import load_benchmark_code
from repro.decoders import BpOsdDecoder
from repro.decoders.metrics import dem_for
from repro.gf2 import BitMatrix, kernels
from repro.noise import NoiseModel
from repro.sim import DemSampler
from repro.sim.dem import DetectorErrorModel, ErrorMechanism

pytestmark = pytest.mark.skipif(
    "cnative" not in kernels.available_backends(),
    reason="the native kernels do not build here",
)

BACKENDS = ("numpy", "cnative")


def _mechanism(prob, detectors, observables=()):
    return ErrorMechanism(
        prob=prob,
        detectors=tuple(detectors),
        observables=tuple(observables),
        sources=(),
    )


@pytest.fixture(scope="module")
def lp_dem():
    code = load_benchmark_code("lp39")
    return dem_for(
        code, coloration_schedule(code), NoiseModel(p=1e-3), basis="z", rounds=2
    )


@pytest.fixture(scope="module")
def surface_dem():
    code = load_benchmark_code("surface_d5")
    return dem_for(code, nz_schedule(code), NoiseModel(p=3e-3), basis="z")


@pytest.fixture(scope="module")
def deficient_dem():
    """Detectors 2 and 3 are flipped by the same mechanisms, so H has
    rank 3 of 4; the last mechanism flips only the observable."""
    mechanisms = [
        _mechanism(0.01, (0,)),
        _mechanism(0.02, (0, 1)),
        _mechanism(0.01, (1, 2, 3), (0,)),
        _mechanism(0.03, (2, 3)),
        _mechanism(0.01, (1,)),
        _mechanism(0.02, (), (0,)),
    ]
    return DetectorErrorModel.from_mechanisms(mechanisms, 4, 1)


def _syndromes(dem, shots, seed):
    """Distinct nonzero sampled syndromes plus a few random ones."""
    rng = np.random.default_rng(seed)
    sampled = DemSampler(dem).sample(shots, rng).detectors.astype(np.uint8)
    sampled = np.unique(sampled[sampled.any(axis=1)], axis=0)
    noise = (rng.random((4, dem.num_detectors)) < 0.05).astype(np.uint8)
    return np.concatenate([sampled, noise])


def _per_backend(fn):
    out = []
    for name in BACKENDS:
        with kernels.use_backend(name):
            out.append(fn())
    return out


def _assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("iterations", [0, 1, 30])
@pytest.mark.parametrize("which", ["lp", "surface", "deficient"])
def test_bp_backends_agree(which, iterations, lp_dem, surface_dem, deficient_dem):
    dem = {"lp": lp_dem, "surface": surface_dem, "deficient": deficient_dem}[which]
    syndromes = _syndromes(dem, 600, seed=3)
    dec = BpOsdDecoder(dem, max_iterations=iterations)
    numpy_out, native_out = _per_backend(lambda: dec._bp(syndromes))
    _assert_same_arrays(native_out, numpy_out)
    decisions, converged, posterior = numpy_out
    assert posterior.dtype == np.float32
    if iterations == 0:
        assert not converged.any() and not decisions.any()
        assert np.array_equal(posterior[0], dec.graph.prior)
    if iterations == 30 and which != "deficient":
        # The corpus holds both BP successes and OSD cases.
        assert converged.any() and not converged.all()


@pytest.mark.parametrize("osd_order", [0, 6])
@pytest.mark.parametrize("which", ["lp", "surface"])
def test_osd_backends_agree_on_bp_failures(which, osd_order, lp_dem, surface_dem):
    dem = {"lp": lp_dem, "surface": surface_dem}[which]
    syndromes = _syndromes(dem, 4000, seed=5)
    dec = BpOsdDecoder(dem, osd_order=osd_order)
    _, converged, posterior = dec._bp(syndromes)
    failed = np.nonzero(~converged)[0][:25]
    assert failed.size > 0

    def solve():
        fresh = BpOsdDecoder(dem, osd_order=osd_order)
        return [fresh._osd(syndromes[j], posterior[j]) for j in failed]

    numpy_es, native_es = _per_backend(solve)
    _assert_same_arrays(native_es, numpy_es)
    h = dec.h.toarray()
    for j, e in zip(failed, numpy_es):
        assert np.array_equal(h.dot(e) % 2, syndromes[j])


def test_osd_basis_fields_agree(lp_dem):
    """The basis itself, not only the decoded vector: pivots, solution,
    the first free columns and their pivot sums, with and without the
    rank(H) stop."""
    dec = BpOsdDecoder(lp_dem)
    syndrome = _syndromes(lp_dem, 2000, seed=9)[0]
    dec._osd(syndrome, dec.prior_llr)  # builds the packed columns and rank
    order = np.random.default_rng(1).permutation(lp_dem.num_errors)
    for rank in (None, dec._rank):
        numpy_basis, native_basis = _per_backend(
            lambda: kernels.osd_basis(
                dec._h_cols, lp_dem.num_detectors, order, syndrome, rank, 6
            )
        )
        _assert_same_arrays(native_basis, numpy_basis)
        assert len(numpy_basis.free) == 6
        assert numpy_basis.combos.shape == (6, dec._rank)


def test_rank_is_computed_lazily_and_matches_bitmatrix(deficient_dem):
    dec = BpOsdDecoder(deficient_dem)
    assert dec._rank is None and dec._h_cols is None
    dec._osd(np.array([1, 0, 0, 0], dtype=np.uint8), dec.prior_llr)
    assert dec._rank == BitMatrix.from_dense(dec.h.toarray()).rank() == 3


@pytest.mark.parametrize(
    "syndrome, consistent",
    # Detectors 2 and 3 always flip together, so only syndromes with
    # equal bits there have a solution.
    [((0, 0, 1, 0), False), ((0, 1, 1, 1), True), ((1, 0, 1, 1), True)],
)
def test_rank_deficient_osd_agrees(deficient_dem, syndrome, consistent):
    syndrome = np.array(syndrome, dtype=np.uint8)
    posterior = BpOsdDecoder(deficient_dem).prior_llr.astype(np.float32)
    order = np.arange(deficient_dem.num_errors)

    def solve():
        dec = BpOsdDecoder(deficient_dem, osd_order=6)
        e = dec._osd(syndrome, posterior)
        return e, kernels.osd_basis(dec._h_cols, 4, order, syndrome, 3, 6)

    (numpy_e, numpy_basis), (native_e, native_basis) = _per_backend(solve)
    _assert_same_arrays(native_basis, numpy_basis)
    assert np.array_equal(numpy_e, native_e)
    assert (numpy_basis.solution is not None) == consistent
    if consistent:
        assert np.array_equal(deficient_dem.check_matrices()[0] @ numpy_e % 2, syndrome)
    else:
        assert not numpy_e.any()


def test_tied_posteriors_take_columns_in_index_order(surface_dem):
    """OSD orders equal posteriors by column index (a stable sort), so
    its column order does not depend on the CPU's sort kernel."""
    syndrome = _syndromes(surface_dem, 2000, seed=2)[0]
    levels = np.float32([-1.5, 2.0, 7.25])
    posterior = levels[np.arange(surface_dem.num_errors) % 3]

    def solve():
        dec = BpOsdDecoder(surface_dem)
        e = dec._osd(syndrome, posterior)
        order = np.argsort(posterior, kind="stable")
        basis = kernels.osd_basis(
            dec._h_cols, surface_dem.num_detectors, order, syndrome, dec._rank, 0
        )
        want = np.zeros_like(e)
        want[order[basis.pivots]] = basis.solution
        return e, want

    (numpy_e, numpy_want), (native_e, native_want) = _per_backend(solve)
    assert np.array_equal(numpy_e, numpy_want)
    assert np.array_equal(native_e, native_want)
    assert np.array_equal(numpy_e, native_e)


def test_decode_batch_agrees(lp_dem):
    batch = DemSampler(lp_dem).sample(512, np.random.default_rng(4))
    numpy_out, native_out = _per_backend(
        lambda: BpOsdDecoder(lp_dem).decode_batch(batch.detectors)
    )
    assert np.array_equal(numpy_out, native_out)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("syndrome_bit", [0, 1])
def test_wide_tie_count_at_the_row_minimum(backend, syndrome_bit):
    """One detector seen by 257 equal-probability mechanisms (and one
    rarer one): all 257 edges tie at the row minimum.  A tie count kept
    in 8 bits wraps to 1 and hands those edges the second minimum
    instead of the minimum over their other edges."""
    dem = DetectorErrorModel.from_mechanisms(
        [_mechanism(0.01, (0,)) for _ in range(257)] + [_mechanism(0.001, (0,))],
        1,
        0,
    )
    dec = BpOsdDecoder(dem, max_iterations=1)
    with kernels.use_backend(backend):
        _, _, posterior = dec._bp(np.array([[syndrome_bit]], dtype=np.uint8))
    # Reference: each edge's check message from the minimum over the
    # row's other edges, with the kernels' float32/float64 steps.
    prior = dec.graph.prior
    mags = np.abs(prior).astype(np.float64)
    sign = -1.0 if syndrome_bit else 1.0
    expected = np.empty_like(prior)
    for col in range(dem.num_errors):
        other = min(np.delete(mags, col).min(), 25.0)
        c2v = np.float64(np.float32(0.8)) * other * sign
        expected[col] = prior[col] + np.float32(c2v)
    assert posterior[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_column_sum_follows_numpy_pairwise_order(backend):
    """numpy sums a column's messages as the first plus the pairwise sum
    of the rest: c0 + (c1 + c2), not (c0 + c1) + c2.  The two orders
    rarely differ once cast to float32; these priors (found by search)
    make them differ in column 0's posterior after one iteration."""
    prior = np.float32([0.00015644815, 0.00019651184, 18.677338, 18.675581])
    graph = kernels.TannerGraph.from_edges(
        np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 0, 2, 0, 3]), 3, prior
    )
    scale = np.float64(np.float32(0.8))
    c0, c1, c2 = scale * np.float64(prior[1:]) * np.array([1.0, 1.0, -1.0])
    pairwise = prior[0] + np.float32(c0 + (c1 + c2))
    assert pairwise != prior[0] + np.float32((c0 + c1) + c2)
    with kernels.use_backend(backend):
        _, _, posterior = kernels.bp_min_sum(graph, np.array([[0, 0, 1]], np.uint8), 1)
    assert posterior[0, 0] == pairwise
