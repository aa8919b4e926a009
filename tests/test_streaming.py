"""Sliding-window streaming decode: correctness and SLO accounting.

The load-bearing invariant: committed corrections out of
``WindowedDecoder`` are **bit-identical** to offline
``decode_batch_packed`` on the same shots — for all three decoder
families, any window/commit schedule, and shot counts straddling the
64-bit word boundary (the sub-word edges 1/63/64/65).  On top of that,
round-layout derivation from DEM labels, stream/report accounting
(latency lists, deadline misses, backlog), and the obs instruments.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits import Circuit, coloration_schedule
from repro.circuits.builder import FINAL_ROUND
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
from repro.sim.dem import DetectorErrorModel, ErrorMechanism
from repro.streaming import (
    RoundLayout,
    RoundStream,
    StreamReport,
    WindowConfig,
    WindowedDecoder,
    stream_decode,
)

SUBWORD_SHOTS = (1, 63, 64, 65)


@pytest.fixture(scope="module")
def surface_dem():
    code = rotated_surface_code(3)
    return dem_for(
        code, coloration_schedule(code), NoiseModel(p=3e-3), basis="z", rounds=3
    )


@pytest.fixture(scope="module")
def tiny_dem():
    """A DEM small enough for the exact lookup decoder."""
    c = Circuit()
    c.append("R", [0, 1, 2])
    c.append("DEPOLARIZE1", [0, 1, 2], args=[0.05])
    c.append("CNOT", [0, 2])
    c.append("CNOT", [1, 2])
    c.append("DEPOLARIZE1", [0, 1, 2], args=[0.05])
    c.append("M", [0, 1, 2])
    c.append("DETECTOR", [2])
    c.append("OBSERVABLE_INCLUDE", [0], args=[0])
    c.append("OBSERVABLE_INCLUDE", [1], args=[0])
    return extract_dem(c)


def windowed_corrections(dem, dec, batch, window, layout=None):
    layout = layout or RoundLayout.from_dem(dem)
    wd = WindowedDecoder(
        decoder=dec, layout=layout, shots=batch.shots, window=window
    )
    commits = [wd.push(rnd) for rnd in RoundStream(batch, layout)]
    committed = wd.finish()
    return committed, [c for c in commits if c is not None], wd


# -- round layout -------------------------------------------------------------


class TestRoundLayout:
    def test_from_dem_groups_by_label_round(self, surface_dem):
        layout = RoundLayout.from_dem(surface_dem)
        # 3 measurement rounds + the final data-parity group.
        assert layout.num_rounds == 4
        # Slices are contiguous and cover every detector exactly once.
        assert layout.slices[0][0] == 0
        for (_, stop), (start, _) in zip(layout.slices, layout.slices[1:]):
            assert stop == start
        assert layout.slices[-1][1] == surface_dem.num_detectors
        # The closing slice is the FINAL_ROUND data-parity group.
        start, _ = layout.slices[-1]
        assert surface_dem.detector_labels[start][0] == FINAL_ROUND

    def test_unlabeled_dem_falls_back_to_per_detector(self):
        dem = DetectorErrorModel.from_mechanisms(
            mechanisms=[
                ErrorMechanism(
                    prob=0.1, detectors=(d,), observables=(0,), sources=()
                )
                for d in range(5)
            ],
            num_detectors=5,
            num_observables=1,
        )
        layout = RoundLayout.from_dem(dem)
        assert layout.num_rounds == 5
        assert layout.slices == tuple((i, i + 1) for i in range(5))

    def test_even_split_covers_everything(self):
        layout = RoundLayout.even(10, 4)
        assert layout.num_rounds == 4
        assert layout.slices[0][0] == 0
        assert layout.slices[-1][1] == 10
        assert sum(stop - start for start, stop in layout.slices) == 10

    def test_even_rejects_nonpositive_rounds(self):
        with pytest.raises(ValueError):
            RoundLayout.even(10, 0)

    def test_stream_rejects_mismatched_layout(self, surface_dem):
        batch = DemSampler(surface_dem).sample_packed(
            8, np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="detectors"):
            RoundStream(batch, RoundLayout.per_detector(3))


# -- window/commit schedule validation ---------------------------------------


class TestWindowConfig:
    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            WindowConfig(window_rounds=0)

    @pytest.mark.parametrize("commit", [0, 4])
    def test_rejects_commit_outside_window(self, commit):
        with pytest.raises(ValueError):
            WindowConfig(window_rounds=3, commit_rounds=commit)

    def test_push_out_of_order_rejected(self, surface_dem):
        layout = RoundLayout.from_dem(surface_dem)
        batch = DemSampler(surface_dem).sample_packed(
            8, np.random.default_rng(0)
        )
        stream = RoundStream(batch, layout)
        dec = MatchingDecoder(
            surface_dem, detector_subset_for_basis(surface_dem, "z")
        )
        wd = WindowedDecoder(decoder=dec, layout=layout, shots=8)
        with pytest.raises(ValueError, match="order"):
            wd.push(stream.round(1))

    def test_finish_before_stream_end_rejected(self, surface_dem):
        layout = RoundLayout.from_dem(surface_dem)
        batch = DemSampler(surface_dem).sample_packed(
            8, np.random.default_rng(0)
        )
        dec = MatchingDecoder(
            surface_dem, detector_subset_for_basis(surface_dem, "z")
        )
        wd = WindowedDecoder(decoder=dec, layout=layout, shots=8)
        wd.push(RoundStream(batch, layout).round(0))
        with pytest.raises(ValueError, match="finish"):
            wd.finish()


# -- the pinned invariant: committed ≡ offline decode_batch_packed ------------


class TestBitIdentity:
    @pytest.mark.parametrize("shots", [*SUBWORD_SHOTS, 200])
    @pytest.mark.parametrize(
        "window", [(1, 1), (2, 1), (3, 2), (4, 4)], ids=lambda w: f"w{w[0]}c{w[1]}"
    )
    def test_matching_surface(self, surface_dem, shots, window):
        dec = MatchingDecoder(
            surface_dem, detector_subset_for_basis(surface_dem, "z")
        )
        batch = DemSampler(surface_dem).sample_packed(
            shots, np.random.default_rng(shots * 7 + window[0])
        )
        committed, commits, _ = windowed_corrections(
            surface_dem, dec, batch, WindowConfig(*window)
        )
        offline = dec.decode_batch_packed(batch)
        assert np.array_equal(committed.observables, offline.observables)
        assert commits, "window must have committed at least once via push"

    @pytest.mark.parametrize("shots", SUBWORD_SHOTS)
    def test_bposd_surface(self, surface_dem, shots):
        dec = BpOsdDecoder(surface_dem)
        batch = DemSampler(surface_dem).sample_packed(
            shots, np.random.default_rng(shots)
        )
        committed, _, _ = windowed_corrections(
            surface_dem, dec, batch, WindowConfig(2, 1)
        )
        offline = dec.decode_batch_packed(batch)
        assert np.array_equal(committed.observables, offline.observables)

    @pytest.mark.parametrize("shots", SUBWORD_SHOTS)
    def test_lookup_tiny(self, tiny_dem, shots):
        dec = LookupDecoder(tiny_dem)
        batch = DemSampler(tiny_dem).sample_packed(
            shots, np.random.default_rng(shots + 1)
        )
        committed, _, _ = windowed_corrections(
            tiny_dem, dec, batch, WindowConfig(1, 1)
        )
        offline = dec.decode_batch_packed(batch)
        assert np.array_equal(committed.observables, offline.observables)

    def test_revisions_are_counted_not_hidden(self, surface_dem):
        """Single-round commits at real noise revise some speculative
        corrections; the counter must see every changed shot."""
        dec = MatchingDecoder(
            surface_dem, detector_subset_for_basis(surface_dem, "z")
        )
        batch = DemSampler(surface_dem).sample_packed(
            2000, np.random.default_rng(5)
        )
        committed, commits, wd = windowed_corrections(
            surface_dem, dec, batch, WindowConfig(1, 1)
        )
        assert wd.revised_shots == sum(c.revised_shots for c in commits)
        assert np.array_equal(
            committed.observables, dec.decode_batch_packed(batch).observables
        )


@st.composite
def streaming_dems(draw):
    """Small unlabeled DEMs (per-detector fallback layout), graph-like so
    matching accepts them and tiny enough for exact lookup."""
    num_detectors = draw(st.integers(min_value=1, max_value=5))
    num_observables = draw(st.integers(min_value=1, max_value=2))
    mechanisms = []
    for d in range(num_detectors):
        mechanisms.append(
            ErrorMechanism(
                prob=draw(st.floats(min_value=0.01, max_value=0.3)),
                detectors=(d,),
                observables=tuple(
                    sorted(
                        draw(
                            st.sets(
                                st.integers(0, num_observables - 1), max_size=1
                            )
                        )
                    )
                ),
                sources=(),
            )
        )
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        dets = draw(
            st.sets(st.integers(0, num_detectors - 1), min_size=0, max_size=2)
        )
        mechanisms.append(
            ErrorMechanism(
                prob=draw(st.floats(min_value=0.01, max_value=0.3)),
                detectors=tuple(sorted(dets)),
                observables=tuple(
                    sorted(
                        draw(
                            st.sets(
                                st.integers(0, num_observables - 1), max_size=1
                            )
                        )
                    )
                ),
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
    dem=streaming_dems(),
    shots=st.sampled_from([1, 63, 64, 65, 200]),
    window_rounds=st.integers(min_value=1, max_value=4),
    commit_rounds=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_windowed_equals_offline_property(
    dem, shots, window_rounds, commit_rounds, seed
):
    """Any window/commit schedule, any word-boundary shot count, both
    cheap decoder families: committed ≡ offline, bit for bit."""
    window = WindowConfig(
        window_rounds, min(commit_rounds, window_rounds)
    )
    batch = DemSampler(dem).sample_packed(shots, np.random.default_rng(seed))
    for dec in (LookupDecoder(dem), MatchingDecoder(dem)):
        committed, _, _ = windowed_corrections(dem, dec, batch, window)
        offline = dec.decode_batch_packed(batch)
        assert np.array_equal(committed.observables, offline.observables)


# -- the paced runner and its SLO report --------------------------------------


class TestStreamDecode:
    def test_free_run_report(self, surface_dem):
        report = stream_decode(
            surface_dem,
            shots=200,
            rng=np.random.default_rng(0),
            window=WindowConfig(2, 1),
        )
        assert report.rounds == 4
        assert len(report.round_latencies_s) == report.rounds
        assert report.matches_offline is True
        assert report.deadline_s is None and report.deadline_misses == 0
        assert report.max_backlog == 0
        assert report.rounds_per_sec > 0
        assert report.p50_round_s <= report.p99_round_s <= report.max_round_s
        d = report.to_dict()
        assert d["rounds"] == 4 and d["matches_offline"] is True

    def test_paced_deadline_misses_are_counted(self, surface_dem):
        # An impossible deadline: every round must miss it.
        report = stream_decode(
            surface_dem,
            shots=64,
            rng=np.random.default_rng(1),
            rounds_per_sec=10_000.0,
            deadline_s=1e-12,
        )
        assert report.deadline_misses == report.rounds
        assert report.deadline_s == 1e-12

    def test_paced_default_deadline_is_round_period(self, surface_dem):
        report = stream_decode(
            surface_dem,
            shots=64,
            rng=np.random.default_rng(2),
            rounds_per_sec=50.0,
        )
        assert report.deadline_s == pytest.approx(1 / 50.0)
        assert report.target_rounds_per_sec == 50.0

    def test_failures_match_offline_count(self, surface_dem):
        rng_seed = 9
        report = stream_decode(
            surface_dem, shots=2000, rng=np.random.default_rng(rng_seed)
        )
        from repro.decoders.metrics import make_decoder

        dec = make_decoder(surface_dem, "z", "auto")
        batch = DemSampler(surface_dem).sample_packed(
            2000, np.random.default_rng(rng_seed)
        )
        assert report.failures == dec.count_failures_packed(batch)

    def test_empty_report_quantiles(self):
        report = StreamReport(
            shots=0, rounds=0, window_rounds=1, commit_rounds=1
        )
        assert report.p50_round_s == 0.0
        assert report.max_round_s == 0.0
        assert report.rounds_per_sec == 0.0

    def test_obs_instruments_record(self, surface_dem, tmp_path):
        obs.registry.reset()
        with obs.enabled_to(True):
            report = stream_decode(
                surface_dem, shots=64, rng=np.random.default_rng(3)
            )
            snap = obs.snapshot()
        hist = snap["histograms"]["stream.round_s"]
        assert hist["count"] >= report.rounds
        assert snap["histograms"]["stream.commit_s"]["count"] >= 1
        assert snap["counters"]["stream.rounds"] >= report.rounds
        obs.registry.reset()

    def test_stream_decode_off_instruments_is_bit_identical(self, surface_dem):
        """Telemetry must never change results: same seed, instrumented
        or not, same committed corrections and failure count."""
        a = stream_decode(
            surface_dem, shots=200, rng=np.random.default_rng(11)
        )
        obs.registry.reset()
        with obs.enabled_to(True):
            b = stream_decode(
                surface_dem, shots=200, rng=np.random.default_rng(11)
            )
        obs.registry.reset()
        assert a.failures == b.failures
        assert a.matches_offline is True and b.matches_offline is True


class TestDriftingScenarioStreaming:
    """The round-folding audit for round-indexed drift.

    Drift changes per-round mechanism *probabilities* but never touches
    detector labels, so (a) the layout derived from a drifting DEM must
    be identical to the uniform one, and (b) the windowed-commit
    bit-identity contract must hold unchanged on drifting syndromes.
    """

    def _dems(self):
        from repro.noise import DeviceProfile, DriftSchedule, NoiseSpec

        code = rotated_surface_code(3)
        sched = coloration_schedule(code)
        uniform = NoiseSpec.depolarizing(3e-3, readout=2e-3)
        drifting = NoiseSpec.depolarizing(
            3e-3,
            readout=2e-3,
            crosstalk=1e-3,
            profile=DeviceProfile(qubits={0: 1.8, 5: 0.6}),
            drift=DriftSchedule.linear(0.6, 1.8, 3),
        )
        return (
            dem_for(code, sched, uniform, basis="z", rounds=3),
            dem_for(code, sched, drifting, basis="z", rounds=3),
        )

    def test_drift_preserves_round_layout(self):
        uniform_dem, drifting_dem = self._dems()
        assert (
            RoundLayout.from_dem(drifting_dem).slices
            == RoundLayout.from_dem(uniform_dem).slices
        )
        # ...but the error model itself really is different physics.
        assert drifting_dem.fingerprint() != uniform_dem.fingerprint()
        assert drifting_dem.num_detectors == uniform_dem.num_detectors

    @pytest.mark.parametrize("shots", SUBWORD_SHOTS)
    def test_windowed_commit_bit_identity_under_drift(self, shots):
        _, drifting_dem = self._dems()
        batch = DemSampler(drifting_dem).sample_packed(
            shots, np.random.default_rng(17)
        )
        # Crosstalk mechanisms flip two readouts at once (hyperedges),
        # so the drifting DEM is not graph-like — BP+OSD decodes it.
        dec = BpOsdDecoder(drifting_dem)
        committed, _, _ = windowed_corrections(
            drifting_dem, dec, batch, WindowConfig(2, 1)
        )
        offline = dec.decode_batch_packed(batch)
        assert np.array_equal(committed.observables, offline.observables)
