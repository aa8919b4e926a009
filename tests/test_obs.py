"""Tests for ``repro.obs``: metrics, spans, heartbeats, dashboards.

The two contracts everything else leans on:

1. **Byte-identity** — an instrumented run produces a store whose
   ``content_digest()`` (and compacted bytes) equal an uninstrumented
   run's.  Telemetry lives in sidecar files and the volatile ``meta``
   envelope only.
2. **Off means free and silent** — with ``REPRO_OBS`` off (the
   default), instruments don't count, spans are the shared
   :data:`NULL_SPAN`, and no sidecar file is ever created.
"""

import io
import json
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.circuits import nz_schedule
from repro.codes import rotated_surface_code
from repro.decoders.metrics import dem_for, make_decoder
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.service import serve_campaign
from repro.experiments.store import ResultStore
from repro.noise import NoiseModel
from repro.obs import dashboard
from repro.obs.log import Logger
from repro.obs.metrics import (
    BIN_EDGES,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.trace import aggregate_stages, chrome_trace, fold_latest_snapshot
from repro.sim import DemSampler


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts from the default (off, no dir) switchboard."""
    prev = (obs.state.enabled, obs.state.telemetry_dir)
    obs.registry.reset()
    yield
    obs.state.enabled, obs.state.telemetry_dir = prev
    obs.registry.reset()


def tiny_spec(seed: int = 0) -> CampaignSpec:
    return CampaignSpec(
        name="tiny",
        codes=("surface_d3",),
        schedules=("nz",),
        p_values=(2e-3, 3e-3),
        bases=("z",),
        shots=192,
        chunk_size=96,
        seed=seed,
    )


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_instruments_are_noops_when_off(self):
        reg = MetricsRegistry()
        reg.counter("c").add(5)
        reg.gauge("g").set(3.0)
        reg.histogram("h").record(0.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 0
        assert snap["gauges"]["g"] == 0.0
        assert snap["histograms"]["h"]["count"] == 0

    def test_instruments_count_when_enabled(self):
        reg = MetricsRegistry()
        with obs.enabled_to(True):
            reg.counter("c").add()
            reg.counter("c").add(4)
            reg.gauge("g").set(7)
            reg.histogram("h").record(0.25)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 7.0
        assert snap["histograms"]["h"]["count"] == 1

    def test_instruments_are_cached_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("y") is reg.histogram("y")

    def test_reset_keeps_instruments_registered(self):
        reg = MetricsRegistry()
        handle = reg.counter("kept")
        with obs.enabled_to(True):
            handle.add(3)
        reg.reset()
        assert reg.counter("kept") is handle
        assert handle.value == 0

    def test_histogram_rejects_negative_and_nan(self):
        hist = Histogram("h")
        with obs.enabled_to(True):
            hist.record(-1.0)
            hist.record(float("nan"))
        assert hist.count == 0

    @pytest.mark.parametrize(
        "value", [5e-7, 1e-6, 1.1e-6, 3e-6, 1e-3, 0.7, 12.0, 1e4]
    )
    def test_percentile_upper_edge_bounds_value(self, value):
        """p100 of a single sample is its bin's upper edge: >= the value
        and within one bin ratio (2x) above it."""
        hist = Histogram("h")
        with obs.enabled_to(True):
            hist.record(value)
        p = hist.percentile(1.0)
        assert p >= min(value, hist.max)
        if BIN_EDGES[0] < value <= BIN_EDGES[-1]:
            assert p <= 2 * value

    def test_percentiles_from_bins(self):
        hist = Histogram("h")
        with obs.enabled_to(True):
            for _ in range(99):
                hist.record(1e-3)
            hist.record(1.0)
        assert hist.percentile(0.5) == pytest.approx(
            next(e for e in BIN_EDGES if e >= 1e-3)
        )
        assert hist.percentile(0.99) == pytest.approx(
            next(e for e in BIN_EDGES if e >= 1e-3)
        )
        assert hist.percentile(1.0) >= 1.0

    def test_merge_snapshots_sums_and_recomputes(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        with obs.enabled_to(True):
            reg_a.counter("jobs").add(2)
            reg_b.counter("jobs").add(3)
            reg_a.histogram("t").record(1e-3)
            reg_b.histogram("t").record(2.0)
            reg_b.gauge("depth").set(9)
        merged = merge_snapshots([reg_a.snapshot(), reg_b.snapshot()])
        assert merged["counters"]["jobs"] == 5
        hist = merged["histograms"]["t"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(2.001)
        assert hist["min"] == pytest.approx(1e-3)
        assert hist["max"] == pytest.approx(2.0)
        assert merged["gauges"]["depth"] == 9.0

    def test_merge_skips_garbage(self):
        merged = merge_snapshots([None, 42, {"histograms": {"h": "nope"}}])
        assert merged["counters"] == {}
        assert merged["histograms"] == {}

    # -- empty-histogram min: snapshots must stay strict JSON ---------------
    #
    # An empty histogram's running min is +inf; json.dumps emits that as
    # the non-standard token ``Infinity``, which strict parsers (and the
    # telemetry sidecar readers) reject.  Empty min snapshots as null.

    @staticmethod
    def _strict_loads(text: str):
        def _reject(token):
            raise AssertionError(f"non-standard JSON token {token!r}")

        return json.loads(text, parse_constant=_reject)

    def test_empty_histogram_snapshot_is_strict_json(self):
        reg = MetricsRegistry()
        reg.histogram("h")  # registered, never recorded
        snap = self._strict_loads(json.dumps(reg.snapshot()))
        assert snap["histograms"]["h"]["count"] == 0
        assert snap["histograms"]["h"]["min"] is None

    def test_merge_with_empty_snapshot_keeps_real_min(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        with obs.enabled_to(True):
            reg_a.histogram("t").record(1e-3)
        reg_b.histogram("t")  # empty on this registry
        for order in ([reg_a, reg_b], [reg_b, reg_a]):
            merged = merge_snapshots([r.snapshot() for r in order])
            hist = merged["histograms"]["t"]
            assert hist["count"] == 1
            assert hist["min"] == pytest.approx(1e-3)

    def test_merge_of_empty_snapshots_round_trips(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        merged = merge_snapshots([reg.snapshot(), reg.snapshot()])
        snap = self._strict_loads(json.dumps(merged))
        assert snap["histograms"]["h"]["min"] is None

    def test_merge_tolerates_minless_nonempty_snapshot(self):
        # Older sidecar files carry count > 0 histograms without a min
        # (or with min: null); merging them must not leak inf or crash.
        legacy = {"histograms": {"t": {"count": 2, "sum": 3.0, "max": 2.0}}}
        nulled = {
            "histograms": {"t": {"count": 1, "sum": 0.5, "min": None, "max": 0.5}}
        }
        merged = merge_snapshots([legacy, nulled])
        snap = self._strict_loads(json.dumps(merged))
        hist = snap["histograms"]["t"]
        assert hist["count"] == 3
        assert hist["min"] is None
        assert hist["max"] == pytest.approx(2.0)

    def test_facade_uses_default_registry(self):
        with obs.enabled_to(True):
            obs.counter("facade.test").add(2)
        assert obs.snapshot()["counters"]["facade.test"] == 2


class TestFoldLatestSnapshot:
    def test_same_process_keeps_newest_only(self):
        latest = {}
        rec = {"host": "h", "pid": 1}
        fold_latest_snapshot(latest, {**rec, "ts": 1.0}, {"counters": {"x": 5}})
        fold_latest_snapshot(latest, {**rec, "ts": 2.0}, {"counters": {"x": 9}})
        fold_latest_snapshot(latest, {**rec, "ts": 1.5}, {"counters": {"x": 7}})
        assert len(latest) == 1
        assert latest[("h", 1)][1]["counters"]["x"] == 9

    def test_distinct_processes_both_kept(self):
        latest = {}
        fold_latest_snapshot(
            latest, {"host": "h", "pid": 1, "ts": 1.0}, {"counters": {"x": 5}}
        )
        fold_latest_snapshot(
            latest, {"host": "h", "pid": 2, "ts": 1.0}, {"counters": {"x": 3}}
        )
        merged = merge_snapshots(s for _, s in latest.values())
        assert merged["counters"]["x"] == 8

    def test_aggregate_does_not_double_count_shared_registry(self):
        """Two worker threads of one process emit cumulative snapshots
        of the same registry; the fleet total is the newest, not the
        sum."""
        shared = {"host": "h", "pid": 42}
        records = [
            {"kind": "metrics", "worker": "w0", "ts": 10.0, **shared,
             "metrics": {"counters": {"store.appends": 4}}},
            {"kind": "metrics", "worker": "w1", "ts": 10.1, **shared,
             "metrics": {"counters": {"store.appends": 4}}},
            {"kind": "metrics", "worker": "remote", "host": "h2", "pid": 7,
             "ts": 10.2, "metrics": {"counters": {"store.appends": 2}}},
        ]
        agg = aggregate_stages(records)
        assert agg["metrics"]["counters"]["store.appends"] == 6


# -- spans -------------------------------------------------------------------


class TestSpans:
    def test_off_yields_null_span_and_no_files(self, tmp_path):
        with obs.span("decode", job="x") as sp:
            sp.set(shots=1)
        assert sp is obs.NULL_SPAN
        assert list(tmp_path.iterdir()) == []

    def test_enabled_without_dir_is_still_null(self):
        with obs.enabled_to(True):
            with obs.span("decode") as sp:
                pass
        assert sp is obs.NULL_SPAN

    def test_span_appends_record(self, tmp_path):
        with obs.enabled_to(True, telemetry_dir=tmp_path):
            with obs.worker_context("w0"):
                with obs.span("decode", chunk=3) as sp:
                    sp.set(failures=1)
        records = obs.read_trace_dir(tmp_path)
        assert len(records) == 1
        rec = records[0]
        assert rec["kind"] == "span"
        assert rec["stage"] == "decode"
        assert rec["worker"] == "w0"
        assert rec["pid"] == os.getpid()
        assert rec["chunk"] == 3 and rec["failures"] == 1
        assert rec["dur_s"] >= 0.0
        assert (tmp_path / "trace-w0.jsonl").exists()

    def test_span_tags_errors_and_reraises(self, tmp_path):
        with obs.enabled_to(True, telemetry_dir=tmp_path):
            with pytest.raises(ValueError):
                with obs.span("job"):
                    raise ValueError("boom")
        (rec,) = obs.read_trace_dir(tmp_path)
        assert rec["error"] == "ValueError"

    def test_worker_context_is_thread_local(self, tmp_path):
        seen = {}

        def run(worker):
            with obs.worker_context(worker):
                with obs.span("sample"):
                    pass
            seen[worker] = True

        with obs.enabled_to(True, telemetry_dir=tmp_path):
            threads = [
                threading.Thread(target=run, args=(f"w{i}",)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        names = sorted(p.name for p in tmp_path.glob("trace-*.jsonl"))
        assert names == ["trace-w0.jsonl", "trace-w1.jsonl"]

    def test_read_skips_torn_lines(self, tmp_path):
        path = tmp_path / "trace-w0.jsonl"
        good = {"kind": "span", "stage": "decode", "ts": 1.0, "dur_s": 0.1}
        path.write_text(json.dumps(good) + "\n" + '{"kind": "sp')
        records = obs.read_trace_dir(tmp_path)
        assert len(records) == 1

    def test_aggregate_stages_shares(self):
        records = [
            {"kind": "span", "stage": "sample", "worker": "w0",
             "ts": 0.0, "dur_s": 1.0},
            {"kind": "span", "stage": "decode", "worker": "w0",
             "ts": 1.0, "dur_s": 3.0},
        ]
        agg = aggregate_stages(records)
        assert agg["stages"]["sample"]["share"] == pytest.approx(0.25)
        assert agg["stages"]["decode"]["share"] == pytest.approx(0.75)
        assert agg["wall_s"] == pytest.approx(4.0)
        assert agg["workers"] == ["w0"]

    def test_chrome_trace_export(self, tmp_path):
        with obs.enabled_to(True, telemetry_dir=tmp_path):
            with obs.worker_context("w0"):
                with obs.span("decode", chunk=1):
                    pass
        out = tmp_path / "out" / "trace.json"
        n = obs.write_chrome_trace(tmp_path, out)
        assert n == 1
        doc = json.loads(out.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert slices[0]["name"] == "decode"
        assert slices[0]["args"]["chunk"] == 1
        assert names[0]["args"]["name"] == "w0"

    def test_chrome_trace_empty(self):
        assert chrome_trace([]) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }


# -- heartbeats --------------------------------------------------------------


class TestHeartbeats:
    def test_roundtrip(self, tmp_path):
        with obs.enabled_to(True, telemetry_dir=tmp_path):
            obs.write_heartbeat(
                "w0",
                group="g1",
                jobs_done=3,
                metrics={"counters": {"x": 1}},
                extra={"claims": 2},
            )
        (beat,) = obs.read_heartbeats(tmp_path)
        assert beat["worker"] == "w0"
        assert beat["group"] == "g1"
        assert beat["jobs_done"] == 3
        assert beat["claims"] == 2
        assert beat["metrics"]["counters"]["x"] == 1
        assert beat["age_s"] >= 0.0

    def test_rewrite_replaces(self, tmp_path):
        with obs.enabled_to(True, telemetry_dir=tmp_path):
            obs.write_heartbeat("w0", jobs_done=1)
            obs.write_heartbeat("w0", jobs_done=2)
        (beat,) = obs.read_heartbeats(tmp_path)
        assert beat["jobs_done"] == 2

    def test_noop_when_off(self, tmp_path):
        obs.configure(telemetry_dir=tmp_path)  # dir set but obs off
        obs.write_heartbeat("w0")
        assert obs.read_heartbeats(tmp_path) == []

    def test_missing_dir_is_empty(self, tmp_path):
        assert obs.read_heartbeats(tmp_path / "nope") == []


# -- logger / timing ---------------------------------------------------------


class TestLogger:
    def _logger(self, level="info"):
        stream = io.StringIO()
        from repro.obs.log import _LEVELS

        return Logger("test", level=_LEVELS[level], stream=stream), stream

    def test_format(self):
        logger, stream = self._logger()
        logger.info("claimed lease", worker="w0", ratio=0.51234, note="a b")
        line = stream.getvalue()
        assert "test: claimed lease" in line
        assert "worker=w0" in line
        assert "ratio=0.512" in line
        assert "note='a b'" in line

    def test_level_filtering(self):
        logger, stream = self._logger(level="warn")
        logger.info("hidden")
        logger.warn("shown")
        assert "hidden" not in stream.getvalue()
        assert "shown" in stream.getvalue()

    def test_not_gated_on_obs_flag(self):
        assert not obs.enabled()
        logger, stream = self._logger()
        logger.info("progress is visible with telemetry off")
        assert "visible" in stream.getvalue()

    def test_get_logger_cached(self):
        assert obs.get_logger("same") is obs.get_logger("same")


class TestTimed:
    def test_ticks_with_obs_off(self):
        """timed() is functional (meta elapsed, solver budgets), so it
        must measure even when instruments are disabled."""
        assert not obs.enabled()
        with obs.timed() as clock:
            pass
        assert clock.elapsed >= 0.0

    def test_histogram_feed_is_gated(self):
        with obs.timed("gated.hist_s"):
            pass
        assert obs.snapshot()["histograms"]["gated.hist_s"]["count"] == 0
        with obs.enabled_to(True):
            with obs.timed("gated.hist_s"):
                pass
        assert obs.snapshot()["histograms"]["gated.hist_s"]["count"] == 1

    def test_stopwatch_restart(self):
        clock = obs.StopWatch()
        first = clock.elapsed
        clock.restart()
        assert clock.elapsed <= max(first, clock.elapsed)


class TestDecodeCounters:
    def test_matching_packed_decode_counts_shots_and_subset_syndromes(self):
        """``decode.shots``/``decode.unique`` count the matching decoder's
        packed path too, whose dedup runs on its detector subset."""
        code = rotated_surface_code(3)
        dem = dem_for(code, nz_schedule(code), NoiseModel(p=1e-3), basis="z")
        dec = make_decoder(dem, "z", "matching")
        batch = DemSampler(dem).sample_packed(1000, np.random.default_rng(0))
        subset = batch.to_dense().detectors[:, dec.subset]
        distinct = len(np.unique(subset, axis=0))
        assert 1 < distinct < 1000
        with obs.enabled_to(True):
            dec.decode_batch_packed(batch)
        counters = obs.snapshot()["counters"]
        assert counters["decode.shots"] == 1000
        assert counters["decode.unique"] == distinct


# -- byte identity (the load-bearing contract) -------------------------------


class TestByteIdentity:
    def _shard_bytes(self, path):
        out = {}
        for name in sorted(os.listdir(path)):
            if name.startswith("results") and name.endswith(".jsonl"):
                with open(os.path.join(path, name), "rb") as fh:
                    out[name] = fh.read()
        return out

    def test_instrumented_run_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, store=str(tmp_path / "plain"))
        with obs.enabled_to(True):
            run_campaign(spec, store=str(tmp_path / "obs"))
        a = ResultStore(tmp_path / "plain")
        b = ResultStore(tmp_path / "obs")
        assert a.content_digest() == b.content_digest()
        # The instrumented run *did* produce sidecars (auto-wired to
        # <store>/telemetry), outside the result shards.
        tdir = tmp_path / "obs" / "telemetry"
        assert any(p.name.startswith("trace-") for p in tdir.iterdir())
        a.compact()
        b.compact()
        assert self._shard_bytes(tmp_path / "plain") == self._shard_bytes(
            tmp_path / "obs"
        )

    def test_instrumented_fleet_matches_uninstrumented_single(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, store=str(tmp_path / "single"))
        with obs.enabled_to(True):
            report = serve_campaign(
                spec,
                tmp_path / "fleet",
                n_workers=2,
                ttl=10,
                poll=0.05,
                timeout=300,
            )
        assert report.complete
        assert (
            ResultStore(tmp_path / "single").content_digest()
            == ResultStore(tmp_path / "fleet").content_digest()
        )
        # Live telemetry came out the side: spans + final heartbeats.
        summary = dashboard.telemetry_summary(tmp_path / "fleet")
        assert summary["stages"]["job"]["count"] == 2
        assert summary["metrics"]["counters"]["store.appends"] == 2
        assert len(summary["heartbeats"]) == 2
        assert all(b.get("done") for b in summary["heartbeats"])


# -- dashboards --------------------------------------------------------------


class TestDashboard:
    def test_empty_store_renders_placeholder(self, tmp_path):
        lines = dashboard.render_telemetry(tmp_path)
        assert any("REPRO_OBS" in line for line in lines)

    def test_top_renders_stale_and_done(self, tmp_path):
        with obs.enabled_to(True, telemetry_dir=tmp_path / "telemetry"):
            obs.write_heartbeat("w0", group="g", jobs_done=1)
            obs.write_heartbeat("w1", extra={"done": True})
        lines = dashboard.render_top(tmp_path, stale_after=-1.0)
        text = "\n".join(lines)
        assert "STALE" in text  # w0's fresh beat, forced stale cutoff
        assert "done" in text

    def test_summary_folds_heartbeat_and_trace_metrics(self, tmp_path):
        """A heartbeat and a trace metrics line from the same process
        must not double-count; a distinct process must add."""
        tdir = tmp_path / "telemetry"
        with obs.enabled_to(True, telemetry_dir=tdir):
            obs.counter("store.appends").add(4)
            with obs.worker_context("w0"):
                obs.emit_metrics(obs.snapshot())
            obs.write_heartbeat("w0", metrics=obs.snapshot())
        other = {
            "kind": "metrics", "worker": "r1", "pid": 999999, "host": "other",
            "ts": 1.0, "metrics": {"counters": {"store.appends": 2}},
        }
        with open(tdir / "trace-r1.jsonl", "w") as fh:
            fh.write(json.dumps(other) + "\n")
        summary = dashboard.telemetry_summary(tmp_path)
        assert summary["metrics"]["counters"]["store.appends"] == 6

    def test_render_counters_rates(self):
        summary = {
            "metrics": {
                "counters": {
                    "syncache.hits": 75,
                    "syncache.misses": 25,
                    "syncache.inserts": 25,
                    "decode.shots": 1000,
                    "decode.unique": 100,
                    "lease.claims": 4,
                    "store.appends": 4,
                    "kernel.backend.numpy": 12,
                }
            }
        }
        text = "\n".join(dashboard.render_counters(summary))
        assert "75% hit rate" in text
        assert "100 unique syndromes for 1000 shots" in text
        assert "4 claims" in text
        assert "12 via numpy" in text
