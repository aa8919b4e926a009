"""Pins the ``repro.api`` compatibility contract.

The facade exists so internals can churn without breaking user code;
that only holds if its surface is *tested*.  These tests pin the
``__all__`` list, the call signatures of every facade function, the
fields of :class:`ExecutionConfig`, and the engine entry points it is
the only way to configure — renaming a parameter, dropping a name, or
growing a second way to pass a knob fails here before it fails
downstream.
"""

import inspect

import pytest

import repro.api as api
import repro.decoders
from repro.experiments import campaign, shotrunner
from repro.experiments.shotrunner import ExecutionConfig


def params(fn):
    return list(inspect.signature(fn).parameters)


class TestSurface:
    def test_all_is_pinned(self):
        assert sorted(api.__all__) == [
            "CampaignJob",
            "CampaignSpec",
            "ExecutionConfig",
            "ResultStore",
            "Session",
            "evaluate",
            "serve",
            "smoke_spec",
            "sweep",
            "worker",
        ]

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_evaluate_signature(self):
        assert params(api.evaluate) == [
            "code",
            "schedule",
            "p",
            "shots",
            "basis",
            "decoder",
            "idle_strength",
            "noise",
            "rounds",
            "config",
        ]

    def test_sweep_signature(self):
        assert params(api.sweep) == [
            "spec",
            "store",
            "config",
            "labels",
            "progress",
        ]

    def test_serve_signature(self):
        assert params(api.serve) == [
            "spec",
            "store",
            "n_workers",
            "ttl",
            "poll",
            "wait",
            "timeout",
            "labels",
            "config",
            "progress",
        ]

    def test_worker_signature(self):
        assert params(api.worker) == [
            "store",
            "worker_id",
            "ttl",
            "poll",
            "once",
            "max_jobs",
            "timeout",
            "config",
            "progress",
        ]

    def test_session_surface(self):
        assert params(api.Session.__init__) == ["self", "store", "config", "cache"]
        for method in (
            "reload",
            "evaluate",
            "sweep",
            "serve",
            "query",
            "compact",
            "telemetry",
        ):
            assert callable(getattr(api.Session, method))

    def test_execution_config_fields(self):
        assert [f for f in ExecutionConfig.__dataclass_fields__] == [
            "workers",
            "chunk_shots",
            "max_failures",
            "dense_reference",
            "sampler",
            "dec",
            "syndrome_cache_dir",
            "syndrome_writer_tag",
        ]
        cfg = ExecutionConfig()
        assert cfg.workers == 1 and cfg.chunk_shots == 5_000
        assert cfg.replace(workers=3).workers == 3
        assert cfg.workers == 1  # frozen: replace returns a copy


class TestSessionBehavior:
    def test_session_shares_one_store_handle(self, tmp_path):
        sess = api.Session(store=tmp_path / "s")
        handle = sess.store
        sess.sweep(api.smoke_spec())
        assert sess.store is handle  # never reopened
        assert len(sess.query(estimator="direct")) == 2
        # A second session (fresh parse) sees the same records.
        assert len(api.Session(store=tmp_path / "s").query()) == 4

    def test_session_accepts_open_store(self, tmp_path):
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path / "s")
        assert api.Session(store=store).store is store

    def test_in_memory_session_cannot_serve(self):
        with pytest.raises(ValueError):
            api.Session().serve(api.smoke_spec(), n_workers=1)

    def test_in_memory_session_has_no_telemetry(self):
        with pytest.raises(ValueError):
            api.Session().telemetry()

    def test_on_disk_session_telemetry_shape(self, tmp_path):
        sess = api.Session(store=tmp_path / "s")
        summary = sess.telemetry()  # empty sidecar dir is a valid answer
        assert set(summary) >= {"dir", "stages", "metrics", "heartbeats"}
        assert summary["stages"] == {}

    def test_evaluate_single_basis(self):
        ler = api.evaluate("surface_d3", "nz", p=3e-3, shots=256, basis="z")
        assert list(ler.per_basis) == ["z"]


class TestOneWayToPassKnobs:
    """Execution knobs ride ``config=`` only: the engine entry points take
    no catch-all keywords, and the LER has one home."""

    def _assert_no_var_keyword(self, fn):
        kinds = [p.kind for p in inspect.signature(fn).parameters.values()]
        assert inspect.Parameter.VAR_KEYWORD not in kinds

    def test_run_shot_chunks_signature(self):
        fn = shotrunner.run_shot_chunks
        self._assert_no_var_keyword(fn)
        assert params(fn) == [
            "dem",
            "shots",
            "basis",
            "decoder",
            "rng",
            "config",
            "on_chunk",
        ]

    def test_estimate_logical_error_rate_signature(self):
        fn = shotrunner.estimate_logical_error_rate
        self._assert_no_var_keyword(fn)
        assert params(fn) == [
            "code",
            "schedule",
            "p",
            "shots",
            "rounds",
            "bases",
            "decoder",
            "idle_strength",
            "rng",
            "noise",
            "config",
        ]

    def test_execute_job_signature(self):
        fn = campaign.execute_job
        self._assert_no_var_keyword(fn)
        assert params(fn) == ["job", "cache", "config"]

    def test_run_campaign_signature(self):
        fn = campaign.run_campaign
        self._assert_no_var_keyword(fn)
        assert params(fn) == [
            "spec",
            "store",
            "cache",
            "progress",
            "labels",
            "config",
            "meta",
        ]

    def test_old_keywords_are_type_errors(self):
        dem = _smoke_dem()
        with pytest.raises(TypeError):
            shotrunner.run_shot_chunks(dem, shots=64, chunk_size=64)
        with pytest.raises(TypeError):
            campaign.run_campaign([], workers=2)

    def test_decoders_do_not_export_the_ler(self):
        assert "estimate_logical_error_rate" not in repro.decoders.__all__
        assert not hasattr(repro.decoders, "estimate_logical_error_rate")
        assert not hasattr(repro.decoders.metrics, "estimate_logical_error_rate")


def _smoke_dem():
    from repro.codes import rotated_surface_code
    from repro.circuits import nz_schedule
    from repro.decoders.metrics import dem_for
    from repro.noise.model import NoiseModel

    code = rotated_surface_code(3)
    return dem_for(code, nz_schedule(code), NoiseModel(p=3e-3), basis="z")
