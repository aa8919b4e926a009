"""Campaign engine tests: content-addressed keys, the result store,
resume determinism, and the compile cache.

The two load-bearing contracts:

* **Key injectivity** — a job's key covers every result-affecting field
  (and only those: worker count is excluded by the shot runner's
  determinism contract), is stable across JSON round trips and fresh
  processes, and collides only for identical job descriptions.
* **Resume determinism** — interrupting a campaign (losing any suffix
  of the store) and resuming yields byte-identical estimates to an
  uninterrupted run, for any worker count, because every job seeds its
  RNG from its own key.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.stats import RateEstimate, wilson_interval
from repro.experiments import campaign as campaign_mod
from repro.experiments import shotrunner as shotrunner_mod
from repro.experiments import fig06_schedules, fig12_benchmarks, fig14_lowp
from repro.experiments.campaign import (
    CampaignJob,
    CampaignSpec,
    CompileCache,
    export_rows,
    run_campaign,
    smoke_spec,
)
from repro.experiments.shotrunner import ExecutionConfig
from repro.experiments.store import ResultStore, canonical_json, job_key

# -- strategies -------------------------------------------------------------

_CODES = ("surface_d3", "surface_d5", "lp39")
_SCHEDULES = ("nz", "poor", "coloration", "coloration:7")


def job_strategy():
    return st.builds(
        CampaignJob,
        code=st.sampled_from(_CODES),
        schedule=st.sampled_from(_SCHEDULES),
        basis=st.sampled_from(("z", "x")),
        p=st.floats(1e-5, 1e-2, allow_nan=False),
        idle_strength=st.sampled_from((0.0, 1e-4, 1e-3)),
        rounds=st.sampled_from((None, 2, 5)),
        decoder=st.sampled_from(("auto", "matching", "bposd")),
        estimator=st.sampled_from(("direct", "rare-event")),
        shots=st.integers(64, 1_000_000),
        max_failures=st.sampled_from((None, 10, 400)),
        chunk_size=st.sampled_from((256, 5_000)),
        seed=st.integers(0, 2**31 - 1),
        target_rel_halfwidth=st.sampled_from((0.1, 0.3)),
        min_failure_weight=st.integers(1, 4),
    )


# Fields whose perturbation must change a job's key.  For direct jobs
# the rare-event knobs are not hashed (they do not affect the result),
# and vice versa for max_failures — the perturbation test respects that.
_PERTURBATIONS = {
    "code": lambda v: "rqt60" if v != "rqt60" else "lp39",
    "schedule": lambda v: "coloration:99" if v != "coloration:99" else "nz",
    "basis": lambda v: "x" if v == "z" else "z",
    "p": lambda v: v * 1.5 + 1e-6,
    "idle_strength": lambda v: v + 1e-5,
    "rounds": lambda v: 4 if v != 4 else 6,
    "decoder": lambda v: "bposd" if v != "bposd" else "matching",
    "estimator": lambda v: "rare-event" if v == "direct" else "direct",
    "shots": lambda v: v + 64,
    "chunk_size": lambda v: v + 64,
    "seed": lambda v: v + 1,
    "confidence": lambda v: 0.99 if v != 0.99 else 0.9,
    "max_failures": lambda v: 17 if v != 17 else 23,
    "target_rel_halfwidth": lambda v: v / 2,
    "min_failure_weight": lambda v: v + 1,
    "initial_shots": lambda v: v + 64,
    "max_rounds": lambda v: v + 1,
    "tail_epsilon": lambda v: v / 10,
    "mode": lambda v: "uniform" if v != "uniform" else "proportional",
}

_DIRECT_ONLY = {"max_failures"}
_RARE_ONLY = {
    "target_rel_halfwidth",
    "min_failure_weight",
    "initial_shots",
    "max_rounds",
    "tail_epsilon",
    "mode",
}


class TestJobKeys:
    @settings(max_examples=60, deadline=None)
    @given(job=job_strategy(), field=st.sampled_from(sorted(_PERTURBATIONS)))
    def test_perturbing_any_hashed_field_changes_key(self, job, field):
        if job.estimator == "direct" and field in _RARE_ONLY:
            return
        if job.estimator == "rare-event" and field in _DIRECT_ONLY:
            return
        perturbed = dataclasses.replace(
            job, **{field: _PERTURBATIONS[field](getattr(job, field))}
        )
        assert perturbed.key() != job.key()

    @settings(max_examples=60, deadline=None)
    @given(job=job_strategy())
    def test_json_roundtrip_leaves_key_stable(self, job):
        payload = job.to_payload()
        round_tripped = json.loads(json.dumps(payload))
        assert job_key(round_tripped) == job.key()
        assert CampaignJob.from_payload(round_tripped).key() == job.key()

    @settings(max_examples=20, deadline=None)
    @given(jobs=st.lists(job_strategy(), min_size=2, max_size=20))
    def test_no_collisions_across_grid(self, jobs):
        payloads = {canonical_json(j.to_payload()) for j in jobs}
        keys = {j.key() for j in jobs}
        assert len(keys) == len(payloads)

    def test_key_stable_in_fresh_process(self):
        """Keys are process-independent (no PYTHONHASHSEED leakage)."""
        job = CampaignJob(code="surface_d3", schedule="nz", p=2e-3, seed=5)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        script = (
            "from repro.experiments.campaign import CampaignJob; "
            "print(CampaignJob(code='surface_d3', schedule='nz', "
            "p=2e-3, seed=5).key())"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == job.key()

    def test_worker_count_not_hashed(self):
        """workers is a runtime knob, excluded from the key by the
        shot runner's worker-count-independence contract."""
        assert "workers" not in CampaignJob(
            code="surface_d3", schedule="nz"
        ).to_payload()

    def test_seed_sequence_derives_from_key(self):
        a = CampaignJob(code="surface_d3", schedule="nz", seed=0)
        b = CampaignJob(code="surface_d3", schedule="nz", seed=1)
        assert a.seed_sequence().entropy != b.seed_sequence().entropy
        assert a.seed_sequence().entropy == a.seed_sequence().entropy


class TestResultStore:
    def test_put_get_reopen(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1}, {"r": 2.5})
        assert "k1" in store and store.get("k1")["result"] == {"r": 2.5}
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == 1
        assert reopened.get("k1") == store.get("k1")

    def test_truncated_trailing_line_dropped(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {}, {"v": 1})
        store.put("k2", {}, {"v": 2})
        path = tmp_path / "s" / "results-k.jsonl"  # both keys' shard
        text = path.read_text()
        path.write_text(text[: len(text) - 9])  # cut into k2's record
        reopened = ResultStore(tmp_path / "s")
        assert "k1" in reopened and "k2" not in reopened

    def test_append_after_interrupted_writer_preserves_both(self, tmp_path):
        """Two writers, interleaved partial lines — the PR 4 tolerance
        claim: a killed writer loses *its own* unfinished trailing line,
        never a record another writer appends after it."""
        store_a = ResultStore(tmp_path / "s")
        store_a.put("k1", {}, {"v": 1})
        path = tmp_path / "s" / "results-k.jsonl"  # every k* key's shard
        # Writer A dies mid-append: an unterminated partial record.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "k-torn", "job": {}, "res')
        # Writer B opens the same store and appends a full record.
        store_b = ResultStore(tmp_path / "s")
        assert "k1" in store_b  # loader already drops the torn line
        store_b.put("k2", {}, {"v": 2})
        # And dies mid-append itself; writer C appends after it.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "k-torn-2"')
        store_c = ResultStore(tmp_path / "s")
        store_c.put("k3", {}, {"v": 3})

        reopened = ResultStore(tmp_path / "s")
        assert {"k1", "k2", "k3"} <= set(reopened.keys())
        assert "k-torn" not in reopened and "k-torn-2" not in reopened
        assert reopened.get("k2")["result"] == {"v": 2}
        assert reopened.get("k3")["result"] == {"v": 3}

    def test_memory_store(self):
        store = ResultStore(None)
        store.put("k", {}, {})
        assert "k" in store

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


# -- resume determinism (the regression harness) ----------------------------


def _small_jobs(seed=0):
    spec = CampaignSpec(
        name="resume-test",
        codes=("surface_d3",),
        schedules=("nz", "poor"),
        p_values=(4e-3, 8e-3),
        bases=("z",),
        shots=320,
        chunk_size=128,
        seed=seed,
    )
    rare = CampaignJob(
        code="surface_d3",
        schedule="nz",
        basis="z",
        p=4e-3,
        estimator="rare-event",
        shots=1024,
        chunk_size=256,
        initial_shots=128,
        max_rounds=2,
        target_rel_halfwidth=0.5,
        seed=seed,
    )
    return spec.expand() + [rare]


def _estimates(report):
    """The determinism-relevant payload per key (timing excluded)."""
    out = {}
    for key, record in report.records.items():
        result = record["result"]
        payload = {
            "estimate": result["estimate"],
            "consumed_shots": result["consumed_shots"],
            "early_stopped": result["early_stopped"],
        }
        if "stratified" in result:
            payload["stratified"] = result["stratified"]
        out[key] = canonical_json(payload)
    return out


def lose_records(store_dir, jobs) -> None:
    """Drop the records of ``jobs`` from every shard, as a run killed
    before writing them would have left the store.  For the last jobs
    of a run these are the trailing lines of their shards."""
    lost = {job.key() for job in jobs}
    for path in Path(store_dir).glob("results-*.jsonl"):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(
            "".join(line for line in lines if json.loads(line)["key"] not in lost)
        )


class TestResumeDeterminism:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_is_byte_identical(self, tmp_path, workers):
        jobs = _small_jobs()
        cfg = ExecutionConfig(workers=workers)

        full = run_campaign(jobs, store=tmp_path / "full", config=cfg)
        assert len(full.executed) == len(jobs)

        interrupted_dir = tmp_path / "interrupted"
        run_campaign(jobs, store=interrupted_dir, config=cfg)
        # Simulate the interruption: lose the last third of the jobs.
        lost = max(1, len(jobs) // 3)
        lose_records(interrupted_dir, jobs[-lost:])

        resumed = run_campaign(jobs, store=interrupted_dir, config=cfg)
        assert len(resumed.executed) == lost
        assert resumed.hits == len(jobs) - lost
        assert _estimates(resumed) == _estimates(full)

    def test_workers_do_not_change_results(self, tmp_path):
        jobs = _small_jobs()
        serial = run_campaign(
            jobs, store=tmp_path / "w1", config=ExecutionConfig(workers=1)
        )
        parallel = run_campaign(
            jobs, store=tmp_path / "w2", config=ExecutionConfig(workers=2)
        )
        assert _estimates(serial) == _estimates(parallel)

    def test_job_order_does_not_change_results(self, tmp_path):
        """Each job seeds from its own key: shuffling the grid (or
        running a subset first) cannot change any estimate."""
        jobs = _small_jobs()
        forward = run_campaign(jobs, store=tmp_path / "f")
        backward = run_campaign(list(reversed(jobs)), store=tmp_path / "b")
        assert _estimates(forward) == _estimates(backward)


def count_compiles(monkeypatch) -> dict[str, list]:
    """Record every DEM extraction (its basis) and decoder construction
    (its ``(basis, decoder)``) a campaign asks for."""
    calls: dict[str, list] = {"dem": [], "decoder": []}
    real_dem, real_decoder = campaign_mod.dem_for, campaign_mod.make_decoder

    def dem_for(code, schedule, noise, basis, rounds):
        calls["dem"].append(basis)
        return real_dem(code, schedule, noise, basis=basis, rounds=rounds)

    def make_decoder(dem, basis, decoder):
        calls["decoder"].append((basis, decoder))
        return real_decoder(dem, basis, decoder)

    monkeypatch.setattr(campaign_mod, "dem_for", dem_for)
    for module in (campaign_mod, shotrunner_mod):
        monkeypatch.setattr(module, "make_decoder", make_decoder)
    return calls


class TestCompileCache:
    def test_dem_and_decoder_compile_once_per_config(self, tmp_path, monkeypatch):
        calls = count_compiles(monkeypatch)
        run_campaign(smoke_spec(), store=tmp_path / "s", cache=CompileCache())
        # 1 code x 1 schedule x 1 p x 2 bases -> 2 DEMs, 2 decoders,
        # shared across both estimators (4 jobs).
        assert sorted(calls["dem"]) == ["x", "z"]
        assert sorted(calls["decoder"]) == [("x", "auto"), ("z", "auto")]

    def test_one_decoder_per_compile_key_and_decoder(self, tmp_path, monkeypatch):
        calls = count_compiles(monkeypatch)
        spec = CampaignSpec(
            name="two-decoders",
            codes=("surface_d3",),
            schedules=("nz",),
            p_values=(3e-3,),
            bases=("z", "x"),
            decoders=("auto", "matching"),
            shots=128,
            chunk_size=64,
        )
        report = run_campaign(spec, store=tmp_path / "s", cache=CompileCache())
        assert len(report.executed) == 4
        assert sorted(calls["dem"]) == ["x", "z"]
        assert sorted(calls["decoder"]) == [
            (basis, decoder) for basis in "xz" for decoder in ("auto", "matching")
        ]

    def test_completed_campaign_skips_compilation(self, tmp_path, monkeypatch):
        spec = smoke_spec()
        run_campaign(spec, store=tmp_path / "s")
        calls = count_compiles(monkeypatch)
        report = run_campaign(spec, store=tmp_path / "s", cache=CompileCache())
        assert report.executed == []
        assert calls == {"dem": [], "decoder": []}

    def test_shared_cache_writes_each_stores_syndrome_cache(self, tmp_path):
        """One CompileCache (so one decoder) serving two stores fills a
        ``syndromes/`` cache in each: the second store's jobs must not
        keep appending to the first store's cache."""
        cache = CompileCache()
        spec = dataclasses.replace(smoke_spec(), estimators=("direct",))
        for name in ("a", "b"):
            run_campaign(spec, store=tmp_path / name, cache=cache)
        contents = []
        for name in ("a", "b"):
            syn_dir = tmp_path / name / "syndromes"
            files = sorted(os.listdir(syn_dir))
            assert files and all(f.startswith("syn-") for f in files)
            contents.append(
                {f: sorted((syn_dir / f).read_bytes().splitlines()) for f in files}
            )
        assert contents[0] == contents[1]


class TestZeroRecompute:
    def test_second_invocation_never_samples(self, tmp_path, monkeypatch):
        jobs = _small_jobs()
        run_campaign(jobs, store=tmp_path / "s")

        def _boom(*args, **kwargs):
            raise AssertionError("sampling ran on a completed campaign")

        monkeypatch.setattr(campaign_mod, "execute_job", _boom)
        report = run_campaign(jobs, store=tmp_path / "s")
        assert report.executed == [] and report.hits == len(set(
            j.key() for j in jobs
        ))


class TestEarlyStopHonesty:
    def test_store_records_consumed_not_planned(self, tmp_path):
        job = CampaignJob(
            code="surface_d3",
            schedule="nz",
            basis="z",
            p=2e-2,
            shots=20_000,
            chunk_size=256,
            max_failures=10,
        )
        report = run_campaign([job], store=tmp_path / "s")
        result = report.record(job)["result"]
        est = RateEstimate.from_dict(result["estimate"])
        assert result["early_stopped"] is True
        assert result["consumed_shots"] == est.shots < result["planned_shots"]
        assert est.interval == wilson_interval(est.failures, est.shots)
        (row,) = export_rows(report.store, [job])
        assert row["shots"] == est.shots
        assert row["planned_shots"] == 20_000


# -- figure runners over the store ------------------------------------------


def _forbid_execution(monkeypatch):
    def _boom(*args, **kwargs):
        raise AssertionError("figure re-render sampled instead of using store")

    monkeypatch.setattr(campaign_mod, "execute_job", _boom)


class TestRunnersOverStore:
    def test_fig06_rerender_identical_zero_sampling(self, tmp_path, monkeypatch):
        kwargs = dict(p_values=(5e-3,), shots=640)
        first = fig06_schedules.run(store=tmp_path / "s", **kwargs).format_table()
        _forbid_execution(monkeypatch)
        second = fig06_schedules.run(store=tmp_path / "s", **kwargs).format_table()
        assert first == second

    def test_fig12_rerender_identical_zero_sampling(self, tmp_path, monkeypatch):
        kwargs = dict(
            codes=("surface_d3",),
            p_values=(3e-3,),
            shots=320,
            iterations=1,
            samples=5,
        )
        first = fig12_benchmarks.run(store=tmp_path / "s", **kwargs).format_table()
        _forbid_execution(monkeypatch)
        second = fig12_benchmarks.run(store=tmp_path / "s", **kwargs).format_table()
        assert first == second

    def test_fig14lowp_rerender_identical_zero_sampling(self, tmp_path, monkeypatch):
        kwargs = dict(
            codes=("surface_d3",),
            direct_shots=1024,
            max_strat_shots=4096,
            target_rel_halfwidth=0.5,
            deep_p=(1e-3,),
            deep=True,
        )
        first = fig14_lowp.run(store=tmp_path / "s", **kwargs).format_table()
        _forbid_execution(monkeypatch)
        second = fig14_lowp.run(store=tmp_path / "s", **kwargs).format_table()
        assert first == second


class TestLabeledRecords:
    def test_label_lives_on_envelope_not_in_hashed_payload(self, tmp_path):
        """key == job_key(record['job']) must hold for labeled records:
        display labels ride the record envelope, never the hash preimage."""
        job = CampaignJob(
            code="surface_d3", schedule="nz", basis="z", p=8e-3, shots=128
        )
        report = run_campaign(
            [job], store=tmp_path / "s", labels={job.key(): "pretty-name"}
        )
        record = report.record(job)
        assert record["label"] == "pretty-name"
        assert job_key(record["job"]) == record["key"] == job.key()
        assert CampaignJob.from_payload(record["job"]) == job
        (row,) = export_rows(report.store, [job])
        assert row["schedule"] == "pretty-name"


class TestSpecSerialization:
    def test_spec_json_roundtrip(self, tmp_path):
        spec = smoke_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = CampaignSpec.from_json_file(str(path))
        assert loaded == spec
        assert [j.key() for j in loaded.expand()] == [
            j.key() for j in spec.expand()
        ]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec fields"):
            CampaignSpec.from_dict(
                {"name": "x", "codes": [], "p_values": [], "wokers": 3}
            )
