"""Tests for the command-line interfaces."""

import pytest

from repro.cli import build_parser, main as cli_main
from repro.experiments.runner import main as runner_main


class TestCli:
    def test_codes_listing(self, capsys):
        assert cli_main(["codes"]) == 0
        out = capsys.readouterr().out
        assert "surface_d3" in out and "lp39" in out

    def test_evaluate_runs(self, capsys):
        args = ["evaluate", "surface_d3", "--shots", "400", "--samples", "6"]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "LER" in out

    def test_evaluate_rare_event_runs(self, capsys):
        args = [
            "evaluate",
            "surface_d3",
            "--rare-event",
            "--p",
            "3e-3",
            "--shots",
            "8000",
            "--samples",
            "5",
        ]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "stratified z-basis LER" in out
        assert "combined LER" in out
        assert "direct MC would need" in out

    def test_optimize_runs(self, capsys):
        args = [
            "optimize",
            "surface_d3",
            "--iterations",
            "1",
            "--samples",
            "6",
            "--shots",
            "400",
        ]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "improvement" in out or "->" in out

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_bad_noise_token_exits_cleanly(self):
        with pytest.raises(SystemExit, match="bad --noise spec"):
            cli_main(["evaluate", "surface_d3", "--noise", "biased-10"])


class TestRunnerCli:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            runner_main(["not-an-experiment"])

    def test_table1_runs(self, capsys):
        assert runner_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out


class TestCampaignCli:
    def test_smoke_run_and_resume_check(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert cli_main(["campaign", "run", "--smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 executed" in out
        assert "resume check: 4 store hits, 0 recomputed" in out

    def test_smoke_run_compacts_before_its_resume_pass(self, tmp_path, capsys):
        """The CI smoke gate covers compaction followed by resume: the
        store the resume pass reads is the compacted one."""
        import json

        store = tmp_path / "store"
        assert cli_main(["campaign", "run", "--smoke", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "compacted: 4 records in" in out
        assert out.index("compacted:") < out.index("resume check:")
        assert "resume check: 4 store hits, 0 recomputed" in out
        shards = sorted(store.glob("results*.jsonl"))
        assert shards
        assert all(len(p.name) == len("results-0.jsonl") for p in shards)
        for path in shards:
            records = [json.loads(line) for line in path.read_text().splitlines()]
            # Compacted: no meta envelopes, records in key order, and the
            # resume pass appended nothing.
            assert all("meta" not in r for r in records)
            keys = [r["key"] for r in records]
            assert keys == sorted(set(keys))

    def test_run_with_workers_reports_the_cache_on_disk(self, tmp_path, capsys):
        """The cache line is the on-disk census ``campaign status`` prints,
        so entries written by pool workers are counted."""
        import os

        from repro.decoders.syncache import summarize_cache_dir

        store = str(tmp_path / "store")
        args = ["campaign", "run", "--smoke", "--store", store, "--workers", "2"]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        syn_dir = os.path.join(store, "syndromes")
        census = summarize_cache_dir(syn_dir)
        assert census["files"] > 0 and census["entries"] > 0
        assert (
            f"syndrome cache: {census['entries']} entries across "
            f"{census['files']} files in {syn_dir}"
        ) in out

    def test_spec_file_run_status_export(self, tmp_path, capsys):
        import json

        from repro.experiments.campaign import smoke_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(smoke_spec().to_dict()))
        store = str(tmp_path / "store")

        assert cli_main(["campaign", "run", str(spec_path), "--store", store]) == 0
        capsys.readouterr()

        assert (
            cli_main(["campaign", "status", str(spec_path), "--store", store]) == 0
        )
        assert "4/4 jobs complete" in capsys.readouterr().out

        assert cli_main(["campaign", "status", "--store", store]) == 0
        assert "4 records" in capsys.readouterr().out

        out_file = tmp_path / "rows.json"
        assert (
            cli_main(
                [
                    "campaign",
                    "export",
                    str(spec_path),
                    "--store",
                    store,
                    "--format",
                    "json",
                    "--output",
                    str(out_file),
                ]
            )
            == 0
        )
        rows = json.loads(out_file.read_text())
        assert len(rows) == 4
        assert {r["estimator"] for r in rows} == {"direct", "rare-event"}

    def test_telemetry_commands_end_to_end(self, tmp_path, capsys):
        import json

        from repro import obs

        store = str(tmp_path / "store")
        with obs.enabled_to(True):
            assert cli_main(["campaign", "run", "--smoke", "--store", store]) == 0
        capsys.readouterr()

        assert (
            cli_main(["campaign", "status", "--store", store, "--telemetry"])
            == 0
        )
        out = capsys.readouterr().out
        assert "telemetry sidecars:" in out
        assert "job" in out and "share" in out
        assert "store: 4 appends" in out

        assert cli_main(["campaign", "top", "--store", store]) == 0
        out = capsys.readouterr().out
        # run_campaign is not a fleet: no heartbeats, just the hint.
        assert "heartbeats" in out

        trace_path = tmp_path / "trace.json"
        assert (
            cli_main(
                [
                    "campaign",
                    "trace",
                    "--store",
                    store,
                    "--output",
                    str(trace_path),
                ]
            )
            == 0
        )
        doc = json.loads(trace_path.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_trace_of_uninstrumented_store_fails_unless_allowed(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert cli_main(["campaign", "run", "--smoke", "--store", store]) == 0
        capsys.readouterr()
        out_path = str(tmp_path / "trace.json")
        args = ["campaign", "trace", "--store", store, "--output", out_path]
        assert cli_main(args) == 1
        assert cli_main(args + ["--allow-empty"]) == 0

    def test_biased_noise_campaign_end_to_end_with_byte_identical_resume(
        self, tmp_path, capsys
    ):
        """Acceptance: an (eta x p) biased-noise grid runs through
        ``campaign run``, and losing a store suffix then resuming
        rebuilds the exact bytes an uninterrupted run produced."""
        import json

        spec_path = tmp_path / "bias.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "bias-sweep",
                    "codes": ["surface_d3"],
                    "schedules": ["nz"],
                    "p_values": [4e-3, 8e-3],
                    "bases": ["z"],
                    "noises": ["biased:0.5", "biased:10", "biased:100"],
                    "shots": 192,
                    "chunk_size": 64,
                    "seed": 0,
                }
            )
        )
        store = tmp_path / "store"
        assert cli_main(["campaign", "run", str(spec_path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "6 jobs, 0 store hits, 6 executed" in out
        assert "noise=biased:10" in out

        def records_sans_timing():
            rows = []
            for path in sorted(store.glob("results-*.jsonl")):
                for line in path.read_text().splitlines():
                    record = json.loads(line)
                    record.pop("meta", None)  # wall clock / worker provenance
                    rows.append(json.dumps(record, sort_keys=True))
            return rows

        full = records_sans_timing()
        # Interrupt: lose the last two jobs' records (the trailing lines
        # of their shards), then resume.
        from repro.experiments.campaign import CampaignSpec

        jobs = CampaignSpec.from_json_file(spec_path).expand()
        lost = {job.key() for job in jobs[-2:]}
        for path in store.glob("results-*.jsonl"):
            lines = path.read_text().splitlines(keepends=True)
            path.write_text(
                "".join(line for line in lines if json.loads(line)["key"] not in lost)
            )
        assert cli_main(["campaign", "run", str(spec_path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "4 store hits, 2 executed" in out
        assert records_sans_timing() == full

        out_file = tmp_path / "rows.json"
        assert (
            cli_main(
                [
                    "campaign",
                    "export",
                    str(spec_path),
                    "--store",
                    str(store),
                    "--format",
                    "json",
                    "--output",
                    str(out_file),
                ]
            )
            == 0
        )
        rows = json.loads(out_file.read_text())
        assert {r["noise"] for r in rows} == {
            "biased:0.5",
            "biased:10",
            "biased:100",
        }

    def test_run_without_spec_or_smoke_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "run", "--store", str(tmp_path / "s")])

    def test_bad_noise_token_in_spec_file_exits_cleanly(self, tmp_path):
        import json

        spec_path = tmp_path / "typo.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "typo",
                    "codes": ["surface_d3"],
                    "p_values": [1e-3],
                    "noises": ["biased-10"],
                }
            )
        )
        with pytest.raises(SystemExit, match="bad campaign spec"):
            cli_main(
                [
                    "campaign",
                    "run",
                    str(spec_path),
                    "--store",
                    str(tmp_path / "s"),
                ]
            )
        # Non-string noise entries (TypeError) and incomplete inline
        # channel payloads (bare KeyError) get the same clean exit.
        # A misspelled top-level spec field and malformed JSON exit
        # cleanly too.
        spec_path.write_text('{"name": "x", "codes": [], "noise": ["nz"]}')
        with pytest.raises(SystemExit, match="bad campaign spec"):
            cli_main(
                ["campaign", "run", str(spec_path), "--store", str(tmp_path / "s")]
            )
        spec_path.write_text("{not json")
        with pytest.raises(SystemExit, match="bad campaign spec"):
            cli_main(
                ["campaign", "run", str(spec_path), "--store", str(tmp_path / "s")]
            )
        incomplete = {"format": "noise-spec-v1", "sq": {"kind": "depolarizing"}}
        for bad_noises in ([0.5], [incomplete]):
            spec_path.write_text(
                json.dumps(
                    {
                        "name": "typo",
                        "codes": ["surface_d3"],
                        "p_values": [1e-3],
                        "noises": bad_noises,
                    }
                )
            )
            with pytest.raises(SystemExit, match="bad campaign spec"):
                cli_main(
                    [
                        "campaign",
                        "run",
                        str(spec_path),
                        "--store",
                        str(tmp_path / "s"),
                    ]
                )

    def test_export_csv_to_stdout(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert cli_main(["campaign", "run", "--smoke", "--store", store]) == 0
        capsys.readouterr()
        assert cli_main(["campaign", "export", "--store", store]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("key,code,schedule")


class TestScheduleOutput:
    def test_optimize_writes_schedule(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        args = [
            "optimize",
            "surface_d3",
            "--iterations",
            "1",
            "--samples",
            "5",
            "--shots",
            "200",
            "--output",
            str(out),
        ]
        assert cli_main(args) == 0
        from repro.circuits import schedule_from_json
        from repro.codes import rotated_surface_code

        schedule = schedule_from_json(out.read_text(), rotated_surface_code(3))
        assert schedule.is_valid()
