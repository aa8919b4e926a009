"""The distributed campaign service: sharded store, leases, worker fleet.

The load-bearing claim: any fleet of racing workers — including one
killed mid-batch and taken over — produces a store whose compacted
bytes are identical to a single-process :func:`run_campaign`.  Every
test here is some projection of that claim.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.campaign import CampaignSpec, run_campaign, smoke_spec
from repro.experiments.service import (
    DEFAULT_SKEW_GRACE,
    affinity_key,
    claim_lease,
    lease_dir,
    lease_expired,
    plan_groups,
    queue_path,
    read_lease,
    read_queue,
    release_lease,
    renew_lease,
    serve_campaign,
    worker_loop,
    write_queue,
)
from repro.experiments.shotrunner import ExecutionConfig
from repro.experiments.store import ResultStore, canonical_json, job_key

# A tiny two-affinity-group campaign (4 jobs: 2 bases x 2 estimators)
# whose direct jobs take milliseconds.
SPEC = smoke_spec()


def tiny_spec(seed: int = 0) -> CampaignSpec:
    """Direct-only, both bases, two rates: 4 jobs, 4 affinity groups."""
    return CampaignSpec(
        name="tiny",
        codes=("surface_d3",),
        schedules=("nz",),
        p_values=(2e-3, 3e-3),
        bases=("z", "x"),
        shots=256,
        chunk_size=128,
        seed=seed,
    )


def shard_bytes(path) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        if name.startswith("results") and name.endswith(".jsonl"):
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = fh.read()
    return out


def _listdir(path) -> list[str]:
    try:
        return os.listdir(path)
    except FileNotFoundError:
        return []


# -- sharded store -----------------------------------------------------------


def write_legacy_store(path, records) -> None:
    """A store as runs before sharding left it: one ``results.jsonl``."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "results.jsonl"), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(canonical_json(record) + "\n")


class TestShardedStore:
    def test_fresh_store_writes_shards(self, tmp_path):
        key = job_key({"a": 1})
        store = ResultStore(tmp_path / "s")
        store.put(key, {"a": 1}, {"r": 1})
        assert os.listdir(tmp_path / "s") == [f"results-{key[0]}.jsonl"]

    def test_appends_route_by_key_prefix(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        keys = []
        for i in range(8):
            key = job_key({"i": i})
            keys.append(key)
            store.put(key, {"i": i}, {"r": i})
        files = {
            name
            for name in os.listdir(tmp_path / "s")
            if name.startswith("results")
        }
        assert files == {f"results-{k[:1]}.jsonl" for k in keys}
        reread = ResultStore(tmp_path / "s")
        assert sorted(reread.keys()) == sorted(keys)

    def test_sharded_handle_reads_legacy_store_identically(self, tmp_path):
        """A hand-written legacy store reads, resumes into shards, and
        compacts to width-1 shards with the legacy file gone."""
        records = [
            {
                "key": job_key({"i": i}),
                "job": {"i": i},
                "result": {"r": i},
                "label": f"L{i}",
                "meta": {"elapsed_s": 0.5},
            }
            for i in range(6)
        ]
        # Wider-prefix shards from older fleets are read too.
        wide = {"key": job_key({"w": 1}), "job": {"w": 1}, "result": {"r": 7}}
        write_legacy_store(tmp_path / "s", records)
        with open(tmp_path / "s" / f"results-{wide['key'][:2]}.jsonl", "w") as fh:
            fh.write(canonical_json(wide) + "\n")
        legacy = tmp_path / "s" / "results.jsonl"
        before = legacy.read_bytes()

        store = ResultStore(tmp_path / "s")
        assert {k: store.get(k) for k in store.keys()} == {
            r["key"]: r for r in records + [wide]
        }
        # Resume: new appends land in shards, the legacy file is untouched.
        extra = job_key({"extra": True})
        store.put(extra, {"extra": True}, {"r": 99})
        assert legacy.read_bytes() == before
        assert (tmp_path / "s" / f"results-{extra[0]}.jsonl").exists()
        assert ResultStore(tmp_path / "s").get(extra) is not None

        digest = store.content_digest()
        summary = store.compact()
        assert summary["records"] == 8
        assert not legacy.exists()
        names = sorted(shard_bytes(tmp_path / "s"))
        assert names == sorted({f"results-{k[0]}.jsonl" for k in store.keys()})
        reread = ResultStore(tmp_path / "s")
        assert reread.content_digest() == digest == store.content_digest()

    def test_incremental_reload_tails_other_writers(self, tmp_path):
        a = ResultStore(tmp_path / "s")
        b = ResultStore(tmp_path / "s")
        k1 = job_key({"n": 1})
        a.put(k1, {"n": 1}, {"r": 1})
        assert k1 not in b
        b.reload()
        assert k1 in b
        k2 = job_key({"n": 2})
        a.put(k2, {"n": 2}, {"r": 2})
        b.reload()
        assert k2 in b and len(b) == 2

    def test_own_append_does_not_skip_other_writers(self, tmp_path):
        """A handle's own append must not move its tail offset past a
        record another handle wrote to the same file first; a fleet
        worker that missed it would run that job again."""
        a = ResultStore(tmp_path / "s")
        b = ResultStore(tmp_path / "s")
        keys = [f"a{n}" for n in range(3)]  # one shard: results-a.jsonl
        a.put(keys[0], {"n": 0}, {"r": 0})
        b.put(keys[1], {"n": 1}, {"r": 1})
        a.put(keys[2], {"n": 2}, {"r": 2})
        a.reload()
        assert sorted(a.keys()) == sorted(keys)

    def test_reload_survives_foreign_compaction(self, tmp_path):
        a = ResultStore(tmp_path / "s")
        for i in range(5):
            a.put(job_key({"i": i}), {"i": i}, {"r": i}, meta={"elapsed_s": 0.5})
        b = ResultStore(tmp_path / "s")
        a.compact()  # rewrites files under b's feet (files may shrink)
        b.reload()
        assert len(b) == 5
        assert all("meta" not in r for r in b.records())

    def test_partial_trailing_line_tolerated_per_shard(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = job_key({"x": 1})
        store.put(key, {"x": 1}, {"r": 1})
        shard = tmp_path / "s" / f"results-{key[:1]}.jsonl"
        with open(shard, "ab") as fh:
            fh.write(b'{"key": "torn')  # killed mid-append
        reread = ResultStore(tmp_path / "s")
        assert reread.keys() == [key]
        # The next writer terminates the orphan; its record survives.
        key2 = job_key({"x": 2})
        reread.put(key2, {"x": 2}, {"r": 2})
        assert sorted(ResultStore(tmp_path / "s").keys()) == sorted([key, key2])

    def test_compaction_is_byte_deterministic(self, tmp_path):
        jobs = [({"i": i}, {"r": i * i}) for i in range(10)]
        a = ResultStore(tmp_path / "a")
        for job, result in jobs:
            a.put(job_key(job), job, result, meta={"worker": "w0"})
        # Different order, layout (a legacy file), meta, and a duplicate.
        write_legacy_store(
            tmp_path / "b",
            [
                {
                    "key": job_key(job),
                    "job": job,
                    "result": result,
                    "meta": {"worker": "w1", "elapsed_s": 1.0},
                }
                for job, result in reversed(jobs)
            ],
        )
        b = ResultStore(tmp_path / "b")
        job, result = jobs[3]
        b.put(job_key(job), job, result)
        assert a.content_digest() == b.content_digest()
        a.compact()
        b.compact()
        assert shard_bytes(tmp_path / "a") == shard_bytes(tmp_path / "b")
        assert not (tmp_path / "b" / "results.jsonl").exists()

    def test_query_by_key_prefix_and_job_fields(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for i in range(4):
            job = {"code": f"c{i % 2}", "i": i}
            store.put(job_key(job), job, {"r": i})
        assert len(store.query(code="c0")) == 2
        some_key = store.keys()[0]
        assert store.query(key_prefix=some_key[:8])[0]["key"] == some_key


# -- queue + affinity --------------------------------------------------------


class TestQueueAndAffinity:
    def test_queue_round_trip_and_dedup(self, tmp_path):
        jobs = SPEC.expand() + SPEC.expand()  # duplicates collapse
        write_queue(tmp_path, jobs, labels={jobs[0].key(): "first"})
        entries = read_queue(tmp_path)
        assert len(entries) == len(SPEC.expand())
        assert entries[0]["key"] == job_key(entries[0]["job"])
        by_key = {e["key"]: e for e in entries}
        assert by_key[jobs[0].key()]["label"] == "first"

    def test_read_queue_missing_and_torn(self, tmp_path):
        assert read_queue(tmp_path) is None
        write_queue(tmp_path, SPEC.expand())
        qpath = os.path.join(tmp_path, "service", "queue.json")
        with open(qpath, "w") as fh:
            fh.write('{"format": "campaign-queue-v1", "jobs": [')
        with pytest.raises(ValueError):
            read_queue(tmp_path)

    def test_affinity_groups_by_compile_config(self):
        jobs = SPEC.expand()  # (z, x) x (direct, rare-event)
        groups = plan_groups(
            [{"key": j.key(), "job": j.to_payload()} for j in jobs]
        )
        # Both estimators of one basis share a DEM/decoder -> 2 groups.
        assert len(groups) == 2
        assert all(len(entries) == 2 for _, entries in groups)
        zs = [j for j in jobs if j.basis == "z"]
        assert len({affinity_key(j.to_payload()) for j in zs}) == 1

    def test_plan_is_deterministic(self):
        entries = [
            {"key": j.key(), "job": j.to_payload()} for j in tiny_spec().expand()
        ]
        assert plan_groups(entries) == plan_groups(list(reversed(entries)))


# -- leases ------------------------------------------------------------------


class TestLeases:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        path = str(tmp_path / "g.lease")
        assert claim_lease(path, "w0", ttl=60)
        assert not claim_lease(path, "w1", ttl=60)
        release_lease(path, "w1")  # not the owner: no-op
        assert read_lease(path)["worker"] == "w0"
        release_lease(path, "w0")
        assert claim_lease(path, "w1", ttl=60)

    def test_expired_lease_is_taken_over(self, tmp_path):
        path = str(tmp_path / "g.lease")
        assert claim_lease(path, "w0", ttl=0.05)
        time.sleep(0.1)
        assert lease_expired(read_lease(path), skew_grace_s=0.0)
        assert claim_lease(path, "w1", ttl=60, skew_grace_s=0.0)
        assert read_lease(path)["worker"] == "w1"

    def test_renew_extends_and_detects_loss(self, tmp_path):
        path = str(tmp_path / "g.lease")
        claim_lease(path, "w0", ttl=0.05)
        assert renew_lease(path, "w0", ttl=60)
        assert not lease_expired(read_lease(path))
        assert not renew_lease(path, "w1", ttl=60)  # not the owner
        # Owner loses the lease to a takeover after expiry:
        claim_lease(str(tmp_path / "h.lease"), "w0", ttl=0.0)
        time.sleep(0.01)
        claim_lease(str(tmp_path / "h.lease"), "w1", ttl=60, skew_grace_s=0.0)
        assert not renew_lease(str(tmp_path / "h.lease"), "w0", ttl=60)

    def test_simultaneous_fresh_claims_have_one_winner(self, tmp_path):
        """A fresh claim is visible only with its content: a racing
        claimer must never read it half-written, take it for a torn
        lease, and take over a group its owner is still running."""
        start = threading.Barrier(2)
        winners: list[int] = []

        def contend(path: str, name: str) -> None:
            start.wait(timeout=10)
            if claim_lease(path, name, ttl=60):
                winners.append(1)

        for i in range(300):
            path = str(tmp_path / f"g{i}.lease")
            threads = [
                threading.Thread(target=contend, args=(path, name))
                for name in ("w0", "w1")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(winners) == i + 1, f"round {i}"

    def test_torn_lease_write_is_takeover_eligible(self, tmp_path):
        path = str(tmp_path / "g.lease")
        with open(path, "w") as fh:
            fh.write('{"format": "campaign-le')
        assert claim_lease(path, "w1", ttl=60)
        assert read_lease(path)["worker"] == "w1"

    def test_skew_grace_pads_expiry(self, tmp_path):
        """A lapsed TTL is not takeover-eligible until the skew budget
        has also passed — a taker with a fast clock must not steal a
        live worker's group."""
        path = str(tmp_path / "g.lease")
        assert claim_lease(path, "w0", ttl=0.05)
        time.sleep(0.1)
        lease = read_lease(path)
        # Inside the grace window the lease is still honored...
        assert not lease_expired(lease, skew_grace_s=60.0)
        assert not claim_lease(path, "w1", ttl=60, skew_grace_s=60.0)
        assert read_lease(path)["worker"] == "w0"
        # ...with no grace it is takeover-eligible (the old behavior).
        assert lease_expired(lease, skew_grace_s=0.0)
        assert claim_lease(path, "w1", ttl=60, skew_grace_s=0.0)
        assert read_lease(path)["worker"] == "w1"

    def test_skew_grace_default_absorbs_small_clock_skew(self):
        # Stamped by a host whose clock runs a second behind ours: raw
        # comparison calls it expired, the default grace does not.
        lease = {"worker": "w0", "expires_at": time.time() - 1.0}
        assert lease_expired(lease, skew_grace_s=0.0)
        assert not lease_expired(lease)
        assert lease_expired(
            lease, now=time.time() + DEFAULT_SKEW_GRACE + 2.0
        )

    def test_negative_grace_is_clamped_to_raw_comparison(self):
        lease = {"worker": "w0", "expires_at": time.time() + 30.0}
        assert not lease_expired(lease, skew_grace_s=-100.0)


# -- the fleet ---------------------------------------------------------------


class TestFleetDeterminism:
    def test_single_worker_matches_run_campaign(self, tmp_path):
        run_campaign(tiny_spec(), store=str(tmp_path / "single"))
        write_queue(tmp_path / "fleet", tiny_spec().expand())
        report = worker_loop(tmp_path / "fleet", worker_id="w0", poll=0.05)
        assert len(report.executed) == 4
        a = ResultStore(tmp_path / "single")
        b = ResultStore(tmp_path / "fleet")
        assert a.content_digest() == b.content_digest()
        a.compact()
        b.compact()
        assert shard_bytes(tmp_path / "single") == shard_bytes(tmp_path / "fleet")

    def test_two_inprocess_workers_byte_identical(self, tmp_path):
        run_campaign(SPEC, store=str(tmp_path / "single"))
        report = serve_campaign(
            SPEC,
            tmp_path / "fleet",
            n_workers=2,
            ttl=10,
            poll=0.05,
            timeout=300,
        )
        assert report.complete
        assert sum(len(w.executed) for w in report.workers) == 4
        a = ResultStore(tmp_path / "single")
        b = ResultStore(tmp_path / "fleet")
        assert a.content_digest() == b.content_digest()
        # Fleet records carry worker provenance; compaction strips it.
        assert all(r["meta"]["worker"] for r in b.records())
        a.compact()
        b.compact()
        assert shard_bytes(tmp_path / "single") == shard_bytes(tmp_path / "fleet")

    def test_serve_resumes_and_skips_stored_jobs(self, tmp_path):
        serve_campaign(SPEC, tmp_path / "s", n_workers=1, poll=0.05, timeout=300)
        report = serve_campaign(
            SPEC, tmp_path / "s", n_workers=1, poll=0.05, timeout=300
        )
        assert report.already_stored == 4
        assert sum(len(w.executed) for w in report.workers) == 0

    def test_serve_timeout_raises(self, tmp_path):
        with pytest.raises(TimeoutError):
            serve_campaign(SPEC, tmp_path / "s", n_workers=0, timeout=0.2, poll=0.05)

    def test_inprocess_fleet_refuses_shot_pools(self, tmp_path):
        """Worker threads plus forked shot-runner pools would fork while
        other threads hold locks: refused before the queue is written."""
        store = tmp_path / "s"
        with pytest.raises(ValueError, match="n_workers=0"):
            serve_campaign(
                SPEC, store, n_workers=2, config=ExecutionConfig(workers=2)
            )
        assert not os.path.exists(queue_path(store))
        assert not store.exists()

    def test_crash_recovery_via_expired_lease(self, tmp_path):
        """A dangling lease from a dead worker is taken over after TTL."""
        spec = tiny_spec()
        jobs = spec.expand()
        write_queue(tmp_path / "fleet", jobs)
        # Simulate the crash: a worker claimed a group and died without
        # releasing (chaos_exit_after does exactly this in-process).
        groups = plan_groups(read_queue(tmp_path / "fleet"))
        dead_aff = groups[0][0]
        lease = os.path.join(lease_dir(tmp_path / "fleet"), f"{dead_aff}.lease")
        assert claim_lease(lease, "dead-worker", ttl=0.2)
        report = worker_loop(
            tmp_path / "fleet",
            worker_id="rescuer",
            ttl=5,
            poll=0.05,
            skew_grace_s=0.0,
        )
        assert report.takeovers >= 1
        assert len(report.executed) == len(jobs)
        run_campaign(spec, store=str(tmp_path / "single"))
        assert (
            ResultStore(tmp_path / "single").content_digest()
            == ResultStore(tmp_path / "fleet").content_digest()
        )

    def test_max_jobs_bounds_a_worker(self, tmp_path):
        write_queue(tmp_path / "s", tiny_spec().expand())
        report = worker_loop(tmp_path / "s", max_jobs=1, poll=0.05)
        assert len(report.executed) == 1

    def test_once_pass_returns_without_queue(self, tmp_path):
        report = worker_loop(tmp_path / "empty", once=True)
        assert report.executed == [] and report.passes == 1


class TestRacingProcesses:
    def test_two_cli_workers_race_to_byte_identity(self, tmp_path):
        """Two real processes, one chaos-killed mid-run, end in the same
        bytes as a single-process campaign."""
        store = tmp_path / "fleet"
        write_queue(store, SPEC.expand(), name=SPEC.name)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )

        def spawn(*extra):
            return subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "campaign",
                    "worker",
                    "--store",
                    str(store),
                    "--poll",
                    "0.05",
                    *extra,
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

        chaos = spawn("--ttl", "1", "--chaos-exit-after", "1")
        # Start the steady worker once the chaos worker holds a lease:
        # started together, the steady one can finish every job before
        # the chaos one has claimed any, and the drill never happens.
        deadline = time.monotonic() + 120
        while not any(name.endswith(".lease") for name in _listdir(lease_dir(store))):
            assert chaos.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        steady = spawn("--ttl", "5", "--timeout", "240")
        assert chaos.wait(timeout=240) == 42  # died holding its lease
        assert steady.wait(timeout=240) == 0
        run_campaign(SPEC, store=str(tmp_path / "single"))
        a = ResultStore(tmp_path / "single")
        b = ResultStore(store)
        assert sorted(a.keys()) == sorted(b.keys())
        assert a.content_digest() == b.content_digest()
        a.compact()
        b.compact()
        assert shard_bytes(tmp_path / "single") == shard_bytes(store)
