"""Command-line face of the PropHunt tool.

Optimize a benchmark code's SM circuit and report before/after metrics::

    python -m repro.cli optimize surface_d3 --iterations 5 --samples 40
    python -m repro.cli evaluate lp39 --p 1e-3 --shots 4000
    python -m repro.cli codes

Run declarative sweep campaigns against a persistent result store::

    python -m repro.cli campaign run sweep.json --store results/
    python -m repro.cli campaign status sweep.json --store results/
    python -m repro.cli campaign export --store results/ --format csv
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .analysis.deff import estimate_effective_distance
from .circuits import coloration_schedule
from .codes import BENCHMARK_CODES, load_benchmark_code
from .core import PropHunt, PropHuntConfig
from .experiments.shotrunner import ExecutionConfig, estimate_logical_error_rate


def broken_pipe_safe(fn):
    """Treat a downstream reader going away as success, not a traceback.

    Commands that print tables (``campaign top``, ``status``,
    ``export``, ``stream``) are routinely piped into ``head`` or a
    pager; when the consumer closes the pipe mid-table the command has
    done its job.  Swallow the ``BrokenPipeError`` and detach stdout so
    the interpreter's exit flush cannot raise a second time.
    """

    @functools.wraps(fn)
    def wrapper(args) -> int:
        try:
            return fn(args)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 0

    return wrapper


def cmd_codes(_args) -> int:
    for name in BENCHMARK_CODES:
        code = load_benchmark_code(name)
        weights = code.stabilizer_weights()
        print(
            f"{name:12s} {code.label():28s} "
            f"stab weights {sorted(set(weights['x']) | set(weights['z']))}"
        )
    return 0


def _bad_spec_detail(exc: BaseException) -> str:
    """Human-readable cause for a rejected noise/campaign spec.

    Sentence-style messages pass through; bare details (e.g. the
    ``KeyError('p')`` of a channel payload missing a field) keep their
    exception type as the hint.
    """
    detail = exc.args[0] if exc.args else exc
    if isinstance(detail, str) and " " in detail:
        return detail
    return f"{type(exc).__name__}: {detail!r}"


def _resolved_noise(args) -> "object | None":
    """Resolve ``--noise`` plus an optional ``--noise-profile`` file.

    Returns ``None`` when neither flag is set (the default depolarizing
    path downstream), otherwise the fully resolved ``NoiseSpec`` with
    the device profile attached — the profile payload is inlined into
    the spec, never carried as a path.  A typo'd token or unreadable
    profile must not traceback.
    """
    profile_path = getattr(args, "noise_profile", None)
    if args.noise is None and not profile_path:
        return None
    import dataclasses

    from .noise.spec import resolve_noise

    try:
        spec = resolve_noise(args.noise, args.p)
    except (KeyError, ValueError, TypeError) as exc:
        raise SystemExit(f"bad --noise spec: {_bad_spec_detail(exc)}")
    if profile_path:
        from .noise.profile import load_device_profile

        try:
            spec = dataclasses.replace(
                spec, profile=load_device_profile(profile_path)
            )
        except OSError as exc:
            raise SystemExit(f"bad --noise-profile: {exc}")
        except ValueError as exc:
            raise SystemExit(f"bad --noise-profile: {_bad_spec_detail(exc)}")
    return spec


def cmd_evaluate(args) -> int:
    noise = _resolved_noise(args)
    code = load_benchmark_code(args.code)
    schedule = coloration_schedule(code)
    rng = np.random.default_rng(args.seed)
    deff = estimate_effective_distance(code, schedule, samples=args.samples, rng=rng)
    print(f"code            : {code.label()}")
    print(f"circuit         : coloration, CNOT depth {schedule.cnot_depth()}")
    print(f"d_eff estimate  : {deff.deff}")
    if args.noise:
        print(f"noise           : {args.noise}")
    if getattr(args, "noise_profile", None):
        print(f"device profile  : {args.noise_profile}")
    if args.rare_event:
        _evaluate_rare_event(code, schedule, args, rng, noise=noise)
    else:
        ler = estimate_logical_error_rate(
            code,
            schedule,
            p=args.p,
            shots=args.shots,
            rng=rng,
            noise=noise,
            config=ExecutionConfig(workers=args.workers),
        )
        print(f"LER @ p={args.p:g} : {ler.rate:.3e} ({ler.shots} shots/basis)")
    return 0


def _evaluate_rare_event(
    code, schedule, args, rng: np.random.Generator, noise=None
) -> None:
    """Weight-stratified LER: resolves rates far below 1/shots.

    ``--shots`` caps the decoded-shot budget per basis; the estimator
    stops early once the interval half-width reaches
    ``--target-rel-ci`` of the estimate.
    """
    from .decoders.metrics import dem_for
    from .noise.spec import resolve_noise
    from .rareevent import estimate_ler_stratified

    if noise is None:
        noise = resolve_noise(args.noise, args.p)
    combined = None
    for basis in ("z", "x"):
        dem = dem_for(code, schedule, noise, basis=basis)
        est = estimate_ler_stratified(
            dem,
            basis=basis,
            rng=rng,
            min_failure_weight=args.min_failure_weight,
            target_rel_halfwidth=args.target_rel_ci,
            max_shots=args.shots,
            workers=args.workers,
        )
        lo, hi = est.interval
        print(
            f"stratified {basis}-basis LER @ p={args.p:g}: {est.rate:.3e} "
            f"[{lo:.1e}, {hi:.1e}] ({est.shots} decoded shots, "
            f"{'converged' if est.converged else 'budget-limited'})"
        )
        for row in est.summary_rows():
            print(
                f"    w={row['weight']:2d} P={row['prob']:.3e} "
                f"shots={row['shots']:7d} fails={row['failures']:5d} "
                f"contribution={row['contribution']:.3e} [{row['status']}]"
            )
        print(
            f"    direct MC would need ~{est.direct_mc_shots_for_same_ci():.2e} "
            "shots for the same CI"
        )
        rate_est = est.to_rate_estimate()
        combined = rate_est if combined is None else combined.combine_with(rate_est)
    lo, hi = combined.interval
    print(f"combined LER    : {combined.rate:.3e} [{lo:.1e}, {hi:.1e}]")


def _load_campaign_spec(args):
    from .experiments.campaign import CampaignSpec, smoke_spec

    if getattr(args, "smoke", False):
        return smoke_spec()
    if args.spec is None:
        raise SystemExit("a spec file is required unless --smoke is given")
    try:
        # Parsing and expansion validate every job (JSON syntax, spec
        # fields, noise tokens, estimators, ...): a typo in a
        # hand-edited file must not traceback.  JSONDecodeError is a
        # ValueError.
        spec = CampaignSpec.from_json_file(args.spec)
        spec.expand()
    except (KeyError, ValueError, TypeError) as exc:
        raise SystemExit(f"bad campaign spec {args.spec}: {_bad_spec_detail(exc)}")
    return spec


def cmd_campaign_run(args) -> int:
    from .experiments.campaign import run_campaign
    from .experiments.store import ResultStore
    from .gf2 import kernels

    spec = _load_campaign_spec(args)
    store = ResultStore(args.store)
    execution = ExecutionConfig(workers=args.workers)
    report = run_campaign(spec, store=store, config=execution, progress=print)
    print(
        f"campaign {spec.name!r}: {len(report.jobs)} jobs, "
        f"{report.hits} store hits, {len(report.executed)} executed"
    )
    print(f"kernel backend: {kernels.backend_name()}")
    if report.syndrome_stats is not None:
        s = report.syndrome_stats
        print(
            f"syndrome cache: {s['hits']} hits, {s['misses']} misses, "
            f"{s['entries']} entries across {s['files']} files "
            f"({s['loaded']} preloaded)"
        )
    if args.smoke:
        # The CI resume check: a second invocation of a completed
        # campaign must be pure store hits — zero sampling or decoding.
        # Reopened from disk, so the JSONL write/reload round trip is
        # part of what the gate verifies.
        resumed = run_campaign(spec, store=ResultStore(args.store), config=execution)
        if resumed.executed:
            print(
                f"resume check FAILED: {len(resumed.executed)} jobs recomputed"
            )
            return 1
        print(f"resume check: {resumed.hits} store hits, 0 recomputed")
    return 0


def _print_syndrome_cache_status(store_path) -> None:
    import os

    from .decoders.syncache import summarize_cache_dir
    from .gf2 import kernels

    print(f"kernel backend: {kernels.backend_name()}")
    if store_path is None:
        return
    syn_dir = os.path.join(store_path, "syndromes")
    if os.path.isdir(syn_dir):
        s = summarize_cache_dir(syn_dir)
        print(
            f"syndrome cache: {s['entries']} entries across "
            f"{s['files']} files in {syn_dir}"
        )
    else:
        print("syndrome cache: empty (no syndromes/ directory yet)")


def _print_service_status(store) -> None:
    import time

    from .experiments import service

    layout = "sharded" if store.sharded else "legacy single-file"
    print(f"store layout: {layout}")
    if store.path is None:
        return
    entries = None
    try:
        entries = service.read_queue(store.path)
    except ValueError as exc:
        print(f"service queue: UNREADABLE ({exc})")
    if entries is not None:
        pending = sum(1 for e in entries if e["key"] not in store)
        print(f"service queue: {len(entries)} jobs, {pending} pending")
    ldir = service.lease_dir(store.path)
    try:
        names = sorted(n for n in os.listdir(ldir) if n.endswith(".lease"))
    except OSError:
        names = []
    if names:
        now = time.time()
        live = stale = 0
        for name in names:
            lease = service.read_lease(os.path.join(ldir, name)) or {}
            group = name[: -len(".lease")]
            claimed = lease.get("claimed_at")
            expires = lease.get("expires_at")
            age = (
                f"{now - claimed:.0f}s old"
                if isinstance(claimed, (int, float))
                else "age unknown"
            )
            if service.lease_expired(lease, now):
                # Expired but still on disk: its worker died (or lost the
                # race) and nobody has taken the group over yet.
                stale += 1
                over = (
                    f"{now - expires:.0f}s ago"
                    if isinstance(expires, (int, float))
                    else "unknown"
                )
                print(
                    f"  lease {group}: STALE (worker "
                    f"{lease.get('worker', '?')}, {age}, expired {over})"
                )
            else:
                live += 1
                left = expires - now
                print(
                    f"  lease {group}: live (worker "
                    f"{lease.get('worker', '?')}, {age}, "
                    f"expires in {left:.0f}s)"
                )
        print(f"leases: {live} live, {stale} stale")


@broken_pipe_safe
def cmd_campaign_top(args) -> int:
    import time

    from .obs.dashboard import render_telemetry, render_top

    while True:
        stale_after = max(10.0, 3.0 * args.poll)
        for line in render_top(args.store, stale_after=stale_after):
            print(line)
        if args.stages:
            print()
            for line in render_telemetry(args.store):
                print(line)
        if not args.watch:
            return 0
        try:
            time.sleep(args.poll)
        except KeyboardInterrupt:
            return 0
        print()


def cmd_campaign_trace(args) -> int:
    from .obs.dashboard import telemetry_dir_of
    from .obs.trace import write_chrome_trace

    events = write_chrome_trace(telemetry_dir_of(args.store), args.output)
    print(f"{events} span events -> {args.output} (chrome://tracing)")
    return 0 if events or args.allow_empty else 1


def cmd_campaign_serve(args) -> int:
    from .experiments.service import DEFAULT_SKEW_GRACE, serve_campaign

    spec = _load_campaign_spec(args)
    grace = args.skew_grace if args.skew_grace is not None else DEFAULT_SKEW_GRACE
    try:
        report = serve_campaign(
            spec,
            args.store,
            n_workers=args.n_workers,
            ttl=args.ttl,
            poll=args.poll,
            wait=not args.no_wait,
            timeout=args.timeout,
            progress=print if args.verbose else None,
            skew_grace_s=grace,
        )
    except TimeoutError as exc:
        raise SystemExit(f"serve timed out: {exc}")
    print(
        f"campaign {spec.name!r} served: {report.total_jobs} jobs queued "
        f"({report.already_stored} already stored) -> {report.queue_file}"
    )
    for w in report.workers:
        print(
            f"  {w.worker_id}: {len(w.executed)} executed, "
            f"{w.claims} claims, {w.takeovers} takeovers"
        )
    if args.no_wait and args.n_workers == 0:
        print("queue published; attach workers with: repro campaign worker "
              f"--store {args.store}")
    return 0


def cmd_campaign_worker(args) -> int:
    from .experiments.service import DEFAULT_SKEW_GRACE, worker_loop

    grace = args.skew_grace if args.skew_grace is not None else DEFAULT_SKEW_GRACE
    report = worker_loop(
        args.store,
        worker_id=args.worker_id,
        ttl=args.ttl,
        poll=args.poll,
        once=args.once,
        max_jobs=args.max_jobs,
        timeout=args.timeout,
        progress=print,
        chaos_exit_after=args.chaos_exit_after,
        skew_grace_s=grace,
    )
    print(
        f"worker {report.worker_id}: {len(report.executed)} executed, "
        f"{report.skipped} already stored, {report.claims} claims, "
        f"{report.takeovers} takeovers, {report.passes} passes"
    )
    return 0


def cmd_campaign_compact(args) -> int:
    from .decoders.syncache import compact_cache_dir
    from .experiments.store import ResultStore

    store = ResultStore(args.store)
    summary = store.compact()
    print(
        f"store {args.store}: {summary['records']} records in "
        f"{summary['shards']} shards ({summary['removed_files']} stale "
        f"files removed)"
    )
    print(f"content digest: {store.content_digest()}")
    syn_dir = os.path.join(args.store, "syndromes")
    if os.path.isdir(syn_dir):
        syn = compact_cache_dir(syn_dir)
        print(
            f"syndrome cache: {syn['absorbed']} writer shards folded into "
            f"{syn['files']} files ({syn['entries']} entries)"
        )
    return 0


def _print_telemetry_status(store_path) -> None:
    from .obs.dashboard import render_telemetry

    print()
    for line in render_telemetry(store_path):
        print(line)


@broken_pipe_safe
def cmd_campaign_status(args) -> int:
    from .experiments.store import ResultStore

    store = ResultStore(args.store)
    if args.spec is None and not args.smoke:
        by_kind: dict[tuple[str, str], int] = {}
        for record in store.records():
            job = record["job"]
            k = (job["code"], job["estimator"])
            by_kind[k] = by_kind.get(k, 0) + 1
        print(f"store {args.store}: {len(store)} records")
        for (code, estimator), count in sorted(by_kind.items()):
            print(f"  {code:12s} {estimator:10s} {count}")
        _print_syndrome_cache_status(store.path)
        _print_service_status(store)
        if args.telemetry:
            _print_telemetry_status(args.store)
        return 0
    spec = _load_campaign_spec(args)
    jobs = spec.expand()
    done = [j for j in jobs if j.key() in store]
    print(
        f"campaign {spec.name!r}: {len(done)}/{len(jobs)} jobs complete, "
        f"{len(jobs) - len(done)} pending"
    )
    _print_syndrome_cache_status(store.path)
    _print_service_status(store)
    if args.telemetry:
        _print_telemetry_status(args.store)
    return 0


@broken_pipe_safe
def cmd_campaign_export(args) -> int:
    import json as _json

    from .experiments.campaign import export_rows
    from .experiments.common import ExperimentResult
    from .experiments.store import ResultStore

    store = ResultStore(args.store)
    jobs = None
    if args.spec is not None or args.smoke:
        jobs = _load_campaign_spec(args).expand()
    rows = export_rows(store, jobs)
    if args.format == "json":
        text = _json.dumps(rows, indent=2, sort_keys=True)
    else:
        result = ExperimentResult(name="campaign export")
        for row in rows:
            result.add(**row)
        text = result.to_csv()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"{len(rows)} rows written to {args.output}")
    else:
        print(text)
    return 0


@broken_pipe_safe
def cmd_stream(args) -> int:
    """Paced sliding-window decode of one code with an SLO report."""
    from .decoders.metrics import dem_for
    from .noise.spec import resolve_noise
    from .streaming import WindowConfig, stream_decode

    noise = _resolved_noise(args)
    if noise is None:
        noise = resolve_noise(None, args.p)
    try:
        window = WindowConfig(
            window_rounds=args.window, commit_rounds=args.commit
        )
    except ValueError as exc:
        raise SystemExit(f"bad window/commit schedule: {exc}")
    code = load_benchmark_code(args.code)
    schedule = coloration_schedule(code)
    dem = dem_for(
        code, schedule, noise, basis=args.basis, rounds=args.rounds
    )
    print(f"code            : {code.label()} ({args.basis} basis)")
    report = stream_decode(
        dem,
        shots=args.shots,
        basis=args.basis,
        decoder=args.decoder,
        rng=np.random.default_rng(args.seed),
        window=window,
        rounds_per_sec=args.rate,
        deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
        verify_offline=not args.no_verify,
    )
    for line in report.slo_lines():
        print(line)
    # A stream whose committed corrections drifted from the offline
    # decode is broken, whatever its latency looks like.
    return 1 if report.matches_offline is False else 0


def cmd_optimize(args) -> int:
    code = load_benchmark_code(args.code)
    start = coloration_schedule(code)
    config = PropHuntConfig(
        iterations=args.iterations,
        samples_per_iteration=args.samples,
        seed=args.seed,
        workers=args.workers,
    )
    print(f"Optimizing {code.label()} from the coloration circuit "
          f"({config.iterations} x {config.samples_per_iteration})...")
    result = PropHunt(code, config).optimize(start)
    for r in result.history:
        print(
            f"  it{r.iteration}: ambiguous={r.ambiguous_found} "
            f"min_weight={r.min_logical_weight} applied={r.changes_applied} "
            f"depth={r.cnot_depth} ({r.elapsed:.1f}s)"
        )
    rng = np.random.default_rng(args.seed)
    execution = ExecutionConfig(workers=args.workers)
    before = estimate_logical_error_rate(
        code, start, p=args.p, shots=args.shots, rng=rng, config=execution
    )
    after = estimate_logical_error_rate(
        code,
        result.final_schedule,
        p=args.p,
        shots=args.shots,
        rng=rng,
        config=execution,
    )
    print(f"\nLER @ p={args.p:g}: {before.rate:.3e} -> {after.rate:.3e}")
    if after.rate > 0:
        print(f"improvement: {before.rate / after.rate:.2f}x")
    if args.output:
        from .circuits import schedule_to_json

        with open(args.output, "w") as fh:
            fh.write(schedule_to_json(result.final_schedule))
        print(f"optimized schedule written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("codes", help="list benchmark codes").set_defaults(fn=cmd_codes)

    ev = sub.add_parser("evaluate", help="evaluate a code's coloration circuit")
    ev.add_argument("code")
    ev.add_argument("--p", type=float, default=1e-3)
    ev.add_argument("--shots", type=int, default=4000)
    ev.add_argument("--samples", type=int, default=30)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument(
        "--workers", type=int, default=1, help="shot-runner worker processes"
    )
    ev.add_argument(
        "--noise",
        default=None,
        help="noise scenario token: 'depolarizing' (default), "
        "'biased:<eta>' (eta-biased Pauli at rate p), 'correlated' "
        "(correlated two-qubit CNOT noise), with optional ',pm=<v>' "
        "readout-flip and ',ct=<v>' measurement-crosstalk clauses "
        "(absolute, or '<k>p' relative)",
    )
    ev.add_argument(
        "--noise-profile",
        default=None,
        metavar="JSON",
        help="device-profile-v1 JSON file of per-qubit / per-gate-class "
        "rate multipliers, applied on top of --noise",
    )
    ev.add_argument(
        "--rare-event",
        action="store_true",
        help="weight-stratified importance sampling (resolves LERs far "
        "below 1/shots; --shots becomes the decoded-shot budget)",
    )
    ev.add_argument(
        "--target-rel-ci",
        type=float,
        default=0.1,
        help="rare-event mode stops when the CI half-width reaches this "
        "fraction of the estimate (default 0.1)",
    )
    ev.add_argument(
        "--min-failure-weight",
        type=int,
        default=1,
        help="assert error weights below this never fail (ceil(d/2) for "
        "an unambiguous distance-d circuit; audited, default: no "
        "assumption — coloration circuits can fail at weight 1)",
    )
    ev.set_defaults(fn=cmd_evaluate)

    camp = sub.add_parser(
        "campaign",
        help="declarative sweeps over the content-addressed result store",
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)

    def _campaign_common(p):
        p.add_argument(
            "spec",
            nargs="?",
            default=None,
            help="campaign spec JSON file (see CampaignSpec; optional "
            "with --smoke)",
        )
        p.add_argument(
            "--store",
            required=True,
            help="result-store directory (created if missing)",
        )
        p.add_argument(
            "--smoke",
            action="store_true",
            help="use the tiny built-in smoke campaign instead of a spec file",
        )

    crun = csub.add_parser(
        "run", help="run missing jobs of a campaign (resume-safe)"
    )
    _campaign_common(crun)
    crun.add_argument(
        "--workers", type=int, default=1, help="shot-runner worker processes"
    )
    crun.set_defaults(fn=cmd_campaign_run)

    cstat = csub.add_parser(
        "status", help="completed/pending counts for a campaign or store"
    )
    _campaign_common(cstat)
    cstat.add_argument(
        "--telemetry",
        action="store_true",
        help="per-stage time shares, cache hit rates, and worker "
        "heartbeats from the <store>/telemetry/ sidecars",
    )
    cstat.set_defaults(fn=cmd_campaign_status)

    ctop = csub.add_parser(
        "top",
        help="live fleet dashboard from worker heartbeat sidecars",
    )
    ctop.add_argument(
        "--store", required=True, help="the served result-store directory"
    )
    ctop.add_argument(
        "--watch",
        action="store_true",
        help="refresh every --poll seconds until interrupted",
    )
    ctop.add_argument(
        "--poll", type=float, default=2.0, help="refresh interval (s)"
    )
    ctop.add_argument(
        "--stages",
        action="store_true",
        help="append the per-stage time breakdown below the worker table",
    )
    ctop.set_defaults(fn=cmd_campaign_top)

    ctrace = csub.add_parser(
        "trace",
        help="merge trace sidecars into one Chrome trace_event JSON",
    )
    ctrace.add_argument(
        "--store", required=True, help="the result-store directory"
    )
    ctrace.add_argument(
        "--output", required=True, help="Chrome trace JSON output path"
    )
    ctrace.add_argument(
        "--allow-empty",
        action="store_true",
        help="exit 0 even when no span records were found",
    )
    ctrace.set_defaults(fn=cmd_campaign_trace)

    cexp = csub.add_parser(
        "export", help="flatten store records to CSV/JSON for analysis"
    )
    _campaign_common(cexp)
    cexp.add_argument("--format", choices=("csv", "json"), default="csv")
    cexp.add_argument("--output", default=None, help="write to a file")
    cexp.set_defaults(fn=cmd_campaign_export)

    cserve = csub.add_parser(
        "serve",
        help="publish a campaign's job queue (and optionally run an "
        "in-process worker fleet)",
    )
    _campaign_common(cserve)
    cserve.add_argument(
        "--n-workers",
        type=int,
        default=0,
        help="in-process worker threads (0: only publish the queue; "
        "attach external workers with 'campaign worker')",
    )
    cserve.add_argument(
        "--ttl", type=float, default=60.0, help="lease TTL in seconds"
    )
    cserve.add_argument(
        "--poll", type=float, default=0.5, help="idle poll interval (s)"
    )
    cserve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up waiting for completion after this many seconds",
    )
    cserve.add_argument(
        "--no-wait",
        action="store_true",
        help="return after publishing instead of waiting for completion",
    )
    cserve.add_argument(
        "--verbose", action="store_true", help="per-job progress lines"
    )
    cserve.add_argument(
        "--skew-grace",
        type=float,
        default=None,
        help="cross-host clock-skew allowance (s) before an expired "
        "lease is taken over (default: a few seconds; see "
        "repro.experiments.service.DEFAULT_SKEW_GRACE)",
    )
    cserve.set_defaults(fn=cmd_campaign_serve)

    cwork = csub.add_parser(
        "worker",
        help="attach a lease-based worker to a served store",
    )
    cwork.add_argument(
        "--store", required=True, help="the served result-store directory"
    )
    cwork.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: pid-derived)",
    )
    cwork.add_argument("--ttl", type=float, default=60.0)
    cwork.add_argument("--poll", type=float, default=0.5)
    cwork.add_argument(
        "--once",
        action="store_true",
        help="one pass over the queue, then exit",
    )
    cwork.add_argument(
        "--max-jobs", type=int, default=None, help="exit after N jobs"
    )
    cwork.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="exit after this many seconds spent idle-waiting",
    )
    cwork.add_argument(
        "--chaos-exit-after",
        type=int,
        default=None,
        help="hard-exit (no lease release) after N jobs — the "
        "crash-recovery drill used by the service smoke test",
    )
    cwork.add_argument(
        "--skew-grace",
        type=float,
        default=None,
        help="cross-host clock-skew allowance (s) before an expired "
        "lease is taken over (default: a few seconds; see "
        "repro.experiments.service.DEFAULT_SKEW_GRACE)",
    )
    cwork.set_defaults(fn=cmd_campaign_worker)

    ccomp = csub.add_parser(
        "compact",
        help="canonicalize a store: sorted/deduplicated shards, volatile "
        "meta dropped, syndrome-cache writer shards folded in",
    )
    ccomp.add_argument(
        "--store", required=True, help="result-store directory to compact"
    )
    ccomp.set_defaults(fn=cmd_campaign_compact)

    strm = sub.add_parser(
        "stream",
        help="real-time sliding-window decode with a per-round latency "
        "SLO report",
    )
    strm.add_argument("code")
    strm.add_argument("--p", type=float, default=1e-3)
    strm.add_argument(
        "--shots", type=int, default=1024, help="shots streamed in lockstep"
    )
    strm.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="syndrome-measurement rounds (default: the code distance)",
    )
    strm.add_argument("--basis", choices=("z", "x"), default="z")
    strm.add_argument(
        "--decoder", default="auto", help="decoder kind (auto/matching/bposd)"
    )
    strm.add_argument(
        "--window",
        type=int,
        default=3,
        help="rounds of context held before the oldest are committed",
    )
    strm.add_argument(
        "--commit",
        type=int,
        default=1,
        help="rounds committed each time the window fills",
    )
    strm.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="arrival clock in rounds/sec (0: free-run, rounds arrive "
        "as fast as they are processed)",
    )
    strm.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-round latency deadline in ms (default: the round "
        "period when --rate is set, else none)",
    )
    strm.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the offline bit-identity cross-check (latency only)",
    )
    strm.add_argument("--seed", type=int, default=0)
    strm.add_argument(
        "--noise",
        default=None,
        help="noise scenario token (same grammar as 'evaluate')",
    )
    strm.add_argument(
        "--noise-profile",
        default=None,
        metavar="JSON",
        help="device-profile-v1 JSON multipliers, as in 'evaluate'",
    )
    strm.set_defaults(fn=cmd_stream)

    opt = sub.add_parser("optimize", help="run PropHunt on a benchmark code")
    opt.add_argument("code")
    opt.add_argument("--iterations", type=int, default=4)
    opt.add_argument("--samples", type=int, default=30)
    opt.add_argument("--p", type=float, default=1e-3)
    opt.add_argument("--shots", type=int, default=4000)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--workers", type=int, default=1)
    opt.add_argument(
        "--output", default=None, help="write the optimized schedule as JSON"
    )
    opt.set_defaults(fn=cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
