"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-surface_d5 --seed 0 \\
        --seconds 20 --trace 0

The run pins its environment, builds the native kernels, then starts
fresh processes: ``SETUP_SAMPLES - 1`` that only set up (for the median
``setup_s``), half before and half after one that sets up, runs the
workload's fixed unit set round robin for ``--seconds`` (each unit at
least twice) and checks the outputs (see ``perfbench/child.py``).
With ``--trace 1`` the measuring process instead runs the traced
repetitions and reports the per-layer metrics.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
Everything the run writes stays under ``.bench_build/`` in the
repository.  Exit status 0 means a result was printed; anything else
(no sources to benchmark, a process that failed or timed out) prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SETUP_SAMPLES = 5
BUILD_TIMEOUT_S = 600
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150

sys.path.insert(0, str(ROOT))
from perfbench import metrics as catalogue  # noqa: E402


class BenchError(RuntimeError):
    pass


def pinned_env(tmp: Path) -> dict[str, str]:
    """One thread per process apart from the shot runner's prefetch
    thread, default kernels, telemetry off, and every cache and temp
    file inside the checkout."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_KERNELS="auto",
        REPRO_OBS="off",
        REPRO_KERNEL_CACHE=str(BUILD / "repro-kernels"),
        TMPDIR=str(tmp),
    )
    return env


def _run(cmd: list[str], env: dict[str, str], timeout: float) -> str:
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd[1:4])}")
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd[1:4])}")
    return out


def build_kernels(env: dict[str, str]) -> str:
    """Compile (or load the cached) native kernels; returns the backend
    ``REPRO_KERNELS=auto`` resolved to."""
    code = "from repro.gf2 import kernels; print(kernels.backend_name())"
    return _run([sys.executable, "-c", code], env, BUILD_TIMEOUT_S).strip()


def child(args, env: dict[str, str], *extra: str) -> dict:
    cmd = [
        sys.executable,
        "-m",
        "perfbench.child",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        *extra,
        "--launched-at",
    ]
    launched = time.monotonic()
    cmd.append(repr(launched))
    timeout = SETUP_TIMEOUT_S if "--setup-only" in extra else RUN_TIMEOUT_S
    lines = _run(cmd, env, timeout).strip().splitlines()
    if not lines:
        raise BenchError("measuring process printed no result")
    return json.loads(lines[-1])


def measure(args, env: dict[str, str]) -> dict:
    if args.trace:
        spans = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
        result = child(args, env, "--spans-out", str(spans))
        wanted = catalogue.PER_LAYER
    else:
        # Set-up-only processes run on both sides of the measuring one, so
        # the median set-up spans the whole run, not one phase of the host.
        before = (SETUP_SAMPLES - 1) // 2
        setups = [child(args, env, "--setup-only") for _ in range(before)]
        result = child(args, env)
        setups.append(dict(result["metrics"]))
        setups += [
            child(args, env, "--setup-only")
            for _ in range(SETUP_SAMPLES - 1 - before)
        ]
        for key in ("setup_s", "setup_rss_mb"):
            result["metrics"][key] = statistics.median(s[key] for s in setups)
        print(
            f"units timed: {result.pop('units')}; setup_s samples: "
            + ", ".join(f"{s['setup_s']:.4f}" for s in setups),
            file=sys.stderr,
        )
        wanted = catalogue.END_TO_END
    values = result["metrics"]
    missing = {m.name for m in wanted} ^ set(values)
    if missing:
        raise BenchError(f"metric set differs from the catalogue: {sorted(missing)}")
    result["metrics"] = {
        m.name: {"value": values[m.name], "unit": m.unit} for m in wanted
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    BUILD.mkdir(exist_ok=True)
    (BUILD / "tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=BUILD / "tmp"))
    try:
        env = pinned_env(tmp)
        backend = build_kernels(env)
        # Every timed process runs on one CPU, which the shot runner's
        # prefetch thread shares, so a run does not depend on whether the
        # host gives a second CPU time (see README.md, Environment).
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        print(
            f"environment: workers=1 OMP_NUM_THREADS=1 REPRO_OBS=off "
            f"REPRO_KERNELS=auto -> {backend}; nproc={os.cpu_count()}, "
            f"timed processes on cpu {cpu}",
            file=sys.stderr,
        )
        result = measure(args, env)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
