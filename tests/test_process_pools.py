"""Every process pool must survive a parent that already ran the kernels,
and must run the state its caller compiled instead of building its own.

A fork copies only the forking thread.  Any thread team a kernel backend
started in the parent (an OpenMP runtime's, a thread-pool executor's) is
missing in the child, and the child's first kernel call then waits on it
forever.  The subprocess test drives all three process fan-outs —
``run_shot_chunks``, ``run_stratified_chunks`` and ``sample_and_solve`` —
with ``workers=2`` under every available kernel backend, after one large
kernel call in the parent, and requires the ``workers=1`` results.
Building a sampler, decoder or decoding graph raises in any process but
the parent, so a pool worker that recompiles its state fails the run.
A last pass hides ``fork`` and uses ``spawn``: the compiled state must
pickle to the workers and give the same results.

It runs in a fresh interpreter so that a hang is bounded by a hard
timeout and the environment is the default one: ``OMP_NUM_THREADS`` is
removed, because pinning it to 1 is exactly what hides the bug.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.circuits import nz_schedule
from repro.codes import rotated_surface_code
from repro.core import DecodingGraph, parallel
from repro.core.parallel import sample_and_solve
from repro.decoders.metrics import dem_for
from repro.experiments.shotrunner import ExecutionConfig, run_shot_chunks
from repro.gf2 import kernels
from repro.noise import NoiseModel

SRC = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = """
import multiprocessing
import os
import sys

import numpy as np

from repro.circuits import nz_schedule
from repro.codes import rotated_surface_code
from repro.core import DecodingGraph
from repro.core.parallel import sample_and_solve
from repro.decoders import metrics
from repro.experiments.shotrunner import (
    ExecutionConfig, run_shot_chunks, run_stratified_chunks,
)
from repro.gf2 import kernels
from repro.noise import NoiseModel
from repro.rareevent.sampler import WeightStratifiedSampler
from repro.sim.sampler import DemSampler

code = rotated_surface_code(3)
dem = metrics.dem_for(code, nz_schedule(code), NoiseModel(p=3e-3), basis="z", rounds=3)
graph = DecodingGraph(dem)
words = np.random.default_rng(0).integers(0, 2**63, size=(4096, 64), dtype=np.uint64)

PARENT = os.getpid()


def parent_only(fn, name):
    def guarded(*args, **kwargs):
        if os.getpid() != PARENT:
            raise RuntimeError(name + " built in a pool worker")
        return fn(*args, **kwargs)
    return guarded


# Constructors are patched on the class (pickling still finds the class);
# make_decoder at every module that bound it.
for cls in (DemSampler, WeightStratifiedSampler, DecodingGraph):
    cls.__init__ = parent_only(cls.__init__, cls.__name__)
real_make_decoder = metrics.make_decoder
for module in list(sys.modules.values()):
    if getattr(module, "make_decoder", None) is real_make_decoder:
        module.make_decoder = parent_only(real_make_decoder, "make_decoder")


def runs(workers):
    shots = run_shot_chunks(
        dem, shots=2048, rng=np.random.default_rng(1),
        config=ExecutionConfig(chunk_shots=512, workers=workers),
    )
    strata = run_stratified_chunks(
        dem, [(2, 512), (3, 512)], rng=np.random.default_rng(2),
        config=ExecutionConfig(chunk_shots=256, workers=workers),
    )
    found = sample_and_solve(
        graph, samples=4, base_seed=11, max_errors=30, workers=workers
    )
    subgraphs = [
        (sub.detectors, sub.errors, sol.weight, sorted(sol.error_columns))
        for sub, sol in found
    ]
    return shots, strata, subgraphs


for name in kernels.available_backends():
    with kernels.use_backend(name):
        kernels.transpose_words(words, 4096)
        parallel = runs(2)
        serial = runs(1)
    assert parallel == serial, name
    assert serial[2], "the seeds above find ambiguous subgraphs"
    print("ok", name, flush=True)

multiprocessing.get_all_start_methods = lambda: ["spawn"]
multiprocessing.set_start_method("spawn", force=True)
assert runs(2) == serial, "spawn"
print("ok spawn", flush=True)
"""

TIMEOUT_S = 120


def test_workers_2_matches_workers_1_under_every_backend():
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # A new session, so a hang can be cleaned up with the pool workers
    # the interpreter forked, not only the interpreter itself.
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise AssertionError(
            f"process pools hung for {TIMEOUT_S}s after: {out!r}"
        ) from None
    assert proc.returncode == 0, err
    expected = [f"ok {name}" for name in kernels.available_backends()]
    assert out.split("\n")[:-1] == expected + ["ok spawn"]


@pytest.fixture(scope="module")
def d3_dem():
    code = rotated_surface_code(3)
    return dem_for(code, nz_schedule(code), NoiseModel(p=3e-3), basis="z")


def test_one_job_builds_no_pool(monkeypatch, d3_dem):
    """``workers`` is capped at the job count before any pool exists: a
    one-chunk run and a one-sample search stay inline at ``workers=2``."""
    sizes = []
    real = parallel.process_pool

    def recording_pool(workers, initializer, initargs):
        sizes.append(workers)
        return real(workers, initializer, initargs)

    monkeypatch.setattr(parallel, "process_pool", recording_pool)
    two_workers = ExecutionConfig(chunk_shots=512, workers=2)
    run_shot_chunks(d3_dem, shots=250, rng=np.random.default_rng(0), config=two_workers)
    sample_and_solve(DecodingGraph(d3_dem), samples=1, base_seed=3, workers=2)
    assert sizes == []
    if (os.cpu_count() or 1) >= 2:
        # The control: two chunks do reach the recorded constructor.
        run_shot_chunks(
            d3_dem, shots=600, rng=np.random.default_rng(0), config=two_workers
        )
        assert sizes == [2]
