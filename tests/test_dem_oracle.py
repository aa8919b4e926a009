"""The backward DEM walk against the forward-propagation oracle.

Every circuit of the benchmark suite (``codes.library``: each code in
both memory bases under the coloration schedule, plus the NZ schedule
where the code admits one; 24 circuits) at rounds=2 with p=1e-3
depolarizing noise, merged and unmerged: fingerprints, detector labels
and every mechanism's ``(prob, detectors, observables, sources)`` must
be exactly equal.
"""

import pytest
from dem_oracle import oracle_extract_dem

from repro.circuits import build_memory_experiment, coloration_schedule, nz_schedule
from repro.codes.library import BENCHMARK_CODES
from repro.noise import NoiseModel
from repro.sim import extract_dem


def _schedules(code):
    yield "coloration", coloration_schedule(code)
    try:
        yield "nz", nz_schedule(code)
    except ValueError:
        pass  # NZ needs the surface code's layout


@pytest.fixture(scope="module")
def circuits():
    out = {}
    for name, make in BENCHMARK_CODES.items():
        code = make()
        for sched_name, schedule in _schedules(code):
            for basis in ("z", "x"):
                experiment = build_memory_experiment(
                    code, schedule, rounds=2, basis=basis
                )
                out[name, sched_name, basis] = NoiseModel(p=1e-3).apply(
                    experiment.circuit
                )
    return out


def test_sweep_covers_the_library(circuits):
    assert len(circuits) == 24
    assert {key[0] for key in circuits} == set(BENCHMARK_CODES)


@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
@pytest.mark.parametrize("name", sorted(BENCHMARK_CODES))
def test_library_circuits_match_oracle(circuits, name, merge):
    keys = [key for key in circuits if key[0] == name]
    assert keys
    for key in keys:
        want = oracle_extract_dem(circuits[key], merge=merge)
        got = extract_dem(circuits[key], merge=merge)
        assert got.fingerprint() == want.fingerprint(), key
        assert got.detector_labels == want.detector_labels, key
        assert (got.num_detectors, got.num_observables) == (
            want.num_detectors,
            want.num_observables,
        ), key
        assert got.mechanisms == want.mechanisms, key
