"""Invariants of the PropHunt loop (paper §5.4-§5.5).

* Every change the loop applies leaves ``Schedule.is_valid()`` true.
* Every verified candidate really breaks its logical error in the
  rebuilt DEM.  The check is recomputed here from the rebuilt DEM's
  materialized ``mechanisms`` — indexing every source by ``(label,
  pauli)``, last wins, first found source per old mechanism — so it is
  independent of the provenance-array lookup ``check_candidate`` uses.
* ``check_candidate`` never builds the candidate DEM's mechanism
  objects.
"""

import numpy as np
import pytest

from repro.circuits import poor_schedule
from repro.circuits.schedule import Schedule
from repro.codes import rotated_surface_code
from repro.core import (
    DecodingGraph,
    PropHunt,
    PropHuntConfig,
    changes,
    check_candidate,
    enumerate_candidates,
    find_ambiguous_subgraph,
    optimizer,
    solve_min_weight_logical,
)
from repro.decoders.metrics import dem_for
from repro.noise import NoiseModel
from repro.sim import dem as dem_module


def transport_from_mechanisms(old_dem, new_dem, logical_error):
    """The §5.4 transport, read off the materialized mechanism objects."""
    index = {}
    for j, mech in enumerate(new_dem.mechanisms):
        for src in mech.sources:
            index[(src.label, src.pauli)] = j
    det_sig = np.zeros(new_dem.num_detectors, dtype=np.uint8)
    obs_sig = np.zeros(new_dem.num_observables, dtype=np.uint8)
    for err in logical_error:
        for src in old_dem.mechanisms[err].sources:
            j = index.get((src.label, src.pauli))
            if j is None:
                continue
            for d in new_dem.mechanisms[j].detectors:
                det_sig[d] ^= 1
            for o in new_dem.mechanisms[j].observables:
                obs_sig[o] ^= 1
            break
    return det_sig, obs_sig


@pytest.fixture(scope="module")
def recorded_run():
    """One PropHunt run with every §5.4 check and applied change logged."""
    checks, trials, ends = [], [], []
    real_check = optimizer.check_candidate
    real_apply = changes.CandidateChange.apply_to
    real_apply_changes = optimizer.PropHunt._apply_changes

    def check(code, schedule, cand, sub, dem, logical_error, build_dem):
        outcome = real_check(code, schedule, cand, sub, dem, logical_error, build_dem)
        checks.append((outcome, dem, logical_error, build_dem))
        return outcome

    def apply_to(self, schedule):
        out = real_apply(self, schedule)
        trials.append((schedule, out))
        return out

    def apply_changes(self, schedule, verified, depth_limit=None):
        current, applied = real_apply_changes(self, schedule, verified, depth_limit)
        ends.append(current)
        return current, applied

    code = rotated_surface_code(3)
    config = PropHuntConfig(iterations=3, samples_per_iteration=20, seed=1)
    mp = pytest.MonkeyPatch()
    mp.setattr(optimizer, "check_candidate", check)
    mp.setattr(changes.CandidateChange, "apply_to", apply_to)
    mp.setattr(optimizer.PropHunt, "_apply_changes", apply_changes)
    try:
        result = PropHunt(code, config).optimize(poor_schedule(code))
    finally:
        mp.undo()
    return result, checks, trials, ends


def test_every_applied_change_keeps_the_schedule_valid(recorded_run):
    result, _, trials, ends = recorded_run
    # A trial was applied iff the loop went on from it: a later trial
    # starts from it, or §5.5 ended an iteration on it.
    continued = {id(start) for start, _ in trials} | {id(end) for end in ends}
    applied = [out for _, out in trials if id(out) in continued]
    assert len(applied) == sum(r.changes_applied for r in result.history) > 0
    assert all(isinstance(s, Schedule) and s.is_valid() for s in applied)


def test_every_verified_candidate_breaks_its_logical_error(recorded_run):
    _, checks, _, _ = recorded_run
    verified = 0
    for outcome, old_dem, logical_error, build_dem in checks:
        if outcome.schedule is None or not outcome.valid_circuit:
            continue
        new_dem = build_dem(outcome.schedule)
        det_sig, obs_sig = transport_from_mechanisms(old_dem, new_dem, logical_error)
        breaks = bool(det_sig.any()) or not bool(obs_sig.any())
        assert breaks == outcome.breaks_logical_error
        if outcome.verified:
            verified += 1
            assert breaks
    assert verified > 0


def test_check_candidate_never_builds_mechanism_objects(monkeypatch):
    code = rotated_surface_code(3)
    schedule = poor_schedule(code)
    noise = NoiseModel(p=1e-3)
    dem = dem_for(code, schedule, noise, basis="z", rounds=3)
    graph = DecodingGraph(dem)
    rng = np.random.default_rng(0)
    dem.mechanisms  # so the old DEM's views need no new objects

    built = []

    def build(s):
        built.append(dem_for(code, s, noise, basis="z", rounds=3))
        return built[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("mechanism objects built during check_candidate")

    verified = False
    for _ in range(50):
        sub = find_ambiguous_subgraph(graph, rng)
        sol = None if sub is None else solve_min_weight_logical(sub, rng)
        if sol is None:
            continue
        logical = sol.global_errors(sub)
        candidates = enumerate_candidates(code, schedule, dem, logical, rng)
        with monkeypatch.context() as mp:
            mp.setattr(dem_module, "ErrorMechanism", refuse)
            mp.setattr(dem_module, "ErrorSource", refuse)
            for cand in candidates:
                outcome = check_candidate(
                    code, schedule, cand, sub, dem, logical, build
                )
                verified = verified or outcome.verified
        if verified:
            break
    assert verified
    assert built and all(d._mechanisms is None for d in built)


# Per unit, per iteration: (ambiguous found, verified, applied) of the
# optimizer benchmark's seed-0 lp39 problems, as the object-based
# transport (each source's Pauli name formatted, looked up one by one)
# gave them.
LP39_SEED0_COUNTS = [[(0, 0, 0)], [(1, 0, 0)], [(0, 0, 0)], [(1, 0, 0)]]


def test_array_transport_matches_objects_on_lp39_problems(monkeypatch):
    """On the optimizer benchmark's seed-0 lp39 problems, every §5.4
    transport equals the one read off the mechanism objects, and the
    verified counts are unchanged."""
    from repro.circuits import coloration_schedule
    from repro.codes import load_benchmark_code
    from repro.core import pruning

    real = pruning._transport_logical_error
    calls = []

    def checked(old_dem, new_dem, logical_error):
        got = real(old_dem, new_dem, logical_error)
        want = transport_from_mechanisms(old_dem, new_dem, logical_error)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
        calls.append(logical_error)
        return got

    monkeypatch.setattr(pruning, "_transport_logical_error", checked)
    code = load_benchmark_code("lp39")
    schedule = coloration_schedule(code)
    counts = []
    for k in range(len(LP39_SEED0_COUNTS)):
        config = PropHuntConfig(
            seed=k, iterations=1, samples_per_iteration=2, stop_when_quiet=False
        )
        result = PropHunt(code, config).optimize(schedule)
        counts.append(
            [
                (r.ambiguous_found, r.changes_verified, r.changes_applied)
                for r in result.history
            ]
        )
    assert counts == LP39_SEED0_COUNTS
    assert len(calls) > 10
