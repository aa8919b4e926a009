"""Calibration-sensitivity campaign sweep: uniform vs heterogeneous noise.

Every headline number in the paper assumes spatially uniform,
time-stationary depolarizing noise.  This sweep quantifies what that
assumption hides, by running the same code through four scenarios built
from the PR's noise subsystem:

* ``uniform`` — depolarizing gates + readout ``p_m = p`` (the ``pm=p``
  token: everything scales with the sweep's ``p``);
* ``calibrated`` — the same base rates under a synthetic device
  profile (:func:`~repro.noise.profile.synthetic_profile`: lognormal
  per-qubit scatter, a couple of hot qubits, systematically worse
  CNOTs and readout), inlined as an absolute ``noise-spec-v1`` payload;
* ``correlated`` — genuinely correlated two-qubit CNOT noise
  (``PAULI_CHANNEL_2``) plus measurement crosstalk at ``p``;
* ``drift`` — the uniform scenario under a linear rate ramp over the
  QEC rounds (mean multiplier 1, so the time-average matches uniform).

Each cell is a content-addressed :class:`CampaignJob`: profile payloads
are *inlined* into the job's noise payload (never referenced by file
path), so re-rendering the table is pure store hits and two sweeps
agree on a cell iff they agree on its physics.
"""

from __future__ import annotations

from ..codes import load_benchmark_code
from ..noise import DriftSchedule, NoiseSpec, synthetic_profile
from .campaign import CampaignJob, run_campaign
from .common import ExperimentResult
from .shotrunner import ExecutionConfig

SCENARIOS = ("uniform", "calibrated", "correlated", "drift")

PROFILE_SEED = 7


def scenario_noise(
    scenario: str, p: float, num_qubits: int, rounds: int
) -> "str | dict | None":
    """The campaign noise spec for one sweep cell.

    Token scenarios rescale with the job's ``p``; profile/drift
    scenarios are absolute inline payloads rebuilt per ``p``.
    """
    if scenario == "uniform":
        return "pm=p"
    if scenario == "correlated":
        return "correlated,pm=p,ct=p"
    if scenario == "calibrated":
        return NoiseSpec.depolarizing(
            p,
            readout=p,
            profile=synthetic_profile(num_qubits, seed=PROFILE_SEED),
        ).to_payload()
    if scenario == "drift":
        return NoiseSpec.depolarizing(
            p, readout=p, drift=DriftSchedule.linear(0.5, 1.5, rounds)
        ).to_payload()
    raise ValueError(f"unknown figcalib scenario {scenario!r}")


def run(
    code_name: str = "surface_d3",
    scenarios: tuple[str, ...] = SCENARIOS,
    p_values: tuple[float, ...] = (1e-3, 3e-3),
    shots: int = 6000,
    seed: int = 0,
    workers: int = 1,
    store=None,
) -> ExperimentResult:
    """Sweep noise scenarios against physical error rate for one code.

    Both memory bases run and combine, like the bias sweep: the
    calibrated profile's hot qubits are basis-agnostic, but correlated
    CNOT noise and crosstalk are not.
    """
    code = load_benchmark_code(code_name)
    schedule = "nz" if code_name.startswith("surface") else "coloration"
    num_qubits = code.n + code.num_x_stabs + code.num_z_stabs
    rounds = code.distance
    noises = {
        (scenario, p): scenario_noise(scenario, p, num_qubits, rounds)
        for scenario in scenarios
        for p in p_values
    }
    jobs = {
        (scenario, p, basis): CampaignJob(
            code=code_name,
            schedule=schedule,
            basis=basis,
            p=p,
            noise=noises[scenario, p],
            shots=shots,
            max_failures=400,
            seed=seed,
        )
        for (scenario, p) in noises
        for basis in ("z", "x")
    }
    report = run_campaign(
        list(jobs.values()), store=store, config=ExecutionConfig(workers=workers)
    )
    result = ExperimentResult(
        name=f"Calibration sensitivity, {code.label()}",
        notes="uniform vs device-profile vs correlated+crosstalk vs "
        f"round-drift scenarios; profile seed {PROFILE_SEED}, readout "
        "p_m = p everywhere",
    )
    for scenario in scenarios:
        for p in p_values:
            cell = [jobs[scenario, p, "z"], jobs[scenario, p, "x"]]
            combined = report.combined_estimate(cell)
            uniform_rate = (
                report.combined_estimate(
                    [jobs["uniform", p, "z"], jobs["uniform", p, "x"]]
                ).rate
                if "uniform" in scenarios
                else 0.0
            )
            result.add(
                scenario=scenario,
                p=p,
                z_rate=report.estimate(cell[0]).rate,
                x_rate=report.estimate(cell[1]).rate,
                logical_error_rate=combined.rate,
                vs_uniform=(
                    combined.rate / uniform_rate if uniform_rate > 0 else float("nan")
                ),
            )
    return result
