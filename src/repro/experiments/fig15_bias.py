"""Bias-sweep experiment (Figure-15 style): logical error vs Pauli bias.

The paper's §6 noise treatment is one point in a family: real hardware
is often dephasing-dominated (biased Pauli noise, ``eta >> 0.5``) and
readout-error-dominated (``p_m`` decoupled from gate error).  This
experiment sweeps the bias axis the way Figure 15 sweeps idle strength:
an (eta x p) grid on one code, each cell a content-addressed campaign
job whose :class:`~repro.noise.spec.NoiseSpec` rides the job key, so
re-rendering the table is pure store hits.

``eta = 0.5`` gives the depolarizing single-qubit *split* (p/3 each);
it is close to, but not identical to, the paper's baseline, because the
biased channel lowers two-qubit gates to independent per-qubit
channels rather than the correlated ``DEPOLARIZE2`` — compare against a
``noise=None`` run for the exact baseline.  ``readout`` adds an
optional independent measurement-flip probability to every cell.
"""

from __future__ import annotations

from ..codes import load_benchmark_code
from .campaign import CampaignJob, run_campaign
from .common import ExperimentResult
from .shotrunner import ExecutionConfig


def bias_token(eta: float, readout: float | None = None) -> str:
    """The campaign noise token for one sweep cell."""
    token = f"biased:{eta:g}"
    if readout:
        token += f",pm={readout:g}"
    return token


def run(
    code_name: str = "surface_d3",
    etas: tuple[float, ...] = (0.5, 10.0, 100.0),
    p_values: tuple[float, ...] = (1e-3, 3e-3),
    readout: float | None = None,
    shots: int = 6000,
    seed: int = 0,
    workers: int = 1,
    store=None,
) -> ExperimentResult:
    """Sweep Pauli bias eta against physical error rate for one circuit.

    Both memory bases run and combine (biased noise is exactly the
    regime where the two differ: Z-biased errors barely touch a z-basis
    memory but dominate the x-basis one).
    """
    code = load_benchmark_code(code_name)
    schedule = "nz" if code_name.startswith("surface") else "coloration"
    jobs = [
        CampaignJob(
            code=code_name,
            schedule=schedule,
            basis=basis,
            p=p,
            noise=bias_token(eta, readout),
            shots=shots,
            max_failures=400,
            seed=seed,
        )
        for eta in etas
        for p in p_values
        for basis in ("z", "x")
    ]
    report = run_campaign(jobs, store=store, config=ExecutionConfig(workers=workers))
    result = ExperimentResult(
        name=f"Figure 15b: Pauli-bias sensitivity, {code.label()}",
        notes="eta = p_z / (p_x + p_y); eta=0.5 is the depolarizing "
        "single-qubit split (two-qubit noise independent per qubit)"
        + (f"; readout p_m={readout:g}" if readout else ""),
    )
    for eta in etas:
        token = bias_token(eta, readout)
        for p in p_values:
            per_basis = {
                j.basis: report.estimate(j)
                for j in report.jobs
                if j.noise == token and j.p == p
            }
            combined = report.combined_estimate(
                j for j in report.jobs if j.noise == token and j.p == p
            )
            result.add(
                eta=eta,
                p=p,
                z_rate=per_basis["z"].rate,
                x_rate=per_basis["x"].rate,
                logical_error_rate=combined.rate,
            )
    return result
