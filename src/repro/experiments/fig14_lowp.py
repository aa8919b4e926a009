"""Figure 14 extension: deep sub-threshold logical error rates.

The paper's scaling claims (lambda factors, §7) live below the error
rates direct Monte Carlo can resolve.  This experiment overlays the
two estimators this codebase has for the same quantity:

* direct MC through the packed chunk runner — trustworthy wherever it
  sees failures, blind below ~1/shots;
* the weight-stratified rare-event estimator
  (:mod:`repro.rareevent`) — thousands of conditional shots per
  stratum at any physical error rate.

In the *overlap window* (a physical error rate where direct MC is
cheap) both run and the rows record whether their confidence intervals
agree — the validation gate for trusting the stratified numbers.  The
*deep* rows then extend the curve to error rates where direct MC would
need more shots than any figure budget, reporting the equivalent
direct-MC shot count the stratified estimate replaces.

Both estimators run as campaign jobs: the stratified result's full
per-stratum provenance is stored, so rows rebuild from store queries
and a completed figure re-renders with zero decoding.
"""

from __future__ import annotations

from .campaign import CampaignJob, run_campaign
from .common import ExperimentResult
from .shotrunner import ExecutionConfig


def _min_failure_weight(distance: int | None, name: str) -> int:
    """Weight below which the decoder provably corrects — ceil(d/2).

    Claimed only for the surface codes on their unambiguous N-Z
    schedules; other codes run with no assumption (coloration circuits
    can mispredict even weight-1 errors on ambiguous syndromes —
    that ambiguity is the paper's subject).
    """
    if name.startswith("surface") and distance:
        return (distance + 1) // 2
    return 1


def _distance_of(name: str) -> int | None:
    if name.startswith("surface_d"):
        return int(name.removeprefix("surface_d"))
    return None


def build_jobs(
    codes: tuple[str, ...],
    overlap_p: float,
    deep_p: tuple[float, ...],
    direct_shots: int,
    target_rel_halfwidth: float,
    max_strat_shots: int,
    deep: bool,
    seed: int,
) -> list[tuple[CampaignJob, str]]:
    """(job, window) pairs in row order; window is 'overlap' or 'deep'."""
    jobs: list[tuple[CampaignJob, str]] = []
    for name in codes:
        schedule = "nz" if name.startswith("surface") else "coloration"
        mfw = _min_failure_weight(_distance_of(name), name)
        p_values = (overlap_p,) + (tuple(deep_p) if deep else ())
        for p in p_values:
            window = "overlap" if p == overlap_p else "deep"
            jobs.append(
                (
                    CampaignJob(
                        code=name,
                        schedule=schedule,
                        basis="z",
                        p=p,
                        estimator="rare-event",
                        shots=max_strat_shots,
                        target_rel_halfwidth=target_rel_halfwidth,
                        min_failure_weight=mfw,
                        seed=seed,
                    ),
                    window,
                )
            )
            if window == "overlap":
                jobs.append(
                    (
                        CampaignJob(
                            code=name,
                            schedule=schedule,
                            basis="z",
                            p=p,
                            estimator="direct",
                            shots=direct_shots,
                            seed=seed,
                        ),
                        window,
                    )
                )
    return jobs


def run(
    codes: tuple[str, ...] = ("surface_d3", "surface_d5"),
    overlap_p: float = 3e-3,
    deep_p: tuple[float, ...] = (1e-3, 5e-4),
    direct_shots: int = 60_000,
    target_rel_halfwidth: float = 0.12,
    max_strat_shots: int = 500_000,
    deep: bool = True,
    workers: int = 1,
    seed: int = 0,
    store=None,
) -> ExperimentResult:
    result = ExperimentResult(
        name="Figure 14 extension: deep low-p LER, stratified vs direct MC",
        notes="overlap rows validate the stratified estimator against "
        "direct MC; deep rows extend below direct-MC reach "
        "(direct_equiv = shots direct MC would need for the same CI)",
    )
    pairs = build_jobs(
        codes,
        overlap_p,
        deep_p,
        direct_shots,
        target_rel_halfwidth,
        max_strat_shots,
        deep,
        seed,
    )
    report = run_campaign(
        [job for job, _ in pairs], store=store, config=ExecutionConfig(workers=workers)
    )

    directs = {
        (j.code, j.p): j for j, _ in pairs if j.estimator == "direct"
    }
    for job, window in pairs:
        if job.estimator != "rare-event":
            continue
        strat = report.record(job)["result"]["stratified"]
        equiv = strat["direct_mc_equiv"]
        row = dict(
            code=job.code,
            p=job.p,
            window=window,
            strat_rate=strat["rate"],
            strat_lo=strat["lo"],
            strat_hi=strat["hi"],
            strat_shots=strat["decoded_shots"],
            direct_equiv=float("inf") if equiv is None else equiv,
        )
        direct_job = directs.get((job.code, job.p))
        if direct_job is not None:
            direct = report.estimate(direct_job)
            d_lo, d_hi = direct.interval
            row.update(
                direct_rate=direct.rate,
                direct_lo=d_lo,
                direct_hi=d_hi,
                direct_shots=direct.shots,
                agrees=bool(strat["lo"] <= d_hi and d_lo <= strat["hi"]),
            )
        result.add(**row)
    return result
