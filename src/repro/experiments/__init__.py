"""One module per paper table/figure; README.md's "Running experiments"
section lists their runner targets."""

from . import (
    ablations,
    campaign,
    fig01_predictors,
    fig06_schedules,
    fig12_benchmarks,
    fig13_random_starts,
    fig14_lowp,
    fig14_scaling,
    fig15_idle,
    fig16_zne,
    service,
    shotrunner,
    store,
    table1_codes,
    table2_models,
)
from .campaign import CampaignJob, CampaignSpec, run_campaign
from .common import ExperimentResult
from .service import serve_campaign, worker_loop
from .store import ResultStore
from .shotrunner import (
    ExecutionConfig,
    estimate_logical_error_rate,
    run_shot_chunks,
    run_stratified_chunks,
)

__all__ = [
    "CampaignJob",
    "CampaignSpec",
    "ExecutionConfig",
    "ExperimentResult",
    "ResultStore",
    "campaign",
    "estimate_logical_error_rate",
    "run_campaign",
    "run_shot_chunks",
    "run_stratified_chunks",
    "serve_campaign",
    "service",
    "store",
    "worker_loop",
    "fig01_predictors",
    "fig06_schedules",
    "fig12_benchmarks",
    "fig13_random_starts",
    "fig14_lowp",
    "fig14_scaling",
    "fig15_idle",
    "fig16_zne",
    "shotrunner",
    "table1_codes",
    "table2_models",
    "ablations",
]
