"""PropHunt reproduction: automated optimization of quantum syndrome
measurement circuits (ASPLOS 2026).

Public API quick tour::

    from repro.codes import rotated_surface_code, load_benchmark_code
    from repro.circuits import coloration_schedule, build_memory_experiment
    from repro.core import PropHunt, PropHuntConfig
    from repro.experiments.shotrunner import estimate_logical_error_rate
    from repro.zne import HookZNE, DistanceScalingZNE

See README.md for a narrative quickstart; its "Running experiments"
section lists the runner target of every paper table and figure.
"""

from . import (
    analysis,
    api,
    circuits,
    codes,
    core,
    decoders,
    experiments,
    gf2,
    maxsat,
    noise,
    rareevent,
    sim,
    zne,
)

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "api",
    "circuits",
    "codes",
    "core",
    "decoders",
    "experiments",
    "gf2",
    "maxsat",
    "noise",
    "rareevent",
    "sim",
    "zne",
    "__version__",
]
