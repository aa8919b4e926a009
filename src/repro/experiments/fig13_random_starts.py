"""Figure 13: robustness across random coloration starting circuits.

PropHunt is run from several *different* random coloration circuits of
the same code; starting and ending logical error rates are reported.
The paper's claim: despite start/end variation, optimization consistently
improves the input circuit.
"""

from __future__ import annotations

import numpy as np

from ..circuits import coloration_schedule
from ..codes import load_benchmark_code
from ..core import PropHunt, PropHuntConfig
from .common import ExperimentResult
from .shotrunner import ExecutionConfig, estimate_logical_error_rate


def run(
    code_name: str = "surface_d3",
    num_starts: int = 3,
    p: float = 3e-3,
    shots: int = 6000,
    iterations: int = 4,
    samples: int = 30,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentResult:
    """The default p is 3e-3 rather than the paper's 1e-3: at laptop-scale
    shot counts the improvement signal at 1e-3 sits inside the Wilson
    interval for small codes; the paper's 0.1% point needs >= 1e5 shots."""
    code = load_benchmark_code(code_name)
    rng = np.random.default_rng(seed)
    result = ExperimentResult(
        name=f"Figure 13: random coloration starts, {code.label()}, p={p:g}",
    )
    execution = ExecutionConfig(workers=workers, max_failures=400)
    for start_idx in range(num_starts):
        start = coloration_schedule(code, np.random.default_rng(seed + 100 + start_idx))
        config = PropHuntConfig(
            iterations=iterations,
            samples_per_iteration=samples,
            seed=seed + start_idx,
            # Keep the rewrites depth-disciplined: at these small scales
            # unchecked depth growth can wash out the ambiguity gains.
            max_depth_growth=2,
        )
        opt = PropHunt(code, config).optimize(start)
        before = estimate_logical_error_rate(
            code, start, p=p, shots=shots, rng=rng, config=execution
        )
        after = estimate_logical_error_rate(
            code, opt.final_schedule, p=p, shots=shots, rng=rng, config=execution
        )
        result.add(
            start=start_idx,
            start_rate=before.rate,
            end_rate=after.rate,
            improved=after.rate <= before.rate,
            start_depth=start.cnot_depth(),
            end_depth=opt.final_schedule.cnot_depth(),
        )
    return result
