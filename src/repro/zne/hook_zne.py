"""Hook-ZNE: fine-grained noise scaling from intermediate SM circuits (§7.2).

PropHunt's optimization trajectory passes through SM circuits whose
logical error rates interpolate smoothly between the unoptimized and
optimized endpoints *at fixed code distance and qubit count*.  Treating
those intermediate circuits as noise dials gives ZNE finely spaced scale
factors — the paper parameterizes them as fractional effective distances
``d`` in ``P_L(d) = Lambda^{-(d+1)/2}`` (e.g. d = 13, 12.5, 12, 11.5).

Two entry points:

* :class:`HookZNE` — the §7.2 evaluation: fractional-distance dials with
  the same estimator pipeline as DS-ZNE, for the bias comparison.
* :func:`noise_dials_from_prophunt` — the systems path: turn an actual
  :class:`PropHuntResult`'s intermediate schedules into measured logical
  error rates, i.e. real hardware dials instead of the analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.stats import projected_logical_rate
from .ds_zne import ZNEOutcome
from .extrapolate import extrapolate_to_zero
from .rb import RBWorkload


@dataclass
class HookZNE:
    """Hook-ZNE estimator at suppression factor ``lam``."""

    lam: float
    workload: RBWorkload = field(default_factory=RBWorkload)
    method: str = "exponential"

    def gate_error(self, effective_distance: float) -> float:
        return projected_logical_rate(self.lam, effective_distance)

    def amplification_range(self, d: int, d_eff_min: float) -> tuple[float, float]:
        """Noise amplification reachable at fixed distance d (Figure 16a).

        Intermediate circuits span effective distances in
        [d_eff_min, d]; the amplification factor relative to the best
        circuit is ``P_L(d_eff) / P_L(d) = Lambda^{(d - d_eff)/2}``.
        """
        top = projected_logical_rate(self.lam, d_eff_min) / projected_logical_rate(
            self.lam, d
        )
        return (1.0, float(top))

    def run(
        self,
        effective_distances: list[float],
        total_shots: int,
        rng: np.random.Generator,
    ) -> ZNEOutcome:
        if len(effective_distances) < 2:
            raise ValueError("ZNE needs at least two noise scales")
        shots_each = total_shots // len(effective_distances)
        errors = [self.gate_error(d) for d in effective_distances]
        base = min(errors)
        scales = [e / base for e in errors]
        expectations = [
            self.workload.sample_expectation(e, shots_each, rng) for e in errors
        ]
        estimate = extrapolate_to_zero(scales, expectations, self.method)
        return ZNEOutcome(
            distances=list(effective_distances),
            gate_errors=errors,
            scale_factors=scales,
            expectations=expectations,
            estimate=float(np.clip(estimate, -1.0, 1.0)),
            ideal=self.workload.ideal_expectation(),
        )


# The paper's three Hook-ZNE dial sets, finely spaced at ~fixed d (§7.2).
HOOK_ZNE_DISTANCE_SETS: list[list[float]] = [
    [13, 12.5, 12, 11.5],
    [11, 10.5, 10, 9.5],
    [9, 8.5, 8, 7.5],
]


def noise_dials_from_prophunt(
    result,
    p: float,
    shots: int = 4000,
    rng: np.random.Generator | None = None,
) -> list[tuple[int, float]]:
    """Measure the logical error rate of every intermediate schedule.

    Returns (iteration, logical_error_rate) dials in optimization order —
    the concrete realization of Hook-ZNE's noise knob.  ``result`` is a
    :class:`repro.core.PropHuntResult`.
    """
    from ..experiments.shotrunner import estimate_logical_error_rate

    rng = rng or np.random.default_rng()
    dials = []
    for i, schedule in enumerate(result.intermediate_schedules):
        rate = estimate_logical_error_rate(
            result.code, schedule, p=p, shots=shots, rng=rng
        ).rate
        dials.append((i, rate))
    return dials
