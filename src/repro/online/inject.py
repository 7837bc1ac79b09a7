"""Drift injection: a controlled mid-run shift for adaptation experiments.

**Execution-cost drift** (:class:`StepDriftJitter`): from a given time
onward, every job takes a constant factor longer than the profiled
feature→time relationship predicts.  This models what the slice features
*cannot* see — thermal throttling, a codec switching to a heavier profile
with the same macroblock counts, co-running tenants — and is the drift
mode that breaks a frozen linear model no matter how good its features
are.

The jitter wrapper lives here (not in :mod:`repro.platform.jitter`)
because it is an experiment instrument, not a platform property.
"""

from __future__ import annotations

from typing import Callable

from repro.platform.jitter import JitterModel

__all__ = ["StepDriftJitter"]

_EPS = 1e-12


class StepDriftJitter(JitterModel):
    """Wraps a jitter model; multiplies samples by ``factor`` after a step.

    The step engages once the supplied clock (e.g. ``lambda: board.now``)
    reaches ``shift_at_s``.  Jobs are released periodically, so
    ``shift_job * budget_s`` drifts the same job for every governor, even
    though governors that charge predictor or feedback time draw extra
    samples per job — and a time trigger is also the physically honest
    model (throttling does not wait for a job boundary).

    Args:
        inner: The base timing-noise model.
        factor: Multiplicative slowdown (> 1) applied from the step on.
        shift_at_s: Simulated time the drift engages at.
        clock: Callable returning the current simulated time.
    """

    def __init__(
        self,
        inner: JitterModel,
        factor: float,
        *,
        shift_at_s: float,
        clock: Callable[[], float],
    ):
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        self.inner = inner
        self.factor = factor
        self.shift_at_s = shift_at_s
        self.clock = clock

    def sample(self) -> float:
        base = self.inner.sample()
        if self.clock() >= self.shift_at_s - _EPS:
            return base * self.factor
        return base

