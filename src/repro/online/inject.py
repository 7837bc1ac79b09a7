"""Drift injection: controlled mid-run shifts for adaptation experiments.

Two orthogonal mechanisms, matching how deployments actually drift away
from the offline profile:

- **Execution-cost drift** (:class:`StepDriftJitter`): from a given job
  onward, every job takes a constant factor longer than the profiled
  feature→time relationship predicts.  This models what the slice
  features *cannot* see — thermal throttling, a codec switching to a
  heavier profile with the same macroblock counts, co-running tenants —
  and is the drift mode that breaks a frozen linear model no matter how
  good its features are.
- **Input-distribution drift** (:func:`scale_inputs`): from a given job
  onward, numeric job inputs are scaled, pushing the workload into a
  heavier operating region than the profiling script exercised.

The jitter wrapper lives here (not in :mod:`repro.platform.jitter`)
because it is an experiment instrument, not a platform property.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.platform.jitter import JitterModel

__all__ = ["StepDriftJitter", "scale_inputs"]

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


def scale_inputs(
    inputs: Sequence[Mapping[str, object]],
    from_index: int,
    scale: float,
) -> list[Mapping[str, object]]:
    """Scale numeric job inputs from ``from_index`` onward.

    Only integer values above 1 are scaled: 0/1 values are almost always
    mode flags (frame kinds, booleans) whose meaning scaling would
    destroy, while larger integers are counts (macroblocks, rounds,
    bytes) that set the amount of work.  Floats are scaled unless they
    lie in [0, 1] (probabilities/fractions).

    Args:
        inputs: Per-job input dicts in release order.
        from_index: First job index the scaling applies to.
        scale: Multiplier for work-like values (1.0 is a no-op).
    """
    if from_index < 0:
        raise ValueError(f"from_index must be >= 0, got {from_index}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if scale == 1.0:
        return list(inputs)

    def shift(value: object) -> object:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return max(1, int(round(value * scale))) if value > 1 else value
        if isinstance(value, float):
            return value if 0.0 <= value <= 1.0 else value * scale
        return value

    shifted: list[Mapping[str, object]] = []
    for index, job in enumerate(inputs):
        if index < from_index:
            shifted.append(job)
        else:
            shifted.append({key: shift(value) for key, value in job.items()})
    return shifted
