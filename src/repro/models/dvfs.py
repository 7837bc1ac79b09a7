"""The DVFS frequency-performance model (paper §3.4).

Execution time follows the classical linear model

    t(f) = T_mem + N_dep / f

validated by the paper's Fig. 9.  Given predicted times at the two anchor
frequencies, the per-job components are

    N_dep = fmin * fmax * (t_fmin - t_fmax) / (fmax - fmin)
    T_mem = (fmax * t_fmax - fmin * t_fmin) / (fmax - fmin)

and the minimum frequency meeting a budget is

    f_budget = N_dep / (t_budget - T_mem)

quantized up to the next available operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.platform.opp import OperatingPoint, OppTable

__all__ = ["DvfsComponents", "DvfsModel"]


@dataclass(slots=True)
class DvfsComponents:
    """Per-job decomposition of predicted time into model components.

    Attributes:
        tmem_s: Frequency-independent (memory-bound) seconds.
        ndep_cycles: Frequency-dependent cycles.
    """

    tmem_s: float
    ndep_cycles: float

    def time_at(self, freq_hz: float) -> float:
        """Model-predicted execution time at ``freq_hz``."""
        if freq_hz <= 0:
            raise ValueError(f"frequency must be positive, got {freq_hz}")
        return self.tmem_s + self.ndep_cycles / freq_hz


class DvfsModel:
    """Turns anchor-time predictions into a frequency decision."""

    def __init__(self, opps: OppTable):
        if len(opps) < 2:
            raise ValueError("DVFS control needs at least two operating points")
        self.opps = opps
        # The anchor frequencies, read on every decision.
        self._fmin_hz = opps.fmin.freq_hz
        self._fmax_hz = opps.fmax.freq_hz

    def components(self, t_fmin_s: float, t_fmax_s: float) -> DvfsComponents:
        """Fit T_mem and N_dep from times at the two anchor frequencies.

        Predictions are only predictions: if they are inconsistent with
        the physical model (t_fmin < t_fmax, or a negative T_mem), the
        offending component clamps to zero and the other absorbs the
        time, keeping downstream math finite and conservative.
        """
        fmin = self._fmin_hz
        fmax = self._fmax_hz
        span = fmax - fmin
        ndep = fmin * fmax * (t_fmin_s - t_fmax_s) / span
        tmem = (fmax * t_fmax_s - fmin * t_fmin_s) / span
        if ndep < 0.0:
            # Predicted *faster* at low frequency: treat all time as memory.
            return DvfsComponents(max(t_fmax_s, 0.0), 0.0)
        if tmem < 0.0:
            # All time scales with frequency.
            return DvfsComponents(0.0, max(t_fmax_s, 0.0) * fmax)
        return DvfsComponents(tmem, ndep)

    def freq_for_budget(
        self, components: DvfsComponents, budget_s: float
    ) -> float:
        """Ideal continuous frequency (Hz) that just meets ``budget_s``.

        Returns ``math.inf`` when no finite frequency can meet the budget
        (the memory-bound time alone exceeds it) — the caller will then
        saturate at fmax and accept the likely miss.
        """
        if budget_s <= 0:
            return math.inf
        slack = budget_s - components.tmem_s
        if slack <= 0:
            return math.inf
        if components.ndep_cycles == 0:
            return self._fmin_hz
        return components.ndep_cycles / slack

    def opp_for_budget(
        self, components: DvfsComponents, budget_s: float
    ) -> OperatingPoint:
        """The *smallest allowed frequency greater than or equal to* the
        ideal frequency for ``budget_s`` (paper §3.4), saturating at fmax."""
        ideal = self.freq_for_budget(components, budget_s)
        if math.isinf(ideal):
            return self.opps.fmax
        return self.opps.lowest_at_or_above(ideal)

    def choose_opp(
        self, t_fmin_s: float, t_fmax_s: float, budget_s: float
    ) -> OperatingPoint:
        """End-to-end decision: anchor times + budget -> operating point."""
        return self.opp_for_budget(self.components(t_fmin_s, t_fmax_s), budget_s)
