"""Batched prediction: one DVFS decision for several jobs (paper §7).

The paper's closing observation: "for time budgets on the order of
milliseconds, the overhead of running the predictor and switching DVFS
levels will outweigh the energy savings gained.  At these time scales,
the predictor may need to predict the DVFS level for several jobs at
once in order to amortize these overheads."

This governor implements that: it runs the predictor only on every
``batch_size``-th job and holds the chosen level for the whole batch.
Because future jobs' inputs are not yet known (interactive tasks), the
decision extrapolates from the head job's prediction, inflated by a
batch margin to cover within-batch variation — trading a little energy
(and a small miss risk on erratic workloads) for an overhead divided
by ``batch_size``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.governors.base import JobContext
from repro.governors.predictive import PredictiveGovernor, SliceOutcome
from repro.models.timing import TimePrediction

__all__ = ["BatchPredictiveGovernor"]

#: Extra inflation of the head job's predicted times, absorbing
#: job-to-job variation inside the batch.
BATCH_MARGIN = 0.15


class BatchPredictiveGovernor(PredictiveGovernor):
    """Predict once per batch, hold the level for the rest.

    Everything else is the per-job prediction step of
    :class:`~repro.governors.predictive.PredictiveGovernor` (slice,
    effective budget, OPP choice) under every placement: this class only
    overrides :meth:`runs_slice` (batch heads only), :meth:`analyze`
    (the head's prediction, inflated) and :meth:`audit_decision`.

    Attributes:
        batch_size: Jobs per decision (1 degenerates to the paper's
            per-job controller).
    """

    def __init__(self, *args, batch_size: int = 4, **kwargs):
        super().__init__(*args, **kwargs)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size

    @property
    def name(self) -> str:
        return f"prediction-batch{self.batch_size}"

    def runs_slice(self, ctx: JobContext) -> bool:
        # Mid-batch jobs hold the level and pay nothing.
        return ctx.index % self.batch_size == 0

    def audit_decision(self, ctx: JobContext, decision, **fields) -> None:
        """Record nothing; the executor's bare record covers every job.

        A head decision holds for its whole batch through
        :data:`BATCH_MARGIN`, which the provenance of one job's
        prediction cannot replay.
        """

    def analyze(self, ctx: JobContext) -> SliceOutcome:
        """The head job's outcome, its predicted times inflated by
        :data:`BATCH_MARGIN` to cover the rest of the batch."""
        outcome = super().analyze(ctx)
        inflate = 1.0 + BATCH_MARGIN
        return replace(
            outcome,
            prediction=TimePrediction(
                t_fmax_s=outcome.prediction.t_fmax_s * inflate,
                t_fmin_s=outcome.prediction.t_fmin_s * inflate,
            ),
        )
