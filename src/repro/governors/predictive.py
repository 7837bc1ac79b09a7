"""The paper's prediction-based DVFS controller.

Per job (Fig. 6 / §3): run the prediction slice on the job's inputs and
live program state to obtain control-flow features; map features to
execution-time predictions at the anchor frequencies with the trained
asymmetric-Lasso models; fit the per-job DVFS components; pick the lowest
discrete frequency whose predicted time fits the *effective* budget —
the budget minus the slice time already spent and a conservative
(95th-percentile) estimate of the upcoming switch time (Fig. 10).

When the offline pipeline attached a :class:`~repro.programs.analysis.
SliceCertificate` with a tight static cost bound, the governor also uses
it in the effective-budget computation: before the slice runs, the
certified worst case tells the governor whether slicing is affordable at
all (if bound + switch time already exceed the remaining budget, it
skips the slice and pins fmax — the slice would only make a doomed job
later), and while choosing it keeps the not-yet-spent remainder of the
bound reserved, so a fast slice execution cannot talk the governor into
headroom the certificate does not guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.governors.base import Decision, Governor, JobContext
from repro.models.dvfs import DvfsModel
from repro.models.timing import ExecutionTimePredictor, TimePrediction
from repro.platform.cpu import Work
from repro.platform.switching import SwitchTimeTable
from repro.programs.analysis.certify import SliceCertificate
from repro.programs.interpreter import Interpreter, RawFeatures
from repro.programs.slicer import PredictionSlice

__all__ = ["SliceOutcome", "PredictiveGovernor"]

#: :func:`~repro.telemetry.provenance.build_provenance`, bound by the
#: first :meth:`PredictiveGovernor.bind_telemetry` of an enabled
#: telemetry: a run that is not traced never loads the provenance engine.
build_provenance = None


@dataclass(slots=True)
class SliceOutcome:
    """Result of running the prediction slice for one job.

    Attributes:
        slice_work: What the slice itself cost to run.
        prediction: Margin-inflated anchor-time predictions.
        raw: The slice's features (counters + call addresses); the
            decision audit log records its counters, and decision
            provenance re-encodes it into model space.
    """

    slice_work: Work
    prediction: TimePrediction
    raw: RawFeatures


class PredictiveGovernor(Governor):
    """Slice -> execution-time model -> frequency (paper §3).

    Attributes:
        slice: The prediction slice extracted by the offline pipeline.
        predictor: Trained execution-time predictor (both anchors).
        dvfs: DVFS frequency-performance model.
        switch_table: 95th-percentile switch times from the
            microbenchmark; used to shrink the effective budget.
        interpreter: Executes the slice (isolated) at run time.
        certificate: The slice certifier's verdict from the offline
            pipeline; a tight certificate's cost bound feeds the
            effective-budget computation (None disables that).
    """

    def __init__(
        self,
        slice: PredictionSlice,
        predictor: ExecutionTimePredictor,
        dvfs: DvfsModel,
        switch_table: SwitchTimeTable,
        interpreter: Interpreter | None = None,
        certificate: SliceCertificate | None = None,
    ):
        self.slice = slice
        self.predictor = predictor
        self.dvfs = dvfs
        self.switch_table = switch_table
        self.interpreter = interpreter if interpreter is not None else Interpreter()
        self.certificate = certificate
        # Current level index -> switch estimate (see switch_estimate_s).
        self._switch_estimates: dict[int, float] = {}

    @property
    def name(self) -> str:
        return "prediction"

    def slice_bound_work(self) -> Work | None:
        """The certified worst-case slice cost as schedulable work.

        None when there is no certificate or its bound is not tight
        (a max_trips-clamped bound is sound but orders of magnitude
        above reality — scheduling against it would pin fmax forever).
        The certificate is immutable, so the Work is built once.
        """
        return self._slice_bound_work

    @cached_property
    def _slice_bound_work(self) -> Work | None:
        cert = self.certificate
        if cert is None or not cert.cost_bound_tight:
            return None
        return Work(
            cycles=cert.cost_bound_instructions
            * self.interpreter.cycles_per_instruction,
            mem_time_s=cert.cost_bound_mem_refs
            * self.interpreter.mem_seconds_per_ref,
        )

    def analyze(self, ctx: JobContext) -> SliceOutcome:
        """Run the prediction slice (pure: charges nothing on the board).

        The slice executes with isolated globals so its writes cannot
        corrupt task state (paper §3.2).  :meth:`run_slice` charges its
        cost under sequential placement; the executor lands it for the
        pipelined and parallel placements (paper §4.3, Fig. 14).
        """
        hp = self.hostprof
        if hp.enabled:
            t0 = hp.clock()
        slice_result = self.interpreter.execute_isolated(
            self.slice.program, ctx.inputs, ctx.task_globals
        )
        if hp.enabled:
            hp.add("features", hp.clock() - t0)
            t0 = hp.clock()
        prediction = self.predictor.predict(slice_result.features)
        if hp.enabled:
            hp.add("predict", hp.clock() - t0)
        return SliceOutcome(
            slice_result.work, prediction, slice_result.features
        )

    def switch_estimate_s(self, ctx: JobContext) -> float:
        """Conservative estimate of the upcoming DVFS switch (Fig. 10).

        The target level is unknown until after the decision, so take the
        95th-percentile time of the worst switch out of the current level.
        That depends on the level alone: each level's scan runs once.
        """
        start = ctx.board.current_opp
        estimate = self._switch_estimates.get(start.index)
        if estimate is None:
            estimate = self._switch_estimates[start.index] = max(
                self.switch_table.time_s(start, end) for end in self.dvfs.opps
            )
        return estimate

    def choose(
        self, outcome: SliceOutcome, effective_budget_s: float
    ) -> Decision:
        """Lowest discrete frequency whose predicted time fits the budget."""
        hp = self.hostprof
        if hp.enabled:
            t0 = hp.clock()
        prediction = outcome.prediction
        components = self.dvfs.components(
            prediction.t_fmin_s, prediction.t_fmax_s
        )
        opp = self.dvfs.opp_for_budget(components, effective_budget_s)
        decision = Decision(opp, components.time_at(opp.freq_hz))
        if hp.enabled:
            hp.add("ladder", hp.clock() - t0)
        return decision

    def margin_value(self) -> float:
        """The current safety margin (adaptive predictors expose an
        :class:`~repro.online.recalibrate.AdaptiveMargin`; the frozen
        predictor a plain float)."""
        margin = getattr(self.predictor, "margin", None)
        value = getattr(margin, "value", margin)
        return float(value) if isinstance(value, (int, float)) else float("nan")

    def bind_telemetry(self, telemetry) -> None:
        global build_provenance
        super().bind_telemetry(telemetry)
        if not telemetry.enabled:
            return
        if build_provenance is None:
            from repro.telemetry.provenance import build_provenance as build

            build_provenance = build
        cert = self.certificate
        if cert is None:
            return
        metrics = telemetry.metrics
        for diagnostic in cert.diagnostics:
            metrics.counter(
                f"certifier.diagnostics[{diagnostic.severity}]"
            ).inc()
        metrics.gauge("certifier.certified").set(float(cert.certified))
        metrics.gauge("certifier.cost_bound_tight").set(
            float(cert.cost_bound_tight)
        )
        metrics.gauge("certifier.cost_bound_instructions").set(
            cert.cost_bound_instructions
        )

    # -- the per-job prediction step (§3.4, Fig. 10) ---------------------------
    # The only copy: the adaptive governor drives it under its own name and
    # modes, the batch governor overrides runs_slice, analyze and
    # audit_decision, and the executor's pipelined/parallel placements land
    # the slice cost themselves.
    def decide(self, ctx: JobContext) -> Decision | None:
        """Sequential placement: slice, charge its time, then choose."""
        if not self.runs_slice(ctx):
            return None
        bound_work = self.slice_bound_work() if ctx.charge_overheads else None
        decision = self.preflight(ctx, bound_work, self)
        if decision is not None:
            return decision
        outcome, slice_time = self.run_slice(ctx)
        mode = "certified" if bound_work is not None else ""
        return self.conclude(ctx, outcome, self, mode, slice_time, bound_work)

    def runs_slice(self, ctx: JobContext) -> bool:
        """Whether this job is predicted at all (if not: no decision)."""
        return True

    def preflight(
        self, ctx: JobContext, bound_work: Work | None, auditor: Governor
    ) -> Decision | None:
        """fmax without slicing when even the certified bound cannot fit.

        If paying the slice's certified worst case (``bound_work``; None
        skips the check) plus a switch cannot fit the remaining budget,
        the slice is pure overhead on an already-doomed job, so pin fmax
        without running it; the certificate makes this call possible
        *before* spending the slice time.  ``auditor`` records the
        decision under mode ``bound-skip``.  None means: run the slice.
        """
        if bound_work is None:
            return None
        board = ctx.board
        bound_time = board.cpu.execution_time(bound_work, board.current_opp)
        headroom = (
            ctx.deadline_s
            - board.now
            - bound_time
            - self.switch_estimate_s(ctx)
        )
        if headroom > 0:
            return None
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("predict.bound_skips").inc()
        decision = Decision(self.dvfs.opps.fmax)
        auditor.audit_decision(
            ctx,
            decision,
            effective_budget_s=headroom,
            margin=self.margin_value(),
            mode="bound-skip",
        )
        return decision

    def run_slice(
        self, ctx: JobContext, shadow: bool | None = None
    ) -> tuple[SliceOutcome, float]:
        """Run the slice and charge its time to the job's budget.

        Returns the outcome and the slice time charged (0.0 when overheads
        are free).  ``shadow`` tags the trace span of a slice whose
        prediction only feeds recalibration (None: no tag).
        """
        outcome = self.analyze(ctx)
        if not ctx.charge_overheads:
            return outcome, 0.0
        board = ctx.board
        if self.telemetry.enabled:
            slice_from = board.now
        slice_time = board.cpu.execution_time(
            outcome.slice_work, board.current_opp
        )
        board.busy_run(slice_time, tag="predictor")
        if self.telemetry.enabled:
            args: dict = {"job": ctx.index}
            if shadow is not None:
                args["shadow"] = shadow
            self.telemetry.span(
                "predict.slice",
                slice_from,
                board.now,
                category="predictor",
                args=args,
            )
        return outcome, slice_time

    def conclude(
        self,
        ctx: JobContext,
        outcome: SliceOutcome,
        auditor: Governor,
        mode: str,
        slice_time: float = 0.0,
        bound_work: Work | None = None,
    ) -> Decision:
        """Effective budget -> lowest fitting OPP -> audit record.

        The effective budget is deadline - now - the p95 switch estimate
        - the unspent remainder of the certified bound (``bound_work``
        minus the ``slice_time`` already charged; None reserves nothing).
        With free overheads (the Fig. 18 limit study) it is deadline -
        now.  ``auditor`` records the decision, with its provenance,
        under ``mode``.
        """
        board = ctx.board
        telemetry = self.telemetry
        switch_estimate = self.switch_estimate_s(ctx)
        effective_budget = ctx.deadline_s - board.now
        if ctx.charge_overheads:
            effective_budget -= switch_estimate
            if bound_work is not None:
                # Keep the unspent remainder of the certified bound
                # reserved: a lucky fast slice run must not unlock
                # headroom the static analysis does not guarantee.
                bound_time = board.cpu.execution_time(
                    bound_work, board.current_opp
                )
                effective_budget -= max(0.0, bound_time - slice_time)
                if slice_time > bound_time and telemetry.enabled:
                    telemetry.metrics.counter(
                        "certifier.bound_exceeded"
                    ).inc()
        decision = self.choose(outcome, effective_budget)
        if telemetry.enabled:
            margin = self.margin_value()
            attribution, ladder, generation = build_provenance(
                predictor=self.predictor,
                dvfs=self.dvfs,
                raw_features=outcome.raw,
                prediction=outcome.prediction,
                margin=margin,
                effective_budget_s=effective_budget,
                switch_estimate_s=switch_estimate,
                opp=decision.opp,
                budget_s=ctx.budget_s,
                deadline_s=ctx.deadline_s,
            )
            auditor.audit_decision(
                ctx,
                decision,
                effective_budget_s=effective_budget,
                margin=margin,
                mode=mode,
                features=outcome.raw.counters,
                attribution=attribution,
                ladder=ladder,
                beta_generation=generation,
            )
        return decision
