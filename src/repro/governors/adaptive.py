"""Self-correcting wrapper around the paper's predictive governor.

The paper trains its execution-time model once, offline (Fig. 13); this
governor closes the loop at run time.  Per job it:

1. runs the prediction slice through the frozen governor's own
   prediction step (the slice cost is charged identically, so
   comparisons are fair);
2. while **predicting**, picks the frequency from online-recalibrated
   anchor models under an adaptive safety margin;
3. after the job, compares observed to predicted time, feeds the
   relative residual to an EWMA of its magnitude, an under-prediction
   drift detector, and a recursive-least-squares update of both anchor
   models (asymmetry approximated by per-sample weighting);
4. when the detector flags drift, **falls back** to the deadline-safe
   ``performance`` governor while the slice keeps running in shadow, so
   recalibration continues on live observations;
5. re-engages prediction once the shadow residuals have stabilised for a
   cooldown period.

The feedback computation itself is not free: :meth:`on_job_end` returns
a :class:`~repro.platform.cpu.Work` bill (O(features²) for the RLS
update) that the executor charges as predictor time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.governors.base import Decision, Governor, JobContext
from repro.governors.performance import PerformanceGovernor
from repro.governors.predictive import PredictiveGovernor
from repro.online.drift import PageHinkleyDetector
from repro.online.predictor import OnlineTimePredictor
from repro.online.recalibrate import AdaptiveMargin
from repro.online.residuals import Ewma
from repro.platform.board import Board
from repro.platform.cpu import Work

if TYPE_CHECKING:  # avoid a circular import with the runtime package
    from repro.runtime.records import JobRecord

__all__ = ["AdaptiveMode", "AdaptiveConfig", "AdaptiveGovernor"]

_EPS = 1e-12

# Fixed constants of the adaptation loop (no caller varies them).
#: RLS forgetting factor (0.98 remembers ~50 jobs).
RLS_FORGETTING = 0.98
#: Initial RLS covariance — trust in the offline fit.
RLS_P0 = 0.05
#: Page–Hinkley mean-shift tolerance (relative-residual units; shifts
#: below this are noise).
PH_DELTA = 0.05
#: Page–Hinkley alarm level.
PH_THRESHOLD = 0.4
#: Observed jobs before drift detection may alarm.
WARMUP_JOBS = 10
#: Minimum jobs spent in fallback before re-engaging.
COOLDOWN_JOBS = 10
#: Smoothing weight of the |relative residual| EWMA.
ABS_RESIDUAL_ALPHA = 0.1
#: The shadow |relative residual| EWMA must fall below this before
#: prediction re-engages.
REENGAGE_ABS_RESIDUAL = 0.10
#: Fixed per-job cost of the feedback step (residual and detector
#: updates), in CPU cycles.
UPDATE_BASE_CYCLES = 15_000.0
#: RLS update cost per feature², in CPU cycles (the rank-1 covariance
#: update is O(n²)).
UPDATE_CYCLES_PER_FEATURE_SQ = 40.0


class AdaptiveMode(enum.Enum):
    """Which policy is currently driving frequency decisions."""

    PREDICT = "predict"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the online adaptation loop (the ablation varies each).

    The loop's other parameters are the module constants above.

    Attributes:
        under_weight: RLS sample weight for under-predicted jobs (online
            stand-in for the paper's asymmetric penalty alpha).
        margin_initial: Starting safety margin (paper: 0.10).
        margin_floor: Smallest margin the decay may reach.
        margin_ceiling: Largest margin a miss burst may reach.
        recalibrate: Feed observed residuals back into the anchor
            models (the online RLS update).  False freezes the offline
            coefficients — drift is still *detected* but never learned
            away — and drops the O(features²) part of the feedback
            bill.  Exists for ablations.
        fallback_armed: Allow the mode machine to leave PREDICT.  False
            disarms both the drift detector's alarm and external
            :meth:`AdaptiveGovernor.arm_fallback` calls, so prediction
            keeps driving through drift.  Exists for ablations.
        bound_skip: Use a tight slice-cost certificate in the predict
            path the way the frozen governor does: pre-flight the
            certified worst case (pin fmax without slicing when even
            the bound cannot fit) and keep the bound's unspent
            remainder reserved while choosing.  Off by default — the
            historical adaptive path never consulted the certificate —
            and armed by the ablation baseline so its value is
            measurable.
    """

    under_weight: float = 25.0
    margin_initial: float = 0.10
    margin_floor: float = 0.04
    margin_ceiling: float = 0.40
    recalibrate: bool = True
    fallback_armed: bool = True
    bound_skip: bool = False


class AdaptiveGovernor(Governor):
    """Predictive governor + drift detection + recalibration + fallback.

    Composes (rather than subclasses) the frozen
    :class:`~repro.governors.predictive.PredictiveGovernor` and drives
    its per-job prediction step (pre-flight, slice, effective budget,
    OPP choice, audit record), recording decisions under this
    governor's name and the ``predict`` mode.  This wrapper adds only
    the ``bound_skip`` gate, the shadow flag on fallback-mode slices, the
    pending features for the feedback, the fallback branch, the mode
    machine and the feedback loop.  Placement is always sequential — the
    feedback needs the slice features of the *current* job.

    Attributes:
        inner: Predictive governor wired to the online predictor.
        predictor: The recalibrating execution-time predictor.
        fallback: The ``performance`` governor, used while drift is
            flagged.
        abs_residual: EWMA of the per-job |relative residual|; gates
            re-engagement.
        detector: Under-prediction drift detector.
        mode: Current :class:`AdaptiveMode`.
    """

    def __init__(
        self,
        predictive: PredictiveGovernor,
        config: AdaptiveConfig | None = None,
    ):
        self.config = config if config is not None else AdaptiveConfig()
        cfg = self.config
        self.predictor = OnlineTimePredictor(
            predictive.predictor,
            margin=AdaptiveMargin(
                initial=cfg.margin_initial,
                floor=cfg.margin_floor,
                ceiling=cfg.margin_ceiling,
            ),
            lam=RLS_FORGETTING,
            p0=RLS_P0,
            under_weight=cfg.under_weight,
        )
        self.inner = PredictiveGovernor(
            slice=predictive.slice,
            predictor=self.predictor,
            dvfs=predictive.dvfs,
            switch_table=predictive.switch_table,
            interpreter=predictive.interpreter,
            certificate=predictive.certificate,
        )
        self.fallback = PerformanceGovernor(predictive.dvfs.opps)
        self.abs_residual = Ewma(ABS_RESIDUAL_ALPHA)
        self.detector = PageHinkleyDetector(
            delta=PH_DELTA, threshold=PH_THRESHOLD, min_samples=WARMUP_JOBS
        )
        self.mode = AdaptiveMode.PREDICT
        self.jobs_in_mode = 0
        self.drift_events = 0
        self._pending: tuple[Any, Any] | None = None

    @classmethod
    def from_controller(
        cls,
        controller,
        config: AdaptiveConfig | None = None,
        interpreter=None,
    ) -> "AdaptiveGovernor":
        """Build from a trained offline controller (the common path)."""
        return cls(predictive=controller.governor(interpreter), config=config)

    @property
    def name(self) -> str:
        return "adaptive"

    @property
    def predicting(self) -> bool:
        return self.mode is AdaptiveMode.PREDICT

    # -- decision path ---------------------------------------------------------
    def start(self, board: Board, budget_s: float) -> None:
        self.fallback.start(board, budget_s)

    def bind_telemetry(self, telemetry) -> None:
        """Forward the run's telemetry to the inner predictive governor."""
        super().bind_telemetry(telemetry)
        self.inner.bind_telemetry(telemetry)

    def bind_hostprof(self, hostprof) -> None:
        """Forward the host profiler so the inner predictive governor's
        sub-phase timers (features/predict/ladder) still fire when it is
        driven through the adaptive wrapper."""
        super().bind_hostprof(hostprof)
        self.inner.bind_hostprof(hostprof)

    def switch_estimate_s(self, ctx: JobContext) -> float:
        return self.inner.switch_estimate_s(ctx)

    def margin_value(self) -> float:
        return self.inner.margin_value()

    def decide(self, ctx: JobContext) -> Decision | None:
        """Run the slice (always — shadow predictions feed recalibration),
        then decide via prediction or the fallback policy."""
        inner = self.inner
        bound_work = None
        if self.config.bound_skip and self.predicting and ctx.charge_overheads:
            bound_work = inner.slice_bound_work()
        decision = inner.preflight(ctx, bound_work, self)
        if decision is not None:
            # No slice ran, so there is nothing to learn from this job;
            # the feedback path sees no pending features.
            self._pending = None
            return decision
        outcome, slice_time = inner.run_slice(ctx, shadow=not self.predicting)
        # analyze() routed through the online predictor, which stashed the
        # encoded features and raw anchors for the post-job feedback.
        self._pending = (self.predictor.last_x, self.predictor.last_raw)
        if self.predicting:
            mode = AdaptiveMode.PREDICT.value
            return inner.conclude(
                ctx, outcome, self, mode, slice_time, bound_work
            )
        decision = self.fallback.decide(ctx)
        telemetry = self.telemetry
        if telemetry.enabled and not telemetry.has_decision_for(ctx.index):
            self.audit_decision(
                ctx,
                decision,
                margin=self.margin_value(),
                mode=AdaptiveMode.FALLBACK.value,
                features=outcome.raw.counters,
            )
        return decision

    # -- feedback path ---------------------------------------------------------
    def on_job_end(self, record: JobRecord, ctx: JobContext) -> Work | None:
        """Close the loop: residual -> EWMA/detector/RLS -> mode machine.

        Returns the computational bill of the update, which the executor
        charges as predictor time.
        """
        if self._pending is None:
            return None
        x, raw = self._pending
        self._pending = None
        if x is None or raw is None:
            return None

        t_predicted = self._predicted_at(raw, record.opp_mhz * 1e6)
        t_observed = record.exec_time_s
        residual = (t_observed - t_predicted) / max(t_predicted, _EPS)

        telemetry = self.telemetry
        if telemetry.enabled:
            now = ctx.board.now
            telemetry.counter("residual_rel", now, residual)
            telemetry.counter("margin", now, self.predictor.margin.value)
            metrics = telemetry.metrics
            metrics.counter("adaptive.recalibration_steps").inc()
            metrics.histogram(
                "adaptive.abs_residual_rel",
                bounds=[i / 50.0 for i in range(1, 101)],
            ).observe(abs(residual))
            metrics.gauge("adaptive.margin").set(self.predictor.margin.value)
            metrics.gauge("adaptive.detector_statistic").set(
                self.detector.statistic
            )

        self.abs_residual.update(abs(residual))
        # Project the observation to both anchors with the model's own
        # time decomposition: a multiplicative residual at the executed
        # frequency is applied to both anchor predictions.  Uniform drift
        # (throttling, heavier content) is captured exactly; a drifting
        # memory/compute split is folded into the same factor.
        factor = t_observed / max(t_predicted, _EPS)
        if self.config.recalibrate:
            self.predictor.observe(
                x, raw.t_fmax_s * factor, raw.t_fmin_s * factor
            )
        self.jobs_in_mode += 1

        if self.mode is AdaptiveMode.PREDICT:
            self.predictor.margin.update(record.missed)
            if (
                self.detector.update(max(residual, 0.0))
                and self.config.fallback_armed
            ):
                self.mode = AdaptiveMode.FALLBACK
                self.jobs_in_mode = 0
                self.drift_events += 1
                if telemetry.enabled:
                    telemetry.instant(
                        "drift.alarm",
                        ctx.board.now,
                        track="online",
                        category="drift",
                        args={
                            "job": record.index,
                            "statistic": self.detector.statistic,
                            "residual": residual,
                        },
                    )
                    telemetry.metrics.counter("adaptive.drift_alarms").inc()
                    telemetry.metrics.counter(
                        "adaptive.transitions[predict->fallback]"
                    ).inc()
        else:
            stable = (
                self.jobs_in_mode >= COOLDOWN_JOBS
                and self.abs_residual.get(default=1.0) < REENGAGE_ABS_RESIDUAL
            )
            if stable:
                self.mode = AdaptiveMode.PREDICT
                self.jobs_in_mode = 0
                self.detector.reset()
                if telemetry.enabled:
                    telemetry.instant(
                        "drift.reengage",
                        ctx.board.now,
                        track="online",
                        category="drift",
                        args={"job": record.index},
                    )
                    telemetry.metrics.counter(
                        "adaptive.transitions[fallback->predict]"
                    ).inc()

        n = self.predictor.n_features
        rls_cycles = (
            UPDATE_CYCLES_PER_FEATURE_SQ * float(n * n)
            if self.config.recalibrate
            else 0.0
        )
        return Work(cycles=UPDATE_BASE_CYCLES + rls_cycles)

    def arm_fallback(self, reason: str = "external", t_s: float = 0.0) -> bool:
        """Force the deadline-safe fallback mode from outside the loop.

        The SLO watchdog (:mod:`repro.telemetry.watch`) calls this when a
        page-severity burn-rate alert fires before the governor's own
        drift detector has: the mode machine treats it exactly like an
        internal alarm, so the usual cooldown-and-stability path governs
        re-engagement.  Returns True when the mode actually changed.
        """
        if self.mode is AdaptiveMode.FALLBACK or not self.config.fallback_armed:
            return False
        self.mode = AdaptiveMode.FALLBACK
        self.jobs_in_mode = 0
        self.drift_events += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.instant(
                "fallback.armed",
                t_s,
                track="online",
                category="drift",
                args={"reason": reason},
            )
            telemetry.metrics.counter(
                "adaptive.transitions[predict->fallback]"
            ).inc()
            telemetry.metrics.counter("adaptive.external_arms").inc()
        return True

    def _predicted_at(self, raw, freq_hz: float) -> float:
        """The raw (unmargined) predicted time at an executed frequency."""
        components = self.inner.dvfs.components(raw.t_fmin_s, raw.t_fmax_s)
        return components.time_at(freq_hz)
