"""Self-correcting wrapper around the paper's predictive governor.

The paper trains its execution-time model once, offline (Fig. 13); this
governor closes the loop at run time.  Per job it:

1. runs the prediction slice through the frozen governor's own
   prediction step (the slice cost is charged identically, so
   comparisons are fair);
2. while **predicting**, picks the frequency from online-recalibrated
   anchor models under an adaptive safety margin;
3. after the job, compares observed to predicted time, feeds the signed
   relative residual to a streaming monitor, an under-prediction drift
   detector, and a recursive-least-squares update of both anchor models
   (asymmetry approximated by per-sample weighting);
4. when the detector flags drift, **falls back** to a conservative
   deadline-safe policy (the ``performance`` governor by default) while
   the slice keeps running in shadow, so recalibration continues on live
   observations;
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
from repro.online.drift import (
    DriftDetector,
    PageHinkleyDetector,
    detector_from_state,
)
from repro.online.predictor import OnlineTimePredictor
from repro.online.recalibrate import AdaptiveMargin
from repro.online.residuals import ResidualMonitor, ResidualSnapshot
from repro.platform.board import Board
from repro.platform.cpu import Work

if TYPE_CHECKING:  # avoid a circular import with the runtime package
    from repro.runtime.records import JobRecord

__all__ = ["AdaptiveMode", "AdaptiveConfig", "AdaptiveGovernor"]

_EPS = 1e-12


class AdaptiveMode(enum.Enum):
    """Which policy is currently driving frequency decisions."""

    PREDICT = "predict"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the online adaptation loop.

    Attributes:
        rls_forgetting: RLS forgetting factor (0.98 remembers ~50 jobs).
        rls_p0: Initial RLS covariance — trust in the offline fit.
        under_weight: RLS sample weight for under-predicted jobs (online
            stand-in for the paper's asymmetric penalty alpha).
        ph_delta: Page–Hinkley mean-shift tolerance (relative-residual
            units; shifts below this are noise).
        ph_threshold: Page–Hinkley alarm level.
        warmup_jobs: Observed jobs before drift detection may alarm.
        cooldown_jobs: Minimum jobs spent in fallback before re-engaging.
        reengage_abs_residual: Shadow |relative residual| EWMA must fall
            below this before prediction re-engages.
        margin_initial: Starting safety margin (paper: 0.10).
        margin_floor: Smallest margin the decay may reach.
        margin_ceiling: Largest margin a miss burst may reach.
        target_miss_rate: Smoothed miss rate the margin loop aims for.
        update_base_cycles: Fixed per-job cost of the feedback step
            (monitor + detector updates), in CPU cycles.
        update_cycles_per_feature_sq: RLS update cost per feature², in
            CPU cycles (the rank-1 covariance update is O(n²)).
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

    rls_forgetting: float = 0.98
    rls_p0: float = 0.05
    under_weight: float = 25.0
    ph_delta: float = 0.05
    ph_threshold: float = 0.4
    warmup_jobs: int = 10
    cooldown_jobs: int = 10
    reengage_abs_residual: float = 0.10
    margin_initial: float = 0.10
    margin_floor: float = 0.04
    margin_ceiling: float = 0.40
    target_miss_rate: float = 0.02
    update_base_cycles: float = 15_000.0
    update_cycles_per_feature_sq: float = 40.0
    recalibrate: bool = True
    fallback_armed: bool = True
    bound_skip: bool = False

    def __post_init__(self) -> None:
        if self.warmup_jobs < 1:
            raise ValueError("warmup_jobs must be >= 1")
        if self.cooldown_jobs < 1:
            raise ValueError("cooldown_jobs must be >= 1")
        if self.reengage_abs_residual <= 0:
            raise ValueError("reengage_abs_residual must be positive")
        if self.update_base_cycles < 0 or self.update_cycles_per_feature_sq < 0:
            raise ValueError("update cost cycles must be non-negative")


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
        fallback: Deadline-safe governor used while drift is flagged.
        monitor: Streaming residual statistics.
        detector: Under-prediction drift detector.
        mode: Current :class:`AdaptiveMode`.
    """

    def __init__(
        self,
        predictive: PredictiveGovernor,
        fallback: Governor | None = None,
        config: AdaptiveConfig | None = None,
        detector: DriftDetector | None = None,
    ):
        self.config = config if config is not None else AdaptiveConfig()
        cfg = self.config
        offline = predictive.predictor
        if isinstance(offline, OnlineTimePredictor):
            # Already online (e.g. rebuilt from persisted state).
            self.predictor = offline
        else:
            self.predictor = OnlineTimePredictor(
                offline,
                margin=AdaptiveMargin(
                    initial=cfg.margin_initial,
                    floor=cfg.margin_floor,
                    ceiling=cfg.margin_ceiling,
                    target_miss_rate=cfg.target_miss_rate,
                ),
                lam=cfg.rls_forgetting,
                p0=cfg.rls_p0,
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
        self.fallback = (
            fallback
            if fallback is not None
            else PerformanceGovernor(predictive.dvfs.opps)
        )
        self.monitor = ResidualMonitor()
        self.detector = (
            detector
            if detector is not None
            else PageHinkleyDetector(
                delta=cfg.ph_delta,
                threshold=cfg.ph_threshold,
                min_samples=cfg.warmup_jobs,
            )
        )
        self.mode = AdaptiveMode.PREDICT
        self.jobs_in_mode = 0
        self.drift_events = 0
        # Sampled governors (interactive/conservative fallbacks) need the
        # executor's utilization timer; expose the fallback's period.
        self.timer_period_s = self.fallback.timer_period_s
        self._pending: tuple[Any, Any] | None = None

    @classmethod
    def from_controller(
        cls,
        controller,
        fallback: Governor | None = None,
        config: AdaptiveConfig | None = None,
        interpreter=None,
    ) -> "AdaptiveGovernor":
        """Build from a trained offline controller (the common path)."""
        return cls(
            predictive=controller.governor(interpreter),
            fallback=fallback,
            config=config,
        )

    @property
    def name(self) -> str:
        return "adaptive"

    @property
    def predicting(self) -> bool:
        return self.mode is AdaptiveMode.PREDICT

    def residuals(self) -> ResidualSnapshot:
        """Current residual statistics (for experiments and dashboards)."""
        return self.monitor.snapshot()

    # -- decision path ---------------------------------------------------------
    def start(self, board: Board, budget_s: float) -> None:
        self.fallback.start(board, budget_s)

    def bind_telemetry(self, telemetry) -> None:
        """Forward the run's telemetry to the composed governors too."""
        super().bind_telemetry(telemetry)
        self.inner.bind_telemetry(telemetry)
        self.fallback.bind_telemetry(telemetry)

    def bind_hostprof(self, hostprof) -> None:
        """Forward the host profiler so the inner predictive governor's
        sub-phase timers (features/predict/ladder) still fire when it is
        driven through the adaptive wrapper."""
        super().bind_hostprof(hostprof)
        self.inner.bind_hostprof(hostprof)
        self.fallback.bind_hostprof(hostprof)

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

    def on_timer(self, now_s: float, utilization: float):
        """Utilization samples drive the fallback only while it is active."""
        if self.mode is AdaptiveMode.FALLBACK:
            return self.fallback.on_timer(now_s, utilization)
        return None

    # -- feedback path ---------------------------------------------------------
    def on_job_end(self, record: JobRecord, ctx: JobContext) -> Work | None:
        """Close the loop: residual -> monitor/detector/RLS -> mode machine.

        Returns the computational bill of the update, which the executor
        charges as predictor time.
        """
        if self.mode is AdaptiveMode.FALLBACK:
            self.fallback.on_job_end(record, ctx)
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

        self.monitor.update(residual, record.missed)
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
                self.jobs_in_mode >= self.config.cooldown_jobs
                and self.monitor.magnitude.get(default=1.0)
                < self.config.reengage_abs_residual
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
            self.config.update_cycles_per_feature_sq * float(n * n)
            if self.config.recalibrate
            else 0.0
        )
        return Work(cycles=self.config.update_base_cycles + rls_cycles)

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

    # -- persistence -----------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Everything the feedback loop has learned, JSON-serializable."""
        return {
            "mode": self.mode.value,
            "jobs_in_mode": self.jobs_in_mode,
            "drift_events": self.drift_events,
            "predictor": self.predictor.state_dict(),
            "monitor": self.monitor.state_dict(),
            "detector": self.detector.state_dict(),
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore the full adaptation loop from :meth:`state_dict`."""
        self.mode = AdaptiveMode(state["mode"])
        self.jobs_in_mode = int(state["jobs_in_mode"])
        self.drift_events = int(state["drift_events"])
        self.predictor.load_state_dict(state["predictor"])
        self.monitor.load_state_dict(state["monitor"])
        self.detector = detector_from_state(state["detector"])
