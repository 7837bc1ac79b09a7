"""The SLO watchdog: live evaluation of a run from its telemetry stream.

This is the SRE layer on top of the telemetry plane: while a run
executes, a :class:`Watchdog` consumes the event stream the executor and
governors already emit, folds every completed job into the declared SLO
trackers (:mod:`repro.telemetry.slo`), and runs streaming anomaly
detectors next to them:

- rolling-median/MAD outlier detection on the prediction residual and
  DVFS switch-latency streams (:class:`RollingMad` — robust to the very
  outliers it is hunting);
- step-change detection on the deadline-miss indicator, reusing the
  Page–Hinkley machinery from :mod:`repro.online.drift` so the watchdog
  and the adaptive governor agree on what "a sustained shift" means.

Cost discipline mirrors :class:`~repro.telemetry.events.NullTelemetry`:
the watchdog attaches by wrapping an *enabled* telemetry's sink with a
tee (:class:`WatchSink`).  :meth:`Watchdog.attach` on a disabled
pipeline refuses (returns False) and leaves the pipeline untouched, so
a run without telemetry executes zero watchdog instructions — the
perf suite proves zero allocations from this module per job.

The watchdog observes; it never steers — with one deliberate, opt-in
exception: a governor handed to it (``repro watch --arm-fallback``) that
exposes ``arm_fallback()``, as :class:`~repro.governors.adaptive.
AdaptiveGovernor` does, is forced into its deadline-safe fallback mode
by a page-severity SLO alert, closing the loop from declared objective
to actuation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.events import TelemetrySink, TraceEvent
from repro.telemetry.slo import (
    JobObservation,
    SloAlert,
    SloSpec,
    SloStatus,
    SloTracker,
    default_slos,
)

__all__ = [
    "RollingMad",
    "Anomaly",
    "Watchdog",
    "WatchSink",
    "render_dashboard",
    "sparkline",
]

_EPS = 1e-12
_SPARK = "▁▂▃▄▅▆▇█"

#: Samples a :class:`RollingMad` window retains.
MAD_WINDOW = 48
#: Samples a :class:`RollingMad` needs before flagging starts.
MAD_MIN_SAMPLES = 12
#: Modified z-score above which a prediction residual is an outlier.
RESIDUAL_Z = 6.0
#: Modified z-score above which a DVFS switch latency is an outlier.
SWITCH_Z = 8.0
#: Page–Hinkley tolerance of the miss-rate step detector (the indicator
#: stream is 0/1, so this is in miss-probability units).
MISS_PH_DELTA = 0.02
#: Page–Hinkley alarm level of the miss-rate step detector.
MISS_PH_THRESHOLD = 2.0
#: Jobs observed before the miss-rate step detector may fire.
MISS_PH_MIN_JOBS = 20
#: Residual samples retained for the dashboard sparkline.
SPARK_SAMPLES = 32

#: Builds a JobObservation from all seven fields without the named
#: tuple's Python-level ``__new__`` (one is built per job).
_new_observation = tuple.__new__


class RollingMad:
    """Rolling-median/MAD outlier detector over a bounded window.

    The modified z-score ``0.6745 * (x - median) / MAD`` is the robust
    analogue of the usual z-score: median and MAD barely move when the
    window contains the very outliers being hunted, so one anomalous
    switch latency cannot hide the next.  Samples are admitted to the
    window whether or not they are flagged (the window is small, the
    median robust).  The window keeps the last ``MAD_WINDOW`` samples, and
    flagging starts once it holds ``MAD_MIN_SAMPLES``.

    Args:
        z_threshold: Modified z-score above which a sample is an outlier.
    """

    def __init__(self, z_threshold: float):
        if z_threshold <= 0:
            raise ValueError(
                f"z_threshold must be positive, got {z_threshold}"
            )
        self.z_threshold = z_threshold
        self._ring: deque[float] = deque(maxlen=MAD_WINDOW)
        self.last_z = 0.0

    @staticmethod
    def _median(ordered: list[float]) -> float:
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    def update(self, x: float) -> bool:
        """Fold one sample in; True when it is an outlier vs the window."""
        x = float(x)
        flagged = False
        if len(self._ring) >= MAD_MIN_SAMPLES:
            ordered = sorted(self._ring)
            median = self._median(ordered)
            mad = self._median(sorted(abs(v - median) for v in ordered))
            # A degenerate window (all-identical samples) has MAD 0; any
            # meaningful deviation from it is then infinitely surprising,
            # so floor the scale at a tiny epsilon instead of dividing
            # by zero.
            self.last_z = 0.6745 * abs(x - median) / max(mad, _EPS)
            flagged = self.last_z > self.z_threshold
        self._ring.append(x)
        return flagged


@dataclass(frozen=True)
class Anomaly:
    """One streaming-detector finding.

    Attributes:
        kind: ``residual.outlier``, ``switch.latency`` or
            ``miss_rate.step``.
        t_s: Simulated time of the triggering sample.
        job_index: Job the sample belonged to (-1 when unknown).
        value: The offending sample.
        statistic: Detector statistic at fire time (modified z-score for
            MAD detectors, the Page–Hinkley statistic for step changes).
        message: One-line human summary.
    """

    kind: str
    t_s: float
    job_index: int
    value: float
    statistic: float
    message: str = ""

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "t_s": self.t_s,
            "job_index": self.job_index,
            "value": self.value,
            "statistic": self.statistic,
            "message": self.message,
        }


@dataclass(frozen=True)
class WatchdogStatus:
    """Snapshot of the whole plane (one dashboard frame's data)."""

    jobs: int
    misses: int
    freq_mhz: float
    now_s: float
    slos: tuple[SloStatus, ...]
    anomalies: int
    alerts: int
    fallback_armed: bool
    residuals: tuple[float, ...] = field(default_factory=tuple)


class Watchdog:
    """Consumes a run's telemetry stream; raises SLO alerts and anomalies.

    Args:
        specs: SLO suite to hold the run to (default:
            :func:`~repro.telemetry.slo.default_slos` without the
            budget-dependent specs).
        governor: Optional governor whose fallback a page-severity alert
            arms, through its ``arm_fallback()`` (the adaptive governor
            has one).  The watchdog holds a governor for nothing else.
        telemetry: Optional *enabled* pipeline the watchdog mirrors its
            findings into (``slo.alert`` / ``watch.anomaly`` instants and
            ``watch.*`` metrics).  Usually the same pipeline the watchdog
            is attached to.
        on_observation: Optional callback invoked after every classified
            job — the live dashboard's repaint hook.
    """

    def __init__(
        self,
        specs: tuple[SloSpec, ...] | None = None,
        governor: Any = None,
        telemetry: Any = None,
        on_observation: Any = None,
    ):
        from repro.online.drift import PageHinkleyDetector

        self.specs = specs if specs is not None else default_slos()
        self.trackers = [SloTracker(spec) for spec in self.specs]
        self.residual_mad = RollingMad(RESIDUAL_Z)
        self.switch_mad = RollingMad(SWITCH_Z)
        self.miss_step = PageHinkleyDetector(
            delta=MISS_PH_DELTA,
            threshold=MISS_PH_THRESHOLD,
            min_samples=MISS_PH_MIN_JOBS,
        )
        self._miss_step_fired = False
        self.governor = governor
        self.telemetry = telemetry
        self.on_observation = on_observation
        self.alerts: list[SloAlert] = []
        self.anomalies: list[Anomaly] = []
        self.fallback_armed = False
        self.jobs = 0
        self.misses = 0
        self.freq_mhz = float("nan")
        self.now_s = 0.0
        self._recent_residuals: deque[float] = deque(maxlen=SPARK_SAMPLES)
        # Per-job correlation state fed by the event stream.
        self._predicted: tuple[int, float] | None = None
        self._exec: tuple[int, float] | None = None
        self._switch_s = 0.0
        self._residual: float | None = None
        self._energy_j: float | None = None
        self._last_energy_j = 0.0

    # -- attachment ------------------------------------------------------------
    def attach(self, telemetry) -> bool:
        """Tee an enabled pipeline's sink through this watchdog.

        Returns False — and mutates nothing — when the pipeline is
        disabled, preserving the zero-cost-when-off discipline.
        """
        if not getattr(telemetry, "enabled", False):
            return False
        telemetry.sink = WatchSink(telemetry.sink, self)
        if self.telemetry is None:
            self.telemetry = telemetry
        return True

    @property
    def violated(self) -> bool:
        """Whether any page-severity SLO alert has fired."""
        return any(alert.severity == "page" for alert in self.alerts)

    # -- event-stream consumption ----------------------------------------------
    def consume_event(self, event: TraceEvent) -> None:
        """Fold one telemetry event in (called by :class:`WatchSink`)."""
        phase = event.phase
        name = event.name
        if phase == "X":
            if name == "job":
                self._complete_job(event)
            elif name == "execute":
                self._exec = (int(event.args["job"]), event.dur_s)
            elif name == "switch":
                self._switch_s += event.dur_s
                self.observe_switch(
                    event.ts_s, event.dur_s, int(event.args.get("job", -1))
                )
        elif phase == "C":
            if name == "freq_mhz":
                self.freq_mhz = float(event.args["value"])
            elif name == "residual_rel":
                self._residual = float(event.args["value"])
            elif name == "energy_j":
                self._energy_j = float(event.args["value"])
        elif phase == "i" and event.category == "decision":
            job = event.args.get("job_index")
            predicted = event.args.get("predicted_time_s")
            if job is not None and predicted is not None:
                self._predicted = (int(job), float(predicted))

    def _complete_job(self, event: TraceEvent) -> None:
        index = int(event.args["job"])
        end_s = event.ts_s + event.dur_s
        residual = math.nan
        if self._residual is not None:
            # The adaptive loop published its own residual this job.
            residual = self._residual
        elif (
            self._predicted is not None
            and self._exec is not None
            and self._predicted[0] == index
            and self._exec[0] == index
            and self._predicted[1] > _EPS
        ):
            predicted = self._predicted[1]
            residual = (self._exec[1] - predicted) / predicted
        energy = math.nan
        if self._energy_j is not None:
            energy = self._energy_j - self._last_energy_j
            self._last_energy_j = self._energy_j
        args = event.args
        self.observe_job(
            _new_observation(
                JobObservation,
                (
                    index,
                    end_s,
                    bool(args.get("missed", False)),
                    float(args.get("slack_s", math.nan)),
                    energy,
                    residual,
                    self._switch_s,
                ),
            )
        )
        self._predicted = None
        self._exec = None
        self._residual = None
        self._energy_j = None
        self._switch_s = 0.0

    # -- direct observation API ------------------------------------------------
    def observe_job(self, obs: JobObservation) -> list[SloAlert]:
        """Fold one completed job in; returns alerts fired by it."""
        self.jobs += 1
        self.misses += int(obs.missed)
        self.now_s = obs.t_s
        fired: list[SloAlert] = []
        for tracker in self.trackers:
            alert = tracker.observe(obs)
            if alert is not None:
                fired.append(alert)
                self._emit_alert(alert)
        if not math.isnan(obs.residual_rel):
            self._recent_residuals.append(obs.residual_rel)
            if self.residual_mad.update(obs.residual_rel):
                self._emit_anomaly(
                    Anomaly(
                        kind="residual.outlier",
                        t_s=obs.t_s,
                        job_index=obs.index,
                        value=obs.residual_rel,
                        statistic=self.residual_mad.last_z,
                        message=(
                            f"job {obs.index}: residual "
                            f"{obs.residual_rel:+.2f} is "
                            f"{self.residual_mad.last_z:.1f} MADs from the "
                            "rolling median"
                        ),
                    )
                )
        if self.miss_step.update(1.0 if obs.missed else 0.0):
            if not self._miss_step_fired:
                self._miss_step_fired = True
                self._emit_anomaly(
                    Anomaly(
                        kind="miss_rate.step",
                        t_s=obs.t_s,
                        job_index=obs.index,
                        value=1.0 if obs.missed else 0.0,
                        statistic=self.miss_step.statistic,
                        message=(
                            f"job {obs.index}: sustained upward shift in "
                            "the deadline-miss rate (Page–Hinkley "
                            f"statistic {self.miss_step.statistic:.2f})"
                        ),
                    )
                )
        else:
            self._miss_step_fired = False
        if self.on_observation is not None:
            self.on_observation(self, obs)
        return fired

    def observe_switch(
        self, t_s: float, latency_s: float, job_index: int = -1
    ) -> None:
        """Fold one DVFS switch latency into the outlier detector."""
        if self.switch_mad.update(latency_s):
            self._emit_anomaly(
                Anomaly(
                    kind="switch.latency",
                    t_s=t_s,
                    job_index=job_index,
                    value=latency_s,
                    statistic=self.switch_mad.last_z,
                    message=(
                        f"switch took {latency_s * 1e3:.3f} ms, "
                        f"{self.switch_mad.last_z:.1f} MADs from the "
                        "rolling median"
                    ),
                )
            )

    # -- reaction --------------------------------------------------------------
    def _emit_alert(self, alert: SloAlert) -> None:
        self.alerts.append(alert)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.instant(
                "slo.alert",
                alert.t_s,
                track="watchdog",
                category="slo",
                args=alert.as_dict(),
            )
            telemetry.metrics.counter(
                f"watch.slo_alerts[{alert.spec_name}]"
            ).inc()
        if (
            alert.severity == "page"
            and self.governor is not None
            and not self.fallback_armed
        ):
            arm = getattr(self.governor, "arm_fallback", None)
            if arm is not None and arm(
                reason=f"slo:{alert.spec_name}", t_s=alert.t_s
            ):
                self.fallback_armed = True
                if telemetry is not None and telemetry.enabled:
                    telemetry.metrics.counter("watch.fallback_arms").inc()

    def _emit_anomaly(self, anomaly: Anomaly) -> None:
        self.anomalies.append(anomaly)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.instant(
                "watch.anomaly",
                anomaly.t_s,
                track="watchdog",
                category="anomaly",
                args=anomaly.as_dict(),
            )
            telemetry.metrics.counter(
                f"watch.anomalies[{anomaly.kind}]"
            ).inc()

    def status(self) -> WatchdogStatus:
        """One dashboard frame's worth of plane state."""
        return WatchdogStatus(
            jobs=self.jobs,
            misses=self.misses,
            freq_mhz=self.freq_mhz,
            now_s=self.now_s,
            slos=tuple(t.status() for t in self.trackers),
            anomalies=len(self.anomalies),
            alerts=len(self.alerts),
            fallback_armed=self.fallback_armed,
            residuals=tuple(self._recent_residuals),
        )


class WatchSink(TelemetrySink):
    """Tees every event to the wrapped sink and the watchdog."""

    def __init__(self, inner: TelemetrySink, watchdog: Watchdog):
        self.inner = inner
        self.watchdog = watchdog
        self._inner_emit = inner.emit
        self._consume = watchdog.consume_event

    def emit(self, event: TraceEvent) -> None:
        self._inner_emit(event)
        self._consume(event)


# -- terminal dashboard --------------------------------------------------------
def sparkline(values, width: int = 32) -> str:
    """Values as a fixed-width unicode sparkline (empty input -> spaces)."""
    values = list(values)[-width:]
    if not values:
        return " " * width
    lo, hi = min(values), max(values)
    span = hi - lo
    chars = []
    for v in values:
        level = 0 if span < _EPS else int((v - lo) / span * (len(_SPARK) - 1))
        chars.append(_SPARK[level])
    return "".join(chars).rjust(width)


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = round(fraction * width)
    return "#" * filled + "." * (width - filled)


def render_dashboard(status: WatchdogStatus, title: str = "watch") -> str:
    """One frame of the live terminal dashboard."""
    miss_rate = status.misses / status.jobs if status.jobs else 0.0
    freq = (
        f"{status.freq_mhz:g} MHz"
        if not math.isnan(status.freq_mhz)
        else "?"
    )
    lines = [
        f"-- {title} " + "-" * max(4, 58 - len(title)),
        (
            f"t={status.now_s:8.2f}s  jobs={status.jobs:5d}  "
            f"freq={freq:>10s}  miss-rate={100 * miss_rate:5.1f}%"
        ),
    ]
    for slo in status.slos:
        consumed = slo.budget_consumed
        flag = " FIRING" if slo.firing else ""
        rates = " ".join(
            f"{key}={rate:4.1f}x" for key, rate in slo.burn_rates.items()
        )
        lines.append(
            f"  {slo.spec.name:<26s} [{_bar(consumed)}] "
            f"{100 * consumed:6.1f}% budget  {rates}{flag}"
        )
    lines.append(f"  residuals {sparkline(status.residuals)}")
    lines.append(
        f"  anomalies={status.anomalies}  alerts={status.alerts}"
        + ("  fallback=ARMED" if status.fallback_armed else "")
    )
    return "\n".join(lines)
