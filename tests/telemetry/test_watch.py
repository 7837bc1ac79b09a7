"""Tests for the watchdog: detectors, event correlation, reactions."""

import math

import pytest

from tests.online.conftest import make_predictive, toy_stack

from repro.telemetry.audit import DecisionRecord
from repro.telemetry.events import NO_TELEMETRY, ListSink, Telemetry
from repro.telemetry.slo import BurnWindow, SloSpec
from repro.telemetry.watch import (
    MAD_MIN_SAMPLES,
    MISS_PH_MIN_JOBS,
    Anomaly,
    RollingMad,
    Watchdog,
    WatchSink,
    render_dashboard,
    sparkline,
)

# Re-export so pytest resolves the toy fixture in this directory too.
__all__ = ["toy_stack"]


def miss_specs(window=5, objective=0.10):
    return (
        SloSpec(
            name="miss",
            signal="deadline_miss",
            objective=objective,
            windows=(BurnWindow(jobs=window, max_burn_rate=2.0),),
        ),
    )


def stable(detector, n=MAD_MIN_SAMPLES):
    """Feed ``n`` samples that vary by at most 2%."""
    for i in range(n):
        assert not detector.update(1.0 + 0.01 * (i % 3))


class TestRollingMad:
    def test_quiet_until_min_samples(self):
        # The 12th sample is judged against 11 and never flags.
        detector = RollingMad(z_threshold=3.0)
        stable(detector, MAD_MIN_SAMPLES - 1)
        assert not detector.update(1e9)
        # The 13th is judged against 12.
        detector = RollingMad(z_threshold=3.0)
        stable(detector)
        assert detector.update(1e9)

    def test_flags_outlier_against_stable_window(self):
        detector = RollingMad(z_threshold=6.0)
        stable(detector)
        assert detector.update(5.0)
        assert detector.last_z > 6.0

    def test_robust_to_prior_outliers(self):
        # A median-based window barely moves after one outlier, so the
        # next outlier is still flagged (a mean-based z would be masked).
        detector = RollingMad(z_threshold=6.0)
        stable(detector)
        assert detector.update(5.0)
        assert detector.update(5.1)

    def test_degenerate_window_does_not_divide_by_zero(self):
        detector = RollingMad(z_threshold=3.0)
        for _ in range(MAD_MIN_SAMPLES):
            detector.update(2.0)
        assert detector.update(2.5)  # any deviation is huge vs MAD~0
        assert math.isfinite(detector.last_z)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RollingMad(z_threshold=0.0)


class TestAttachDiscipline:
    def test_refuses_disabled_pipeline(self):
        watchdog = Watchdog()
        assert watchdog.attach(NO_TELEMETRY) is False
        assert not hasattr(NO_TELEMETRY, "sink")

    def test_wraps_enabled_sink_with_tee(self):
        telemetry = Telemetry()
        watchdog = Watchdog()
        assert watchdog.attach(telemetry) is True
        assert isinstance(telemetry.sink, WatchSink)
        assert isinstance(telemetry.sink.inner, ListSink)

    def test_events_property_sees_through_the_tee(self):
        telemetry = Telemetry()
        Watchdog().attach(telemetry)
        telemetry.instant("ping", 0.0)
        assert [e.name for e in telemetry.events] == ["ping"]


def emit_job(
    telemetry,
    index,
    missed=False,
    slack_s=0.01,
    predicted_s=None,
    exec_s=0.02,
    residual_rel=None,
    energy_j=None,
    switch_s=None,
):
    """Replay the executor's per-job event choreography."""
    start = index * 0.05
    if predicted_s is not None:
        telemetry.record_decision(
            DecisionRecord(
                job_index=index,
                t_s=start,
                governor="g",
                opp_mhz=600.0,
                predicted_time_s=predicted_s,
            )
        )
    if switch_s is not None:
        telemetry.span(
            "switch", start, start + switch_s, args={"job": index}
        )
    telemetry.span("execute", start, start + exec_s, args={"job": index})
    if residual_rel is not None:
        telemetry.counter("residual_rel", start + exec_s, residual_rel)
    if energy_j is not None:
        telemetry.counter("energy_j", start + exec_s, energy_j)
    telemetry.span(
        "job",
        start,
        start + exec_s,
        args={"job": index, "missed": missed, "slack_s": slack_s},
    )


class TestEventStreamCorrelation:
    def watched(self, **kwargs):
        telemetry = Telemetry()
        watchdog = Watchdog(telemetry=telemetry, **kwargs)
        watchdog.attach(telemetry)
        return telemetry, watchdog

    def test_job_span_drives_observation(self):
        telemetry, watchdog = self.watched()
        emit_job(telemetry, 0, missed=True, slack_s=-0.002)
        emit_job(telemetry, 1, missed=False, slack_s=0.008)
        assert watchdog.jobs == 2
        assert watchdog.misses == 1
        assert watchdog.now_s == pytest.approx(0.05 + 0.02)

    def test_residual_from_decision_and_execute_span(self):
        telemetry, watchdog = self.watched()
        seen = []
        watchdog.on_observation = lambda wd, obs: seen.append(obs)
        emit_job(telemetry, 0, predicted_s=0.01, exec_s=0.02)
        # (observed - predicted) / predicted = (0.02 - 0.01) / 0.01.
        assert seen[0].residual_rel == pytest.approx(1.0)

    def test_published_residual_counter_wins(self):
        telemetry, watchdog = self.watched()
        seen = []
        watchdog.on_observation = lambda wd, obs: seen.append(obs)
        emit_job(
            telemetry, 0, predicted_s=0.01, exec_s=0.02, residual_rel=0.3
        )
        assert seen[0].residual_rel == pytest.approx(0.3)

    def test_residual_nan_without_prediction(self):
        telemetry, watchdog = self.watched()
        seen = []
        watchdog.on_observation = lambda wd, obs: seen.append(obs)
        emit_job(telemetry, 0)
        assert math.isnan(seen[0].residual_rel)

    def test_energy_is_per_job_delta_of_cumulative_counter(self):
        telemetry, watchdog = self.watched()
        seen = []
        watchdog.on_observation = lambda wd, obs: seen.append(obs)
        emit_job(telemetry, 0, energy_j=0.5)
        emit_job(telemetry, 1, energy_j=0.8)
        assert seen[0].energy_j == pytest.approx(0.5)
        assert seen[1].energy_j == pytest.approx(0.3)

    def test_switch_time_accumulates_into_job(self):
        telemetry, watchdog = self.watched()
        seen = []
        watchdog.on_observation = lambda wd, obs: seen.append(obs)
        emit_job(telemetry, 0, switch_s=0.003)
        emit_job(telemetry, 1)
        assert seen[0].switch_time_s == pytest.approx(0.003)
        assert seen[1].switch_time_s == 0.0

    def test_freq_counter_tracked_for_dashboard(self):
        telemetry, watchdog = self.watched()
        telemetry.counter("freq_mhz", 0.0, 800.0)
        assert watchdog.freq_mhz == 800.0


class TestAlertsAndReactions:
    def test_miss_storm_raises_page_alert_and_mirrors_telemetry(self):
        telemetry = Telemetry()
        watchdog = Watchdog(specs=miss_specs(), telemetry=telemetry)
        watchdog.attach(telemetry)
        for i in range(8):
            emit_job(telemetry, i, missed=True, slack_s=-0.01)
        assert watchdog.violated
        assert len(watchdog.alerts) == 1
        mirrored = [e for e in telemetry.events if e.name == "slo.alert"]
        assert len(mirrored) == 1
        assert mirrored[0].args["spec_name"] == "miss"
        assert (
            telemetry.metrics.counter("watch.slo_alerts[miss]").value == 1
        )

    def test_page_alert_arms_governor_fallback_once(self):
        class StubGovernor:
            def __init__(self):
                self.arms = []

            def arm_fallback(self, reason="", t_s=0.0):
                self.arms.append((reason, t_s))
                return True

        telemetry = Telemetry()
        governor = StubGovernor()
        watchdog = Watchdog(
            specs=miss_specs(), governor=governor, telemetry=telemetry
        )
        watchdog.attach(telemetry)
        for i in range(30):
            emit_job(telemetry, i, missed=True, slack_s=-0.01)
        assert watchdog.fallback_armed
        assert len(governor.arms) == 1
        assert governor.arms[0][0] == "slo:miss"
        assert telemetry.metrics.counter("watch.fallback_arms").value == 1

    def test_fallback_not_armed_without_a_governor(self):
        telemetry = Telemetry()
        watchdog = Watchdog(specs=miss_specs(), telemetry=telemetry)
        watchdog.attach(telemetry)
        for i in range(8):
            emit_job(telemetry, i, missed=True, slack_s=-0.01)
        assert watchdog.violated
        assert not watchdog.fallback_armed

    def test_ticket_alert_does_not_violate(self):
        telemetry = Telemetry()
        specs = (
            SloSpec(
                name="tail",
                signal="slack_below",
                objective=0.10,
                threshold=0.005,
                severity="ticket",
                windows=(BurnWindow(jobs=5, max_burn_rate=2.0),),
            ),
        )
        watchdog = Watchdog(specs=specs, telemetry=telemetry)
        watchdog.attach(telemetry)
        for i in range(8):
            emit_job(telemetry, i, slack_s=0.001)
        assert watchdog.alerts
        assert not watchdog.violated

    def test_adaptive_governor_arm_fallback_contract(self, toy_stack):
        """The real governor honors the watchdog's arming protocol."""
        from repro.governors.adaptive import AdaptiveGovernor, AdaptiveMode

        telemetry = Telemetry()
        governor = AdaptiveGovernor(make_predictive(toy_stack))
        governor.bind_telemetry(telemetry)
        assert governor.arm_fallback(reason="slo:miss", t_s=1.0) is True
        assert governor.mode is AdaptiveMode.FALLBACK
        assert any(
            e.name == "fallback.armed" and e.args["reason"] == "slo:miss"
            for e in telemetry.events
        )
        # Already in fallback: a second arm is a no-op.
        assert governor.arm_fallback(reason="slo:miss") is False


class TestStreamingAnomalies:
    def test_residual_outlier_flagged(self):
        telemetry = Telemetry()
        watchdog = Watchdog(telemetry=telemetry)
        watchdog.attach(telemetry)
        for i in range(20):
            emit_job(telemetry, i, residual_rel=0.01 * (i % 3))
        emit_job(telemetry, 20, residual_rel=2.0)
        kinds = [a.kind for a in watchdog.anomalies]
        assert "residual.outlier" in kinds
        assert any(
            e.name == "watch.anomaly" for e in telemetry.events
        )

    def test_switch_latency_outlier_flagged(self):
        watchdog = Watchdog()
        for i in range(20):
            watchdog.observe_switch(i * 0.05, 0.001 + 1e-5 * (i % 4), i)
        watchdog.observe_switch(1.05, 0.5, 21)
        assert [a.kind for a in watchdog.anomalies] == ["switch.latency"]

    def test_miss_rate_step_detected_once(self):
        """A stream that starts missing every job at job 20 fires one
        miss-rate step, at the first job the Page–Hinkley statistic
        (delta 0.02) exceeds 2.0."""
        from repro.telemetry.slo import JobObservation

        watchdog = Watchdog(specs=())
        for i in range(60):
            watchdog.observe_job(
                JobObservation(
                    index=i, t_s=i * 0.05, missed=i >= 20, slack_s=0.01
                )
            )
        steps = [
            a for a in watchdog.anomalies if a.kind == "miss_rate.step"
        ]
        assert len(steps) == 1
        assert steps[0].job_index == 22
        assert steps[0].statistic > 2.0

    def test_miss_rate_step_waits_for_min_jobs(self):
        """Misses from the first job on cannot fire before job 20."""
        from repro.telemetry.slo import JobObservation

        watchdog = Watchdog(specs=())
        fired = []
        for i in range(40):
            watchdog.observe_job(
                JobObservation(
                    index=i, t_s=i * 0.05, missed=i % 2 == 0 or i >= 10,
                    slack_s=0.01,
                )
            )
            if watchdog.anomalies:
                fired.append(i)
        assert fired
        assert fired[0] == MISS_PH_MIN_JOBS - 1

    def test_anomaly_round_trips_as_dict(self):
        anomaly = Anomaly(
            kind="switch.latency",
            t_s=0.5,
            job_index=3,
            value=0.01,
            statistic=9.0,
            message="m",
        )
        assert anomaly.as_dict()["kind"] == "switch.latency"


class TestDashboard:
    def test_sparkline_fixed_width(self):
        assert len(sparkline([], width=16)) == 16
        assert len(sparkline([1.0, 2.0, 3.0], width=16)) == 16
        line = sparkline([0.0, 1.0], width=2)
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat_series(self):
        assert set(sparkline([2.0, 2.0, 2.0], width=3)) == {"▁"}

    def test_render_dashboard_contains_slo_rows(self):
        telemetry = Telemetry()
        watchdog = Watchdog(specs=miss_specs(), telemetry=telemetry)
        watchdog.attach(telemetry)
        for i in range(8):
            emit_job(telemetry, i, missed=True, slack_s=-0.01)
        text = render_dashboard(watchdog.status(), title="demo")
        assert "demo" in text
        assert "miss" in text
        assert "budget" in text
        assert "FIRING" in text
        assert "alerts=1" in text

    def test_render_dashboard_empty_plane(self):
        text = render_dashboard(Watchdog(specs=()).status())
        assert "jobs=    0" in text
        assert "freq=         ?" in text
