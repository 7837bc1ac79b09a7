"""Tests for the SLO layer: specs, burn-rate math, budgets, alerts."""

import dataclasses
import json
import math

import pytest

from repro.telemetry.slo import (
    SIGNALS,
    BurnWindow,
    JobObservation,
    SloSpec,
    SloTracker,
    default_slos,
    specs_from_json,
)


def obs(index=0, missed=False, slack_s=0.01, **kwargs):
    return JobObservation(
        index=index, t_s=index * 0.05, missed=missed, slack_s=slack_s,
        **kwargs,
    )


def miss_spec(objective=0.10, windows=None, **kwargs):
    return SloSpec(
        name="miss",
        signal="deadline_miss",
        objective=objective,
        windows=windows
        if windows is not None
        else (BurnWindow(jobs=10, max_burn_rate=2.0),),
        **kwargs,
    )


class TestSpecValidation:
    def test_unknown_signal_rejected(self):
        with pytest.raises(ValueError, match="unknown signal"):
            SloSpec(name="x", signal="latency", objective=0.1)

    @pytest.mark.parametrize("objective", [0.0, 1.0, -0.5, 2.0])
    def test_objective_range_enforced(self, objective):
        with pytest.raises(ValueError, match="objective"):
            SloSpec(name="x", signal="deadline_miss", objective=objective)

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError, match="burn window"):
            SloSpec(
                name="x", signal="deadline_miss", objective=0.1, windows=()
            )

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            SloSpec(
                name="x",
                signal="deadline_miss",
                objective=0.1,
                severity="warn",
            )

    def test_repeated_window_length_rejected(self):
        # Burn rates are keyed by window length: two windows of one
        # length would report one rate, and an alert would lose one.
        with pytest.raises(
            ValueError, match="SLO spec 'x': two burn windows of 10 jobs"
        ):
            SloSpec(
                name="x",
                signal="deadline_miss",
                objective=0.1,
                windows=(
                    BurnWindow(jobs=10, max_burn_rate=2.0),
                    BurnWindow(jobs=10, max_burn_rate=9.0),
                ),
            )

    def test_window_validation(self):
        with pytest.raises(ValueError, match=">= 1 job"):
            BurnWindow(jobs=0, max_burn_rate=1.0)
        with pytest.raises(ValueError, match="max_burn_rate"):
            BurnWindow(jobs=5, max_burn_rate=0.0)


class TestSignalClassification:
    def test_deadline_miss(self):
        spec = miss_spec()
        assert spec.is_bad(obs(missed=True)) is True
        assert spec.is_bad(obs(missed=False)) is False

    def test_slack_below_threshold(self):
        spec = SloSpec(
            name="s", signal="slack_below", objective=0.1, threshold=0.005
        )
        assert spec.is_bad(obs(slack_s=0.001)) is True
        assert spec.is_bad(obs(slack_s=0.02)) is False

    def test_energy_above_unobservable_when_nan(self):
        spec = SloSpec(
            name="e", signal="energy_above", objective=0.1, threshold=0.5
        )
        assert spec.is_bad(obs(energy_j=0.9)) is True
        assert spec.is_bad(obs(energy_j=0.1)) is False
        assert spec.is_bad(obs()) is None  # energy defaults to NaN

    def test_under_estimate_unobservable_when_nan(self):
        spec = SloSpec(
            name="u", signal="under_estimate", objective=0.1, threshold=0.1
        )
        assert spec.is_bad(obs(residual_rel=0.25)) is True
        assert spec.is_bad(obs(residual_rel=-0.25)) is False
        assert spec.is_bad(obs()) is None

    def test_signals_constant_covers_every_branch(self):
        for signal in SIGNALS:
            spec = SloSpec(name=signal, signal=signal, objective=0.1)
            assert spec.is_bad(
                obs(missed=True, energy_j=1.0, residual_rel=1.0)
            ) in (True, False)


class TestBurnRateMath:
    def test_burn_rate_is_bad_fraction_over_objective(self):
        tracker = SloTracker(miss_spec(objective=0.10))
        for i in range(10):
            tracker.observe(obs(index=i, missed=i < 3))
        # 3 bad / 10 jobs = 0.3 bad fraction; objective 0.1 -> burn 3x.
        assert tracker.burn_rates()["w10"] == pytest.approx(3.0)

    def test_budget_consumed_accounting(self):
        tracker = SloTracker(miss_spec(objective=0.10))
        for i in range(20):
            tracker.observe(obs(index=i, missed=i < 2))
        # Budget after 20 jobs = 0.1 * 20 = 2 bad jobs; 2 spent -> 100%.
        assert tracker.budget_consumed == pytest.approx(1.0)

    def test_window_ring_forgets_old_jobs(self):
        tracker = SloTracker(miss_spec())
        for i in range(5):
            tracker.observe(obs(index=i, missed=True))
        for i in range(5, 20):
            tracker.observe(obs(index=i, missed=False))
        # The 10-job window has slid past every miss.
        assert tracker.burn_rates()["w10"] == 0.0
        # But the whole-run budget remembers them.
        assert tracker.budget_consumed > 1.0

    def test_unobservable_jobs_do_not_count(self):
        spec = SloSpec(
            name="u", signal="under_estimate", objective=0.1, threshold=0.1
        )
        tracker = SloTracker(spec)
        for i in range(10):
            assert tracker.observe(obs(index=i)) is None  # NaN residual
        assert tracker.jobs == 0
        assert tracker.budget_consumed == 0.0


class TestMultiWindowAlerting:
    def two_window_spec(self):
        return miss_spec(
            objective=0.10,
            windows=(
                BurnWindow(jobs=20, max_burn_rate=2.0),
                BurnWindow(jobs=5, max_burn_rate=4.0),
            ),
        )

    def test_alert_requires_all_windows_over(self):
        tracker = SloTracker(self.two_window_spec())
        # Misses early, then recovery: the long window stays hot but the
        # short window clears, so no alert may fire after recovery.
        fired = []
        for i in range(10):
            fired.append(tracker.observe(obs(index=i, missed=i in (0, 1))))
        for i in range(10, 20):
            fired.append(tracker.observe(obs(index=i, missed=False)))
        assert all(alert is None for alert in fired)

    def test_sustained_violation_fires_once(self):
        tracker = SloTracker(self.two_window_spec())
        alerts = [
            tracker.observe(obs(index=i, missed=True)) for i in range(20)
        ]
        assert sum(alert is not None for alert in alerts) == 1
        assert tracker.status().firing

    def test_rearms_after_condition_clears(self):
        tracker = SloTracker(self.two_window_spec())
        for i in range(20):
            tracker.observe(obs(index=i, missed=True))
        # Clear: enough good jobs to drop both windows under trigger.
        for i in range(20, 60):
            tracker.observe(obs(index=i, missed=False))
        assert not tracker.status().firing
        second = [
            tracker.observe(obs(index=i, missed=True))
            for i in range(60, 80)
        ]
        assert sum(alert is not None for alert in second) == 1
        assert len(tracker.alerts) == 2

    def test_min_jobs_suppresses_cold_start(self):
        tracker = SloTracker(self.two_window_spec())
        # min_jobs is the smallest window: 5.
        assert tracker.min_jobs == 5
        early = [
            tracker.observe(obs(index=i, missed=True)) for i in range(4)
        ]
        assert all(alert is None for alert in early)
        assert tracker.observe(obs(index=4, missed=True)) is not None

    def test_alert_payload(self):
        tracker = SloTracker(self.two_window_spec())
        alert = None
        for i in range(20):
            alert = alert or tracker.observe(obs(index=i, missed=True))
        assert alert is not None
        assert alert.spec_name == "miss"
        assert alert.severity == "page"
        assert set(alert.burn_rates) == {"w20", "w5"}
        assert alert.burn_rates["w5"] == pytest.approx(10.0)
        assert "budget" in alert.message


class TestJsonRoundTrips:
    def test_spec_suite_round_trips(self):
        specs = default_slos(budget_s=0.05, max_energy_per_job_j=1.5)
        text = json.dumps([dataclasses.asdict(spec) for spec in specs])
        restored = specs_from_json(text)
        assert restored == specs

    def test_specs_from_json_rejects_non_array(self):
        with pytest.raises(ValueError, match="JSON array"):
            specs_from_json("{}")

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"signal": None}, "SLO spec 'x': no 'signal' field"),
            ({"windows": None}, "SLO spec 'x': no 'windows' field"),
            ({"treshold": 0.1}, r"SLO spec 'x': unknown field\(s\) \['treshold'\]"),
            ({"threshold": math.nan}, "SLO spec 'x': threshold must be a finite"),
            ({"objective": math.inf}, "SLO spec 'x': objective must be a finite"),
            ({"objective": True}, "SLO spec 'x': objective must be a finite"),
            ({"objective": "0.1"}, "SLO spec 'x': objective must be a finite"),
            ({"windows": {"jobs": 5}}, "SLO spec 'x': windows must be a list"),
            ({"windows": [[5, 2.0]]}, "SLO spec 'x': a burn window must be"),
            ({"windows": [{"jobs": 5}]}, "SLO spec 'x': a burn window must be"),
            (
                {"windows": [{"jobs": 5, "max_burn_rate": math.nan}]},
                "SLO spec 'x': burn window: max_burn_rate must be a finite",
            ),
            (
                {"windows": [{"jobs": 1.5, "max_burn_rate": 2.0}]},
                "SLO spec 'x': burn window: jobs must be an int, got 1.5",
            ),
            (
                {"windows": [{"jobs": True, "max_burn_rate": 2.0}]},
                "SLO spec 'x': burn window: jobs must be an int, got True",
            ),
            (
                {
                    "windows": [
                        {"jobs": 10, "max_burn_rate": 2.0},
                        {"jobs": 10, "max_burn_rate": 9.0},
                    ]
                },
                "SLO spec 'x': two burn windows of 10 jobs",
            ),
        ],
        ids=repr,
    )
    def test_specs_from_json_names_the_spec_and_field(self, change, match):
        spec = dataclasses.asdict(miss_spec()) | {"name": "x"}
        spec.update(change)
        spec = {key: value for key, value in spec.items() if value is not None}
        with pytest.raises(ValueError, match=match):
            specs_from_json(json.dumps([spec]))

    @pytest.mark.parametrize(
        "text", ["[{", "[1]", '[{"signal": "deadline_miss"}]'], ids=repr
    )
    def test_specs_from_json_rejects_malformed_text(self, text):
        with pytest.raises(ValueError):
            specs_from_json(text)


class TestDefaultSuite:
    def test_core_specs_always_present(self):
        names = [spec.name for spec in default_slos()]
        assert names == ["deadline-miss-rate", "prediction-under-estimate"]

    def test_budget_enables_slack_spec(self):
        specs = default_slos(budget_s=0.1)
        slack = next(s for s in specs if s.name == "p95-slack")
        assert slack.threshold == pytest.approx(0.005)

    def test_energy_cap_enables_energy_spec(self):
        specs = default_slos(max_energy_per_job_j=2.0)
        energy = next(s for s in specs if s.name == "energy-per-job")
        assert energy.threshold == 2.0
        assert energy.signal == "energy_above"

    def test_miss_spec_is_page_severity(self):
        miss = default_slos()[0]
        assert miss.severity == "page"
        assert math.isclose(miss.objective, 0.02)
