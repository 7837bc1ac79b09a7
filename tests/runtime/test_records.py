"""Tests for job records and run results."""

import math

import pytest

from repro.runtime.records import JobRecord, RunResult


def record(end_s=0.03, deadline_s=0.05, **overrides):
    fields = dict(
        index=0,
        arrival_s=0.0,
        start_s=0.0,
        end_s=end_s,
        deadline_s=deadline_s,
        opp_mhz=1400.0,
        exec_time_s=end_s,
    )
    fields.update(overrides)
    return JobRecord(**fields)


class TestJobRecord:
    def test_missed_when_past_deadline(self):
        assert record(end_s=0.06).missed
        assert not record(end_s=0.05).missed  # exactly on time is a make

    def test_slack(self):
        assert record(end_s=0.03).slack_s == pytest.approx(0.02)
        assert record(end_s=0.07).slack_s == pytest.approx(-0.02)

    def test_default_predicted_time_is_nan(self):
        assert math.isnan(record().predicted_time_s)


class TestRunResult:
    def make(self, ends, energy=10.0):
        jobs = [
            record(index=i, end_s=e, arrival_s=0.0) for i, e in enumerate(ends)
        ]
        return RunResult(
            governor="g", app="a", budget_s=0.05, jobs=jobs, energy_j=energy
        )

    def test_miss_rate(self):
        result = self.make([0.03, 0.06, 0.04, 0.09])
        assert result.n_jobs == 4
        assert result.n_missed == 2
        assert result.miss_rate == pytest.approx(0.5)

    def test_empty_run_miss_rate_zero(self):
        result = RunResult(governor="g", app="a", budget_s=0.05)
        assert result.miss_rate == 0.0
        assert result.mean_predictor_time_s == 0.0
        assert result.mean_switch_time_s == 0.0

    def test_empty_run_percentiles_are_nan_not_error(self):
        import math

        result = RunResult(governor="g", app="a", budget_s=0.05)
        assert math.isnan(result.exec_time_percentile(95))
        assert math.isnan(result.slack_percentile(5))

    def test_exec_times(self):
        result = self.make([0.03, 0.04])
        assert result.exec_times_s == [0.03, 0.04]

    def test_mean_overheads(self):
        jobs = [
            record(index=0, predictor_time_s=0.002, switch_time_s=0.001),
            record(index=1, predictor_time_s=0.004, switch_time_s=0.003),
        ]
        result = RunResult(
            governor="g", app="a", budget_s=0.05, jobs=jobs, energy_j=1.0
        )
        assert result.mean_predictor_time_s == pytest.approx(0.003)
        assert result.mean_switch_time_s == pytest.approx(0.002)

    def test_energy_relative_to(self):
        result = self.make([0.03], energy=44.0)
        reference = self.make([0.03], energy=100.0)
        assert result.energy_relative_to(reference) == pytest.approx(0.44)

    def test_energy_relative_to_zero_reference_rejected(self):
        result = self.make([0.03])
        reference = self.make([0.03], energy=0.0)
        with pytest.raises(ValueError):
            result.energy_relative_to(reference)
