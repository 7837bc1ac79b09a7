"""Tests for the text report and the report/diff directory tooling."""

import pytest

from repro.telemetry.audit import DecisionRecord
from repro.telemetry.events import Telemetry
from repro.telemetry.exporters import TraceSession
from repro.telemetry.report import (
    compare_directories,
    render_report,
    summarize_directory,
)


def populated(name="run", jobs=3, misses=1):
    tel = Telemetry(name=name)
    for i in range(jobs):
        tel.span("job", i * 0.05, i * 0.05 + 0.03, args={"job": i})
        tel.metrics.counter("executor.jobs").inc()
        tel.metrics.histogram("executor.slack_s").observe(0.02)
    for _ in range(misses):
        tel.metrics.counter("executor.misses").inc()
    tel.instant("drift.alarm", 0.07, track="online")
    tel.metrics.gauge("adaptive.margin").set(0.12)
    tel.record_decision(
        DecisionRecord(
            job_index=0, t_s=0.0, governor="g", opp_mhz=600.0, mode="predict"
        )
    )
    return tel


class TestRenderReport:
    def test_sections_present(self):
        text = render_report(populated())
        assert "telemetry report: run" in text
        assert "job" in text
        assert "drift.alarm" in text
        assert "executor.jobs" in text
        assert "adaptive.margin" in text
        assert "decisions: 1 audited" in text

    def test_span_stats_aggregated(self):
        text = render_report(populated(jobs=4))
        # 4 spans of 30 ms each -> total 120 ms.
        assert "120.000" in text

    def test_empty_telemetry_renders(self):
        assert "telemetry report" in render_report(Telemetry(name="empty"))


def write_session(tmp_path, sub, jobs=3, misses=1):
    directory = tmp_path / sub
    session = TraceSession(directory)
    tel = session.telemetry_for("sha.adaptive")
    donor = populated(jobs=jobs, misses=misses)
    tel.metrics = donor.metrics
    tel.sink = donor.sink
    session.flush()
    return directory


class TestDirectoryTools:
    def test_summarize_directory(self, tmp_path):
        directory = write_session(tmp_path, "a")
        text = summarize_directory(directory)
        assert "sha.adaptive" in text
        assert "jobs" in text

    def test_summarize_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="metrics.json"):
            summarize_directory(tmp_path / "nope")

    def test_diff_reports_changed_metrics(self, tmp_path):
        a = write_session(tmp_path, "a", jobs=3, misses=1)
        b = write_session(tmp_path, "b", jobs=5, misses=0)
        text = compare_directories(a, b).text
        assert "executor.jobs" in text
        assert "+2" in text

    def test_diff_identical_runs(self, tmp_path):
        a = write_session(tmp_path, "a")
        b = write_session(tmp_path, "b")
        assert "identical" in compare_directories(a, b).text

    def test_diff_disjoint_run_names(self, tmp_path):
        a = tmp_path / "a"
        sa = TraceSession(a)
        sa.telemetry_for("only-in-a")
        sa.flush()
        b = tmp_path / "b"
        sb = TraceSession(b)
        sb.telemetry_for("only-in-b")
        sb.flush()
        assert "no run names shared" in compare_directories(a, b).text


def write_two_runs(tmp_path, sub):
    """A directory holding one simulated run and one host.* run."""
    directory = tmp_path / sub
    session = TraceSession(directory)
    session.telemetry_for("sha.adaptive").metrics.counter(
        "executor.jobs"
    ).inc(3)
    session.telemetry_for("host.sha.prediction").metrics.gauge(
        "host.jobs_per_sec"
    ).set(900.0)
    session.flush()
    return directory


class TestRunsFilter:
    """The --runs prefix filter applies to summaries, diffs and gates."""

    def test_summarize_filters_by_prefix(self, tmp_path):
        directory = write_two_runs(tmp_path, "a")
        text = summarize_directory(directory, runs="host.")
        assert "host.sha.prediction" in text
        assert "sha.adaptive" not in text

    def test_no_matching_prefix_raises(self, tmp_path):
        directory = write_two_runs(tmp_path, "a")
        with pytest.raises(FileNotFoundError, match="host.sha.prediction"):
            summarize_directory(directory, runs="fleet.")

    def test_diff_filters_by_prefix(self, tmp_path):
        a = write_two_runs(tmp_path, "a")
        b = tmp_path / "b"
        session = TraceSession(b)
        session.telemetry_for("sha.adaptive").metrics.counter(
            "executor.jobs"
        ).inc(5)
        session.telemetry_for("host.sha.prediction").metrics.gauge(
            "host.jobs_per_sec"
        ).set(1800.0)
        session.flush()
        # Unfiltered diff sees both runs; host-filtered sees only one.
        assert "executor.jobs" in compare_directories(a, b).text
        filtered = compare_directories(a, b, runs="host.").text
        assert "host.jobs_per_sec" in filtered
        assert "executor.jobs" not in filtered

    def test_compare_filters_by_prefix(self, tmp_path):
        from repro.telemetry.report import compare_directories

        a = write_two_runs(tmp_path, "a")
        b = write_two_runs(tmp_path, "b")
        diff = compare_directories(a, b, runs="host.")
        assert diff.shared_runs == ("host.sha.prediction",)

    def test_host_throughput_direction(self):
        from repro.telemetry.report import metric_direction

        assert metric_direction("host.jobs_per_sec") == "higher"
        assert metric_direction("host.us_per_job.total") == "lower"
        assert metric_direction("host.wall_s") == "lower"


class TestMetricDirection:
    def test_lower_is_better(self):
        from repro.telemetry.report import metric_direction

        for name in (
            "executor.misses",
            "executor.energy_j",
            "executor.exec_time_s.p95",
            "adaptive.drift_alarms",
            "watch.anomalies[switch.latency]",
        ):
            assert metric_direction(name) == "lower"

    def test_higher_is_better(self):
        from repro.telemetry.report import metric_direction

        assert metric_direction("executor.slack_s.p50") == "higher"

    def test_neutral(self):
        from repro.telemetry.report import metric_direction

        assert metric_direction("executor.jobs") is None


class TestCompareDirectories:
    def test_identical_runs_have_no_regressions(self, tmp_path):
        from repro.telemetry.report import compare_directories

        a = write_session(tmp_path, "a")
        b = write_session(tmp_path, "b")
        diff = compare_directories(a, b)
        assert not diff.regressions
        assert diff.shared_runs == ("sha.adaptive",)

    def test_worse_direction_flags_regression(self, tmp_path):
        from repro.telemetry.report import compare_directories

        a = write_session(tmp_path, "a", jobs=5, misses=1)
        b = write_session(tmp_path, "b", jobs=5, misses=3)
        diff = compare_directories(a, b)
        regressed = {d.metric for d in diff.regressions}
        assert "executor.misses" in regressed
        assert "<< regression" in diff.text

    def test_better_direction_is_not_a_regression(self, tmp_path):
        from repro.telemetry.report import compare_directories

        a = write_session(tmp_path, "a", jobs=5, misses=3)
        b = write_session(tmp_path, "b", jobs=5, misses=0)
        diff = compare_directories(a, b)
        assert not any(
            d.metric == "executor.misses" for d in diff.regressions
        )

    def test_neutral_metric_flags_any_drift(self, tmp_path):
        from repro.telemetry.report import compare_directories

        a = write_session(tmp_path, "a", jobs=3)
        b = write_session(tmp_path, "b", jobs=5)
        diff = compare_directories(a, b)
        assert any(d.metric == "executor.jobs" for d in diff.regressions)

    def test_tolerance_absorbs_small_moves(self, tmp_path):
        from repro.telemetry.report import compare_directories

        a = write_session(tmp_path, "a", jobs=100, misses=100)
        b = write_session(tmp_path, "b", jobs=100, misses=104)
        assert not compare_directories(a, b, tolerance=0.05).regressions
        assert compare_directories(a, b, tolerance=0.01).regressions


class TestMissingRunIsARegression:
    """A truncated candidate directory must fail the diff, not pass it.

    The historical hole: a run present in the baseline but absent from
    the candidate was only mentioned in prose, so a candidate that
    crashed half-way looked *cleaner* than a complete one.
    """

    def two_run_baseline(self, tmp_path):
        a = tmp_path / "a"
        session = TraceSession(a)
        session.telemetry_for("sha.adaptive").metrics.counter(
            "executor.jobs"
        ).inc(3)
        session.telemetry_for("ldecode.adaptive").metrics.counter(
            "executor.jobs"
        ).inc(3)
        session.flush()
        return a

    def truncated_candidate(self, tmp_path):
        b = tmp_path / "b"
        session = TraceSession(b)
        session.telemetry_for("sha.adaptive").metrics.counter(
            "executor.jobs"
        ).inc(3)
        session.flush()
        return b

    def test_truncated_run_directory_regresses(self, tmp_path):
        from repro.telemetry.report import compare_directories

        a = self.two_run_baseline(tmp_path)
        b = self.truncated_candidate(tmp_path)
        diff = compare_directories(a, b)
        assert [(d.run, d.regressed) for d in diff.regressions] == [
            ("ldecode.adaptive", True)
        ]
        assert "missing from" in diff.text

    def test_truncated_run_directory_fails_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        a = self.two_run_baseline(tmp_path)
        b = self.truncated_candidate(tmp_path)
        assert main(["report", str(a), str(b)]) == 1
        capsys.readouterr()
        # The reverse direction gained a run — informational, exit 0.
        assert main(["report", str(b), str(a)]) == 0
        assert "runs only in" in capsys.readouterr().out

    def test_disjoint_directories_regress_every_baseline_run(
        self, tmp_path
    ):
        from repro.telemetry.report import compare_directories

        a = self.two_run_baseline(tmp_path)
        b = tmp_path / "c"
        session = TraceSession(b)
        session.telemetry_for("other.run").metrics.counter(
            "executor.jobs"
        ).inc(1)
        session.flush()
        diff = compare_directories(a, b)
        assert sorted(d.run for d in diff.regressions) == [
            "ldecode.adaptive", "sha.adaptive"
        ]
        assert diff.shared_runs == ()


class TestMetricsGate:
    def trace_dir(self, tmp_path, sub="run", **kwargs):
        return write_session(tmp_path, sub, **kwargs)

    def test_baseline_round_trip_passes_gate(self, tmp_path):
        from repro.telemetry.report import gate_directory, make_baseline

        directory = self.trace_dir(tmp_path)
        baseline = make_baseline(directory)
        result = gate_directory(directory, baseline)
        assert result.passed
        assert result.checked > 0
        assert "gate PASSED" in result.text

    def test_tightened_baseline_fails_with_named_metric(self, tmp_path):
        from repro.telemetry.report import gate_directory, make_baseline

        directory = self.trace_dir(tmp_path, misses=2)
        baseline = make_baseline(directory)
        baseline["runs"]["sha.adaptive"]["executor.misses"] = 0.0
        result = gate_directory(directory, baseline)
        assert not result.passed
        assert any(
            f.metric == "executor.misses" for f in result.failures
        )
        assert "executor.misses" in result.text
        assert "gate FAILED" in result.text

    def test_missing_run_fails_gate(self, tmp_path):
        from repro.telemetry.report import gate_directory, make_baseline

        directory = self.trace_dir(tmp_path)
        baseline = make_baseline(directory)
        baseline["runs"]["ghost.run"] = {"executor.jobs": 5.0}
        result = gate_directory(directory, baseline)
        assert any(
            f.reason == "baseline run missing from trace directory"
            for f in result.failures
        )

    def test_missing_metric_fails_gate(self, tmp_path):
        from repro.telemetry.report import gate_directory, make_baseline

        directory = self.trace_dir(tmp_path)
        baseline = make_baseline(directory)
        baseline["runs"]["sha.adaptive"]["executor.unicorns"] = 1.0
        result = gate_directory(directory, baseline)
        assert any(
            f.metric == "executor.unicorns"
            and f.reason == "metric missing from run"
            for f in result.failures
        )

    def test_tolerance_override_and_malformed_baseline(self, tmp_path):
        import pytest as _pytest

        from repro.telemetry.report import gate_directory, make_baseline

        directory = self.trace_dir(tmp_path, misses=2)
        baseline = make_baseline(directory)
        baseline["runs"]["sha.adaptive"]["executor.misses"] = 1.9
        # ~5% worse than pinned: passes at 10%, fails at 1%.
        assert gate_directory(directory, baseline, tolerance=0.10).passed
        assert not gate_directory(
            directory, baseline, tolerance=0.01
        ).passed
        with _pytest.raises(ValueError, match="runs"):
            gate_directory(directory, {"tolerance": 0.1})

    @pytest.mark.parametrize(
        ("tolerance", "message"),
        [
            (-0.1, "baseline: tolerance must be >= 0, got -0.1"),
            (
                float("nan"),
                "baseline: tolerance must be a finite number, got nan",
            ),
            (True, "baseline: tolerance must be a finite number, got True"),
            (None, "baseline: tolerance must be a finite number, got None"),
        ],
        ids=["negative", "nan", "bool", "null"],
    )
    def test_malformed_baseline_tolerance(self, tmp_path, tolerance, message):
        from repro.telemetry.report import gate_directory

        baseline = {"tolerance": tolerance, "runs": {}}
        with pytest.raises(ValueError) as error:
            gate_directory(self.trace_dir(tmp_path), baseline)
        assert str(error.value) == message


class TestEmptyDataRendering:
    def test_empty_histogram_renders_na(self):
        from repro.telemetry.events import Telemetry

        tel = Telemetry(name="hollow")
        tel.metrics.histogram("executor.slack_s")  # registered, no data
        text = render_report(tel)
        assert "n/a" in text

    def test_summarize_zero_job_run_shows_na(self, tmp_path):
        from repro.telemetry.exporters import TraceSession

        directory = tmp_path / "empty"
        session = TraceSession(directory)
        tel = session.telemetry_for("idle.run")
        tel.metrics.histogram("executor.slack_s")
        session.flush()
        text = summarize_directory(directory)
        assert "idle.run" in text
        assert "n/a" in text
