"""Acceptance tests: tracing a real drifted run end to end.

The PR's acceptance criteria: a drift-experiment run with tracing
produces Chrome trace-event JSON that Perfetto accepts (valid
``traceEvents`` schema), containing per-job spans, a drift-alarm
instant event, and governor decision records — and with telemetry
disabled the simulation's ``RunResult`` is byte-identical.
"""

import json

import pytest

from repro.analysis.experiments import drift_adaptation
from repro.analysis.harness import Lab
from repro.governors.interactive import InteractiveGovernor
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.programs.ir import Block, Program
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.task import Task
from repro.telemetry.events import Telemetry
from repro.telemetry.exporters import TraceSession

OPPS = default_xu3_a7_table()


@pytest.fixture(scope="module")
def traced_drift(tmp_path_factory):
    """One traced drift study (sha, strong shift so the alarm fires)."""
    directory = tmp_path_factory.mktemp("trace")
    lab = Lab(switch_samples=30, trace_session=TraceSession(directory))
    result = drift_adaptation.run(
        lab, app_name="sha", n_jobs=60, window=10, slowdown=1.5
    )
    paths = lab.trace_session.flush()
    return directory, lab, result, paths


def load_trace(directory, run_name):
    return json.loads((directory / f"{run_name}.trace.json").read_text())


class TestTracedDriftRun:
    def test_all_governors_traced(self, traced_drift):
        directory, _, result, paths = traced_drift
        for governor in drift_adaptation.DRIFT_GOVERNORS:
            assert (directory / f"drift.sha.{governor}.trace.json").exists()

    def test_chrome_trace_schema_valid(self, traced_drift):
        directory, _, _, _ = traced_drift
        trace = load_trace(directory, "drift.sha.adaptive")
        # Strict JSON (no NaN/Infinity tokens) — Perfetto's parser is
        # spec-conformant and rejects them.
        json.dumps(trace, allow_nan=False)
        events = trace["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert event["ph"] in {"X", "i", "C", "M"}
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
            if event["ph"] == "i":
                assert event["s"] in {"t", "p", "g"}

    def test_per_job_spans_present(self, traced_drift):
        directory, _, result, _ = traced_drift
        events = load_trace(directory, "drift.sha.adaptive")["traceEvents"]
        job_spans = [
            e for e in events if e["ph"] == "X" and e["name"] == "job"
        ]
        assert len(job_spans) == result.n_jobs
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"predict", "execute"} <= names
        # Sub-spans nest inside their job span on the simulated clock.
        first = job_spans[0]
        execs = [
            e for e in events if e["ph"] == "X" and e["name"] == "execute"
        ]
        assert any(
            first["ts"] <= e["ts"]
            and e["ts"] + e["dur"] <= first["ts"] + first["dur"] + 1e-6
            for e in execs
        )

    def test_drift_alarm_instant_present(self, traced_drift):
        directory, _, result, _ = traced_drift
        events = load_trace(directory, "drift.sha.adaptive")["traceEvents"]
        alarms = [e for e in events if e["name"] == "drift.alarm"]
        assert len(alarms) == result.row("adaptive").drift_events >= 1
        (alarm,) = alarms[:1]
        assert alarm["ph"] == "i"
        assert alarm["ts"] > 0

    def test_decision_records_cover_every_job(self, traced_drift):
        directory, _, result, _ = traced_drift
        lines = (
            (directory / "drift.sha.adaptive.decisions.jsonl")
            .read_text()
            .strip()
            .split("\n")
        )
        assert len(lines) == result.n_jobs
        records = [json.loads(line) for line in lines]
        predictive = [r for r in records if r["mode"] == "predict"]
        assert predictive, "expected audited predictive decisions"
        sample = predictive[0]
        assert sample["features"], "audit must capture slice features"
        assert sample["effective_budget_s"] is not None
        assert sample["margin"] is not None
        assert sample["opp_mhz"] is not None
        # The fallback episode is visible in the log too.
        assert any(r["mode"] == "fallback" for r in records)

    def test_report_and_metrics_written(self, traced_drift):
        directory, _, _, _ = traced_drift
        report = (directory / "drift.sha.adaptive.report.txt").read_text()
        assert "drift.alarm" in report
        metrics = json.loads(
            (directory / "drift.sha.adaptive.metrics.json").read_text()
        )
        assert metrics["counters"]["adaptive.drift_alarms"] >= 1
        assert metrics["counters"]["executor.jobs"] == 60


class TestTelemetryIsPassive:
    """Recording a run must not change it; disabling must cost nothing."""

    def run_once(self, telemetry):
        program = Program("fixed", Block(14e6))
        board = Board(
            opps=OPPS, jitter=LogNormalJitter(sigma=0.05, seed=123)
        )
        runner = TaskLoopRunner(
            board,
            Task("fixed", program, 0.02),
            InteractiveGovernor(OPPS),
            [{}] * 40,
            telemetry=telemetry,
        )
        return runner.run()

    def test_run_result_byte_identical_with_and_without_telemetry(self):
        baseline = self.run_once(telemetry=None)
        traced = self.run_once(telemetry=Telemetry())
        # repr spells every float exactly (NaN as nan), so equal reprs
        # are equal records, energies and switch counts.
        assert repr(traced) == repr(baseline)

    def test_enabled_run_actually_recorded(self):
        tel = Telemetry()
        result = self.run_once(telemetry=tel)
        assert tel.metrics.counter("executor.jobs").value == result.n_jobs
        assert len(tel.decisions) == result.n_jobs
        assert any(e.name == "job" for e in tel.events)

    def test_lab_run_bypasses_cache_when_tracing(self, tmp_path):
        lab = Lab(switch_samples=20, trace_session=TraceSession(tmp_path))
        lab.run("sha", "performance", n_jobs=5)
        lab.run("sha", "performance", n_jobs=5)
        # Two traces recorded (no silent cache hit), uniquified names.
        names = [t.name for t in lab.trace_session.runs]
        assert names == ["sha.performance", "sha.performance-2"]
        for telemetry in lab.trace_session.runs:
            assert telemetry.metrics.counter("executor.jobs").value == 5
