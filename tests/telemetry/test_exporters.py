"""Tests for the Chrome-trace/JSONL exporters and the trace session."""

import json

from repro.telemetry.audit import DecisionRecord
from repro.telemetry.events import Telemetry
from repro.telemetry.exporters import (
    TraceSession,
    chrome_trace,
    decisions_jsonl,
    events_jsonl,
    write_run,
)


def sample_telemetry(name="run"):
    tel = Telemetry(name=name)
    tel.span("job", 0.0, 0.05, args={"job": 0})
    tel.span("execute", 0.01, 0.04, args={"job": 0})
    tel.instant("drift.alarm", 0.03, track="online")
    tel.counter("freq_mhz", 0.02, 800.0)
    tel.record_decision(
        DecisionRecord(job_index=0, t_s=0.005, governor="g", opp_mhz=800.0)
    )
    tel.metrics.counter("executor.jobs").inc()
    tel.metrics.histogram("executor.slack_s").observe(0.01)
    return tel


class TestChromeTrace:
    def test_schema_is_valid_trace_event_json(self):
        trace = sample_telemetry().chrome_trace()
        # Round-trips through strict JSON (what Perfetto will parse).
        trace = json.loads(json.dumps(trace, allow_nan=False))
        assert isinstance(trace["traceEvents"], list)
        for event in trace["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert event["ph"] in {"X", "i", "C", "M"}
            if event["ph"] != "M":
                assert isinstance(event["ts"], (int, float))
                assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] == "i":
                assert event["s"] in {"t", "p", "g"}

    def test_timestamps_in_microseconds(self):
        trace = sample_telemetry().chrome_trace()
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        job = next(e for e in spans if e["name"] == "job")
        assert job["ts"] == 0.0
        assert job["dur"] == 0.05 * 1e6

    def test_tracks_become_named_threads(self):
        trace = sample_telemetry().chrome_trace()
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert "job" in names
        assert "online" in names
        # Every non-metadata event's tid has a thread_name record.
        tids_named = {e["tid"] for e in metadata if e["name"] == "thread_name"}
        for event in trace["traceEvents"]:
            if event["ph"] != "M":
                assert event["tid"] in tids_named

    def test_run_name_in_metadata(self):
        trace = chrome_trace(sample_telemetry("abc").events, name="abc")
        assert trace["otherData"]["run"] == "abc"


class TestJsonl:
    def test_one_object_per_line(self):
        tel = sample_telemetry()
        lines = events_jsonl(tel.events).strip().split("\n")
        assert len(lines) == len(tel.events)
        for line in lines:
            json.loads(line)

    def test_empty_stream_is_empty_string(self):
        assert events_jsonl([]) == ""

    def test_decisions_jsonl(self):
        tel = sample_telemetry()
        lines = decisions_jsonl(tel).strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["governor"] == "g"


class TestTraceSession:
    def test_unique_run_names(self, tmp_path):
        session = TraceSession(tmp_path)
        a = session.telemetry_for("sha.prediction")
        b = session.telemetry_for("sha.prediction")
        assert a.name == "sha.prediction"
        assert b.name == "sha.prediction-2"

    def test_flush_writes_all_artifacts(self, tmp_path):
        session = TraceSession(tmp_path)
        tel = session.telemetry_for("demo")
        tel.span("job", 0.0, 0.1)
        tel.metrics.counter("executor.jobs").inc()
        written = session.flush()
        suffixes = {p.name for p in written}
        assert suffixes == {
            "demo.trace.json",
            "demo.events.jsonl",
            "demo.decisions.jsonl",
            "demo.metrics.json",
            "demo.metrics.prom",
            "demo.report.txt",
        }
        for path in written:
            assert path.exists()
        metrics = json.loads((tmp_path / "demo.metrics.json").read_text())
        assert metrics["counters"]["executor.jobs"] == 1

    def test_write_run_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        write_run(sample_telemetry(), target)
        assert (target / "run.trace.json").exists()


class TestNullTelemetryExports:
    """Disabled pipelines still export valid, *empty* artifacts."""

    def test_write_run_on_null_telemetry(self, tmp_path):
        from repro.telemetry.events import NO_TELEMETRY

        written = write_run(NO_TELEMETRY, tmp_path)
        assert {p.name for p in written} == {
            "off.trace.json",
            "off.events.jsonl",
            "off.decisions.jsonl",
            "off.metrics.json",
            "off.metrics.prom",
            "off.report.txt",
        }
        trace = json.loads((tmp_path / "off.trace.json").read_text())
        # Valid Chrome trace schema: only process/thread metadata events.
        assert all(e["ph"] == "M" for e in trace["traceEvents"])
        assert (tmp_path / "off.events.jsonl").read_text() == ""
        assert (tmp_path / "off.decisions.jsonl").read_text() == ""
        metrics = json.loads((tmp_path / "off.metrics.json").read_text())
        assert metrics == {"counters": {}, "gauges": {}, "histograms": {}}
        assert "telemetry report" in (
            tmp_path / "off.report.txt"
        ).read_text()

    def test_null_export_shortcuts_are_empty_but_valid(self):
        from repro.telemetry.events import NO_TELEMETRY

        assert NO_TELEMETRY.events_jsonl() == ""
        assert NO_TELEMETRY.chrome_trace()["traceEvents"] is not None
        assert "telemetry report" in NO_TELEMETRY.report()
