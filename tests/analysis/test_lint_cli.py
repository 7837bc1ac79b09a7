"""Tests for the ``repro lint`` CLI subcommand and its CI gate wiring.

Covers the subcommand itself (findings, JSON artifact, metrics export)
and the ``lint.`` metrics slice: direction classification, baseline
gating, and isolation from the ``watch.``/``fleet.``/``host.`` slices
that share the gate machinery.
"""

import json

from repro.cli import main
from repro.telemetry.report import (
    GATE_DEFAULT_METRICS,
    gate_directory,
    make_baseline,
    metric_direction,
)


class TestLintCommand:
    def test_lint_single_workload_is_clean(self, capsys):
        assert main(["lint", "sha", "--strict", "--sample-jobs", "8"]) == 0
        out = capsys.readouterr().out
        assert "== sha" in out
        assert "clean" in out
        assert "1/1 workload(s) clean" in out

    def test_unknown_workload_fails(self, capsys):
        assert main(["lint", "no_such_app"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_zero_sample_jobs_exit_2_with_one_line(self, capsys):
        assert main(["lint", "sha", "--sample-jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--sample-jobs" in err

    def test_lint_listed_in_catalog(self, capsys):
        assert main(["list"]) == 0
        assert "lint" in capsys.readouterr().out

    def test_output_json_artifact(self, tmp_path, capsys):
        report = tmp_path / "lint.json"
        assert (
            main(
                [
                    "lint",
                    "sha",
                    "rijndael",
                    "--sample-jobs",
                    "8",
                    "--output",
                    str(report),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert set(payload) == {"sha", "rijndael"}
        for entry in payload.values():
            assert entry["counts"]["error"] == 0
            assert "diagnostics" in entry

    def test_trace_metrics_and_committed_baseline_gate(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace"
        assert (
            main(
                [
                    "lint",
                    "--all-workloads",
                    "--strict",
                    "--sample-jobs",
                    "8",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        metrics = json.loads((trace / "lint.all.metrics.json").read_text())
        counters = metrics["counters"]
        assert counters["lint.workloads"] == 8.0
        assert counters["lint.diagnostics.error"] == 0.0
        # The committed CI baseline must accept a fresh lint run.
        assert (
            main(
                [
                    "report",
                    str(trace),
                    "--gate",
                    "BENCH_lint_baseline.json",
                    "--runs",
                    "lint.",
                ]
            )
            == 0
        )
        assert "gate PASSED" in capsys.readouterr().out


def _write_metrics(directory, run, counters):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{run}.metrics.json").write_text(
        json.dumps({"counters": counters, "gauges": {}, "histograms": {}})
    )


class TestLintGateWiring:
    def test_lint_metrics_directions(self):
        assert metric_direction("lint.diagnostics.error") == "lower"
        assert metric_direction("lint.diagnostics.warning") == "lower"
        # Workload count is neutral: ANY drift means the lint runs are
        # not comparable, in either direction.
        assert metric_direction("lint.workloads") is None

    def test_gate_defaults_pin_the_lint_slice(self):
        assert "lint.workloads" in GATE_DEFAULT_METRICS
        assert "lint.diagnostics.error" in GATE_DEFAULT_METRICS
        assert "lint.diagnostics.warning" in GATE_DEFAULT_METRICS

    def test_new_error_fails_the_gate(self, tmp_path):
        _write_metrics(
            tmp_path,
            "lint.all",
            {"lint.workloads": 8.0, "lint.diagnostics.error": 1.0},
        )
        baseline = {
            "tolerance": 0.0,
            "runs": {
                "lint.all": {
                    "lint.workloads": 8.0,
                    "lint.diagnostics.error": 0.0,
                }
            },
        }
        result = gate_directory(tmp_path, baseline, runs="lint.")
        assert not result.passed
        assert result.failures[0].metric == "lint.diagnostics.error"

    def test_fewer_workloads_fails_the_gate(self, tmp_path):
        # Dropping a workload from the lint run must not pass silently
        # even though every remaining count "improved".
        _write_metrics(
            tmp_path,
            "lint.all",
            {"lint.workloads": 7.0, "lint.diagnostics.error": 0.0},
        )
        baseline = {
            "tolerance": 0.0,
            "runs": {
                "lint.all": {
                    "lint.workloads": 8.0,
                    "lint.diagnostics.error": 0.0,
                }
            },
        }
        result = gate_directory(tmp_path, baseline, runs="lint.")
        assert not result.passed

    def test_runs_prefix_isolates_lint_from_other_slices(self, tmp_path):
        # One committed baseline can serve separate CI jobs: gating the
        # lint. slice must ignore a regressed watch. run entirely, and
        # vice versa.
        _write_metrics(tmp_path, "lint.all", {"lint.diagnostics.error": 0.0})
        _write_metrics(tmp_path, "watch.sha", {"executor.misses": 99.0})
        baseline = {
            "tolerance": 0.0,
            "runs": {
                "lint.all": {"lint.diagnostics.error": 0.0},
                "watch.sha": {"executor.misses": 0.0},
            },
        }
        lint_only = gate_directory(tmp_path, baseline, runs="lint.")
        assert lint_only.passed
        assert lint_only.checked == 1
        everything = gate_directory(tmp_path, baseline)
        assert not everything.passed
        watch_only = gate_directory(tmp_path, baseline, runs="watch.")
        assert not watch_only.passed

    def test_make_baseline_collects_lint_counters(self, tmp_path):
        _write_metrics(
            tmp_path,
            "lint.all",
            {
                "lint.workloads": 8.0,
                "lint.diagnostics.error": 0.0,
                "lint.diagnostics.warning": 0.0,
                "lint.diagnostics.info": 3.0,  # advisory: not pinned
            },
        )
        baseline = make_baseline(tmp_path)
        pinned = baseline["runs"]["lint.all"]
        assert pinned["lint.workloads"] == 8.0
        assert pinned["lint.diagnostics.error"] == 0.0
        assert "lint.diagnostics.info" not in pinned
