"""Tests for the ``repro check`` CLI subcommand and certificate reports."""

import json

from repro.cli import main
from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller
from repro.pipeline.persist import save_controller
from repro.workloads.registry import get_app


class TestCheckCommand:
    def test_check_certifies_a_workload(self, capsys):
        assert main(["check", "sha", "--profile-jobs", "40"]) == 0
        out = capsys.readouterr().out
        assert "== sha" in out
        assert "CERTIFIED" in out
        assert "1/1 workload slice(s) certified" in out

    def test_check_writes_diagnostics_json(self, tmp_path, capsys):
        report = tmp_path / "diagnostics.json"
        assert (
            main(
                [
                    "check",
                    "sha",
                    "--strict",
                    "--profile-jobs",
                    "40",
                    "--output",
                    str(report),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["sha"]["certified"] is True
        assert payload["sha"]["cost_bound_instructions"] > 0
        assert payload["sha"]["passes"]

    def test_unknown_workload_fails(self, capsys):
        assert main(["check", "no_such_app"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err

    def test_one_profile_job_exit_2_with_one_line(self, capsys):
        assert main(["check", "sha", "--profile-jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--profile-jobs" in err

    def test_check_listed_in_catalog(self, capsys):
        assert main(["list"]) == 0
        assert "check" in capsys.readouterr().out


class TestReportCertificate:
    def test_report_renders_saved_certificate(self, tmp_path, capsys):
        controller = build_controller(
            get_app("sha"),
            config=PipelineConfig(n_profile_jobs=40, switch_samples=2),
        )
        path = tmp_path / "controller.json"
        save_controller(controller, path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out
        assert "cost bound" in out
