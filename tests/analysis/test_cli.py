"""Tests for the ``python -m repro`` command-line interface."""

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from tests.pipeline.test_persist_errors import MODEL_EDITS, edit_model


class TestCliBasics:
    def test_list_prints_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table2", "fig15", "fig21"):
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_alias_fig02_resolves(self, capsys):
        assert main(["fig02", "--jobs", "20"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out


class TestCliRuns:
    def test_fig9_runs_fast_and_prints(self, capsys):
        assert main(["fig9", "--jobs", "20"]) == 0
        out = capsys.readouterr().out
        assert "linear fit" in out
        assert "took" in out

    def test_app_option_forwarded(self, capsys):
        assert main(["fig2", "--app", "sha", "--jobs", "15"]) == 0
        out = capsys.readouterr().out
        assert "sha" in out

    def test_seed_option_changes_nothing_structural(self, capsys):
        assert main(["fig11", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "switch times" in out

    def test_jobs_option_skips_experiments_without_a_job_count(self, capsys):
        # fig11 reports the switch-time table and takes no job count.
        assert main(["fig11", "--jobs", "5"]) == 0
        out = capsys.readouterr().out
        assert "switch times" in out

    def test_jobs_option_reaches_experiments_that_take_a_job_count(
        self, monkeypatch, capsys
    ):
        from repro import cli

        calls = {}

        def counted(lab, n_jobs=100):
            calls["fig9"] = n_jobs
            return n_jobs

        def uncounted(lab):
            calls["fig11"] = None
            return None

        for name, run in (("fig9", counted), ("fig11", uncounted)):
            module = SimpleNamespace(run=run, render=repr)
            monkeypatch.setitem(cli._EXPERIMENTS, name, ("", module))
        assert main(["fig9", "fig11", "--jobs", "7"]) == 0
        assert calls == {"fig9": 7, "fig11": None}
        assert "[fig11 took" in capsys.readouterr().out


class TestCliOutputDir:
    def test_output_writes_txt_and_json(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(
            ["fig9", "--jobs", "15", "--output", str(out_dir)]
        ) == 0
        capsys.readouterr()
        text = (out_dir / "fig9.txt").read_text()
        assert "linear fit" in text
        payload = json.loads((out_dir / "fig9.json").read_text())
        assert payload["app"] == "ldecode"
        assert payload["r_squared"] > 0.99

    def test_output_dir_created(self, tmp_path, capsys):
        nested = tmp_path / "a" / "b"
        assert main(
            ["fig11", "--output", str(nested)]
        ) == 0
        capsys.readouterr()
        assert (nested / "fig11.json").exists()


class TestRunResultExport:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.analysis.harness import Lab

        return Lab(switch_samples=20).run("xpilot", "performance", n_jobs=10)

    def test_to_json_roundtrips(self, result):
        payload = json.loads(result.to_json())
        assert payload["app"] == "xpilot"
        assert payload["governor"] == "performance"
        assert len(payload["jobs"]) == 10
        assert payload["jobs"][0]["predicted_time_s"] is None  # NaN -> null

    def test_csv_has_header_and_rows(self, result):
        text = result.jobs_as_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("index,arrival_s")
        assert len(lines) == 11

    def test_jobs_as_dicts_flags_misses(self, result):
        rows = result.jobs_as_dicts()
        assert all(row["missed"] is False for row in rows)


class TestResultJsonHardening:
    """_result_json must survive nested dataclasses and numpy leakage."""

    def test_nested_dataclasses(self):
        import dataclasses

        from repro.cli import _result_json

        @dataclasses.dataclass
        class Inner:
            x: float
            tags: tuple

        @dataclasses.dataclass
        class Outer:
            name: str
            rows: tuple

        data = json.loads(
            _result_json(Outer("demo", (Inner(1.5, ("a", "b")),)))
        )
        assert data == {"name": "demo", "rows": [{"x": 1.5, "tags": ["a", "b"]}]}

    def test_numpy_scalars_and_arrays(self):
        import dataclasses

        import numpy as np

        from repro.cli import _result_json

        @dataclasses.dataclass
        class Row:
            count: object
            mean: object
            series: object

        data = json.loads(
            _result_json(
                Row(np.int64(7), np.float64(0.25), np.array([1.0, 2.0]))
            )
        )
        assert data == {"count": 7, "mean": 0.25, "series": [1.0, 2.0]}

    def test_non_finite_floats_become_null(self):
        from repro.cli import _result_json

        text = _result_json(
            {"nan": float("nan"), "inf": float("inf"), "ok": 1.0}
        )
        assert json.loads(text) == {"nan": None, "inf": None, "ok": 1.0}
        assert "NaN" not in text and "Infinity" not in text

    def test_enum_and_set_and_fallback(self):
        import enum

        from repro.cli import _result_json

        class Mode(enum.Enum):
            FALLBACK = "fallback"

        data = json.loads(
            _result_json(
                {"mode": Mode.FALLBACK, "seen": {2, 1}, "path": object()}
            )
        )
        assert data["mode"] == "fallback"
        assert data["seen"] == [1, 2]
        assert isinstance(data["path"], str)


class TestCliTrace:
    def test_trace_writes_run_artifacts(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        code = main(
            [
                "drift", "--app", "sha", "--jobs", "40",
                "--trace", str(trace_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[trace: 3 run(s)" in out
        traces = sorted(p.name for p in trace_dir.glob("*.trace.json"))
        assert traces == [
            "drift.sha.adaptive.trace.json",
            "drift.sha.performance.trace.json",
            "drift.sha.prediction.trace.json",
        ]
        payload = json.loads(
            (trace_dir / "drift.sha.prediction.trace.json").read_text()
        )
        assert payload["traceEvents"]

    def test_report_summarizes_directory(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        main(
            [
                "drift", "--app", "sha", "--jobs", "40",
                "--trace", str(trace_dir),
            ]
        )
        capsys.readouterr()
        assert main(["report", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "drift.sha.adaptive" in out

    def test_report_diffs_two_directories(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for directory in (a, b):
            main(
                [
                    "drift", "--app", "sha", "--jobs", "40",
                    "--trace", str(directory),
                ]
            )
        capsys.readouterr()
        assert main(["report", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "identical" in out or "drift.sha" in out

    def test_report_usage_errors(self, tmp_path, capsys):
        assert main(["report"]) == 2
        assert "usage" in capsys.readouterr().err
        assert main(["report", "a", "b", "c"]) == 2
        capsys.readouterr()
        assert main(["report", str(tmp_path / "missing")]) == 2
        assert "metrics.json" in capsys.readouterr().err


class TestCliWatch:
    def test_drifted_run_violates_slo_and_exits_nonzero(self, capsys):
        code = main(
            [
                "watch", "rijndael", "--jobs", "120",
                "--drift", "1.6", "--quiet",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "SLO ALERT [page] deadline-miss-rate" in captured.out
        assert "SLO VIOLATED" in captured.err

    def test_clean_run_exits_zero(self, capsys):
        assert main(["watch", "rijndael", "--jobs", "80", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "watch.rijndael.prediction (final)" in out
        assert "miss-rate" in out

    def test_arm_fallback_reacts_to_page_alert(self, capsys):
        code = main(
            [
                "watch", "rijndael", "--jobs", "120", "--drift", "1.6",
                "--governor", "adaptive", "--arm-fallback", "--quiet",
            ]
        )
        capsys.readouterr()
        # The adaptive governor may also recover on its own; the watch
        # must complete either way.
        assert code in (0, 1)

    @pytest.mark.parametrize("armed", (True, False))
    def test_only_arm_fallback_lets_an_alert_arm_the_governor(
        self, capsys, armed
    ):
        """The page alert of a 1.5x drift arms the adaptive governor's
        fallback with ``--arm-fallback`` and never without it."""
        argv = [
            "watch", "rijndael", "--drift", "1.5", "--governor", "adaptive",
            "--quiet",
        ]
        code = main(argv + ["--arm-fallback"] if armed else argv)
        out = capsys.readouterr().out
        assert code == 1
        assert "SLO ALERT [page]" in out
        assert ("fallback=ARMED" in out) == armed

    def test_unknown_app_rejected(self, capsys):
        assert main(["watch", "nosuchapp"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_custom_slo_file(self, tmp_path, capsys):
        from repro.telemetry.slo import SloSpec, specs_to_json

        slo_file = tmp_path / "slos.json"
        slo_file.write_text(
            specs_to_json(
                [
                    SloSpec(
                        name="custom-miss",
                        signal="deadline_miss",
                        objective=0.5,
                    )
                ]
            )
        )
        code = main(
            [
                "watch", "rijndael", "--jobs", "60", "--quiet",
                "--slo", str(slo_file),
            ]
        )
        assert code == 0
        assert "custom-miss" in capsys.readouterr().out


class TestCliGate:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("slo_trace")
        assert main(
            [
                "watch", "rijndael", "--jobs", "80", "--quiet",
                "--trace", str(trace_dir),
            ]
        ) == 0
        return trace_dir

    def test_make_baseline_then_gate_passes(self, traced, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(
            ["report", str(traced), "--make-baseline", str(baseline)]
        ) == 0
        payload = json.loads(baseline.read_text())
        pinned = payload["runs"]["watch.rijndael.prediction"]
        assert "executor.misses" in pinned
        capsys.readouterr()
        assert main(["report", str(traced), "--gate", str(baseline)]) == 0
        assert "gate PASSED" in capsys.readouterr().out

    def test_tightened_baseline_fails_gate(self, traced, tmp_path, capsys):
        baseline = tmp_path / "tight.json"
        assert main(
            ["report", str(traced), "--make-baseline", str(baseline)]
        ) == 0
        payload = json.loads(baseline.read_text())
        payload["runs"]["watch.rijndael.prediction"][
            "executor.misses"
        ] = -1.0
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["report", str(traced), "--gate", str(baseline)])
        assert code == 1
        out = capsys.readouterr().out
        assert "gate FAILED" in out
        assert "executor.misses" in out

    def test_diff_regression_exits_nonzero(self, traced, tmp_path, capsys):
        import shutil

        worse = tmp_path / "worse"
        shutil.copytree(traced, worse)
        metrics_path = worse / "watch.rijndael.prediction.metrics.json"
        payload = json.loads(metrics_path.read_text())
        payload["counters"]["executor.misses"] = 40.0
        metrics_path.write_text(json.dumps(payload))
        code = main(["report", str(traced), str(worse)])
        assert code == 1
        assert "regressed" in capsys.readouterr().out

    def test_identical_diff_exits_zero(self, traced, capsys):
        assert main(["report", str(traced), str(traced)]) == 0
        capsys.readouterr()

class TestCliProfile:
    """``repro profile``: host profiler over one single-app run."""

    @pytest.fixture(scope="class")
    def profiled(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("prof")
        code = main(
            [
                "profile", "rijndael", "--jobs", "30",
                "--profile-jobs", "20", "--out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_writes_four_artifacts(self, profiled):
        names = sorted(p.name for p in profiled.iterdir())
        assert names == [
            "host.rijndael.prediction.flame.txt",
            "host.rijndael.prediction.hostprof.json",
            "host.rijndael.prediction.hotspots.json",
            "host.rijndael.prediction.metrics.json",
        ]

    def test_hotspots_attribute_components(self, profiled):
        payload = json.loads(
            (profiled / "host.rijndael.prediction.hotspots.json").read_text()
        )
        assert payload["jobs"] == 30
        assert payload["jobs_per_sec"] > 0
        assert "interp" in payload["phases"]
        assert "governor" in payload["phases"]
        components = {h["component"] for h in payload["hotspots"]}
        assert "interp" in components

    def test_flamegraph_is_collapsed_stack_text(self, profiled):
        text = (profiled / "host.rijndael.prediction.flame.txt").read_text()
        line = text.splitlines()[0]
        stack, _, count = line.rpartition(" ")
        assert ";" in stack
        assert int(count) >= 1

    def test_metrics_feed_the_host_gate(self, profiled, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        assert main(
            [
                "report", str(profiled),
                "--make-baseline", str(baseline),
                "--tolerance", "0.6",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "report", str(profiled), "--gate", str(baseline),
                "--runs", "host.",
            ]
        ) == 0
        assert "gate PASSED" in capsys.readouterr().out

    def test_json_mode_prints_hotspots(self, tmp_path, capsys):
        out = tmp_path / "prof"
        code = main(
            [
                "profile", "rijndael", "--jobs", "20",
                "--profile-jobs", "20", "--sample-interval", "0",
                "--out", str(out), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run"] == "host.rijndael.prediction"
        assert payload["jobs"] == 20
        assert payload["hotspots"] == []  # sampler disabled

    def test_unknown_app_rejected(self, capsys):
        assert main(["profile", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestCliReportRunsFilter:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("runs") / "traces"
        main(
            [
                "drift", "--app", "sha", "--jobs", "40",
                "--trace", str(trace_dir),
            ]
        )
        return trace_dir

    def test_summary_respects_runs(self, traced, capsys):
        capsys.readouterr()
        assert main(
            ["report", str(traced), "--runs", "drift.sha.adaptive"]
        ) == 0
        out = capsys.readouterr().out
        assert "drift.sha.adaptive" in out
        assert "drift.sha.performance" not in out

    def test_unmatched_prefix_is_usage_error(self, traced, capsys):
        assert main(["report", str(traced), "--runs", "host."]) == 2
        assert "no run" in capsys.readouterr().err

    def test_openmetrics_export(self, traced, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        assert main(
            ["report", str(traced), "--openmetrics", str(target)]
        ) == 0
        capsys.readouterr()
        text = target.read_text()
        assert text.endswith("# EOF\n")
        assert 'run="drift.sha.prediction"' in text
        assert "repro_executor_jobs_total" in text

    def test_openmetrics_needs_one_directory(self, traced, capsys):
        assert main(
            [
                "report", str(traced), str(traced),
                "--openmetrics", "x.prom",
            ]
        ) == 2
        assert "one trace directory" in capsys.readouterr().err


class TestSingleRunCommands:
    """``watch``, ``profile`` and ``energy`` share one seeded-run setup."""

    @pytest.mark.parametrize(
        "argv, summary",
        [
            (["watch", "--quiet"], "run: 20 jobs"),
            (
                ["profile", "--profile-jobs", "20", "--sample-interval", "0"],
                "simulated run underneath: 20 jobs",
            ),
            (
                ["energy", "--profile-jobs", "20"],
                "simulated run underneath: 20 jobs",
            ),
        ],
        ids=["watch", "profile", "energy"],
    )
    def test_oracle_governor_runs(
        self, argv, summary, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # profile writes into ./profile-out
        command, *options = argv
        assert main(
            [command, "sha", "--governor", "oracle", "--jobs", "20", *options]
        ) == 0
        assert summary in capsys.readouterr().out


class TestReplayAnchorModels:
    """``repro replay`` reads the anchor models of the controller and of
    ``--beta FILE`` by type, and refuses a bad one with one line."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        from repro.analysis.harness import Lab
        from repro.pipeline.persist import save_controller
        from repro.telemetry.exporters import TraceSession

        directory = tmp_path_factory.mktemp("replay-models")
        lab = Lab(switch_samples=10, trace_session=TraceSession(directory))
        lab.run("rijndael", "prediction", n_jobs=8)
        lab.trace_session.flush()
        controller = directory / "ctrl.json"
        save_controller(lab.controller("rijndael"), controller)
        return directory, controller

    def _replay(self, traced, tmp_path, capsys, edit, beta):
        directory, controller = traced
        payload = json.loads(controller.read_text())
        edit(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        argv = ["replay", str(directory)]
        argv += [str(controller), "--beta", str(bad)] if beta else [str(bad)]
        capsys.readouterr()
        code = main(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("beta", [False, True], ids=["ctrl", "beta"])
    @pytest.mark.parametrize("case", MODEL_EDITS)
    def test_bad_model_is_one_line_and_exit_code_2(
        self, traced, tmp_path, capsys, case, beta
    ):
        edit = edit_model(case)
        code, err = self._replay(traced, tmp_path, capsys, edit, beta)
        model, field, _ = MODEL_EDITS[case]
        assert code == 2
        assert err.count("\n") == 1 and f"'{model}' {field}" in err

    def test_beta_without_fmin_model(self, traced, tmp_path, capsys):
        code, err = self._replay(
            traced, tmp_path, capsys, lambda p: p.pop("model_fmin"), True
        )
        assert code == 2
        bad = tmp_path / "bad.json"
        assert err == f"{bad}: saved controller: no 'model_fmin' field\n"

    def test_valid_beta_replays(self, traced, capsys):
        directory, controller = traced
        capsys.readouterr()
        argv = ["replay", str(directory), str(controller)]
        assert main([*argv, "--beta", str(controller)]) == 0


#: Files ``repro replay`` cannot read as a controller: case -> a writer
#: taking the path and the saved controller's payload.
UNREADABLE_CONTROLLERS = {
    "directory": lambda path, payload: path.mkdir(),
    "missing": lambda path, payload: None,
    "not-json": lambda path, payload: path.write_text("{"),
    "not-utf8": lambda path, payload: path.write_bytes(b"\xff\xfe{"),
    "not-an-object": lambda path, payload: path.write_text("[]"),
    "no-fmin-model": lambda path, payload: path.write_text(
        json.dumps({k: v for k, v in payload.items() if k != "model_fmin"})
    ),
}


class TestReplayUnreadableFiles:
    """A controller or ``--beta`` file that cannot be read or parsed
    makes ``repro replay`` exit 2 with one line that starts with its
    path, so with both files given the line says which one is bad."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        from repro.analysis.harness import Lab
        from repro.pipeline.persist import save_controller
        from repro.telemetry.exporters import TraceSession

        directory = tmp_path_factory.mktemp("replay-files")
        lab = Lab(switch_samples=10, trace_session=TraceSession(directory))
        lab.run("rijndael", "prediction", n_jobs=8)
        lab.trace_session.flush()
        controller = directory / "ctrl.json"
        save_controller(lab.controller("rijndael"), controller)
        return directory, controller

    @pytest.mark.parametrize("beta", [False, True], ids=["ctrl", "beta"])
    @pytest.mark.parametrize("case", UNREADABLE_CONTROLLERS)
    def test_one_line_naming_the_file(
        self, traced, tmp_path, capsys, case, beta
    ):
        directory, controller = traced
        bad = tmp_path / "bad.json"
        UNREADABLE_CONTROLLERS[case](bad, json.loads(controller.read_text()))
        argv = ["replay", str(directory)]
        argv += [str(controller), "--beta", str(bad)] if beta else [str(bad)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"{bad}: ")


def _slo_spec(objective="0.1", threshold="0.0", jobs="5", rate="2.0"):
    return (
        '[{"name": "x", "signal": "deadline_miss", '
        f'"objective": {objective}, "threshold": {threshold}, '
        f'"windows": [{{"jobs": {jobs}, "max_burn_rate": {rate}}}]}}]'
    )


#: Malformed ``watch --slo`` files, written into the test's directory.
BAD_SLO_FILES = {
    "not_json.json": "[{",
    "no_signal.json": '[{"name": "x", "objective": 0.1, "windows": []}]',
    "nan_burn_rate.json": _slo_spec(rate="NaN"),
    "nan_threshold.json": _slo_spec(threshold="NaN"),
    "fractional_jobs.json": _slo_spec(jobs="1.5"),
    "bool_jobs.json": _slo_spec(jobs="true"),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["watch", "sha", "--jobs", "0"],
        ["watch", "sha", "--governor", "nope"],
        ["profile", "sha", "--governor", "nope"],
        ["energy", "sha", "--governor", "nope"],
        ["watch", "sha", "--drift", "0"],
        ["watch", "sha", "--jobs", "5", "--jitter", "-1"],
        ["profile", "sha", "--jobs", "5", "--jitter", "-1"],
        ["energy", "sha", "--jobs", "5", "--jitter", "-1"],
        ["watch", "sha", "--jobs", "5", "--jitter", "nan", "--quiet"],
        ["profile", "sha", "--jobs", "5", "--jitter", "inf"],
        ["energy", "sha", "--jobs", "5", "--jitter", "nan"],
        ["fig15", "--jobs", "3", "--jitter", "inf"],
        ["fig15", "--jobs", "3", "--jitter", "nan"],
        ["profile", "sha", "--profile-jobs", "1"],
        ["energy", "sha", "--profile-jobs", "1"],
        ["fig15", "--jobs", "0"],
        ["fig2", "--app", "nope"],
        ["fleet", "run", "--apps", "nope"],
        ["fleet", "run", "--governor", "nope"],
        *(
            ["watch", "sha", "--jobs", "5", "--quiet", "--slo", name]
            for name in ["missing.json", *BAD_SLO_FILES]
        ),
    ],
    ids="_".join,
)
def test_bad_input_is_one_line_and_exit_code_2(
    argv, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # nothing may land in the working tree
    for name, text in BAD_SLO_FILES.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
