"""The fleet CLI end to end, including the report --gate integration."""

import json

import pytest

from repro.cli import main
from repro.fleet.tenant import TenantSpec, tenants_to_json

FAST = [
    "--sessions", "6", "--jobs", "5",
    "--apps", "sha", "--governor", "interactive", "--seed", "7",
]


class TestFleetRun:
    def test_run_prints_report(self, capsys):
        assert main(["fleet", "run", *FAST]) == 0
        out = capsys.readouterr().out
        assert "fleet report (seed 7)" in out
        assert "worst tenants" in out

    def test_json_output(self, capsys):
        assert main(["fleet", "run", *FAST, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sessions"] == 6
        assert payload["jobs"] == 30

    def test_markdown_output(self, capsys):
        assert main(["fleet", "run", *FAST, "--markdown"]) == 0
        assert capsys.readouterr().out.startswith("# Fleet report")

    def test_shard_count_does_not_change_output(self, capsys):
        main(["fleet", "run", *FAST, "--json", "--shards", "1"])
        one = capsys.readouterr().out
        main(["fleet", "run", *FAST, "--json", "--shards", "3"])
        three = capsys.readouterr().out
        assert one == three

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "fleet.json"
        spec.write_text(
            tenants_to_json(
                [
                    TenantSpec(
                        name="solo", app="sha", governor="interactive",
                        sessions=2, jobs_per_session=4,
                    )
                ]
            )
        )
        assert main(["fleet", "run", "--spec", str(spec), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tenants"][0]["name"] == "solo"
        assert payload["jobs"] == 8

    def test_spec_file_with_unknown_governor_is_usage_error(
        self, tmp_path, capsys
    ):
        spec = tmp_path / "fleet.json"
        spec.write_text(
            json.dumps([{"name": "solo", "app": "sha", "governor": "nope"}])
        )
        assert main(["fleet", "run", "--spec", str(spec)]) == 2
        assert "unknown governor" in capsys.readouterr().err

    def test_oracle_governor_runs(self, capsys):
        assert main(
            [
                "fleet", "run", "--sessions", "4", "--jobs", "5",
                "--apps", "sha", "--governor", "oracle", "--json",
            ]
        ) == 0
        assert json.loads(capsys.readouterr().out)["jobs"] == 20

    def test_output_file_excludes_invocation_metadata(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        main(
            ["fleet", "run", *FAST, "--shards", "2", "--output", str(out)]
        )
        capsys.readouterr()
        text = out.read_text()
        assert "fleet report (seed 7)" in text
        assert "shard" not in text  # partitioning is metadata, not report

    def test_profile_leaves_stdout_identical(self, tmp_path, capsys):
        main(["fleet", "run", *FAST, "--json"])
        plain = capsys.readouterr().out
        trace_dir = tmp_path / "prof"
        assert main(
            [
                "fleet", "run", *FAST, "--json", "--shards", "2",
                "--profile", "--trace", str(trace_dir),
            ]
        ) == 0
        captured = capsys.readouterr()
        # The deterministic report is untouched; the profile summary
        # rides on stderr only.
        assert captured.out == plain
        assert "fleet host profile" in captured.err
        host_files = sorted(
            p.name for p in trace_dir.glob("host.fleet.*")
        )
        assert host_files == [
            "host.fleet.run.flame.txt",
            "host.fleet.run.hostprof.json",
            "host.fleet.run.hotspots.json",
            "host.fleet.run.metrics.json",
        ]
        hot = json.loads(
            (trace_dir / "host.fleet.run.hotspots.json").read_text()
        )
        assert hot["jobs"] == 30

    def test_usage_errors(self, capsys):
        assert main(["fleet", "bogus"]) == 2
        assert main(["fleet", "run", "--apps", ""]) == 2
        assert (
            main(["fleet", "run", *FAST, "--drift-tenant", "ghost"]) == 2
        )
        assert (
            main(["fleet", "run", *FAST, "--json", "--markdown"]) == 2
        )


class TestFleetTraceAndReport:
    @pytest.fixture()
    def trace_dir(self, tmp_path, capsys):
        directory = tmp_path / "trace"
        assert (
            main(
                ["fleet", "run", *FAST, "--name", "smoke",
                 "--trace", str(directory)]
            )
            == 0
        )
        capsys.readouterr()
        return directory

    def test_trace_writes_gateable_metrics(self, trace_dir):
        metrics = json.loads(
            (trace_dir / "fleet.smoke.metrics.json").read_text()
        )
        assert metrics["counters"]["fleet.sessions"] == 6
        assert (trace_dir / "fleet_report.json").is_file()
        assert (trace_dir / "fleet_report.md").is_file()

    def test_fleet_report_rerenders_saved_run(self, trace_dir, capsys):
        assert main(["fleet", "report", str(trace_dir)]) == 0
        text = capsys.readouterr().out
        assert "fleet report (seed 7)" in text
        assert (
            main(["fleet", "report", str(trace_dir), "--markdown"]) == 0
        )
        assert capsys.readouterr().out.startswith("# Fleet report")

    def test_gate_flow_passes_against_own_baseline(
        self, trace_dir, tmp_path, capsys
    ):
        from repro.telemetry.report import make_baseline

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline(trace_dir)))
        assert (
            main(
                ["report", str(trace_dir), "--gate", str(baseline),
                 "--runs", "fleet."]
            )
            == 0
        )
        capsys.readouterr()

    def test_gate_runs_prefix_skips_other_jobs_runs(
        self, trace_dir, tmp_path, capsys
    ):
        """A baseline with watch.* runs must not fail the fleet job."""
        from repro.telemetry.report import make_baseline

        payload = make_baseline(trace_dir)
        payload["runs"]["watch.sha.prediction"] = {"executor.jobs": 240.0}
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        # Unfiltered: the watch run is missing from the directory.
        assert (
            main(["report", str(trace_dir), "--gate", str(baseline)]) == 1
        )
        capsys.readouterr()
        # Filtered to fleet runs: passes.
        assert (
            main(
                ["report", str(trace_dir), "--gate", str(baseline),
                 "--runs", "fleet."]
            )
            == 0
        )
        capsys.readouterr()

    def test_gate_bad_prefix_is_a_usage_error(
        self, trace_dir, tmp_path, capsys
    ):
        from repro.telemetry.report import make_baseline

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline(trace_dir)))
        assert (
            main(
                ["report", str(trace_dir), "--gate", str(baseline),
                 "--runs", "nope."]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "no baseline run matches" in err

    def test_regression_fails_the_gate(self, trace_dir, tmp_path, capsys):
        from repro.telemetry.report import make_baseline

        payload = make_baseline(trace_dir)
        run = payload["runs"]["fleet.smoke"]
        run["fleet.misses"] = 0.0
        run["fleet.energy_j"] = run["fleet.energy_j"] / 10
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        assert (
            main(
                ["report", str(trace_dir), "--gate", str(baseline),
                 "--runs", "fleet."]
            )
            == 1
        )
        capsys.readouterr()


def _one_line(err):
    """The single stderr line of a usage error (no traceback)."""
    assert err.count("\n") == 1, err
    return err


class TestMalformedInput:
    """Bad rosters, saved reports and gate baselines exit 2 with one
    line on stderr naming the tenant (or run) and the field."""

    @pytest.mark.parametrize(
        ("roster", "message"),
        [
            ("[1, 2]", "a tenant must be a JSON object, got 1"),
            ('[{"app": "sha"}]', "tenant has no 'name' field"),
            (
                '[{"name": "t", "app": "sha", "jitter_sigma": null}]',
                "tenant 't': jitter_sigma must be a finite number, got None",
            ),
            (
                '[{"name": "t", "app": "sha", "arrival": 5}]',
                "tenant 't': arrival must be a JSON object, got 5",
            ),
            (
                '[{"name": "t", "app": "sha",'
                ' "arrival": {"kind": "poisson", "speed": 2}}]',
                "tenant 't': poisson arrival has unknown field(s) ['speed']",
            ),
            (
                '[{"name": "t", "app": "sha",'
                ' "arrival": {"kind": "poisson", "rate": "fast"}}]',
                "tenant 't': poisson arrival: rate must be a finite number",
            ),
            (
                '[{"name": "t", "app": "sha", "sessions": 2.5}]',
                "tenant 't': sessions must be an int, got 2.5",
            ),
            (
                '[{"name": "t", "app": "sha", "jobs_per_session": true}]',
                "tenant 't': jobs_per_session must be an int, got True",
            ),
            (
                '[{"name": "t", "app": "sha", "budget_scale": NaN}]',
                "tenant 't': budget_scale must be a finite number, got nan",
            ),
            (
                '[{"name": "t", "app": "sha", "jiter_sigma": 0.1}]',
                "tenant 't': unknown field(s) ['jiter_sigma']",
            ),
        ],
        ids=[
            "entry-not-object",
            "no-name",
            "null-number",
            "arrival-not-object",
            "arrival-unknown-field",
            "arrival-field-not-number",
            "fractional-sessions",
            "bool-jobs-per-session",
            "nan-budget-scale",
            "unknown-tenant-field",
        ],
    )
    def test_roster(self, tmp_path, capsys, roster, message):
        spec = tmp_path / "fleet.json"
        spec.write_text(roster)
        assert main(["fleet", "run", "--spec", str(spec)]) == 2
        assert message in _one_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        ("saved", "message"),
        [
            ("fleet_report", "Expecting value"),
            ('{"seed": 7}', "fleet report: no 'tenants' field"),
            (
                '{"tenants": [{"name": "a", "app": "sha"}]}',
                "fleet report tenant 'a': no 'governor' field",
            ),
        ],
        ids=["not-json", "no-tenants", "tenant-missing-field"],
    )
    def test_fleet_report(self, tmp_path, capsys, saved, message):
        path = tmp_path / "fleet_report.json"
        path.write_text(saved)
        assert main(["fleet", "report", str(path)]) == 2
        assert message in _one_line(capsys.readouterr().err)

    def test_fleet_report_ranking_an_unknown_tenant(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["fleet", "run", *FAST, "--trace", str(trace)]) == 0
        saved = trace / "fleet_report.json"
        payload = json.loads(saved.read_text())
        payload["top_k"] = ["ghost"]
        saved.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["fleet", "report", str(saved)]) == 2
        err = _one_line(capsys.readouterr().err)
        assert "fleet report: malformed 'top_k' field: ['ghost']" in err

    @pytest.fixture(scope="class")
    def energy_report(self, tmp_path_factory):
        """A saved report with energy attributed (one tenant, ``sha``)."""
        trace = tmp_path_factory.mktemp("energy") / "trace"
        argv = ["fleet", "run", *FAST, "--energy", "--trace", str(trace)]
        assert main(argv) == 0
        return json.loads((trace / "fleet_report.json").read_text())

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            ({"jobs": 1.5}, "jobs must be an int, got 1.5"),
            ({"jobs": True}, "jobs must be an int, got True"),
            (
                {"total_j": float("nan")},
                "total_j must be a finite number, got nan",
            ),
            ({"total_j": "12"}, "total_j must be a finite number, got '12'"),
            (
                {"by_phase": {"execute": True}},
                "by_phase['execute'] must be a finite number, got True",
            ),
        ],
        ids=["fractional-jobs", "bool-jobs", "nan-total", "string-total",
             "bool-phase"],
    )
    def test_fleet_report_energy(
        self, energy_report, tmp_path, capsys, edit, message
    ):
        payload = json.loads(json.dumps(energy_report))
        payload["tenants"][0]["energy"].update(edit)
        path = tmp_path / "fleet_report.json"
        path.write_text(json.dumps(payload))
        assert main(["fleet", "report", str(path)]) == 2
        err = _one_line(capsys.readouterr().err)
        assert f"fleet report tenant 'sha' energy: {message}" in err

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (
                lambda report: report["tenants"][0].update(sessions=1.5),
                "fleet report tenant 'sha': sessions must be an int, got 1.5",
            ),
            (
                lambda report: report["tenants"][0].update(jobs=True),
                "fleet report tenant 'sha': jobs must be an int, got True",
            ),
            (
                lambda report: report["tenants"][0].update(misses="3"),
                "fleet report tenant 'sha': misses must be an int, got '3'",
            ),
            (
                lambda report: report["tenants"][0].update(
                    energy_j=float("nan")
                ),
                "fleet report tenant 'sha': energy_j must be a finite "
                "number, got nan",
            ),
            (
                lambda report: report["tenants"][0]["slo"][0].update(bad=0.5),
                "fleet report tenant 'sha' slo: bad must be an int, got 0.5",
            ),
            (
                lambda report: report["tenants"][0]["slo"][0][
                    "burn_rates"
                ].update(w10=True),
                "fleet report tenant 'sha' slo: burn_rates['w10'] must be "
                "a finite number, got True",
            ),
            (
                lambda report: report["tenants"][0]["slo"][0][
                    "window_tails"
                ].update(w10=[1.5, 10]),
                "fleet report tenant 'sha' slo: malformed 'window_tails' "
                "field",
            ),
            (
                lambda report: report["tenants"][0]["slo"][0].update(
                    exceeding="no"
                ),
                "fleet report tenant 'sha' slo: malformed 'exceeding' "
                "field: 'no'",
            ),
            (
                lambda report: report.update(seed="7"),
                "fleet report: seed must be an int, got '7'",
            ),
            (
                lambda report: report["burn_rates"].update(w10=None),
                "fleet report: burn_rates['w10'] must be a finite number, "
                "got None",
            ),
        ],
        ids=["fractional-sessions", "bool-jobs", "string-misses",
             "nan-energy", "fractional-slo-bad", "bool-burn-rate",
             "fractional-window-tail", "string-exceeding", "string-seed",
             "null-fleet-burn-rate"],
    )
    def test_fleet_report_numbers(
        self, energy_report, tmp_path, capsys, edit, message
    ):
        payload = json.loads(json.dumps(energy_report))
        edit(payload)
        path = tmp_path / "fleet_report.json"
        path.write_text(json.dumps(payload))
        assert main(["fleet", "report", str(path)]) == 2
        assert message in _one_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        ("baseline", "message"),
        [
            ({"runs": 5}, "baseline 'runs' must be an object of runs, got 5"),
            ({"runs": {"r": [1]}}, "baseline run 'r' must be an object"),
            (
                {"runs": {"r": {"executor.misses": None}}},
                "baseline run 'r': executor.misses must be a finite number",
            ),
            (
                {"tolerance": "wide", "runs": {}},
                "baseline: tolerance must be a finite number, got 'wide'",
            ),
        ],
        ids=["runs-not-object", "run-not-object", "null-metric", "tolerance"],
    )
    def test_gate_baseline(self, tmp_path, capsys, baseline, message):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        assert main(["report", str(tmp_path), "--gate", str(path)]) == 2
        assert message in _one_line(capsys.readouterr().err)
