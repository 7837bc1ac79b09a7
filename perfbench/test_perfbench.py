"""Self-tests of the benchmark, each workload at tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench import FLEET_JOBS, WORKLOADS, check_outputs  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS, REFERENCE, main  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_bench(workload: str, trace: int, *extra: str, cwd: Path = HERE.parent):
    """Run the benchmark at tiny size; (exit code, last-line JSON, stdout)."""
    out = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "5", "--seconds", "0.2",
            "--trace", str(trace), "--size", "tiny", *extra,
        ],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result, out.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    code, result, text = run_bench(workload, 0)
    assert code == 0, text
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == END_TO_END_UNITS
    for name, unit in END_TO_END_UNITS.items():
        assert result["metrics"][name]["value"] > 0, name
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in text.splitlines()
        ), name
    assert "sim_miss_pct" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [run_bench(workload, 1) for _ in range(2)]
    counts = []
    for code, result, text in runs:
        assert code == 0, text
        assert result["correct"], text
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == PER_LAYER_UNITS
        counts.append({
            name: m["value"]
            for name, m in result["metrics"].items()
            if m["unit"].startswith("count")
        })
    assert counts[0] == counts[1]
    assert counts[0]["programs.task_runs_per_job"] == 2.0
    builds = {"eval-light": 7, "eval-heavy": 1, "fleet-mix": 7}
    assert counts[0]["pipeline.builds"] == builds[workload]
    fleet = workload == "fleet-mix"
    assert (counts[0]["governors.timer_calls_per_job"] > 0) == fleet
    assert (counts[0]["telemetry.energy_segments_per_job"] > 0) == fleet
    assert 0 < counts[0]["programs.slice_runs_per_job"] <= 1


@pytest.mark.parametrize(
    "workload, edits, failed",
    [
        # Two eval jobs whose outputs differ from the reference.
        ("eval-light", [("sha", 0), ("uzbl", 1)], 2),
        # A fleet session stands for its ten jobs.
        ("fleet-mix", [("pid-ldecode/0", 0)], 10),
        # Reference entries the run no longer produces: a job at the end
        # of an eval stream, a whole fleet session.
        ("eval-light", [("sha", None)], 1),
        ("fleet-mix", [("pid-ldecode/1", None)], 10),
    ],
)
def test_perturbed_reference_shows_up_as_failed_jobs(tmp_path, workload, edits, failed):
    reference = json.loads(REFERENCE.read_text())
    streams = reference["sizes"]["tiny"][workload]
    for key, index in edits:
        if index is None:
            streams.setdefault(key, []).append("0" * 12)
        else:
            streams[key][index] = "0" * 12
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(reference))
    code, result, text = run_bench(workload, 0, "--reference", str(perturbed))
    assert code == 1, text
    assert not result["correct"]
    assert result["failed"] == failed


def test_a_session_missing_from_the_outputs_fails_its_jobs():
    expected = json.loads(REFERENCE.read_text())["sizes"]["full"]["fleet-mix"]
    outputs = dict(expected)
    del outputs["pid-ldecode/3"]
    assert check_outputs(outputs, expected, FLEET_JOBS) == (4200, 10)
    assert check_outputs(expected, expected, FLEET_JOBS) == (4200, 0)


@pytest.mark.parametrize(
    "layer, skew",
    [
        # A set-up wrapper: one job fewer per app stream.
        ("workloads.inputs", lambda inputs: inputs[:-1]),
        # A window wrapper: every prediction three times too long.
        ("models.predict", lambda p: type(p)(p.t_fmax_s * 3, p.t_fmin_s * 3)),
    ],
)
def test_a_wrapper_that_changes_results_fails_jobs(monkeypatch, capsys, layer, skew):
    observe = Tracer._call

    def skewed(self, nid, fn, args, kwargs):
        result = observe(self, nid, fn, args, kwargs)
        return skew(result) if self.names[nid] == layer else result

    monkeypatch.setattr(Tracer, "_call", skewed)
    code = main([
        "--workload", "eval-light", "--seed", "5", "--seconds", "0.2",
        "--trace", "1", "--size", "tiny",
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, result, text = run_bench("eval-light", 0, cwd=tmp_path)
    assert code not in (0, 1)
    assert result is None, text
