"""Tests of tools/trajectory.py, the performance-trajectory recorder.

A full run takes minutes (it runs perfbench six times, tier-1 and
``repro all``), so only its parsing and its append are checked here.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "trajectory", ROOT / "tools" / "trajectory.py"
)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

PERFBENCH_STDOUT = """\
perfbench eval-light seed=7 seconds=25 trace=0 size=full
window: 29 rounds, 81200 jobs; host scale 0.948, unscaled 17662.2 jobs/s
machine: {"cpu": "x", "loadavg_1m": 0.2, "nproc": 2, "python": "3.11.7"}
  jobs_per_s                                    18636.3 jobs/s
attempted=84000 failed=0
{"correct": true, "attempted": 84000, "failed": 0, "metrics": \
{"jobs_per_s": {"value": 18636.3, "unit": "jobs/s"}, \
"setup_s": {"value": 0.485, "unit": "s"}}}
"""


def test_parse_perfbench_reads_machine_line_and_result():
    machine, result = trajectory.parse_perfbench(PERFBENCH_STDOUT)
    assert machine == {
        "cpu": "x", "loadavg_1m": 0.2, "nproc": 2, "python": "3.11.7"
    }
    assert result == {
        "correct": True,
        "failed": 0,
        "metrics": {"jobs_per_s": 18636.3, "setup_s": 0.485},
    }


def test_append_row_keeps_earlier_rows(tmp_path):
    path = tmp_path / "trajectory.json"
    trajectory.append_row(path, {"commit": "a"})
    first = path.read_text()
    trajectory.append_row(path, {"commit": "b"})
    document = json.loads(path.read_text())
    assert [row["commit"] for row in document["rows"]] == ["a", "b"]
    assert document["about"] == json.loads(first)["about"]


def test_refuses_options():
    assert trajectory.main(["--seconds", "5"]) == 2
    assert trajectory.main(["a.json", "b.json"]) == 2
