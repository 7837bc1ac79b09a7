"""Append one generated row to the performance trajectory.

Usage, from the repository root of a fresh checkout (``git clone``:
stale ``__pycache__/`` files would flatter perfbench's ``setup_s``)::

    python tools/trajectory.py [OUT]

OUT defaults to ``BENCH_trajectory.json`` at the repository root.  One
run appends one row holding:

- the commit (``git rev-parse HEAD``, and whether tracked files differ
  from it) and the UTC date;
- perfbench's ``machine:`` line, from its first run;
- each workload's end-to-end metrics (``--trace 0``) and per-layer
  metrics (``--trace 1``), run as ``BENCHMARK.json``'s command at the
  benchmark's defaults (seed 7, 25 s windows), with each run's
  ``correct`` flag and failed-job count;
- the tier-1 suite's wall time (``python -m pytest -x -q``) and its
  summary line;
- ``repro all``'s wall time, writing into a temporary directory.

A run takes about 4 minutes on a 2-vCPU host: six perfbench runs of
about 30 s each, tier-1 (about a minute) and ``repro all``.  Rows are only ever
appended by this tool, never edited by hand; a row measured wrong is
superseded by a new run, not corrected.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = ROOT / "BENCH_trajectory.json"
ABOUT = (
    "One row per run of tools/trajectory.py, appended by the tool; "
    "rows are never edited by hand."
)


def parse_perfbench(stdout: str) -> tuple[dict, dict]:
    """perfbench's ``machine:`` line and its result (the last line)."""
    lines = stdout.strip().splitlines()
    machine = next(
        json.loads(line[len("machine: "):])
        for line in lines
        if line.startswith("machine: ")
    )
    result = json.loads(lines[-1])
    return machine, {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {
            name: entry["value"] for name, entry in result["metrics"].items()
        },
    }


def _run(command: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True
    )
    return proc, time.perf_counter() - t0


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure() -> dict:
    """One trajectory row, measured now."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = _git("status", "--porcelain", "--untracked-files=no")
    row = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": None,
        "workloads": {},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            command = benchmark["command"] + [
                "--workload", workload, "--trace", str(trace)
            ]
            proc, _ = _run(command)
            if proc.returncode not in (0, 1):
                sys.stderr.write(proc.stderr)
                raise RuntimeError(
                    f"{' '.join(command)} exited {proc.returncode}"
                )
            machine, entry[key] = parse_perfbench(proc.stdout)
            if row["machine"] is None:
                row["machine"] = machine
        row["workloads"][workload] = entry
    proc, seconds = _run([sys.executable, "-m", "pytest", "-x", "-q"])
    lines = proc.stdout.strip().splitlines()
    row["tier1"] = {
        "wall_s": round(seconds, 2),
        "exit": proc.returncode,
        "summary": lines[-1] if lines else "",
    }
    with tempfile.TemporaryDirectory() as out:
        proc, seconds = _run(
            [sys.executable, "-m", "repro", "all", "--output", out]
        )
    row["repro_all"] = {"wall_s": round(seconds, 2), "exit": proc.returncode}
    return row


def append_row(path: Path, row: dict) -> None:
    """Append ``row`` to the trajectory at ``path`` (created if absent)."""
    document = (
        json.loads(path.read_text())
        if path.exists()
        else {"about": ABOUT, "rows": []}
    )
    document["rows"].append(row)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1 or (args and args[0].startswith("-")):
        print("usage: python tools/trajectory.py [OUT]", file=sys.stderr)
        return 2
    path = Path(args[0]) if args else DEFAULT_OUT
    row = measure()
    append_row(path, row)
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
