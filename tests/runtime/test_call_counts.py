"""Python calls per job, pinned exactly.

A wall-clock guard moves with the host; the number of ``repro``
functions a job calls does not.  Each row counts, with a
``sys.setprofile`` hook, the ``call`` events of functions defined under
``src/repro`` over 50 jobs, after 10 warm-up jobs, and pins the total.
Compiled task and slice programs are not counted (their code has no
file under ``src/repro``), nor are the frames of comprehensions and
generator expressions: Python 3.12 inlines comprehensions, and leaving
all four kinds out makes the totals agree on Python 3.11 to 3.13.

Two more rows count a whole fleet session, from building it through
its result (``run_session``), after one warm-up session of the same
tenant: the wall-clock fleet guard's 4-job ``sha`` session under
``interactive``, and the benchmark's ``fleet-mix`` ``adaptive-rijndael``
session (bursty arrivals, drifting 1.5x, energy ledger on).  They are
counted in a fresh interpreter: building a board looks its watts up in
a process-wide cache, and an equal OPP table that another test put
there first would add an ``OppTable.__eq__`` call to the lookup.

A row that moves is a change in how much Python a job runs: when a
change is meant to move it, the new count goes here with its reason.
"""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import repro
from repro.analysis.harness import Lab
from repro.fleet.arrivals import BurstyArrivals
from repro.fleet.session import FleetBuild, run_session
from repro.fleet.tenant import TenantSpec
from repro.governors.interactive import InteractiveGovernor
from repro.platform.board import Board
from repro.platform.opp import default_xu3_a7_table
from repro.runtime.executor import TaskLoopRunner
from repro.workloads.registry import get_app

SRC = str(Path(repro.__file__).resolve().parent)
#: Frames of these names are not counted.
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})
WARMUP_JOBS = 10
COUNTED_JOBS = 50

#: Calls per 50 jobs of each light app under ``prediction``, set up as
#: perfbench's ``eval-light`` runners are (seed 7).
PREDICTION_CALLS = {
    "2048": 3550,
    "curseofwar": 3830,
    "ldecode": 3816,
    "rijndael": 3915,
    "sha": 4005,
    "uzbl": 3550,
    "xpilot": 3550,
}
#: Calls per 50 jobs of the wall-clock guards' bare run (``sha`` under
#: ``interactive``, benchmarks/test_perf.py's ``_smoke_run``).
BARE_SHA_CALLS = 2322
#: Calls of one fleet session (session 3, after session 0).  The lean
#: fleet tenant path moved them: the SLO roll-up folds each spec
#: without a tracker, the four seeds share one rendered path, the
#: adaptive feedback builds one design row per job and no throwaway
#: predictive governor.
FLEET_SESSION_CALLS = {
    # The wall-clock fleet guard's session (benchmarks/test_perf.py);
    # 282 before the lean tenant path.
    "fleet-guard": 245,
    # perfbench's fleet-mix adaptive-rijndael session; 1576 before.
    "adaptive-rijndael": 1321,
}
FLEET_BUILD = FleetBuild(root_seed=7)
#: Row -> (tenant, energy ledger on).
FLEET_SESSIONS = {
    "fleet-guard": (
        TenantSpec(
            name="scale",
            app="sha",
            governor="interactive",
            sessions=1000,
            jobs_per_session=4,
        ),
        False,
    ),
    "adaptive-rijndael": (
        TenantSpec(
            name="adaptive-rijndael",
            app="rijndael",
            governor="adaptive",
            sessions=12,
            jobs_per_session=10,
            arrival=BurstyArrivals(),
            drift_factor=1.5,
        ),
        True,
    ),
}


def _counted(run) -> int:
    """``repro`` calls made by ``run()``."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (
                code.co_filename.startswith(SRC)
                and code.co_name not in INLINED
            ):
                calls += 1

    found = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(found)
    return calls


def _counted_calls(runner: TaskLoopRunner) -> int:
    """``repro`` calls made by the runner's jobs after the warm-up."""
    for _ in range(WARMUP_JOBS):
        runner.step()
    calls = _counted(lambda: [runner.step() for _ in range(COUNTED_JOBS)])
    assert runner.jobs_remaining == 0
    return calls


def _fleet_session_calls() -> dict[str, int]:
    """``repro`` calls of each row's session 3, built, run and reduced,
    after a warm-up run of its session 0."""
    counts = {}
    for name, (tenant, energy) in FLEET_SESSIONS.items():
        run_session(tenant, 0, FLEET_BUILD, energy=energy)
        counts[name] = _counted(
            lambda: run_session(tenant, 3, FLEET_BUILD, energy=energy)
        )
    return counts


@pytest.fixture(scope="module")
def lab():
    return Lab(jitter_sigma=0.02, seed=42)


@pytest.mark.parametrize("app", sorted(PREDICTION_CALLS))
def test_prediction_calls_per_job(lab, app):
    runner = TaskLoopRunner(
        board=lab.make_board(zlib.crc32(f"7|{app}".encode())),
        task=lab.app(app).task,
        governor=lab.make_governor("prediction", app),
        inputs=lab.app(app).inputs(WARMUP_JOBS + COUNTED_JOBS, seed=7),
        interpreter=lab.interpreter,
    )
    assert _counted_calls(runner) == PREDICTION_CALLS[app]


def test_bare_sha_calls_per_job():
    opps = default_xu3_a7_table()
    app = get_app("sha")
    runner = TaskLoopRunner(
        Board(opps=opps),
        app.task,
        InteractiveGovernor(opps),
        app.inputs(WARMUP_JOBS + COUNTED_JOBS, seed=0),
    )
    assert _counted_calls(runner) == BARE_SHA_CALLS


@pytest.fixture(scope="module")
def fleet_session_calls():
    script = (
        f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        "import test_call_counts as c; print(json.dumps(c._fleet_session_calls()))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(SRC).parent))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("row", sorted(FLEET_SESSION_CALLS))
def test_fleet_session_calls(fleet_session_calls, row):
    assert fleet_session_calls[row] == FLEET_SESSION_CALLS[row]
