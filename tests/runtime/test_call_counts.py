"""Python calls per job, pinned exactly.

A wall-clock guard moves with the host; the number of ``repro``
functions a job calls does not.  Each row counts, with a
``sys.setprofile`` hook, the ``call`` events of functions defined under
``src/repro`` over 50 jobs, after 10 warm-up jobs, and pins the total.
Compiled task and slice programs are not counted (their code has no
file under ``src/repro``), nor are the frames of comprehensions and
generator expressions: Python 3.12 inlines comprehensions, and leaving
all four kinds out makes the totals agree on Python 3.11 to 3.13.

A row that moves is a change in how much Python a job runs: when a
change is meant to move it, the new count goes here with its reason.
"""

import sys
import zlib
from pathlib import Path

import pytest

import repro
from repro.analysis.harness import Lab
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


def _counted_calls(runner: TaskLoopRunner) -> int:
    """``repro`` calls made by the runner's jobs after the warm-up."""
    for _ in range(WARMUP_JOBS):
        runner.step()
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
        for _ in range(COUNTED_JOBS):
            runner.step()
    finally:
        sys.setprofile(found)
    assert runner.jobs_remaining == 0
    return calls


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
