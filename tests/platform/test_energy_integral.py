"""The exact energy integral on governed runs.

The paper reads energy from the ODROID-XU3's INA231 sensors, sampled at
~213 Hz and integrated over time (§5.1).  The simulator integrates power
exactly instead, so under every governor the Lab builds, a run's
reported energy must be that integral: the left-to-right fold of the
power segments its board appended, split by tag, over segments that
tile the run's simulated time with no gap and no overlap.
"""

import pytest

from repro.analysis.harness import GOVERNOR_NAMES, Lab
from repro.runtime.executor import TaskLoopRunner
from tests.platform.segments import record_segments

GOVERNORS = (*GOVERNOR_NAMES, "prediction-batch8")
TAGS = ("job", "predictor", "switch", "idle")


@pytest.fixture(scope="module")
def governed_run():
    """``governed_run(name)``: a 40-job ``sha`` run under ``name`` with
    idling on, as (board, result, the segments the board appended)."""
    lab = Lab(switch_samples=20)
    runs = {}

    def run(governor_name):
        if governor_name not in runs:
            app = lab.app("sha")
            board = lab.make_board(run_seed=5)
            segments = record_segments(board)
            result = TaskLoopRunner(
                board,
                app.task,
                lab.make_governor(governor_name, "sha"),
                app.inputs(40, seed=3),
                interpreter=lab.interpreter,
                idle=True,
            ).run()
            runs[governor_name] = (board, result, segments)
        return runs[governor_name]

    return run


@pytest.mark.parametrize("governor", GOVERNORS)
def test_run_energy_is_the_fold_of_its_segments(governed_run, governor):
    """Bit-exact: the timeline folds the same segment energies in the
    same order from 0.0 as ``sum`` does."""
    _, result, segments = governed_run(governor)
    assert {segment.tag for segment in segments} <= set(TAGS)
    assert result.energy_j == sum(segment.energy_j for segment in segments)
    for tag in TAGS:
        assert result.energy_by_tag[tag] == sum(
            segment.energy_j for segment in segments if segment.tag == tag
        )


@pytest.mark.parametrize("governor", GOVERNORS)
def test_segments_tile_the_run(governed_run, governor):
    """Every simulated second is charged once, and every counted DVFS
    switch is charged as one segment."""
    board, result, segments = governed_run(governor)
    assert result.n_jobs == 40
    assert segments[0].start_s == 0.0
    for before, after in zip(segments, segments[1:]):
        assert after.start_s == before.end_s
    assert segments[-1].end_s == board.now
    assert board.switch_count == sum(
        1 for segment in segments if segment.tag == "switch"
    )
