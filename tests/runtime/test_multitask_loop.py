"""A multi-task run steps one single-task runner per stream."""

import pytest

from repro.analysis.harness import Lab
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.multitask import MultiTaskRunner, TaskStream


@pytest.mark.parametrize("governor", ["prediction", "adaptive"])
def test_one_stream_equals_a_task_loop_run(governor):
    """Jitter is drawn where the task loop draws it and feedback is
    charged, so one stream reproduces a single-task run bit for bit."""
    lab = Lab(jitter_sigma=0.02)
    app = lab.app("sha")
    inputs = app.inputs(20, seed=1)
    single = TaskLoopRunner(
        lab.make_board(7),
        app.task,
        lab.make_governor(governor, "sha"),
        inputs,
        interpreter=lab.interpreter,
    ).run()
    (multi,) = MultiTaskRunner(
        lab.make_board(7),
        [TaskStream(app.task, lab.make_governor(governor, "sha"), inputs)],
    ).run().values()
    assert multi.jobs == single.jobs
    assert multi.energy_j == single.energy_j
    assert multi.energy_by_tag == single.energy_by_tag
    assert multi.switch_count == single.switch_count
    adapted = sum(job.adaptation_time_s for job in multi.jobs)
    assert (adapted > 0) == (governor == "adaptive")
