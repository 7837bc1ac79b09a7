"""Validation of the sampled power sensor against ground truth.

The paper measures energy with on-board sensors at 213 samples/second
and integrates over time (§5.1).  This suite checks that measurement
methodology against the simulator's exact energy integral on realistic
governed workloads: the paper's sampling rate must recover energy to
within a few percent, and the error must shrink with the rate.
"""

import pytest

from repro.analysis.harness import Lab
from repro.platform.sensor import PowerSensor
from repro.runtime.executor import TaskLoopRunner


def governed_board(governor_name="prediction", app_name="ldecode", n_jobs=60):
    lab = Lab(switch_samples=20)
    app = lab.app(app_name)
    board = lab.make_board(run_seed=5)
    TaskLoopRunner(
        board,
        app.task,
        lab.make_governor(governor_name, app_name),
        app.inputs(n_jobs, seed=3),
        interpreter=lab.interpreter,
    ).run()
    return board


class TestSensorOnGovernedRuns:
    @pytest.fixture(scope="class")
    def board(self):
        return governed_board()

    def test_paper_rate_recovers_energy(self, board):
        """213 Hz sampling reads a DVFS-heavy timeline within ~3%."""
        exact = board.timeline.total_energy_j()
        measured = PowerSensor(sample_hz=213.0).measure_energy_j(
            board.timeline
        )
        assert measured == pytest.approx(exact, rel=0.03)

    def test_error_shrinks_with_rate(self, board):
        exact = board.timeline.total_energy_j()
        errors = []
        for rate in (50.0, 213.0, 2130.0):
            measured = PowerSensor(sample_hz=rate).measure_energy_j(
                board.timeline
            )
            errors.append(abs(measured - exact) / exact)
        assert errors[2] <= errors[0]
        assert errors[2] < 0.01

    def test_sample_count_matches_duration(self, board):
        sensor = PowerSensor(sample_hz=213.0)
        samples = sensor.sample_powers(board.timeline)
        expected = int(board.timeline.end_s * 213.0) + 1
        assert abs(len(samples) - expected) <= 1

    def test_switching_governor_also_measurable(self):
        """The interactive governor's mid-window switches (short, odd-
        length segments) must not break the sampled estimate either."""
        board = governed_board("interactive", "sha", n_jobs=40)
        exact = board.timeline.total_energy_j()
        measured = PowerSensor(sample_hz=213.0).measure_energy_j(
            board.timeline
        )
        assert measured == pytest.approx(exact, rel=0.05)
