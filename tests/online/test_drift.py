"""Tests for the Page–Hinkley drift detector."""

import random

import pytest

from repro.online.drift import PageHinkleyDetector


def stationary(n, seed=0, level=0.0, noise=0.02):
    rng = random.Random(seed)
    return [max(0.0, level + rng.gauss(0.0, noise)) for _ in range(n)]


def detector(delta=0.05, threshold=0.4, min_samples=10):
    """The adaptive governor's residual detector by default."""
    return PageHinkleyDetector(
        delta=delta, threshold=threshold, min_samples=min_samples
    )


class TestPageHinkley:
    def test_quiet_on_stationary_stream(self):
        assert not any(detector().update(x) for x in stationary(500))

    def test_flags_upward_shift(self):
        ph = detector()
        for x in stationary(100):
            assert not ph.update(x)
        flagged = [ph.update(x) for x in stationary(60, level=0.3)]
        assert any(flagged)

    def test_min_samples_gates_early_alarms(self):
        ph = detector(delta=0.0, threshold=0.01, min_samples=10)
        flags = [ph.update(float(i)) for i in range(10)]
        # The rising stream would alarm from its second sample.
        assert flags == [False] * 9 + [True]

    def test_reset_clears_statistic(self):
        ph = detector(delta=0.0)
        for x in stationary(50, level=0.2):
            ph.update(x)
        assert ph.statistic > 0.0
        ph.reset()
        assert ph.statistic == 0.0

    def test_adapts_to_chronic_constant_bias(self):
        """A constant offset becomes the running mean: no repeated alarm."""
        flags = [detector().update(x) for x in stationary(500, level=0.08)]
        assert not any(flags[100:])

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            detector(delta=-0.1)
        with pytest.raises(ValueError):
            detector(threshold=0.0)
        with pytest.raises(ValueError):
            detector(min_samples=0)

