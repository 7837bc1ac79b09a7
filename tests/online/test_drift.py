"""Tests for the Page–Hinkley drift detector."""

import random

import pytest

from repro.online.drift import PageHinkleyDetector


def stationary(n, seed=0, level=0.0, noise=0.02):
    rng = random.Random(seed)
    return [max(0.0, level + rng.gauss(0.0, noise)) for _ in range(n)]


class TestPageHinkley:
    def test_quiet_on_stationary_stream(self):
        detector = PageHinkleyDetector(delta=0.05, threshold=0.4)
        assert not any(detector.update(x) for x in stationary(500))

    def test_flags_upward_shift(self):
        detector = PageHinkleyDetector(delta=0.05, threshold=0.4)
        for x in stationary(100):
            assert not detector.update(x)
        flagged = [detector.update(x) for x in stationary(60, level=0.3)]
        assert any(flagged)

    def test_min_samples_gates_early_alarms(self):
        detector = PageHinkleyDetector(
            delta=0.0, threshold=0.01, min_samples=10
        )
        flags = [detector.update(1.0) for _ in range(9)]
        assert not any(flags)

    def test_reset_clears_statistic(self):
        detector = PageHinkleyDetector(delta=0.0)
        for x in stationary(50, level=0.2):
            detector.update(x)
        assert detector.statistic > 0.0
        detector.reset()
        assert detector.statistic == 0.0

    def test_adapts_to_chronic_constant_bias(self):
        """A constant offset becomes the running mean: no repeated alarm."""
        detector = PageHinkleyDetector(delta=0.05, threshold=0.4)
        flags = [detector.update(x) for x in stationary(500, level=0.08)]
        assert not any(flags[100:])

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            PageHinkleyDetector(delta=-0.1)
        with pytest.raises(ValueError):
            PageHinkleyDetector(threshold=0.0)
        with pytest.raises(ValueError):
            PageHinkleyDetector(min_samples=0)

