"""Tests for the streaming residual statistic (EWMA)."""

import pytest

from repro.online.residuals import Ewma


class TestEwma:
    def test_first_sample_is_taken_verbatim(self):
        ewma = Ewma(0.1)
        assert ewma.value is None
        assert ewma.update(3.0) == 3.0

    def test_moves_toward_new_level(self):
        ewma = Ewma(0.5)
        ewma.update(0.0)
        assert ewma.update(1.0) == pytest.approx(0.5)
        assert ewma.update(1.0) == pytest.approx(0.75)

    def test_alpha_one_follows_the_latest_sample(self):
        ewma = Ewma(1.0)
        for x in (0.3, -2.0, 0.7):
            assert ewma.update(x) == pytest.approx(x)

    def test_get_default_before_any_update(self):
        assert Ewma(0.2).get(default=7.0) == 7.0

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            Ewma(0.0)
        with pytest.raises(ValueError):
            Ewma(1.5)

