"""Tests for the CMOS power model."""

import pytest

from repro.platform.opp import OperatingPoint
from repro.platform.power import PowerModel, default_a7_power_model

LOW = OperatingPoint(0, 200e6, 0.90)
HIGH = OperatingPoint(12, 1400e6, 1.25)


class TestValidation:
    def test_rejects_non_positive_capacitance(self):
        with pytest.raises(ValueError):
            PowerModel(c_eff_farads=0.0, i_leak_amps=0.01)

    def test_rejects_negative_leakage(self):
        with pytest.raises(ValueError):
            PowerModel(c_eff_farads=1e-10, i_leak_amps=-1.0)

    def test_rejects_bad_idle_activity(self):
        with pytest.raises(ValueError):
            PowerModel(1e-10, 0.01, idle_activity=1.5)

    def test_rejects_activity_out_of_range(self):
        model = default_a7_power_model()
        with pytest.raises(ValueError):
            model.dynamic_power(HIGH, activity=1.0001)
        with pytest.raises(ValueError):
            model.dynamic_power(HIGH, activity=-0.1)


class TestPhysics:
    def test_dynamic_power_scales_with_v_squared_f(self):
        model = PowerModel(c_eff_farads=1e-10, i_leak_amps=0.0)
        assert model.power(HIGH) == pytest.approx(1e-10 * 1.25**2 * 1.4e9)

    def test_power_monotone_in_frequency(self):
        model = default_a7_power_model()
        assert model.power(HIGH) > model.power(LOW)

    def test_zero_activity_leaves_only_leakage(self):
        model = default_a7_power_model()
        assert model.power(HIGH, activity=0.0) == pytest.approx(
            model.leakage_power(HIGH)
        )

    def test_leakage_proportional_to_voltage(self):
        model = PowerModel(c_eff_farads=1e-10, i_leak_amps=0.04)
        assert model.leakage_power(HIGH) == pytest.approx(0.04 * 1.25)

    def test_idle_power_between_leakage_and_full(self):
        model = default_a7_power_model()
        assert (
            model.leakage_power(HIGH)
            < model.power(HIGH, model.idle_activity)
            < model.power(HIGH, 1.0)
        )

    def test_race_to_idle_is_not_free(self):
        """Running fast then idling costs more energy than running slow.

        This is the entire premise of DVFS for deadline tasks: the V^2
        factor makes 'slow and steady' cheaper than 'sprint and wait'.
        """
        model = default_a7_power_model()
        cycles = 1e7
        budget_s = cycles / LOW.freq_hz  # just fits at the low OPP
        slow_energy = model.power(LOW, 1.0) * budget_s
        sprint_s = cycles / HIGH.freq_hz
        sprint_energy = model.power(HIGH, 1.0) * sprint_s + model.power(
            HIGH, model.idle_activity
        ) * (budget_s - sprint_s)
        assert slow_energy < sprint_energy


class TestDefaults:
    def test_default_full_power_realistic(self):
        model = default_a7_power_model()
        watts = model.power(HIGH, 1.0)
        assert 0.4 < watts < 1.2  # Cortex-A7 cluster ballpark

    def test_default_low_power_realistic(self):
        model = default_a7_power_model()
        watts = model.power(LOW, 1.0)
        assert 0.03 < watts < 0.3
