"""Tests for the DVFS switch latency model and microbenchmark."""

import pytest

from repro.platform.opp import default_xu3_a7_table
from repro.platform.switching import (
    SwitchLatencyModel,
    SwitchTimeTable,
    _normal_quantile,
)

OPPS = default_xu3_a7_table()


class TestNominalLatency:
    def test_same_level_is_free(self):
        model = SwitchLatencyModel(OPPS)
        assert model.nominal_s(OPPS.fmin, OPPS.fmin) == 0.0

    def test_any_real_switch_pays_kernel_overhead(self):
        model = SwitchLatencyModel(OPPS, kernel_overhead_s=1e-4)
        assert model.nominal_s(OPPS[0], OPPS[1]) >= 1e-4

    def test_larger_voltage_swing_costs_more(self):
        model = SwitchLatencyModel(OPPS)
        small = model.nominal_s(OPPS[0], OPPS[1])
        large = model.nominal_s(OPPS[0], OPPS[12])
        assert large > small

    def test_symmetric_in_direction(self):
        model = SwitchLatencyModel(OPPS)
        up = model.nominal_s(OPPS[0], OPPS[12])
        down = model.nominal_s(OPPS[12], OPPS[0])
        assert up == pytest.approx(down)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            SwitchLatencyModel(OPPS, kernel_overhead_s=-1.0)

    def test_magnitudes_match_fig11_range(self):
        """Fig. 11 shows switch times from ~100 us up to ~2.4 ms."""
        model = SwitchLatencyModel(OPPS)
        worst = model.percentile_s(OPPS[0], OPPS[12], 95)
        best = model.nominal_s(OPPS[5], OPPS[6])
        assert 50e-6 < best < 1e-3
        assert 500e-6 < worst < 5e-3


class TestSampling:
    def test_same_level_sample_is_zero(self):
        model = SwitchLatencyModel(OPPS, seed=1)
        assert model.sample_s(OPPS[3], OPPS[3]) == 0.0

    def test_samples_positive(self):
        model = SwitchLatencyModel(OPPS, seed=1)
        assert all(
            model.sample_s(OPPS[0], OPPS[12]) > 0 for _ in range(100)
        )

    def test_seeded_reproducibility(self):
        a = SwitchLatencyModel(OPPS, seed=5)
        b = SwitchLatencyModel(OPPS, seed=5)
        sa = [a.sample_s(OPPS[0], OPPS[12]) for _ in range(10)]
        sb = [b.sample_s(OPPS[0], OPPS[12]) for _ in range(10)]
        assert sa == sb

    def test_percentile_bounds_samples(self):
        model = SwitchLatencyModel(OPPS, seed=9)
        p95 = model.percentile_s(OPPS[0], OPPS[12], 95)
        samples = [model.sample_s(OPPS[0], OPPS[12]) for _ in range(2000)]
        frac_below = sum(s <= p95 for s in samples) / len(samples)
        assert frac_below == pytest.approx(0.95, abs=0.02)

    def test_percentile_range_validated(self):
        model = SwitchLatencyModel(OPPS)
        with pytest.raises(ValueError):
            model.percentile_s(OPPS[0], OPPS[1], 0)
        with pytest.raises(ValueError):
            model.percentile_s(OPPS[0], OPPS[1], 100)


class TestMicrobenchmark:
    def test_table_complete(self):
        model = SwitchLatencyModel(OPPS, seed=2)
        table = model.microbenchmark(samples_per_pair=20)
        matrix = table.as_matrix()
        assert len(matrix) == len(OPPS)
        assert all(len(row) == len(OPPS) for row in matrix)

    def test_diagonal_zero(self):
        table = SwitchLatencyModel(OPPS, seed=2).microbenchmark(20)
        for i, opp in enumerate(OPPS):
            assert table.time_s(opp, opp) == 0.0

    def test_95th_percentile_close_to_analytic(self):
        model = SwitchLatencyModel(OPPS, seed=3)
        table = model.microbenchmark(samples_per_pair=500)
        analytic = model.percentile_s(OPPS[0], OPPS[12], 95)
        empirical = table.time_s(OPPS[0], OPPS[12])
        assert empirical == pytest.approx(analytic, rel=0.25)

    def test_worst_case_near_corner_transition(self):
        """The table corners (full-swing switches) dominate, up to noise."""
        table = SwitchLatencyModel(OPPS, seed=4).microbenchmark(50)
        worst = max(max(row) for row in table.as_matrix())
        corner = max(
            table.time_s(OPPS[0], OPPS[12]), table.time_s(OPPS[12], OPPS[0])
        )
        assert worst >= corner
        assert worst <= corner * 1.5

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            SwitchLatencyModel(OPPS).microbenchmark(samples_per_pair=0)

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError, match="incomplete"):
            SwitchTimeTable(OPPS, {(0, 0): 0.0})

    def test_negative_time_rejected(self):
        times = {
            (a, b): 1e-3 for a in range(len(OPPS)) for b in range(len(OPPS))
        }
        times[(0, 1)] = -1e-3
        with pytest.raises(ValueError, match="negative"):
            SwitchTimeTable(OPPS, times)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), "0.001", None, True],
        ids=["nan", "inf", "string", "none", "bool"],
    )
    def test_non_finite_or_non_numeric_time_rejected(self, bad):
        """Only finite, non-negative seconds: a NaN would silently drop
        out of any maximum over the table, and a string or null from a hand-edited
        controller file must be a ValueError naming the pair, not a
        TypeError."""
        times = {
            (a, b): 1e-3 for a in range(len(OPPS)) for b in range(len(OPPS))
        }
        times[(3, 5)] = bad
        with pytest.raises(ValueError, match=r"\(3, 5\)"):
            SwitchTimeTable(OPPS, times)


class TestNormalQuantile:
    @pytest.mark.parametrize(
        "p,z",
        [(0.5, 0.0), (0.95, 1.6449), (0.975, 1.9600), (0.05, -1.6449),
         (0.001, -3.0902), (0.999, 3.0902)],
    )
    def test_known_values(self, p, z):
        assert _normal_quantile(p) == pytest.approx(z, abs=1e-3)

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            _normal_quantile(0.0)
        with pytest.raises(ValueError):
            _normal_quantile(1.0)
