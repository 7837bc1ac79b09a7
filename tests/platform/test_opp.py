"""Tests for the operating-point table."""

import pytest

from repro.platform.opp import OperatingPoint, OppTable, default_xu3_a7_table


def make_table(freqs_mhz, volts=None):
    if volts is None:
        volts = [1.0] * len(freqs_mhz)
    return OppTable(
        [
            OperatingPoint(index=i, freq_hz=f * 1e6, voltage_v=v)
            for i, (f, v) in enumerate(zip(freqs_mhz, volts))
        ]
    )


class TestOperatingPoint:
    def test_freq_mhz_property(self):
        p = OperatingPoint(0, 700e6, 1.0)
        assert p.freq_mhz == pytest.approx(700.0)

    def test_str_contains_frequency_and_voltage(self):
        p = OperatingPoint(0, 700e6, 1.05)
        assert "700" in str(p)
        assert "1.050" in str(p)

    def test_ordering_follows_index(self):
        lo = OperatingPoint(0, 200e6, 0.9)
        hi = OperatingPoint(1, 300e6, 1.0)
        assert lo < hi


class TestOppTableValidation:
    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            OppTable([])

    def test_indices_must_match_frequency_order(self):
        points = [
            OperatingPoint(1, 200e6, 0.9),
            OperatingPoint(0, 300e6, 1.0),
        ]
        with pytest.raises(ValueError, match="index"):
            OppTable(points)

    def test_duplicate_frequency_rejected(self):
        points = [
            OperatingPoint(0, 200e6, 0.9),
            OperatingPoint(1, 200e6, 1.0),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            OppTable(points)

    def test_decreasing_voltage_rejected(self):
        points = [
            OperatingPoint(0, 200e6, 1.0),
            OperatingPoint(1, 300e6, 0.9),
        ]
        with pytest.raises(ValueError, match="voltage"):
            OppTable(points)

    def test_non_positive_frequency_rejected(self):
        with pytest.raises(ValueError):
            OppTable([OperatingPoint(0, 0.0, 1.0)])

    def test_non_positive_voltage_rejected(self):
        with pytest.raises(ValueError):
            OppTable([OperatingPoint(0, 200e6, 0.0)])

    def test_accepts_unsorted_input_in_frequency_order_indices(self):
        # Points given out of order but with correct frequency-order indices.
        points = [
            OperatingPoint(1, 300e6, 1.0),
            OperatingPoint(0, 200e6, 0.9),
        ]
        table = OppTable(points)
        assert table[0].freq_hz == 200e6


class TestOppTableQueries:
    def test_fmin_fmax(self):
        table = make_table([200, 600, 1400])
        assert table.fmin.freq_mhz == 200
        assert table.fmax.freq_mhz == 1400

    def test_len_and_iteration(self):
        table = make_table([200, 600, 1400])
        assert len(table) == 3
        assert [p.freq_mhz for p in table] == [200, 600, 1400]

    def test_lowest_at_or_above_exact_match(self):
        table = make_table([200, 600, 1400])
        assert table.lowest_at_or_above(600e6).freq_mhz == 600

    def test_lowest_at_or_above_rounds_up(self):
        table = make_table([200, 600, 1400])
        assert table.lowest_at_or_above(601e6).freq_mhz == 1400
        assert table.lowest_at_or_above(100e6).freq_mhz == 200

    def test_lowest_at_or_above_saturates_at_fmax(self):
        table = make_table([200, 600, 1400])
        assert table.lowest_at_or_above(5e9).freq_mhz == 1400

    def test_nearest(self):
        table = make_table([200, 600, 1400])
        assert table.nearest(350e6).freq_mhz == 200
        assert table.nearest(450e6).freq_mhz == 600

    def test_frequencies_ascending(self):
        table = default_xu3_a7_table()
        freqs = [p.freq_hz for p in table]
        assert list(freqs) == sorted(freqs)

    def test_equality_and_hash(self):
        assert make_table([200, 600]) == make_table([200, 600])
        assert hash(make_table([200, 600])) == hash(make_table([200, 600]))
        assert make_table([200, 600]) != make_table([200, 700])


class TestDefaultXu3Table:
    def test_thirteen_levels(self):
        assert len(default_xu3_a7_table()) == 13

    def test_range_200_to_1400(self):
        table = default_xu3_a7_table()
        assert table.fmin.freq_mhz == pytest.approx(200)
        assert table.fmax.freq_mhz == pytest.approx(1400)

    def test_voltage_ramp_monotone(self):
        table = default_xu3_a7_table()
        volts = [p.voltage_v for p in table]
        assert volts == sorted(volts)
        assert volts[0] == pytest.approx(0.90)
        assert volts[-1] == pytest.approx(1.25)
