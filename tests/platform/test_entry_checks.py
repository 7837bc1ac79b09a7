"""The platform refuses a value that is not a number it can simulate
where the value enters, with one line naming the owner and the field.

Past the entry the board folds its segments unchecked, so a NaN or an
infinity let in here would turn simulated time and energy into NaN or
infinity without an error.
"""

import math

import pytest

from repro.platform.board import Board
from repro.platform.clock import VirtualClock
from repro.platform.cpu import Work
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import (
    OperatingPoint,
    OppTable,
    default_xu3_a7_table,
    default_xu3_a15_table,
)
from repro.platform.power import PowerModel
from repro.platform.switching import SwitchLatencyModel

NAN, INF = math.nan, math.inf
A7 = default_xu3_a7_table()


def _table(freq_hz, voltage_v):
    return OppTable(
        [
            OperatingPoint(0, 200e6, 0.9),
            OperatingPoint(1, freq_hz, voltage_v),
        ]
    )


REFUSED = {
    "busy_run nan": (lambda: Board().busy_run(NAN, tag="job"),
                     "Board.busy_run: duration_s"),
    "busy_run inf": (lambda: Board().busy_run(INF, tag="job"),
                     "Board.busy_run: duration_s"),
    "busy_run negative": (lambda: Board().busy_run(-1.0, tag="job"),
                          "Board.busy_run: duration_s"),
    "idle_until nan": (lambda: Board().idle_until(NAN),
                       "Board.idle_until: time_s"),
    "idle_until inf": (lambda: Board().idle_until(INF),
                       "Board.idle_until: time_s"),
    "clock start nan": (lambda: VirtualClock(NAN), "VirtualClock: start_s"),
    "clock start inf": (lambda: VirtualClock(INF), "VirtualClock: start_s"),
    "advance nan": (lambda: VirtualClock().advance(NAN),
                    "VirtualClock.advance: duration_s"),
    "advance inf": (lambda: VirtualClock().advance(INF),
                    "VirtualClock.advance: duration_s"),
    "work cycles nan": (lambda: Work(NAN, NAN), "Work: cycles"),
    "work cycles inf": (lambda: Work(INF), "Work: cycles"),
    "work mem nan": (lambda: Work(1.0, NAN), "Work: mem_time_s"),
    "work mem negative": (lambda: Work(1.0, -1.0), "Work: mem_time_s"),
    "power c_eff nan": (lambda: PowerModel(NAN, 0.05),
                        "PowerModel: c_eff_farads"),
    "power c_eff inf": (lambda: PowerModel(INF, 0.05),
                        "PowerModel: c_eff_farads"),
    "power leak nan": (lambda: PowerModel(3e-10, NAN),
                       "PowerModel: i_leak_amps"),
    "power idle nan": (lambda: PowerModel(3e-10, 0.05, NAN),
                       "PowerModel: idle_activity"),
    "jitter sigma nan": (lambda: LogNormalJitter(NAN),
                         "LogNormalJitter: sigma"),
    "jitter sigma inf": (lambda: LogNormalJitter(INF),
                         "LogNormalJitter: sigma"),
    "jitter cap nan": (lambda: LogNormalJitter(0.1, max_factor=NAN),
                       "LogNormalJitter: max_factor"),
    "switch overhead nan": (
        lambda: SwitchLatencyModel(A7, kernel_overhead_s=NAN),
        "SwitchLatencyModel: kernel_overhead_s",
    ),
    "switch settle inf": (
        lambda: SwitchLatencyModel(A7, settle_s_per_volt=INF),
        "SwitchLatencyModel: settle_s_per_volt",
    ),
    "switch noise nan": (
        lambda: SwitchLatencyModel(A7, noise_sigma=NAN),
        "SwitchLatencyModel: noise_sigma",
    ),
    "opp freq nan": (lambda: _table(NAN, 1.0), "OppTable: point 1 freq_hz"),
    "opp freq inf": (lambda: _table(INF, 1.0), "OppTable: point 1 freq_hz"),
    "opp voltage nan": (lambda: _table(400e6, NAN),
                        "OppTable: point 1 voltage_v"),
    "opp voltage zero": (lambda: _table(400e6, 0.0),
                         "OppTable: point 1 voltage_v"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_with_one_line_naming_owner_and_field(case):
    build, prefix = REFUSED[case]
    with pytest.raises(ValueError) as excinfo:
        build()
    message = str(excinfo.value)
    assert message.startswith(prefix), message
    assert "\n" not in message


@pytest.mark.parametrize("duration", [NAN, INF, -1.0])
def test_a_refused_busy_run_leaves_the_board_as_it_was(duration):
    board = Board()
    board.busy_run(0.5, tag="job")
    with pytest.raises(ValueError):
        board.busy_run(duration, tag="job")
    assert board.now == 0.5
    assert board.energy_j() == board.energy_j("job") > 0


@pytest.mark.parametrize("time_s", [NAN, INF, -INF])
def test_a_refused_idle_leaves_the_board_as_it_was(time_s):
    board = Board()
    with pytest.raises(ValueError):
        board.idle_until(time_s)
    assert board.now == 0.0
    assert board.energy_j() == 0.0


def test_board_refuses_a_switch_model_of_another_table():
    """Both tables have 13 levels: lengths alone cannot tell them apart."""
    a15 = default_xu3_a15_table()
    assert len(a15) == len(A7)
    with pytest.raises(ValueError, match="different OPP table"):
        Board(opps=A7, switcher=SwitchLatencyModel(a15))


def test_board_accepts_a_switch_model_of_an_equal_table():
    board = Board(opps=A7, switcher=SwitchLatencyModel(default_xu3_a7_table()))
    assert board.set_frequency(A7.fmin) > 0
