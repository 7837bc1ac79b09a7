"""Property tests for the board's running energy totals.

The energy-attribution ledger leans on one identity: the per-tag
marginals the board maintains must tile the total exactly — every joule
belongs to exactly one tag, including the untagged (``""``) and
zero-duration segments the platform emits around instantaneous events.
Hypothesis drives arbitrary streams of busy runs, idles and switches
through a board and holds its totals to a recomputation from the
segments its observer saw.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.board import Board
from repro.platform.opp import default_xu3_a7_table
from repro.platform.switching import SwitchLatencyModel
from tests.platform.segments import record_segments

TAGS = ("", "job", "idle", "switch", "predictor", "weird tag")
OPPS = default_xu3_a7_table()

steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("busy"),
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            st.sampled_from(TAGS),
        ),
        st.tuples(
            st.just("idle"),
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            st.sampled_from(TAGS),
        ),
        st.tuples(
            st.just("switch"),
            st.integers(min_value=0, max_value=len(OPPS) - 1),
            st.sampled_from(TAGS),
        ),
    ),
    min_size=0,
    max_size=60,
)


def _run(steps):
    """A board driven through ``steps``, and the segments it emitted."""
    board = Board(opps=OPPS)
    segments = record_segments(board)
    for kind, value, tag in steps:
        if kind == "busy":
            board.busy_run(value, tag)
        elif kind == "idle":
            board.idle_until(board.now + value, tag)
        else:
            board.set_frequency(OPPS[value], tag)
    return board, segments


@settings(max_examples=200, deadline=None)
@given(steps)
def test_tag_energies_tile_the_total(steps):
    """Summing energy_j(tag) over the tags recovers energy_j().

    The per-tag and grand-total accumulators fold the same segment
    energies in different association orders, so equality is up to
    float reassociation — pinned tight, not approximately.
    """
    board, _ = _run(steps)
    by_tag = sum(board.energy_j(tag) for tag in TAGS)
    assert math.isclose(by_tag, board.energy_j(), rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(steps)
def test_accumulators_match_recomputation(steps):
    """The O(1) running totals equal an O(n) fold over the segments,
    which tile the board's time.

    Both sides add the same energies left to right from 0.0, so this
    is exact equality, not closeness.
    """
    board, segments = _run(steps)
    assert board.energy_j() == sum(s.energy_j for s in segments)
    for tag in TAGS:
        assert board.energy_j(tag) == sum(
            s.energy_j for s in segments if s.tag == tag
        )
    for before, after in zip(segments, segments[1:]):
        assert after.start_s == before.end_s


def test_empty_timeline_is_all_zero():
    board = Board(opps=OPPS)
    assert board.energy_j() == 0.0
    assert board.energy_j("job") == 0.0


def test_zero_duration_segments_carry_no_energy():
    """Instantaneous segments carry no energy, whatever their power."""
    free = SwitchLatencyModel(
        OPPS, kernel_overhead_s=0.0, settle_s_per_volt=0.0
    )
    board = Board(opps=OPPS, switcher=free)
    segments = record_segments(board)
    board.set_frequency(OPPS.fmin)
    board.busy_run(1.0, "job")
    board.set_frequency(OPPS.fmax)
    assert [s.tag for s in segments] == ["switch", "job", "switch"]
    assert all(s.power_w > 0 for s in segments)
    assert board.energy_j("switch") == 0.0
    assert board.energy_j() == segments[1].energy_j
    assert board.energy_j("switch") + board.energy_j("job") == board.energy_j()
