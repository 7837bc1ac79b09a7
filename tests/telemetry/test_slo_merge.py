"""Mergeable SLO tracker state: merge == track-the-concatenated-stream.

The fleet roll-up depends on one identity: folding per-shard tracker
snapshots together must produce exactly the accounting a single tracker
would hold after observing the shards' streams back to back.  The
hypothesis properties here pin that identity for jobs/bad counts, the
error budget, and every windowed burn rate; the unit tests cover the
state checks and the resume path.
"""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.slo import (
    BurnWindow,
    JobObservation,
    SloSpec,
    SloTracker,
    SloTrackerState,
    merge_states,
)


def _spec(objective=0.1, windows=((8, 2.0), (3, 4.0)), signal="deadline_miss"):
    return SloSpec(
        name="merge-test",
        signal=signal,
        objective=objective,
        windows=tuple(
            BurnWindow(jobs=j, max_burn_rate=r) for j, r in windows
        ),
    )


def _observe_stream(spec, stream, start_index=0):
    tracker = SloTracker(spec)
    for i, missed in enumerate(stream):
        tracker.observe(
            JobObservation(
                index=start_index + i,
                t_s=float(start_index + i),
                missed=missed,
                slack_s=-0.01 if missed else 0.01,
            )
        )
    return tracker


streams = st.lists(st.booleans(), min_size=0, max_size=40)
specs = st.builds(
    _spec,
    objective=st.floats(min_value=0.01, max_value=0.5),
    windows=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=25),
            st.floats(min_value=0.5, max_value=10.0),
        ),
        min_size=1,
        max_size=3,
        # A spec refuses two windows of one length.
        unique_by=lambda window: window[0],
    ).map(tuple),
)


class TestMergeEqualsConcatenation:
    @settings(max_examples=200, deadline=None)
    @given(spec=specs, a=streams, b=streams)
    def test_merged_state_equals_concatenated_stream(self, spec, a, b):
        state_a = _observe_stream(spec, a).state()
        state_b = _observe_stream(spec, b, start_index=len(a)).state()
        merged = merge_states(state_a, state_b)
        concatenated = _observe_stream(spec, a + b).state()

        assert merged.jobs == concatenated.jobs
        assert merged.bad == concatenated.bad
        assert merged.rings == concatenated.rings
        assert merged.burn_rates() == concatenated.burn_rates()
        assert merged.budget_consumed == pytest.approx(
            concatenated.budget_consumed
        )
        assert merged.exceeding == concatenated.exceeding

    @settings(max_examples=50, deadline=None)
    @given(spec=specs, a=streams, b=streams, c=streams)
    def test_merge_is_associative(self, spec, a, b, c):
        sa = _observe_stream(spec, a).state()
        sb = _observe_stream(spec, b).state()
        sc = _observe_stream(spec, c).state()
        left = merge_states(merge_states(sa, sb), sc)
        right = merge_states(sa, merge_states(sb, sc))
        assert left.jobs == right.jobs
        assert left.bad == right.bad
        assert left.rings == right.rings

    @settings(max_examples=100, deadline=None)
    @given(spec=specs, parts=st.lists(streams, min_size=1, max_size=6))
    def test_one_pass_merge_equals_pairwise_and_concatenation(
        self, spec, parts
    ):
        states, start = [], 0
        for part in parts:
            states.append(_observe_stream(spec, part, start).state())
            start += len(part)
        merged = merge_states(*states)
        assert merged == reduce(merge_states, states)
        concatenated = _observe_stream(
            spec, [flag for part in parts for flag in part]
        ).state()
        assert merged.jobs == concatenated.jobs
        assert merged.bad == concatenated.bad
        assert merged.rings == concatenated.rings

    @settings(max_examples=50, deadline=None)
    @given(spec=specs, a=streams)
    def test_empty_state_is_identity(self, spec, a):
        empty = SloTracker(spec).state()
        state = _observe_stream(spec, a).state()
        assert merge_states(empty, state).rings == state.rings
        assert merge_states(state, empty).rings == state.rings
        assert merge_states(empty, state).jobs == state.jobs


class TestStateMechanics:
    def test_merge_rejects_mismatched_specs(self):
        a = SloTracker(_spec(objective=0.1)).state()
        b = SloTracker(_spec(objective=0.2)).state()
        with pytest.raises(ValueError, match="different specs"):
            merge_states(a, b)

    def test_state_validates_ring_shape(self):
        spec = _spec(windows=((4, 2.0),))
        with pytest.raises(ValueError, match="rings"):
            SloTrackerState(spec=spec, jobs=0, bad=0, rings=())
        with pytest.raises(ValueError, match="exceeds"):
            SloTrackerState(
                spec=spec, jobs=9, bad=0, rings=((False,) * 9,)
            )

    def test_merged_exceeding_reflects_combined_tails(self):
        """Two calm halves can burn hot combined — the fleet-level case."""
        spec = _spec(objective=0.1, windows=((6, 2.0),))
        a = _observe_stream(
            spec, [False, False, False, False, False, True]
        ).state()
        b = _observe_stream(spec, [True, False, False, False, False]).state()
        assert not a.exceeding  # 1/6 bad -> 1.67x burn
        assert not b.exceeding  # 1/5 bad -> 2.0x burn, not strictly over
        merged = merge_states(a, b)
        # Tail of the concatenation: T T F F F F -> 2/6 bad = 3.3x burn.
        assert merged.exceeding
