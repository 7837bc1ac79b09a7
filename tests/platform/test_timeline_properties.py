"""Property tests for the Timeline's running energy accumulators.

The energy-attribution ledger leans on one identity: the per-tag
marginals the Timeline maintains must tile the total exactly — every
joule belongs to exactly one tag, including the untagged (``""``) and
zero-duration segments the platform emits around instantaneous events.
Hypothesis drives arbitrary contiguous segment streams through the
accumulators and holds the partition to the recomputed ground truth.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.sensor import PowerSegment, Timeline

TAGS = ("", "job", "idle", "switch", "predictor", "weird tag")

segment_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.sampled_from(TAGS),
    ),
    min_size=0,
    max_size=60,
)


def _build(specs):
    """A contiguous timeline from (duration, power, tag) triples, and the
    segments appended to it."""
    timeline = Timeline()
    segments = []
    t = 0.0
    for duration, power, tag in specs:
        segments.append(
            PowerSegment(start_s=t, end_s=t + duration, power_w=power, tag=tag)
        )
        timeline.append(segments[-1])
        t += duration
    return timeline, segments


@settings(max_examples=200, deadline=None)
@given(segment_specs)
def test_tag_energies_tile_the_total(specs):
    """Summing total_energy_j(tag) over the tags recovers total_energy_j().

    The per-tag and grand-total accumulators fold the same segment
    energies in different association orders, so equality is up to
    float reassociation — pinned tight, not approximately.
    """
    timeline, _ = _build(specs)
    by_tag = sum(timeline.total_energy_j(tag) for tag in TAGS)
    assert math.isclose(
        by_tag, timeline.total_energy_j(), rel_tol=1e-12, abs_tol=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(segment_specs)
def test_accumulators_match_recomputation(specs):
    """The O(1) running totals equal an O(n) fold over the segments.

    Both sides add the same energies left to right from 0.0, so this
    is exact equality, not closeness.
    """
    timeline, segments = _build(specs)
    assert timeline.total_energy_j() == sum(s.energy_j for s in segments)
    for tag in TAGS:
        assert timeline.total_energy_j(tag) == sum(
            s.energy_j for s in segments if s.tag == tag
        )


def test_empty_timeline_is_all_zero():
    timeline = Timeline()
    assert timeline.total_energy_j() == 0.0
    assert timeline.total_energy_j("job") == 0.0


def test_zero_duration_segments_carry_no_energy():
    """Instantaneous segments carry no energy, whatever their power."""
    timeline = Timeline()
    timeline.append(PowerSegment(0.0, 0.0, power_w=3.0, tag="switch"))
    timeline.append(PowerSegment(0.0, 1.0, power_w=2.0, tag="job"))
    timeline.append(PowerSegment(1.0, 1.0, power_w=5.0, tag="switch"))
    assert timeline.total_energy_j("switch") == 0.0
    assert timeline.total_energy_j() == 2.0
    assert sum(
        timeline.total_energy_j(tag) for tag in ("switch", "job")
    ) == timeline.total_energy_j()
