"""The fleet's one-pass SLO fold equals the streaming tracker.

A fleet session rolls its observations up with
:func:`~repro.telemetry.slo.fold_state` instead of stepping an
:class:`~repro.telemetry.slo.SloTracker` per spec.  The tracker stays
the watchdog's streaming path and the reference: on random streams of
every signal, with unobservable jobs, alerts that fire, clear and fire
again, and windows both longer and shorter than the stream, the fold
must give the tracker's state exactly, alerts (burn rates, budget and
message) included.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.slo import (
    SIGNALS,
    BurnWindow,
    JobObservation,
    SloSpec,
    SloTracker,
    fold_state,
)

NAN = math.nan


def _tracked(spec, observations):
    tracker = SloTracker(spec)
    for obs in observations:
        tracker.observe(obs)
    return tracker.state()


def _same(folded, tracked):
    """Equal down to the float bits and the flags' types."""
    return repr(folded) == repr(tracked)


def _observations(rows):
    return [
        JobObservation(
            index=i,
            t_s=0.05 * (i + 1),
            missed=missed,
            slack_s=slack,
            energy_j=energy,
            residual_rel=residual,
        )
        for i, (missed, slack, energy, residual) in enumerate(rows)
    ]


def _spec(signal="deadline_miss", objective=0.1, threshold=0.0, windows=((4, 2.0),)):
    return SloSpec(
        name="fold",
        signal=signal,
        objective=objective,
        threshold=threshold,
        windows=tuple(BurnWindow(jobs=j, max_burn_rate=r) for j, r in windows),
    )


# Values straddle every spec's threshold; NaN makes a job unobservable
# for the energy and under-estimate signals.
rows = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from([-0.01, 0.0, 0.002, 0.01]),
        st.sampled_from([NAN, 0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([NAN, -0.2, 0.0, 0.1, 0.3]),
    ),
    max_size=60,
)
specs = st.builds(
    _spec,
    signal=st.sampled_from(SIGNALS),
    objective=st.sampled_from([0.02, 0.05, 0.1, 0.25, 0.5]),
    threshold=st.sampled_from([0.0, 0.002, 0.1, 1.0]),
    windows=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=25),
            st.sampled_from([0.5, 1.0, 2.0, 4.0, 9.0]),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda window: window[0],
    ).map(tuple),
)


@settings(max_examples=400, deadline=None)
@given(spec=specs, rows=rows)
def test_fold_equals_tracker(spec, rows):
    observations = _observations(rows)
    assert _same(fold_state(spec, observations), _tracked(spec, observations))


def test_alert_fires_clears_and_fires_again():
    spec = _spec(windows=((4, 2.0), (2, 4.0)))
    missed = [True, True, False, False, False, True, True, False, True, True]
    observations = _observations((m, 0.0, NAN, NAN) for m in missed)
    state = fold_state(spec, observations)
    # Fires at job 1, clears at job 3, fires again at job 5.
    assert [alert.job_index for alert in state.alerts] == [1, 5]
    assert _same(state, _tracked(spec, observations))


def test_unobservable_jobs_are_skipped():
    spec = _spec(signal="under_estimate", threshold=0.1, windows=((3, 2.0),))
    residuals = [0.3, NAN, 0.3, NAN, NAN, 0.3, 0.0, NAN, 0.3, 0.3]
    observations = _observations((False, 0.0, NAN, r) for r in residuals)
    state = fold_state(spec, observations)
    assert state.jobs == 6
    assert [alert.job_index for alert in state.alerts] == [5]
    assert _same(state, _tracked(spec, observations))


def test_windows_longer_and_shorter_than_the_stream():
    spec = _spec(windows=((40, 2.0), (3, 4.0)))
    observations = _observations((True, 0.0, NAN, NAN) for _ in range(10))
    state = fold_state(spec, observations)
    assert [len(ring) for ring in state.rings] == [10, 3]
    assert len(state.alerts) == 1
    assert _same(state, _tracked(spec, observations))


def test_empty_stream():
    spec = _spec()
    assert _same(fold_state(spec, []), SloTracker(spec).state())
