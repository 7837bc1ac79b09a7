"""Tests for the event/span API and its no-op default."""

import pytest

from repro.telemetry.audit import DecisionRecord
from repro.telemetry.events import (
    CallbackSink,
    ListSink,
    NO_TELEMETRY,
    NullTelemetry,
    Telemetry,
)


class TestEmission:
    def test_span_records_duration(self):
        tel = Telemetry()
        tel.span("execute", 1.0, 1.25, args={"job": 3})
        (event,) = tel.events
        assert event.name == "execute"
        assert event.phase == "X"
        assert event.ts_s == 1.0
        assert event.dur_s == pytest.approx(0.25)
        assert event.args == {"job": 3}

    def test_span_clamps_negative_duration(self):
        tel = Telemetry()
        tel.span("weird", 2.0, 1.0)
        assert tel.events[0].dur_s == 0.0

    def test_instant_and_counter_phases(self):
        tel = Telemetry()
        tel.instant("drift.alarm", 0.5)
        tel.counter("freq_mhz", 0.6, 800.0)
        assert [e.phase for e in tel.events] == ["i", "C"]
        assert tel.events[1].args == {"value": 800.0}

    def test_events_preserve_order(self):
        tel = Telemetry()
        for i in range(5):
            tel.instant(f"e{i}", float(i))
        assert [e.name for e in tel.events] == [f"e{i}" for i in range(5)]

    def test_callback_sink_streams(self):
        seen = []
        tel = Telemetry(sink=CallbackSink(seen.append))
        tel.instant("x", 0.0)
        assert len(seen) == 1
        with pytest.raises(TypeError, match="not retained"):
            tel.events

    def test_default_sink_is_list(self):
        assert isinstance(Telemetry().sink, ListSink)


class TestDecisionAudit:
    def test_record_appends_and_mirrors_instant(self):
        tel = Telemetry()
        tel.record_decision(
            DecisionRecord(job_index=4, t_s=1.5, governor="g", opp_mhz=800.0)
        )
        assert len(tel.decisions) == 1
        (event,) = tel.events
        assert event.name == "decision"
        assert event.track == "governor"
        assert event.args["opp_mhz"] == 800.0

    def test_has_decision_tracks_last_index(self):
        tel = Telemetry()
        assert not tel.has_decision_for(0)
        tel.record_decision(
            DecisionRecord(job_index=0, t_s=0.0, governor="g", opp_mhz=None)
        )
        assert tel.has_decision_for(0)
        assert not tel.has_decision_for(1)

    def test_record_as_dict_maps_nan_to_none(self):
        record = DecisionRecord(
            job_index=0, t_s=0.0, governor="g", opp_mhz=None
        )
        data = record.as_dict()
        assert data["predicted_time_s"] is None
        assert data["margin"] is None
        assert data["opp_mhz"] is None

    @pytest.mark.parametrize("opp_mhz", [800.0, None])
    def test_bare_record_is_the_constructed_one(self, opp_mhz):
        """Same fields, default objects, field order and fresh features."""
        fields = dict(
            job_index=3,
            t_s=0.25,
            governor="g",
            opp_mhz=opp_mhz,
            predicted_time_s=0.02,
            energy_j=1.5,
        )
        full = DecisionRecord(**fields)
        bare = DecisionRecord.bare(**fields)
        assert bare == full and repr(bare) == repr(full)
        assert list(vars(bare)) == list(vars(full))
        assert vars(bare)["margin"] is vars(full)["margin"]  # one NaN
        assert bare.features == {}
        assert bare.features is not DecisionRecord.bare(**fields).features
        with pytest.raises(AttributeError):
            bare.margin = 0.0

    def test_bare_refuses_a_field_without_a_plain_default(self):
        """A new field with a factory (or none) fails at import, not as a
        record holding ``dataclasses.MISSING``."""
        from dataclasses import dataclass, field

        from repro.telemetry.audit import _record_defaults

        @dataclass(frozen=True)
        class Grown:
            job_index: int
            features: dict = field(default_factory=dict)
            mode: str = ""
            tags: dict = field(default_factory=dict)

        with pytest.raises(TypeError, match="Grown.tags"):
            _record_defaults(Grown)


class TestNullTelemetry:
    def test_disabled_flag(self):
        assert NO_TELEMETRY.enabled is False
        assert Telemetry().enabled is True

    def test_all_methods_are_noops(self):
        tel = NullTelemetry()
        tel.span("a", 0.0, 1.0)
        tel.instant("b", 0.0)
        tel.counter("c", 0.0, 1.0)
        tel.record_decision(
            DecisionRecord(job_index=0, t_s=0.0, governor="g", opp_mhz=None)
        )
        assert tel.decisions == ()

    def test_null_suppresses_executor_fallback_audit(self):
        # The executor asks has_decision_for() before appending a bare
        # record; the null pipeline must claim "already done".
        assert NO_TELEMETRY.has_decision_for(123)

    def test_null_metrics_never_accumulate(self):
        metrics = NO_TELEMETRY.metrics
        metrics.counter("x").inc()
        metrics.gauge("y").set(5.0)
        metrics.histogram("z").observe(1.0)
        assert metrics.as_dict() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
