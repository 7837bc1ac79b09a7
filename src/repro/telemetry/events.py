"""Event/span telemetry for the control loop.

The executor and the governors narrate a run through one
:class:`Telemetry` object: per-job spans (``release.wait`` -> ``predict``
-> ``switch`` -> ``execute`` -> ``report``), instant events (drift
alarms, deadline misses, mode changes), and counter samples (current
frequency, residuals, margin).  All timestamps are read off the Board's
*simulated* clock, so a trace lines up exactly with the run's records.

Cost discipline: the default is the :data:`NO_TELEMETRY` singleton,
whose ``enabled`` flag is False and whose methods are no-ops.  Every
instrumentation site guards with ``if telemetry.enabled:`` before
building argument dicts, so a run without tracing pays one attribute
read per site and nothing else (the perf bench asserts <2% wall time).

Events flow into a *sink*.  The default :class:`ListSink` accumulates
in memory for later export (Chrome trace JSON, JSONL, text report — see
:mod:`repro.telemetry.exporters`); :class:`CallbackSink` adapts any
callable, e.g. for streaming to an open file.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # records are built by their writers, not here
    from repro.telemetry.audit import DecisionRecord

#: Shared read-only payload of events built without ``args``.
_NO_ARGS: Mapping[str, Any] = MappingProxyType({})

__all__ = [
    "TraceEvent",
    "TelemetrySink",
    "ListSink",
    "CallbackSink",
    "Telemetry",
    "NullTelemetry",
    "NO_TELEMETRY",
]


class TraceEvent(NamedTuple):
    """One telemetry event, in Chrome trace-event terms.

    A named tuple rather than a frozen dataclass: runs emit several
    events per job, and a tuple builds in a fraction of the time.

    Attributes:
        name: Event label (``job``, ``predict``, ``drift.alarm``, ...).
        phase: ``"X"`` complete span, ``"i"`` instant, ``"C"`` counter.
        ts_s: Start timestamp on the simulated clock, seconds.
        dur_s: Span duration, seconds (0 for instants and counters).
        track: Logical thread lane the event renders on (``job``,
            ``governor``, ``online``, ...).
        category: Comma-free category tag for trace-viewer filtering.
        args: Small JSON-safe payload shown in the viewer's detail pane.
    """

    name: str
    phase: str
    ts_s: float
    dur_s: float = 0.0
    track: str = "job"
    category: str = "run"
    args: Mapping[str, Any] = _NO_ARGS


#: Builds an event from all seven fields without the named tuple's
#: Python-level ``__new__`` (the emitters always pass every field).
_new_event = tuple.__new__


class TelemetrySink:
    """Receives every event a :class:`Telemetry` emits."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError


class ListSink(TelemetrySink):
    """Accumulates events in memory (the default; exporters read it)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class CallbackSink(TelemetrySink):
    """Adapts a callable into a sink (streaming, tee-ing, filtering)."""

    def __init__(self, callback: Callable[[TraceEvent], None]):
        self.callback = callback

    def emit(self, event: TraceEvent) -> None:
        self.callback(event)


class Telemetry:
    """One run's telemetry pipeline: events, metrics, decision audit.

    Attributes:
        name: Run label (used for export file names and trace metadata).
        sink: Destination for events (default: in-memory list).
        metrics: The run's :class:`~repro.telemetry.metrics.MetricsRegistry`.
        decisions: Ordered governor decision audit log.
        enabled: Always True here; the :data:`NO_TELEMETRY` twin is the
            off switch.
    """

    enabled = True

    def __init__(self, sink: TelemetrySink | None = None, name: str = "run"):
        # Also an instance attribute: every instrumentation site reads
        # it, and CPython reads an instance's own attribute faster than
        # one it finds on the class.
        self.enabled = True
        self.name = name
        self.sink = sink if sink is not None else ListSink()
        self.metrics = MetricsRegistry()
        self.decisions: list[DecisionRecord] = []
        self._last_decision_index: int | None = None

    @property
    def events(self) -> list[TraceEvent]:
        """The collected events (only for the in-memory ListSink).

        Tee/wrapper sinks (e.g. the watchdog's) are unwrapped through
        their ``inner`` attribute, so attaching a watchdog does not cost
        a run its exporters.
        """
        sink = self.sink
        while not isinstance(sink, ListSink):
            inner = getattr(sink, "inner", None)
            if inner is None:
                raise TypeError(
                    f"events are not retained by {type(sink).__name__}; "
                    "use a ListSink to buffer them"
                )
            sink = inner
        return sink.events

    # -- emission --------------------------------------------------------------
    def span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        track: str = "job",
        category: str = "run",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """A completed span [start_s, end_s] on the simulated clock."""
        duration = end_s - start_s
        self.sink.emit(
            _new_event(
                TraceEvent,
                (
                    name,
                    "X",
                    start_s,
                    0.0 if duration < 0.0 else duration,
                    track,
                    category,
                    args if args is not None else {},
                ),
            )
        )

    def instant(
        self,
        name: str,
        ts_s: float,
        *,
        track: str = "job",
        category: str = "run",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """A point-in-time marker (drift alarm, deadline miss, ...)."""
        self.sink.emit(
            _new_event(
                TraceEvent,
                (
                    name,
                    "i",
                    ts_s,
                    0.0,
                    track,
                    category,
                    args if args is not None else {},
                ),
            )
        )

    def counter(self, name: str, ts_s: float, value: float) -> None:
        """A sampled numeric series (frequency, residual, margin)."""
        self.sink.emit(
            _new_event(
                TraceEvent,
                (name, "C", ts_s, 0.0, name, "counter", {"value": value}),
            )
        )

    # -- decision audit --------------------------------------------------------
    def record_decision(self, record: DecisionRecord) -> None:
        """Append to the audit log and mirror an instant on the trace."""
        self.decisions.append(record)
        self._last_decision_index = record.job_index
        self.instant(
            "decision",
            record.t_s,
            track="governor",
            category="decision",
            # Scalars only: the full provenance payload would bloat the
            # Chrome trace; it ships in the decisions log instead.
            args=record.summary_dict(),
        )

    def has_decision_for(self, job_index: int) -> bool:
        """Whether the governor already audited this job's decision."""
        return self._last_decision_index == job_index

    # -- export shortcuts ------------------------------------------------------
    def chrome_trace(self) -> dict:
        """This run as a Chrome trace-event JSON object (Perfetto-ready)."""
        from repro.telemetry.exporters import chrome_trace

        return chrome_trace(self.events, name=self.name)

    def events_jsonl(self) -> str:
        """This run's events as one JSON object per line."""
        from repro.telemetry.exporters import events_jsonl

        return events_jsonl(self.events)

    def report(self) -> str:
        """Plain-text run summary (spans, metrics, decisions)."""
        from repro.telemetry.report import render_report

        return render_report(self)


class NullTelemetry:
    """The no-op twin of :class:`Telemetry` — the zero-cost default.

    ``enabled`` is False, so instrumentation sites skip argument
    construction entirely; the methods exist (and do nothing) so
    unguarded calls are still safe.  The export surface exists too and
    yields valid *empty* artifacts, so code that unconditionally writes
    a run's trace files (e.g. :func:`~repro.telemetry.exporters.
    write_run`) need not special-case the disabled pipeline.
    """

    enabled = False
    name = "off"
    decisions: tuple = ()
    events: tuple = ()

    def __init__(self) -> None:
        self.enabled = False  # an instance attribute, as in Telemetry

    def span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def instant(self, *args: Any, **kwargs: Any) -> None:
        pass

    def counter(self, *args: Any, **kwargs: Any) -> None:
        pass

    def record_decision(self, record: DecisionRecord) -> None:
        pass

    def has_decision_for(self, job_index: int) -> bool:
        return True  # suppresses the executor's fallback audit path

    # -- export shortcuts (valid, empty) ---------------------------------------
    def chrome_trace(self) -> dict:
        from repro.telemetry.exporters import chrome_trace

        return chrome_trace((), name=self.name)

    def events_jsonl(self) -> str:
        from repro.telemetry.exporters import events_jsonl

        return events_jsonl(())

    def report(self) -> str:
        from repro.telemetry.report import render_report

        return render_report(self)


class _NullMetric:
    """Accepts any write and ignores it."""

    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullMetricsRegistry:
    """Registry stand-in for :class:`NullTelemetry` (never accumulates)."""

    _metric = _NullMetric()

    def counter(self, name: str) -> _NullMetric:
        return self._metric

    def gauge(self, name: str) -> _NullMetric:
        return self._metric

    def histogram(self, name: str, bounds=None) -> _NullMetric:
        return self._metric

    def as_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NullTelemetry.metrics = _NullMetricsRegistry()

#: Shared disabled pipeline; the executor default.  Stateless, so one
#: instance serves every run.
NO_TELEMETRY = NullTelemetry()
