"""Telemetry for the control loop: spans, metrics, audits, exporters.

The subsystem that makes a run *observable*: per-job spans on the
simulated clock, a metrics registry (counters, gauges, fixed-bucket
histograms), a governor decision audit log, and exporters to Chrome
trace-event JSON (Perfetto), JSONL, and plain-text reports.

The runtime, the governors, and the online-adaptation loop all write
into one :class:`~repro.telemetry.events.Telemetry` per run, and
:data:`~repro.telemetry.events.NO_TELEMETRY` is the zero-cost default
when tracing is off.  Nothing in the subsystem imports the governors or
the runtime.  The audit schema (:mod:`~repro.telemetry.audit`) and the
provenance engine (:mod:`~repro.telemetry.provenance`, the one module
here that needs numpy) load only when a run binds an enabled telemetry.
Schema-v2 decision records add full provenance — per-feature
attribution, coefficient snapshots, and the OPP ladder — consumed by
``repro explain`` / ``repro replay`` / ``repro diff-decisions``.  See
``docs/telemetry.md`` and ``docs/decision_provenance.md``.
"""
