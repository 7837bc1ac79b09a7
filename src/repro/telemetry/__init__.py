"""Telemetry for the control loop: spans, metrics, audits, exporters.

The subsystem that makes a run *observable*: per-job spans on the
simulated clock, a metrics registry (counters, gauges, fixed-bucket
histograms), a governor decision audit log, and exporters to Chrome
trace-event JSON (Perfetto), JSONL, and plain-text reports.

The subsystem stays import-cycle-free (only the provenance engine pulls
in numpy; nothing here imports the governors or the runtime): the
runtime, the governors, and the online-adaptation loop all write into
one :class:`Telemetry` per run, and :data:`NO_TELEMETRY` is the
zero-cost default when tracing is off.  Schema-v2 decision records add
full provenance — per-feature attribution, coefficient snapshots, and
the OPP ladder — consumed by ``repro explain`` / ``repro replay`` /
``repro diff-decisions``.  See ``docs/telemetry.md`` and
``docs/decision_provenance.md``.
"""

from repro.telemetry.audit import (
    SCHEMA_VERSION,
    AnchorSnapshot,
    DecisionAttribution,
    DecisionRecord,
    LadderRung,
    read_decisions_jsonl,
)
from repro.telemetry.energy import (
    CONSERVATION_TOL_J,
    ENERGY_PHASES,
    NO_ENERGY_LEDGER,
    OVERLAP_PHASE,
    EnergyLedger,
    EnergyState,
    NullEnergyLedger,
    energy_metrics,
    merge_energy,
    register_energy_metrics,
    render_energy,
    render_energy_cells,
    write_energy_report,
)
from repro.telemetry.events import (
    NO_TELEMETRY,
    CallbackSink,
    ListSink,
    NullTelemetry,
    Telemetry,
    TelemetrySink,
    TraceEvent,
)
from repro.telemetry.exporters import (
    TraceSession,
    chrome_trace,
    decisions_jsonl,
    events_jsonl,
    write_run,
)
from repro.telemetry.hostprof import (
    NO_HOSTPROF,
    HostProfiler,
    Hotspot,
    NullHostProfiler,
    ProfileState,
    StackSampler,
    best_of,
    flamegraph_text,
    host_metrics,
    hotspots,
    merge_profiles,
    register_host_metrics,
    render_hotspots,
    render_profile,
    write_host_profile,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    geometric_buckets,
    percentile,
)
from repro.telemetry.openmetrics import (
    openmetrics_directory,
    openmetrics_text,
)
from repro.telemetry.provenance import (
    DecisionDiff,
    Divergence,
    ReplayedDecision,
    ReplayResult,
    build_provenance,
    diff_decisions,
    load_run_decisions,
    predict_anchor,
    render_diff,
    render_explanation,
    render_replay,
    replay_records,
)
from repro.telemetry.report import (
    DirectoryDiff,
    GateResult,
    compare_directories,
    diff_directories,
    gate_directory,
    make_baseline,
    render_report,
    summarize_directory,
)
from repro.telemetry.slo import (
    BurnWindow,
    JobObservation,
    SloAlert,
    SloSpec,
    SloTracker,
    SloTrackerState,
    default_slos,
    merge_states,
)
from repro.telemetry.watch import (
    Watchdog,
    render_dashboard,
)

__all__ = [
    "SCHEMA_VERSION",
    "AnchorSnapshot",
    "DecisionAttribution",
    "DecisionRecord",
    "LadderRung",
    "read_decisions_jsonl",
    "build_provenance",
    "predict_anchor",
    "ReplayedDecision",
    "ReplayResult",
    "replay_records",
    "Divergence",
    "DecisionDiff",
    "diff_decisions",
    "load_run_decisions",
    "render_explanation",
    "render_replay",
    "render_diff",
    "TraceEvent",
    "TelemetrySink",
    "ListSink",
    "CallbackSink",
    "Telemetry",
    "NullTelemetry",
    "NO_TELEMETRY",
    "TraceSession",
    "chrome_trace",
    "events_jsonl",
    "decisions_jsonl",
    "write_run",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "geometric_buckets",
    "percentile",
    "HostProfiler",
    "NullHostProfiler",
    "NO_HOSTPROF",
    "ProfileState",
    "StackSampler",
    "Hotspot",
    "merge_profiles",
    "hotspots",
    "render_hotspots",
    "flamegraph_text",
    "host_metrics",
    "register_host_metrics",
    "render_profile",
    "write_host_profile",
    "best_of",
    "EnergyLedger",
    "NullEnergyLedger",
    "NO_ENERGY_LEDGER",
    "EnergyState",
    "ENERGY_PHASES",
    "OVERLAP_PHASE",
    "CONSERVATION_TOL_J",
    "merge_energy",
    "energy_metrics",
    "register_energy_metrics",
    "render_energy",
    "render_energy_cells",
    "write_energy_report",
    "openmetrics_text",
    "openmetrics_directory",
    "render_report",
    "summarize_directory",
    "diff_directories",
    "compare_directories",
    "DirectoryDiff",
    "GateResult",
    "make_baseline",
    "gate_directory",
    "BurnWindow",
    "JobObservation",
    "SloAlert",
    "SloSpec",
    "SloTracker",
    "SloTrackerState",
    "merge_states",
    "default_slos",
    "Watchdog",
    "render_dashboard",
]
