"""Plain-text telemetry reports: run summaries, diffs, regression gates.

Three consumers: :func:`render_report` summarises a live
:class:`~repro.telemetry.events.Telemetry` (span totals, metric
snapshots, audit-log shape) and backs the ``<name>.report.txt`` export;
:func:`summarize_directory` / :func:`compare_directories` power the
``python -m repro report`` subcommand from the ``metrics.json`` files a
:class:`~repro.telemetry.exporters.TraceSession` wrote, so two runs —
say, before and after a controller change — can be compared without
re-simulating either; and :func:`gate_directory` /
:func:`make_baseline` turn the comparison into a CI regression gate
against a *committed* baseline (``BENCH_slo_baseline.json``).

Regressions are directional: a metric name is classified by
:func:`metric_direction` into lower-is-better (misses, energy, any
``*_time_s`` tail), higher-is-better (slack), or neutral (job counts,
residency splits).  Neutral metrics still gate on *any* drift beyond
tolerance — a changed job count means the runs are not comparable at
all.
"""

from __future__ import annotations

import json
import math
import pathlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.checks import check_number

__all__ = [
    "render_report",
    "summarize_directory",
    "compare_directories",
    "metric_direction",
    "MetricDelta",
    "DirectoryDiff",
    "GateFailure",
    "GateResult",
    "make_baseline",
    "gate_directory",
    "GATE_DEFAULT_METRICS",
]


def _table(headers: list[str], rows: list[tuple], title: str = "") -> str:
    """Minimal fixed-width table (kept local: telemetry is zero-dep)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value, unit_ms: bool = False) -> str:
    # None marks "no data" (empty histogram, zero-job run, metric absent
    # on one side of a diff): render n/a rather than crash or mislead.
    if value is None:
        return "n/a"
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value * 1e3:.3f}" if unit_ms else f"{value:.4g}"
    return str(value)


def render_report(telemetry) -> str:
    """One run's telemetry as a human-readable summary."""
    sections = [f"telemetry report: {telemetry.name}"]

    spans: dict[str, list[float]] = defaultdict(list)
    instants: dict[str, int] = defaultdict(int)
    for event in telemetry.events:
        if event.phase == "X":
            spans[event.name].append(event.dur_s)
        elif event.phase == "i" and event.category != "decision":
            instants[event.name] += 1
    if spans:
        rows = [
            (
                name,
                len(durs),
                f"{sum(durs) * 1e3:.3f}",
                f"{sum(durs) / len(durs) * 1e3:.4f}",
                f"{max(durs) * 1e3:.4f}",
            )
            for name, durs in sorted(spans.items())
        ]
        sections.append(
            _table(
                ["span", "count", "total[ms]", "mean[ms]", "max[ms]"],
                rows,
                title="spans",
            )
        )
    if instants:
        rows = [(name, count) for name, count in sorted(instants.items())]
        sections.append(_table(["event", "count"], rows, title="instants"))

    metrics = telemetry.metrics.as_dict()
    if metrics["counters"]:
        rows = [(n, _fmt(v)) for n, v in metrics["counters"].items()]
        sections.append(_table(["counter", "value"], rows, title="counters"))
    if metrics["gauges"]:
        rows = [(n, _fmt(v)) for n, v in metrics["gauges"].items()]
        sections.append(_table(["gauge", "value"], rows, title="gauges"))
    if metrics["histograms"]:
        rows = [
            (
                name,
                h["count"],
                _fmt(h["mean"], unit_ms=True),
                _fmt(h["p50"], unit_ms=True),
                _fmt(h["p95"], unit_ms=True),
                _fmt(h["p99"], unit_ms=True),
                _fmt(h["max"], unit_ms=True),
            )
            for name, h in metrics["histograms"].items()
        ]
        sections.append(
            _table(
                ["histogram", "n", "mean[ms]", "p50[ms]", "p95[ms]",
                 "p99[ms]", "max[ms]"],
                rows,
                title="histograms (values scaled as milliseconds)",
            )
        )

    decisions = list(telemetry.decisions)
    if decisions:
        by_mode: dict[str, int] = defaultdict(int)
        for record in decisions:
            by_mode[record.mode or "-"] += 1
        modes = ", ".join(f"{m}:{c}" for m, c in sorted(by_mode.items()))
        sections.append(
            f"decisions: {len(decisions)} audited (mode {modes})"
        )
    return "\n\n".join(sections)


# -- directory summaries (the `report` subcommand) ----------------------------
def _load_metrics(
    directory: pathlib.Path, runs: str | None = None
) -> dict[str, dict]:
    """All ``<run>.metrics.json`` files in a trace directory, by run.

    Args:
        directory: Trace directory to scan.
        runs: Optional run-name prefix filter (same contract as the
            CLI's ``--runs``): only matching runs load, and it is an
            error for nothing to match — a silent empty slice would
            make a gate or diff vacuously pass.
    """
    loaded = {}
    for path in sorted(directory.glob("*.metrics.json")):
        loaded[path.name[: -len(".metrics.json")]] = json.loads(
            path.read_text()
        )
    if not loaded:
        raise FileNotFoundError(
            f"no *.metrics.json files under {directory} — "
            "was it produced by --trace?"
        )
    if runs is not None:
        filtered = {
            name: payload
            for name, payload in loaded.items()
            if name.startswith(runs)
        }
        if not filtered:
            raise FileNotFoundError(
                f"no run under {directory} matches prefix {runs!r}; "
                f"directory has {sorted(loaded)}"
            )
        return filtered
    return loaded


def summarize_directory(
    directory: pathlib.Path | str, runs: str | None = None
) -> str:
    """Summary table over every run recorded in a trace directory.

    Degrades gracefully on partial traces: a run without an audit log,
    or with records from another schema version, gets a warning line in
    the decision-provenance section instead of an exception.

    Args:
        directory: Trace directory holding ``<run>.metrics.json`` files.
        runs: Optional run-name prefix; only matching runs summarize
            (so ``host.`` / ``fleet.`` / ``watch.`` slices can be
            inspected separately).
    """
    directory = pathlib.Path(directory)
    runs = _load_metrics(directory, runs=runs)
    rows = []
    for name, metrics in runs.items():
        counters = metrics["counters"]
        hist = metrics["histograms"].get("executor.slack_s", {})
        rows.append(
            (
                name,
                int(counters.get("executor.jobs", 0)),
                int(counters.get("executor.misses", 0)),
                int(counters.get("executor.switches", 0)),
                int(counters.get("adaptive.drift_alarms", 0)),
                _fmt(hist.get("p50"), unit_ms=True),
                _fmt(hist.get("p95"), unit_ms=True),
            )
        )
    text = _table(
        ["run", "jobs", "misses", "switches", "alarms",
         "slack-p50[ms]", "slack-p95[ms]"],
        rows,
        title=f"trace summary: {directory}",
    )
    return text + "\n\n" + _decisions_section(directory, runs)


def _decisions_section(directory: pathlib.Path, runs: dict) -> str:
    """Per-run audit-log coverage, warn-don't-crash on missing/old logs."""
    from repro.telemetry.audit import read_decisions_jsonl

    lines = ["decision provenance:"]
    for name in runs:
        log = directory / f"{name}.decisions.jsonl"
        records, warnings = read_decisions_jsonl(log)
        attributed = sum(1 for r in records if r.attribution is not None)
        if records:
            lines.append(
                f"  {name}: {len(records)} decisions audited, "
                f"{attributed} with attribution"
                + (" (replayable via `repro replay`)" if attributed else "")
            )
        for warning in warnings:
            lines.append(f"  {name}: warning: {warning}")
        if not records and not warnings:
            lines.append(f"  {name}: audit log is empty")
    return "\n".join(lines)


def _flatten(metrics: dict) -> dict[str, float]:
    """Counters, gauges, and histogram p50/p95 as one flat mapping."""
    flat: dict[str, float] = {}
    for name, value in metrics["counters"].items():
        flat[name] = value
    for name, value in metrics["gauges"].items():
        if value is not None:
            flat[name] = value
    for name, hist in metrics["histograms"].items():
        for q in ("p50", "p95"):
            if hist.get(q) is not None:
                flat[f"{name}.{q}"] = hist[q]
    return flat


# -- regression semantics ------------------------------------------------------
#: Substrings that classify a metric's better-direction.  Checked in
#: order: higher-is-better wins (slack percentiles contain "_s" too).
_HIGHER_IS_BETTER = ("slack", "jobs_per_sec", "throughput", "savings")
_LOWER_IS_BETTER = (
    "miss",
    "alarm",
    "alert",
    "anomal",
    "diagnostic",
    "energy",
    "time_s",
    "latency",
    "retarget",
    "bound_exceeded",
    "external_arms",
    "us_per_job",
    "wall_s",
)


def metric_direction(name: str) -> str | None:
    """``"higher"``/``"lower"`` = which direction is better; None = neutral."""
    lowered = name.lower()
    if any(token in lowered for token in _HIGHER_IS_BETTER):
        return "higher"
    if any(token in lowered for token in _LOWER_IS_BETTER):
        return "lower"
    return None


def _regressed(
    baseline: float, observed: float, direction: str | None, tolerance: float
) -> bool:
    """Whether ``observed`` is worse than ``baseline`` beyond tolerance.

    Tolerance is relative to the baseline magnitude with a small
    absolute floor, so a zero baseline (0 misses) still admits strictly
    nothing worse than zero-plus-noise.
    """
    allowance = tolerance * abs(baseline) + 1e-9
    if direction == "lower":
        return observed > baseline + allowance
    if direction == "higher":
        return observed < baseline - allowance
    return abs(observed - baseline) > allowance


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between two runs."""

    run: str
    metric: str
    a: float | None
    b: float | None
    regressed: bool


@dataclass(frozen=True)
class DirectoryDiff:
    """Structured outcome of comparing two trace directories.

    Attributes:
        text: The human-readable diff (what the CLI prints).
        deltas: Every changed metric across all shared runs.
        regressions: The subset that moved in the *worse* direction
            beyond the tolerance.
        shared_runs: Run names present on both sides.
    """

    text: str
    deltas: tuple[MetricDelta, ...]
    regressions: tuple[MetricDelta, ...]
    shared_runs: tuple[str, ...]


def compare_directories(
    a: pathlib.Path | str,
    b: pathlib.Path | str,
    tolerance: float = 0.05,
    runs: str | None = None,
) -> DirectoryDiff:
    """Metric-by-metric comparison of two trace directories.

    Args:
        a: Baseline trace directory.
        b: Candidate trace directory.
        tolerance: Relative movement allowed before a directional metric
            counts as a regression.
        runs: Optional run-name prefix; only matching runs on each side
            are compared.
    """
    a, b = pathlib.Path(a), pathlib.Path(b)
    runs_a = _load_metrics(a, runs=runs)
    runs_b = _load_metrics(b, runs=runs)
    shared = sorted(set(runs_a) & set(runs_b))
    # A run the baseline has but the candidate lost is a regression,
    # not a footnote: a truncated or silently-skipped run would
    # otherwise make the diff look *cleaner* than a complete one.
    missing = sorted(set(runs_a) - set(runs_b))
    missing_deltas = tuple(
        MetricDelta(
            run=name, metric="<run missing from b>", a=1.0, b=None,
            regressed=True,
        )
        for name in missing
    )
    if not shared:
        text = (
            f"no run names shared between {a} ({sorted(runs_a)}) "
            f"and {b} ({sorted(runs_b)})"
        )
        if missing:
            text += (
                f"\n\n{len(missing)} baseline run(s) missing from "
                f"{b}: " + ", ".join(missing)
            )
        return DirectoryDiff(
            text=text,
            deltas=missing_deltas,
            regressions=missing_deltas,
            shared_runs=(),
        )
    sections = [f"trace diff: {a}  vs  {b}"]
    deltas: list[MetricDelta] = []
    for name in shared:
        flat_a, flat_b = _flatten(runs_a[name]), _flatten(runs_b[name])
        rows = []
        for key in sorted(set(flat_a) | set(flat_b)):
            va, vb = flat_a.get(key), flat_b.get(key)
            if va == vb:
                continue
            regressed = (
                va is not None
                and vb is not None
                and _regressed(va, vb, metric_direction(key), tolerance)
            )
            deltas.append(
                MetricDelta(
                    run=name, metric=key, a=va, b=vb, regressed=regressed
                )
            )
            if va is not None and vb is not None:
                mark = "  << regression" if regressed else ""
                rows.append(
                    (key, _fmt(va), _fmt(vb), f"{vb - va:+.4g}{mark}")
                )
            else:
                rows.append((key, _fmt(va), _fmt(vb), "n/a"))
        if rows:
            sections.append(
                _table(["metric", "a", "b", "delta"], rows, title=name)
            )
        else:
            sections.append(f"{name}: identical")
    if missing:
        deltas.extend(missing_deltas)
        sections.append(
            f"{len(missing)} baseline run(s) missing from {b} "
            f"(counted as regressions): " + ", ".join(missing)
        )
    extra = sorted(set(runs_b) - set(runs_a))
    if extra:
        # New runs on the candidate side are informational only.
        sections.append(f"runs only in {b}: {', '.join(extra)}")
    regressions = tuple(d for d in deltas if d.regressed)
    if regressions:
        sections.append(
            f"{len(regressions)} metric(s) regressed beyond "
            f"{100 * tolerance:g}% tolerance: "
            + ", ".join(f"{d.run}:{d.metric}" for d in regressions)
        )
    return DirectoryDiff(
        text="\n\n".join(sections),
        deltas=tuple(deltas),
        regressions=regressions,
        shared_runs=tuple(shared),
    )


# -- the CI metrics regression gate --------------------------------------------
#: Metrics a generated baseline pins by default: the run's shape
#: (jobs), its SLO outcomes (misses, slack tail), its hot-path costs
#: (exec/predictor tails), and its energy.  Deliberately curated — the
#: full flattened set would gate on noise like per-OPP residency splits.
GATE_DEFAULT_METRICS = (
    "executor.jobs",
    "executor.misses",
    "executor.switches",
    "executor.energy_j",
    "executor.slack_s.p50",
    "executor.slack_s.p95",
    "executor.exec_time_s.p95",
    "executor.predictor_time_s.p95",
    # Fleet roll-up summaries (``repro fleet run --trace``); absent from
    # single-run traces, so they pin nothing there.
    "fleet.sessions",
    "fleet.jobs",
    "fleet.misses",
    "fleet.energy_j",
    "fleet.budget_consumed",
    "fleet.page_alerts",
    "fleet.slack_p50_s",
    "fleet.slack_p95_s",
    # Host-side throughput (``repro profile --trace``); wall-clock, so
    # baselines for these carry a much wider tolerance than simulated
    # metrics (see BENCH_host_baseline.json).
    "host.jobs_per_sec",
    "host.us_per_job.total",
    # Static-analysis lint roll-up (``repro lint --trace``); the counts
    # are exact, so BENCH_lint_baseline.json pins them at zero drift.
    # ``lint.workloads`` is neutral — a changed workload count means the
    # lint runs are not comparable; the finding counters gate
    # lower-is-better via the "diagnostic" direction token.
    "lint.workloads",
    "lint.diagnostics.error",
    "lint.diagnostics.warning",
    # Energy-attribution roll-up (``repro energy --trace``); the ledger
    # is deterministic, so BENCH_energy_baseline.json pins total joules,
    # per-job joules, the conservation error (effectively zero) and the
    # normalized saving ("savings" gates higher-is-better, beating the
    # lower-is-better "energy" token).
    "energy.jobs",
    "energy.total_j",
    "energy.j_per_job",
    "energy.savings_frac",
    "energy.conservation_error_j",
    # Ablation-matrix roll-up (``repro ablate run``); the matrix is
    # byte-deterministic, so BENCH_ablate_baseline.json pins its shape,
    # the baseline variant's health, and every registered component's
    # measured importance — a code change that silently rewrites which
    # components matter fails the gate.
    "ablate.cells",
    "ablate.components",
    "ablate.jobs",
    "ablate.baseline.miss_rate",
    "ablate.baseline.energy_per_job_j",
    "ablate.baseline.savings_frac",
    "ablate.baseline.p05_slack_s",
    "ablate.asymmetric_loss.importance",
    "ablate.asymmetric_loss.miss_rate_delta_pp",
    "ablate.safety_margin.importance",
    "ablate.safety_margin.miss_rate_delta_pp",
    "ablate.safety_margin.energy_delta_frac",
    "ablate.slicing.importance",
    "ablate.recalibration.importance",
    "ablate.bound_skip.importance",
    "ablate.aimd_margin.importance",
    "ablate.fallback.importance",
)

#: Tolerance written into generated baselines (a run re-simulated from
#: committed seeds is deterministic; the headroom absorbs cross-version
#: floating-point drift, not behaviour changes).
_BASELINE_DEFAULT_TOLERANCE = 0.10


def make_baseline(
    directory: pathlib.Path | str,
    metrics: Iterable[str] | None = None,
    tolerance: float = _BASELINE_DEFAULT_TOLERANCE,
) -> dict:
    """Snapshot a trace directory's gated metrics as a baseline object.

    The result is the committed-file format ``gate_directory`` consumes::

        {"tolerance": 0.1,
         "runs": {"<run>": {"executor.misses": 3.0, ...}, ...}}
    """
    directory = pathlib.Path(directory)
    wanted = tuple(metrics) if metrics is not None else GATE_DEFAULT_METRICS
    runs = {}
    for name, payload in _load_metrics(directory).items():
        flat = _flatten(payload)
        runs[name] = {
            metric: flat[metric] for metric in wanted if metric in flat
        }
    return {"tolerance": tolerance, "runs": runs}


@dataclass(frozen=True)
class GateFailure:
    """One gate violation, with enough context to read in CI logs."""

    run: str
    metric: str
    baseline: float | None
    observed: float | None
    reason: str


@dataclass(frozen=True)
class GateResult:
    """Outcome of gating a trace directory against a baseline.

    Attributes:
        text: Human-readable gate report (pass and fail rows).
        failures: Every violation; empty means the gate passed.
        checked: (run, metric) pairs that were actually compared.
    """

    text: str
    failures: tuple[GateFailure, ...]
    checked: int

    @property
    def passed(self) -> bool:
        return not self.failures


def _baseline_runs(baseline: object) -> dict[str, dict]:
    """The pinned runs of a baseline, checked: a ``ValueError`` names
    the run and the metric of the first bad entry."""
    if not isinstance(baseline, dict) or "runs" not in baseline:
        raise ValueError(
            "baseline has no 'runs' key — was it written by "
            "`repro report DIR --make-baseline`?"
        )
    tolerance = check_number(
        "baseline",
        "tolerance",
        baseline.get("tolerance", _BASELINE_DEFAULT_TOLERANCE),
    )
    if tolerance < 0:
        raise ValueError(f"baseline: tolerance must be >= 0, got {tolerance!r}")
    runs = baseline["runs"]
    if not isinstance(runs, dict):
        raise ValueError(
            f"baseline 'runs' must be an object of runs, got {runs!r}"
        )
    for name, pinned in runs.items():
        if not isinstance(pinned, dict):
            raise ValueError(
                f"baseline run {name!r} must be an object of metrics, "
                f"got {pinned!r}"
            )
        for metric, value in pinned.items():
            check_number(f"baseline run {name!r}", metric, value)
    return dict(runs)


def gate_directory(
    directory: pathlib.Path | str,
    baseline: dict,
    tolerance: float | None = None,
    runs: str | None = None,
) -> GateResult:
    """Hold a trace directory to a committed metrics baseline.

    Every metric pinned by the baseline must be present in the run and
    must not have moved in the worse direction beyond the tolerance
    (baseline file's own tolerance unless overridden).  Neutral metrics
    (e.g. job counts) must match within tolerance in *either* direction.

    Args:
        directory: Trace directory of the candidate run(s).
        baseline: Parsed baseline object (see :func:`make_baseline`).
        tolerance: Override for the baseline's recorded tolerance.
        runs: Optional run-name prefix; only baseline runs whose name
            starts with it are gated.  Lets one committed baseline
            cover separate CI jobs (``"watch."`` vs ``"fleet."``)
            without each job failing on the other's missing runs.
    """
    directory = pathlib.Path(directory)
    gated_runs = _baseline_runs(baseline)
    tol = (
        tolerance
        if tolerance is not None
        else float(baseline.get("tolerance", _BASELINE_DEFAULT_TOLERANCE))
    )
    if runs is not None:
        gated_runs = {
            name: pinned
            for name, pinned in gated_runs.items()
            if name.startswith(runs)
        }
        if not gated_runs:
            raise ValueError(
                f"no baseline run matches prefix {runs!r}; "
                f"baseline has {sorted(baseline['runs'])}"
            )
    observed_runs = _load_metrics(directory)
    failures: list[GateFailure] = []
    rows = []
    checked = 0
    for run_name, pinned in sorted(gated_runs.items()):
        if run_name not in observed_runs:
            failures.append(
                GateFailure(
                    run=run_name,
                    metric="-",
                    baseline=None,
                    observed=None,
                    reason="baseline run missing from trace directory",
                )
            )
            rows.append((run_name, "-", "n/a", "n/a", "MISSING RUN"))
            continue
        flat = _flatten(observed_runs[run_name])
        for metric, base_value in sorted(pinned.items()):
            checked += 1
            observed = flat.get(metric)
            if observed is None:
                failures.append(
                    GateFailure(
                        run=run_name,
                        metric=metric,
                        baseline=base_value,
                        observed=None,
                        reason="metric missing from run",
                    )
                )
                rows.append(
                    (run_name, metric, _fmt(base_value), "n/a", "MISSING")
                )
                continue
            direction = metric_direction(metric)
            if _regressed(base_value, observed, direction, tol):
                worse = "drifted" if direction is None else "regressed"
                failures.append(
                    GateFailure(
                        run=run_name,
                        metric=metric,
                        baseline=base_value,
                        observed=observed,
                        reason=(
                            f"{worse} beyond {100 * tol:g}% tolerance "
                            f"({_fmt(base_value)} -> {_fmt(observed)})"
                        ),
                    )
                )
                rows.append(
                    (
                        run_name,
                        metric,
                        _fmt(base_value),
                        _fmt(observed),
                        "FAIL",
                    )
                )
            else:
                rows.append(
                    (
                        run_name,
                        metric,
                        _fmt(base_value),
                        _fmt(observed),
                        "ok",
                    )
                )
    verdict = (
        f"gate PASSED ({checked} metric(s) within {100 * tol:g}% tolerance)"
        if not failures
        else "gate FAILED: "
        + "; ".join(f"{f.run}:{f.metric} {f.reason}" for f in failures)
    )
    text = (
        _table(
            ["run", "metric", "baseline", "observed", "status"],
            rows,
            title=f"metrics gate: {directory}",
        )
        + "\n\n"
        + verdict
    )
    return GateResult(
        text=text, failures=tuple(failures), checked=checked
    )
