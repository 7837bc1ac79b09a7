"""Command-line interface: reproduce any table or figure from a shell.

Usage::

    python -m repro list                 # what can be reproduced
    python -m repro table2               # one experiment
    python -m repro fig15 fig21          # several
    python -m repro all                  # everything (minutes)
    python -m repro fig16 --app sha      # figure-specific options
    python -m repro drift --trace DIR    # + Chrome traces/telemetry in DIR
    python -m repro report DIR           # summarize a trace directory
    python -m repro report DIR_A DIR_B   # diff two trace directories
                                         # (exit 1 on metric regressions)
    python -m repro report DIR --gate BENCH_slo_baseline.json
                                         # CI gate vs a committed baseline
    python -m repro report ctrl.json     # show a saved controller's
                                         # slice certificate
    python -m repro watch rijndael --drift 1.5
                                         # live SLO dashboard over a run
                                         # (exit 1 on SLO violation)
    python -m repro check --all-workloads --strict
                                         # certify every workload's slice
    python -m repro lint --all-workloads --strict
                                         # static analyses over every
                                         # workload's task program
    python -m repro explain DIR --job 17 # why the governor chose that
                                         # frequency for job 17
    python -m repro replay DIR ctrl.json # re-derive every decision from
                                         # the trace (exit 1 on mismatch)
    python -m repro diff-decisions DIR_A DIR_B
                                         # ranked decision divergences
    python -m repro profile rijndael     # host-side profile of the
                                         # simulator itself: phase table,
                                         # flamegraph, hotspots
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import inspect
import json
import math
import pathlib
import sys
import time
import warnings
import zlib
from importlib import import_module

from repro.analysis.harness import Lab, check_governor, seeded_board
from repro.platform.cpu import Work
from repro.runtime.records import JobRecord
from repro.telemetry.exporters import TraceSession
from repro.telemetry.report import summarize_directory
from repro.workloads.registry import app_names

__all__ = ["main"]

#: Experiment name -> (description, the ``repro.analysis.experiments``
#: module whose ``run`` and ``render`` reproduce it).  A module is
#: imported only to run it.
_EXPERIMENTS: dict[str, tuple[str, str]] = {
    "table2": ("Job-time statistics at fmax", "table2_job_stats"),
    "fig2": ("ldecode per-job time trace", "fig02_trace"),
    "fig3": ("PID expected-vs-actual lag", "fig03_pid_lag"),
    "fig9": ("Execution time vs 1/frequency", "fig09_linearity"),
    "fig11": ("DVFS switch-time matrix", "fig11_switching"),
    "fig15": ("Energy and misses, 4 governors x 8 apps", "fig15_energy_misses"),
    "fig16": ("Budget sweep", "fig16_budget_sweep"),
    "fig17": ("Predictor and switch overheads", "fig17_overheads"),
    "fig18": ("Limit study (overheads removed, oracle)", "fig18_limit_study"),
    "fig19": ("Prediction-error box plots", "fig19_prediction_error"),
    "fig20": ("Under-predict penalty sweep", "fig20_alpha_sweep"),
    "fig21": ("Idling between jobs", "fig21_idling"),
    "breakdown": ("Energy by activity (extra)", "energy_breakdown"),
    "drift": ("Mid-run drift: adaptation vs frozen (extra)",
              "drift_adaptation"),
    "robustness": ("Headline across seeds (extra)", "robustness"),
    "crossplatform": ("Feature stability across platforms (§4.2)",
                      "cross_platform"),
}

_ALIASES = {f"fig0{n}": f"fig{n}" for n in (2, 3, 9)}


def _list_experiments() -> str:
    lines = ["available experiments:"]
    for name, (description, _) in _EXPERIMENTS.items():
        lines.append(f"  {name:8s} {description}")
    lines.append("  all      run everything above")
    lines.append("  report   summarize/diff/gate trace directories, or show "
                 "a saved controller's certificate (repro report --help)")
    lines.append("  watch    run one workload under the SLO watchdog with a "
                 "live dashboard (repro watch --help)")
    lines.append("  check    run the slice certifier over workloads "
                 "(repro check --help)")
    lines.append("  lint     static analyses over workload task programs "
                 "(repro lint --help)")
    lines.append("  explain  attribute one recorded frequency decision to "
                 "its features (repro explain --help)")
    lines.append("  replay   re-derive a trace's decisions offline, verify "
                 "bit-exact (repro replay --help)")
    lines.append("  diff-decisions  classify decision divergences between "
                 "two traces (repro diff-decisions --help)")
    lines.append("  profile  host-side performance profile of the simulator "
                 "itself: phase timings, flamegraph, hotspot table "
                 "(repro profile --help)")
    lines.append("  energy   conservation-checked per-job/phase/OPP energy "
                 "attribution with a live savings estimate "
                 "(repro energy --help)")
    lines.append("  ablate   component-importance matrix: disable each "
                 "mechanism, rank by measured consequence "
                 "(repro ablate --help)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    raw = list(argv) if argv is not None else sys.argv[1:]
    if raw and raw[0] == "check":
        # Dispatch before the experiment parser sees check's own flags.
        return _check_command(raw[1:])
    if raw and raw[0] == "lint":
        return _lint_command(raw[1:])
    if raw and raw[0] == "watch":
        return _watch_command(raw[1:])
    if raw and raw[0] == "report":
        return _report_command(raw[1:])
    if raw and raw[0] == "explain":
        return _explain_command(raw[1:])
    if raw and raw[0] == "replay":
        return _replay_command(raw[1:])
    if raw and raw[0] == "diff-decisions":
        return _diff_decisions_command(raw[1:])
    if raw and raw[0] == "profile":
        return _profile_command(raw[1:])
    if raw and raw[0] == "energy":
        return _energy_command(raw[1:])
    if raw and raw[0] == "fleet":
        from repro.fleet.cli import fleet_command

        return fleet_command(raw[1:])
    if raw and raw[0] == "ablate":
        from repro.ablation.cli import ablate_command

        return ablate_command(raw[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables/figures from 'Prediction-Guided "
            "Performance-Energy Trade-off for Interactive Applications' "
            "(MICRO 2015) on the simulated platform."
        ),
        epilog=_list_experiments(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names (see list below), 'list', or 'all'",
    )
    parser.add_argument(
        "--app",
        default=None,
        help="app for single-app figures (fig2, fig3, fig9, fig16, "
        "fig20, drift)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="override jobs per run (experiments without a job count, "
        "such as fig11, ignore it)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="base evaluation seed"
    )
    parser.add_argument(
        "--jitter", type=float, default=0.02, help="timing-noise sigma"
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="also write each experiment's table (<name>.txt) and raw "
        "result (<name>.json) into DIR",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record run telemetry into DIR: per-run Chrome trace JSON "
        "(open in ui.perfetto.dev), JSONL event streams, decision audit "
        "logs, metrics dumps, and text reports",
    )
    args = parser.parse_args(raw)

    requested = [_ALIASES.get(e, e) for e in args.experiments]
    if "list" in requested:
        print(_list_experiments())
        return 0
    if "all" in requested:
        requested = list(_EXPERIMENTS)
    unknown = [e for e in requested if e not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}\n", file=sys.stderr)
        print(_list_experiments(), file=sys.stderr)
        return 2
    try:
        _check_run_options(args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    output_dir = None
    if args.output is not None:
        output_dir = pathlib.Path(args.output)
        output_dir.mkdir(parents=True, exist_ok=True)

    trace_session = None
    if args.trace is not None:
        trace_session = TraceSession(args.trace)

    lab = Lab(
        jitter_sigma=args.jitter, seed=args.seed, trace_session=trace_session
    )
    for name in requested:
        module = import_module(
            f"repro.analysis.experiments.{_EXPERIMENTS[name][1]}"
        )
        kwargs = {}
        if (
            args.jobs is not None
            and "n_jobs" in inspect.signature(module.run).parameters
        ):
            kwargs["n_jobs"] = args.jobs
        if args.app is not None and name in (
            "fig2", "fig3", "fig9", "fig16", "fig20", "drift"
        ):
            key = "app" if name == "fig2" else "app_name"
            kwargs[key] = args.app
        started = time.time()
        result = module.run(lab, **kwargs)
        rendered = module.render(result)
        print(rendered)
        print(f"[{name} took {time.time() - started:.1f}s]\n")
        if output_dir is not None:
            (output_dir / f"{name}.txt").write_text(rendered + "\n")
            (output_dir / f"{name}.json").write_text(_result_json(result))
    if trace_session is not None:
        written = trace_session.flush()
        runs = len(trace_session.runs)
        print(
            f"[trace: {runs} run(s), {len(written)} file(s) -> "
            f"{trace_session.directory}]"
        )
    return 0


def _report_command(argv: list[str]) -> int:
    """``repro report`` — summarize, diff, or gate trace output.

    A single *file* argument is treated as a saved controller
    (``pipeline.persist``): its slice certificate is rendered instead.
    Exit codes: 0 clean, 1 regression/gate failure, 2 usage or missing
    input.
    """
    from repro.telemetry.report import (
        compare_directories,
        gate_directory,
        make_baseline,
    )

    parser = argparse.ArgumentParser(
        prog="repro report",
        description=(
            "Summarize one trace directory, diff two (exit 1 when any "
            "metric regresses beyond tolerance), gate one against a "
            "committed metrics baseline, or render a saved controller's "
            "slice certificate."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="one trace directory (or saved CONTROLLER.json), or two "
        "trace directories to diff",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="relative movement allowed before a directional metric "
        "counts as a regression (diff default 0.05; gate default: the "
        "baseline file's recorded tolerance)",
    )
    parser.add_argument(
        "--gate",
        default=None,
        metavar="BASELINE.json",
        help="hold the trace directory to this committed metrics "
        "baseline; exit 1 on any violation",
    )
    parser.add_argument(
        "--make-baseline",
        default=None,
        metavar="FILE",
        help="snapshot the trace directory's gated metrics as a new "
        "baseline JSON at FILE",
    )
    parser.add_argument(
        "--runs",
        default=None,
        metavar="PREFIX",
        help="only consider runs whose name starts with PREFIX (e.g. "
        "'watch.', 'fleet.', or 'host.') — applies to summaries, "
        "two-directory diffs, and --gate alike, so one trace directory "
        "or committed baseline can serve several CI jobs",
    )
    parser.add_argument(
        "--openmetrics",
        default=None,
        metavar="FILE",
        help="also export the trace directory's metrics (after --runs "
        "filtering) as OpenMetrics/Prometheus text to FILE",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the rendered report/diff/gate text to FILE",
    )
    try:
        args = parser.parse_args(argv)
        if len(args.paths) > 2 or (
            len(args.paths) == 2 and (args.gate or args.make_baseline)
        ):
            parser.error(
                "--gate/--make-baseline take exactly one TRACE_DIR; "
                "diffs take exactly two"
            )
    except SystemExit as error:
        # Argparse exits; the CLI contract is to *return* the code so
        # main() stays embeddable (tests call it in-process).
        return int(error.code or 0)

    exit_code = 0
    try:
        if len(args.paths) == 2:
            tolerance = args.tolerance if args.tolerance is not None else 0.05
            diff = compare_directories(
                args.paths[0],
                args.paths[1],
                tolerance=tolerance,
                runs=args.runs,
            )
            text = diff.text
            if diff.regressions:
                exit_code = 1
        else:
            path = pathlib.Path(args.paths[0])
            if path.is_file():
                text = _controller_certificate_report(path)
            elif args.gate is not None:
                baseline = json.loads(pathlib.Path(args.gate).read_text())
                gate = gate_directory(
                    path, baseline, tolerance=args.tolerance, runs=args.runs
                )
                text = gate.text
                if not gate.passed:
                    exit_code = 1
            elif args.make_baseline is not None:
                baseline = make_baseline(path)
                if args.tolerance is not None:
                    baseline["tolerance"] = args.tolerance
                out = pathlib.Path(args.make_baseline)
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(json.dumps(baseline, indent=2) + "\n")
                text = (
                    f"baseline: {sum(len(m) for m in baseline['runs'].values())}"
                    f" metric(s) over {len(baseline['runs'])} run(s) -> {out}"
                )
            else:
                text = summarize_directory(path, runs=args.runs)
        if args.openmetrics is not None:
            if len(args.paths) != 1 or pathlib.Path(args.paths[0]).is_file():
                print(
                    "--openmetrics takes exactly one trace directory",
                    file=sys.stderr,
                )
                return 2
            from repro.telemetry.openmetrics import openmetrics_directory

            out = pathlib.Path(args.openmetrics)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(
                openmetrics_directory(args.paths[0], runs=args.runs)
            )
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(text)
    if args.output is not None:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
    return exit_code


def _check_run_options(args) -> None:
    """Raise ValueError with one line naming the first bad ``--app``,
    ``--jobs`` or ``--jitter`` (None: the option was not given)."""
    if args.app is not None and args.app not in app_names():
        raise ValueError(f"unknown workload: {args.app}")
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if not (math.isfinite(args.jitter) and args.jitter >= 0):
        raise ValueError(
            f"--jitter must be a finite number >= 0, got {args.jitter}"
        )


def _single_run_parser(
    prog: str, description: str, jobs: int
) -> argparse.ArgumentParser:
    """The options ``watch``, ``profile`` and ``energy`` share: one seeded
    run of one workload (validated and set up by :func:`_single_run`)."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("app", help="workload to run (see repro list)")
    parser.add_argument(
        "--governor",
        default="prediction",
        help="governor name (default: prediction)",
    )
    parser.add_argument(
        "--jobs", type=int, default=jobs, help="jobs in the run"
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="base evaluation seed"
    )
    parser.add_argument(
        "--jitter", type=float, default=0.02, help="timing-noise sigma"
    )
    return parser


def _single_run(args, lab: Lab, purpose: str) -> tuple:
    """The governor, job inputs and run seed of a single run, after
    validating its options (ValueError: one line naming the bad option).

    The run seed is stable across processes, so a committed gate
    baseline reproduces in CI.
    """
    _check_run_options(args)
    check_governor(args.governor)
    governor = lab.make_governor(args.governor, args.app)
    inputs = lab.app(args.app).inputs(args.jobs, seed=lab.seed + 11)
    run_seed = zlib.crc32(
        f"{lab.seed}|{purpose}|{args.app}|{args.governor}".encode()
    )
    return governor, inputs, run_seed


def _watch_command(argv: list[str]) -> int:
    """``repro watch APP`` — run one workload under the SLO watchdog.

    The run always records telemetry (the watchdog is an event-stream
    consumer); a live dashboard repaints as jobs complete.  Exit code 1
    when any page-severity SLO alert fired, 2 on bad input, else 0.
    """
    from repro.runtime.executor import TaskLoopRunner
    from repro.telemetry.events import Telemetry
    from repro.telemetry.slo import default_slos, specs_from_json
    from repro.telemetry.watch import Watchdog, render_dashboard

    parser = _single_run_parser(
        "repro watch",
        "Run one workload under a governor with the SLO watchdog "
        "attached: error-budget burn-rate alerts, streaming anomaly "
        "detectors, and a live terminal dashboard.  Exits non-zero "
        "when a page-severity SLO alert fires.",
        jobs=240,
    )
    parser.add_argument(
        "--drift",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="inject a mid-run execution-time slowdown by FACTOR "
        "(1.0 = no drift)",
    )
    parser.add_argument(
        "--drift-at",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="where the drift shift lands, as a fraction of the run",
    )
    parser.add_argument(
        "--refresh",
        type=int,
        default=10,
        metavar="N",
        help="repaint the dashboard every N jobs",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live dashboard (final frame only)",
    )
    parser.add_argument(
        "--slo",
        default=None,
        metavar="FILE",
        help="JSON file of SloSpec definitions (default: the built-in "
        "suite scaled to the app's budget)",
    )
    parser.add_argument(
        "--max-energy-j",
        type=float,
        default=None,
        metavar="J",
        help="add an energy-per-job SLO with this cap (joules)",
    )
    parser.add_argument(
        "--arm-fallback",
        action="store_true",
        help="let a page-severity alert force an adaptive governor into "
        "its deadline-safe fallback mode",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="also write the run's full telemetry artifacts into DIR "
        "(the directory `repro report --gate` consumes)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return int(error.code or 0)

    if args.drift <= 0:
        print(f"--drift must be > 0, got {args.drift}", file=sys.stderr)
        return 2
    if not 0.0 < args.drift_at < 1.0:
        print("--drift-at must be strictly inside (0, 1)", file=sys.stderr)
        return 2
    specs = None
    if args.slo is not None:
        try:
            specs = specs_from_json(pathlib.Path(args.slo).read_text())
        except (OSError, ValueError) as error:
            print(f"--slo {args.slo}: {error}", file=sys.stderr)
            return 2

    trace_session = (
        TraceSession(args.trace) if args.trace is not None else None
    )
    lab = Lab(
        jitter_sigma=args.jitter, seed=args.seed, trace_session=trace_session
    )
    try:
        governor, inputs, run_seed = _single_run(args, lab, "watch")
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    app = lab.app(args.app)

    run_name = f"watch.{args.app}.{args.governor}"
    if trace_session is not None:
        telemetry = trace_session.telemetry_for(run_name)
    else:
        telemetry = Telemetry(name=run_name)

    if specs is None:
        specs = default_slos(
            budget_s=app.task.budget_s,
            max_energy_per_job_j=args.max_energy_j,
        )

    shift_at_s = int(args.jobs * args.drift_at) * app.task.budget_s
    board = seeded_board(
        lab.opps, lab.power, lab.jitter_sigma, run_seed, run_seed,
        drift=(args.drift, shift_at_s),
    )

    live = not args.quiet and sys.stdout.isatty()
    frame_lines = 0

    def repaint(watchdog, obs) -> None:
        nonlocal frame_lines
        if args.quiet or watchdog.jobs % args.refresh:
            return
        frame = render_dashboard(watchdog.status(), title=run_name)
        if live and frame_lines:
            # Rewind over the previous frame for an in-place repaint.
            sys.stdout.write(f"\x1b[{frame_lines}F\x1b[J")
        print(frame, flush=True)
        frame_lines = frame.count("\n") + 1

    watchdog = Watchdog(
        specs=specs,
        governor=governor if args.arm_fallback else None,
        telemetry=telemetry,
        on_observation=repaint,
    )
    watchdog.attach(telemetry)

    runner = TaskLoopRunner(
        board=board,
        task=app.task,
        governor=governor,
        inputs=inputs,
        interpreter=lab.interpreter,
        telemetry=telemetry,
    )
    result = runner.run()

    status = watchdog.status()
    final = render_dashboard(status, title=f"{run_name} (final)")
    if live and frame_lines:
        sys.stdout.write(f"\x1b[{frame_lines}F\x1b[J")
    print(final)
    print(
        f"\nrun: {result.n_jobs} jobs, {result.n_missed} missed "
        f"({100 * result.miss_rate:.1f}%), {result.energy_j:.3f} J"
    )
    for alert in watchdog.alerts:
        print(f"SLO ALERT [{alert.severity}] {alert.message}")
    for anomaly in watchdog.anomalies[:10]:
        print(f"anomaly [{anomaly.kind}] {anomaly.message}")
    if len(watchdog.anomalies) > 10:
        print(f"... and {len(watchdog.anomalies) - 10} more anomalies")

    if trace_session is not None:
        written = trace_session.flush()
        print(f"[trace: {len(written)} file(s) -> {trace_session.directory}]")

    if watchdog.violated:
        print("\nSLO VIOLATED (page-severity alert fired)", file=sys.stderr)
        return 1
    return 0


def _explain_command(argv: list[str]) -> int:
    """``repro explain`` — attribute recorded decisions to their inputs.

    Without ``--job``, prints a per-run provenance summary; with it, the
    full attribution block (per-feature contributions, DVFS terms, and
    the frequency ladder) for that job.  Exit codes: 0 ok, 2 missing
    input or job.
    """
    from repro.telemetry.provenance import (
        load_run_decisions,
        render_explanation,
        result_json,
    )

    parser = argparse.ArgumentParser(
        prog="repro explain",
        description=(
            "Explain recorded governor decisions from a trace directory "
            "(or one *.decisions.jsonl file): per-feature contributions "
            "to the predicted time, the fitted DVFS terms, and the "
            "per-OPP accept/reject ladder."
        ),
    )
    parser.add_argument(
        "trace", help="trace directory (from --trace) or a decisions file"
    )
    parser.add_argument(
        "--job", type=int, default=None, help="explain this job index only"
    )
    parser.add_argument(
        "--run",
        default=None,
        metavar="NAME",
        help="restrict to one run name (needed with --job when the "
        "directory holds several runs)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the records as strict JSON instead of text",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return int(error.code or 0)

    try:
        runs, warnings = load_run_decisions(args.trace, args.run)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.job is not None:
        if len(runs) != 1:
            print(
                "--job needs a single run; pick one with --run "
                f"(available: {', '.join(sorted(runs))})",
                file=sys.stderr,
            )
            return 2
        ((name, records),) = runs.items()
        matches = [r for r in records if r.job_index == args.job]
        if not matches:
            print(
                f"job {args.job} has no decision record in run {name!r}",
                file=sys.stderr,
            )
            return 2
        if args.json:
            print(result_json([r.as_dict() for r in matches]))
        else:
            for record in matches:
                print(f"run: {name}")
                print(render_explanation(record))
        return 0

    if args.json:
        payload = {
            name: [r.as_dict() for r in records]
            for name, records in runs.items()
        }
        print(result_json(payload))
        return 0
    for name, records in runs.items():
        attributed = [r for r in records if r.attribution is not None]
        modes: dict[str, int] = {}
        for record in records:
            modes[record.mode or "default"] = (
                modes.get(record.mode or "default", 0) + 1
            )
        mode_text = ", ".join(f"{m}:{c}" for m, c in sorted(modes.items()))
        print(
            f"{name}: {len(records)} decisions, {len(attributed)} with "
            f"attribution (modes {mode_text or 'n/a'})"
        )
        if attributed:
            print(
                f"  explain one with: repro explain {args.trace} "
                f"--run {name} --job {attributed[0].job_index}"
            )
    return 0


def _replay_command(argv: list[str]) -> int:
    """``repro replay`` — re-derive every decision, verify bit-exact.

    Exit codes: 0 all replayed decisions agree bit-exactly (or a
    counterfactual knob was set), 1 any mismatch, 2 missing input or a
    line of a replayed run that cannot be read.
    """
    from repro.pipeline.persist import load_controller
    from repro.telemetry.provenance import (
        beta_from_controller_payload,
        load_run_decisions,
        render_replay,
        replay_records,
        result_json,
    )

    parser = argparse.ArgumentParser(
        prog="repro replay",
        description=(
            "Reconstruct every recorded governor decision from a trace "
            "plus a persisted controller — no workload re-execution — "
            "and verify bit-exact agreement.  --margin/--budget/--beta "
            "re-score the trace under a hypothetical controller instead."
        ),
    )
    parser.add_argument(
        "trace", help="trace directory (from --trace) or a decisions file"
    )
    parser.add_argument(
        "controller", help="saved controller JSON (pipeline.persist)"
    )
    parser.add_argument(
        "--run", default=None, metavar="NAME", help="replay one run only"
    )
    parser.add_argument(
        "--margin",
        type=float,
        default=None,
        help="counterfactual: replay with this safety margin",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="counterfactual: replay as if jobs had this budget",
    )
    parser.add_argument(
        "--beta",
        default=None,
        metavar="FILE",
        help="counterfactual: replay with the anchor coefficients from "
        "this controller JSON",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit strict JSON results"
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE", help="also write to FILE"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return int(error.code or 0)

    def read(path: str, parse):
        """``parse(path)``; a file it cannot read or parse is a
        ValueError whose one line starts with the path."""
        try:
            return parse(path)
        except OSError as error:
            raise ValueError(f"{path}: {error.strerror or error}") from None
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None

    try:
        controller = read(args.controller, load_controller)
        # Every line of a replayed run must parse: an unreadable one is
        # a decision replay could not verify.
        runs, warnings = load_run_decisions(args.trace, args.run, strict=True)
        beta = None
        if args.beta is not None:
            beta = read(
                args.beta,
                lambda path: beta_from_controller_payload(
                    json.loads(pathlib.Path(path).read_text())
                ),
            )
            width = len(controller.predictor.model_fmax.coef_)
            if len(beta["model_fmax"].coef) != width:
                raise ValueError(
                    f"{args.beta}: its models have "
                    f"{len(beta['model_fmax'].coef)} coefficients, "
                    f"{args.controller}'s have {width}"
                )
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    results = [
        replay_records(
            records,
            controller.dvfs,
            run=name,
            margin=args.margin,
            budget=args.budget,
            beta=beta,
        )
        for name, records in runs.items()
    ]
    if args.json:
        text = result_json([result.as_dict() for result in results])
    else:
        text = "\n\n".join(render_replay(result) for result in results)
    print(text)
    if args.output is not None:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
    mismatched = any(
        not result.counterfactual and result.mismatches for result in results
    )
    return 1 if mismatched else 0


def _diff_decisions_command(argv: list[str]) -> int:
    """``repro diff-decisions`` — classify divergences between two traces.

    Exit codes: 0 ok (including divergences found — diffing is a
    reporting tool), 2 missing input or no shared runs.
    """
    from repro.telemetry.provenance import (
        diff_decisions,
        load_run_decisions,
        render_diff,
        result_json,
    )

    parser = argparse.ArgumentParser(
        prog="repro diff-decisions",
        description=(
            "Align two traces' decision streams by job id, classify each "
            "divergence (feature drift vs beta change vs margin/budget "
            "change vs switch-time), and print a ranked report."
        ),
    )
    parser.add_argument("trace_a", help="first trace directory or file")
    parser.add_argument("trace_b", help="second trace directory or file")
    parser.add_argument(
        "--run", default=None, metavar="NAME", help="diff one run name only"
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=25,
        help="divergences listed in the text report",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit strict JSON results"
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE", help="also write to FILE"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return int(error.code or 0)

    try:
        runs_a, warnings_a = load_run_decisions(args.trace_a, args.run)
        runs_b, warnings_b = load_run_decisions(args.trace_b, args.run)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    for warning in warnings_a + warnings_b:
        print(f"warning: {warning}", file=sys.stderr)

    shared = sorted(runs_a.keys() & runs_b.keys())
    if not shared:
        print(
            "no run names shared between the two traces "
            f"(A: {', '.join(sorted(runs_a)) or 'none'}; "
            f"B: {', '.join(sorted(runs_b)) or 'none'})",
            file=sys.stderr,
        )
        return 2
    diffs = [
        diff_decisions(runs_a[name], runs_b[name], run=name)
        for name in shared
    ]
    if args.json:
        text = result_json([diff.as_dict() for diff in diffs])
    else:
        text = "\n\n".join(
            render_diff(diff, limit=args.limit) for diff in diffs
        )
    print(text)
    if args.output is not None:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
    return 0


def _profile_command(argv: list[str]) -> int:
    """``repro profile APP`` — profile the *simulator's* host performance.

    Runs one workload under a governor with telemetry off (so the
    numbers describe the hot path a production run pays) and the host
    profiler on: phase-scoped wall-time accounting plus a statistical
    stack sampler.  Writes ``host.<app>.<governor>.{hostprof.json,
    flame.txt,hotspots.json,metrics.json}`` into ``--out`` — the
    metrics file feeds ``repro report --gate BENCH_host_baseline.json
    --runs host.``.  Exit codes: 0 ok, 2 bad input.
    """
    from repro.pipeline.config import PipelineConfig
    from repro.runtime.executor import TaskLoopRunner
    from repro.telemetry.hostprof import (
        HostProfiler,
        StackSampler,
        hotspots,
        render_hotspots,
        render_profile,
        write_host_profile,
    )

    parser = _single_run_parser(
        "repro profile",
        "Host-side performance profile of the simulator itself: "
        "phase-scoped wall-time accounting (interpreter, governor "
        "decision, switch, bookkeeping), host jobs/sec, a collapsed-"
        "stack flamegraph, and a top-N hotspot table attributed to "
        "components and IR ops.  This measures the *host* cost of "
        "simulating — the instrument behind the ROADMAP hot-path "
        "speedup work — not the simulated platform.",
        jobs=400,
    )
    parser.add_argument(
        "--profile-jobs",
        type=int,
        default=60,
        help="jobs profiled per app when training the controller "
        "(smaller = faster setup; does not affect the measured run)",
    )
    parser.add_argument(
        "--sample-interval",
        type=int,
        default=64,
        metavar="N",
        help="stack-sample every Nth Python call (0 disables the "
        "sampler; phase timers still run)",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="hotspot table length"
    )
    parser.add_argument(
        "--out",
        default="profile-out",
        metavar="DIR",
        help="artifact directory (default: profile-out)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the profile as strict JSON instead of text",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return int(error.code or 0)

    if args.sample_interval < 0:
        print("--sample-interval must be >= 0", file=sys.stderr)
        return 2

    try:
        lab = Lab(
            jitter_sigma=args.jitter,
            seed=args.seed,
            pipeline_config=PipelineConfig(n_profile_jobs=args.profile_jobs),
        )
        # The simulated run underneath the profile reproduces exactly;
        # only the host timings vary run to run.
        governor, inputs, run_seed = _single_run(args, lab, "profile")
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    sampler = (
        StackSampler(interval=args.sample_interval)
        if args.sample_interval > 0
        else None
    )
    hostprof = HostProfiler(sampler=sampler)
    runner = TaskLoopRunner(
        board=lab.make_board(run_seed),
        task=lab.app(args.app).task,
        governor=governor,
        inputs=inputs,
        interpreter=lab.interpreter,
        hostprof=hostprof,
    )
    with hostprof.running():
        result = runner.run()
    state = hostprof.state()

    run_name = f"host.{args.app}.{args.governor}"
    written = write_host_profile(
        state, args.out, run_name, top_n=args.top
    )
    if args.json:
        hotspots_path = next(
            p for p in written if p.name.endswith(".hotspots.json")
        )
        print(hotspots_path.read_text(), end="")
    else:
        print(render_profile(state, title=run_name))
        print()
        print(render_hotspots(hotspots(state, top_n=args.top)))
        print(
            f"\nsimulated run underneath: {result.n_jobs} jobs, "
            f"{result.n_missed} missed, {result.energy_j:.3f} J"
        )
    print(
        f"[profile: {len(written)} file(s) -> {args.out}]", file=sys.stderr
    )
    return 0


def _energy_command(argv: list[str]) -> int:
    """``repro energy APP`` — attribute a run's joules, check conservation.

    Runs one workload with the energy ledger subscribed to the board's
    segment stream, prints the per-phase/per-OPP attribution, the top-N
    energy-hungriest jobs, and the live normalized saving vs. the
    embedded performance-governor counterfactual, then verifies the
    conservation invariant (attributed cells == ``board.energy_j()``
    within 1e-9).  ``--trace`` writes ``energy.<app>.<governor>.
    {energy.json,metrics.json}`` — the metrics file feeds ``repro
    report --gate BENCH_energy_baseline.json --runs energy.``.  Exit
    codes: 0 ok, 1 conservation violated, 2 bad input.
    """
    from repro.pipeline.config import PipelineConfig
    from repro.runtime.executor import TaskLoopRunner
    from repro.telemetry.energy import (
        CONSERVATION_TOL_J,
        EnergyLedger,
        energy_metrics,
        render_energy,
        render_energy_cells,
        write_energy_report,
    )
    from repro.telemetry.provenance import result_json

    parser = _single_run_parser(
        "repro energy",
        "Energy attribution ledger for one simulated run: splits the "
        "board's exact power-timeline integral into per-job x "
        "per-phase (predict/switch/execute/idle/feedback) x per-OPP "
        "cells, checks the conservation invariant against "
        "board.energy_j(), and reports the normalized saving vs. an "
        "embedded performance-governor counterfactual — the paper's "
        "Fig. 15 headline as a continuously observed metric.",
        jobs=400,
    )
    parser.add_argument(
        "--profile-jobs",
        type=int,
        default=60,
        help="jobs profiled per app when training the controller",
    )
    parser.add_argument(
        "--top", type=int, default=10, help="top-N energy-hungriest jobs"
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="write energy.<app>.<governor>.{energy.json,metrics.json} "
        "artifacts into DIR",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the energy state as strict JSON instead of text",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return int(error.code or 0)

    try:
        lab = Lab(
            jitter_sigma=args.jitter,
            seed=args.seed,
            pipeline_config=PipelineConfig(n_profile_jobs=args.profile_jobs),
        )
        governor, inputs, run_seed = _single_run(args, lab, "energy")
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    board = lab.make_board(run_seed)
    ledger = EnergyLedger(board.power, board.opps)
    runner = TaskLoopRunner(
        board=board,
        task=lab.app(args.app).task,
        governor=governor,
        inputs=inputs,
        interpreter=lab.interpreter,
        energy=ledger,
    )
    result = runner.run()
    error_j = ledger.conservation_error_j(board.energy_j())
    state = ledger.state()
    run_name = f"energy.{args.app}.{args.governor}"

    if args.trace is not None:
        written = write_energy_report(
            ledger, args.trace, run_name,
            conservation_error_j=error_j, top_n=args.top,
        )
        print(
            f"[energy: {len(written)} file(s) -> {args.trace}]",
            file=sys.stderr,
        )
    if args.json:
        print(result_json(energy_metrics(state, error_j)))
    else:
        print(render_energy(state, title=run_name))
        print()
        print(render_energy_cells(ledger, top_n=args.top))
        print(
            f"\nsimulated run underneath: {result.n_jobs} jobs, "
            f"{result.n_missed} missed, {result.energy_j:.3f} J"
        )
        print(f"conservation error: {error_j:.3e} J "
              f"(tolerance {CONSERVATION_TOL_J:.0e})")
    if error_j > CONSERVATION_TOL_J:
        print(
            f"CONSERVATION VIOLATED: attributed energy misses "
            f"board.energy_j() by {error_j:.3e} J",
            file=sys.stderr,
        )
        return 1
    return 0


def _controller_certificate_report(path: pathlib.Path) -> str:
    """Render the slice certificate stored in a saved controller file."""
    from repro.programs.analysis.certify import SliceCertificate

    payload = json.loads(path.read_text())
    app = payload.get("app_name", "?")
    data = payload.get("certificate")
    if data is None:
        return (
            f"controller {app!r} ({path}): no slice certificate "
            "(pipeline ran with certify='off' or a pre-certifier format)"
        )
    cert = SliceCertificate.from_dict(data)
    return f"controller {app!r} ({path})\n" + _render_certificate(cert)


def _render_certificate(cert) -> str:
    """Human-readable summary of one SliceCertificate."""
    bound = cert.cost_bound_instructions
    bound_txt = f"{bound:,.0f} instr" if math.isfinite(bound) else "unbounded"
    if not cert.cost_bound_tight:
        bound_txt += " (loose)"
    lines = [
        f"slice {cert.program_name!r}: "
        + ("CERTIFIED" if cert.certified else "NOT CERTIFIED"),
        f"  passes:           {', '.join(cert.passes)}",
        f"  side-effect free: {cert.side_effect_free}"
        + (
            f" (writes: {', '.join(cert.writes_globals)})"
            if cert.writes_globals
            else ""
        ),
        "  coverage:         "
        + (
            f"ok ({len(cert.covered_sites)} site(s))"
            if cert.coverage_ok
            else "INCOMPLETE"
        ),
        f"  static cost bound: {bound_txt}, "
        f"{cert.cost_bound_mem_refs:,.0f} mem refs",
    ]
    if cert.diagnostics:
        lines.append(f"  findings ({len(cert.diagnostics)}):")
        lines += [f"    {d.format()}" for d in cert.diagnostics]
    else:
        lines.append("  findings: none")
    return "\n".join(lines)


def _check_command(argv: list[str]) -> int:
    """``repro check`` — run the slice certifier over workloads."""
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.offline import build_controller
    from repro.workloads.registry import get_app

    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Train each workload's controller and run the slice certifier "
            "over the resulting prediction slice: side-effect purity "
            "(§3.2), model-feature coverage, dropped-definition hazards, "
            "and a static worst-case cost bound."
        ),
    )
    parser.add_argument(
        "apps", nargs="*", help="workloads to certify (default: all)"
    )
    parser.add_argument(
        "--all-workloads",
        action="store_true",
        help="certify every registered workload",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any unwaived error-severity finding remains",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write all certificates (with diagnostics) as JSON to FILE",
    )
    parser.add_argument(
        "--profile-jobs",
        type=int,
        default=80,
        help="profiling jobs per app (smaller = faster check)",
    )
    args = parser.parse_args(argv)

    names = list(args.apps)
    if args.all_workloads or not names:
        names = list(app_names())
    unknown = [n for n in names if n not in app_names()]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.profile_jobs < 2:
        print(
            f"--profile-jobs must be >= 2, got {args.profile_jobs}",
            file=sys.stderr,
        )
        return 2

    # certify="warn": the check itself is the reporting mechanism, so
    # build_controller must not raise before we can print the findings.
    config = PipelineConfig(
        certify="warn",
        n_profile_jobs=args.profile_jobs,
        switch_samples=2,
    )
    certificates = {}
    failed: list[str] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in names:
            controller = build_controller(get_app(name), config=config)
            cert = controller.certificate
            assert cert is not None
            certificates[name] = cert
            if not cert.certified:
                failed.append(name)
            print(f"== {name}")
            print(_render_certificate(cert))
            print()

    print(
        f"{len(names) - len(failed)}/{len(names)} workload slice(s) "
        "certified"
        + (f"; NOT certified: {', '.join(failed)}" if failed else "")
    )
    if args.output is not None:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(
                {name: cert.as_dict() for name, cert in certificates.items()},
                indent=2,
            )
        )
        print(f"[certificates -> {out}]")
    if args.strict and failed:
        return 1
    return 0


def _lint_one_workload(app, n_sample_jobs: int) -> dict:
    """All lint findings for one workload (see ``_lint_command``).

    Returns a dict with the waived diagnostic list and summary counts.
    Pure so tests can call it without going through argv parsing.
    """
    from repro.pipeline.offline import profiled_input_ranges
    from repro.programs.analysis.diagnostics import (
        Diagnostic,
        apply_suppressions,
    )
    from repro.programs.analysis.hazards import (
        dead_store_diagnostics,
        hazard_diagnostics,
    )
    from repro.programs.analysis.intervals import cost_bound
    from repro.programs.validate import validate_program

    program = app.task.program
    sample_inputs = app.inputs(n_sample_jobs, seed=0)
    input_names = frozenset().union(
        *(frozenset(job) for job in sample_inputs)
    )
    input_ranges = profiled_input_ranges(sample_inputs, widen=0.5)

    diagnostics: list[Diagnostic] = []
    try:
        validate_program(program, inputs=input_names)
    except ValueError as error:
        diagnostics.append(
            Diagnostic(
                pass_name="validate",
                severity="error",
                site="",
                message=str(error),
                program=app.name,
            )
        )
    diagnostics.extend(
        hazard_diagnostics(
            program, input_names=input_names, program_name=app.name
        )
    )
    diagnostics.extend(dead_store_diagnostics(program, program_name=app.name))
    _, bound_diags = cost_bound(
        program, input_ranges, program_name=app.name
    )
    diagnostics.extend(bound_diags)

    diagnostics = apply_suppressions(diagnostics, app.certifier_waivers)
    by_severity = {"error": 0, "warning": 0, "info": 0}
    suppressed = 0
    for diagnostic in diagnostics:
        if diagnostic.suppressed:
            suppressed += 1
        else:
            by_severity[diagnostic.severity] += 1
    return {
        "diagnostics": diagnostics,
        "counts": by_severity,
        "suppressed": suppressed,
    }


def _lint_command(argv: list[str]) -> int:
    """``repro lint`` — static analyses over workload task programs."""
    from repro.workloads.registry import get_app

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Run the static-analysis suite over workload task programs "
            "without training anything: structural validation, "
            "unreachable-read hazards, dead stores and static cost-bound "
            "looseness.  Nothing is modified; findings are printed as "
            "diagnostics and (optionally) exported for the CI gate."
        ),
    )
    parser.add_argument(
        "apps", nargs="*", help="workloads to lint (default: all)"
    )
    parser.add_argument(
        "--all-workloads",
        action="store_true",
        help="lint every registered workload",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any unwaived error-severity finding remains",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write all findings as JSON to FILE",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help=(
            "write lint.* counters to DIR/lint.all.metrics.json in the "
            "trace-directory schema, so `repro report DIR --gate "
            "BENCH_lint_baseline.json --runs lint.` can gate them"
        ),
    )
    parser.add_argument(
        "--sample-jobs",
        type=int,
        default=40,
        help="input-script jobs sampled per app to seed input ranges",
    )
    args = parser.parse_args(argv)

    names = list(args.apps)
    if args.all_workloads or not names:
        names = list(app_names())
    unknown = [n for n in names if n not in app_names()]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.sample_jobs < 1:
        print(
            f"--sample-jobs must be >= 1, got {args.sample_jobs}",
            file=sys.stderr,
        )
        return 2

    totals = {"error": 0, "warning": 0, "info": 0}
    suppressed = 0
    failed: list[str] = []
    report: dict[str, dict] = {}
    for name in names:
        outcome = _lint_one_workload(get_app(name), args.sample_jobs)
        for severity in totals:
            totals[severity] += outcome["counts"][severity]
        suppressed += outcome["suppressed"]
        if outcome["counts"]["error"]:
            failed.append(name)
        print(f"== {name}")
        if outcome["diagnostics"]:
            for diagnostic in outcome["diagnostics"]:
                print("  " + diagnostic.format())
        else:
            print("  clean")
        print()
        report[name] = {
            "diagnostics": [
                d.as_dict() for d in outcome["diagnostics"]
            ],
            "counts": outcome["counts"],
            "suppressed": outcome["suppressed"],
        }

    print(
        f"{len(names) - len(failed)}/{len(names)} workload(s) clean; "
        f"{totals['error']} error(s), {totals['warning']} warning(s), "
        f"{totals['info']} info, {suppressed} waived"
        + (f"; errors in: {', '.join(failed)}" if failed else "")
    )
    if args.output is not None:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2))
        print(f"[lint report -> {out}]")
    if args.trace is not None:
        trace_dir = pathlib.Path(args.trace)
        trace_dir.mkdir(parents=True, exist_ok=True)
        metrics = {
            "counters": {
                "lint.workloads": float(len(names)),
                "lint.diagnostics.error": float(totals["error"]),
                "lint.diagnostics.warning": float(totals["warning"]),
                "lint.diagnostics.info": float(totals["info"]),
                "lint.diagnostics.suppressed": float(suppressed),
            },
            "gauges": {},
            "histograms": {},
        }
        (trace_dir / "lint.all.metrics.json").write_text(
            json.dumps(metrics, indent=2)
        )
        print(f"[lint metrics -> {trace_dir / 'lint.all.metrics.json'}]")
    if args.strict and failed:
        return 1
    return 0


def _jsonable(value):
    """Recursively convert an experiment result to JSON-safe types.

    Handles nested dataclasses, numpy scalars and arrays (via their
    ``tolist`` duck type, so numpy need not be imported here), enums,
    sets, and non-finite floats (NaN/inf become null).  Anything else
    falls back to ``str`` as a last resort.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (JobRecord, Work)):
        # Records are named tuples: an object keyed by field, not a list.
        return {name: _jsonable(v) for name, v in zip(value._fields, value)}
    if isinstance(value, enum.Enum):
        return _jsonable(value.value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (bool, int, str)):
        return value
    # numpy scalars and arrays both expose tolist(); the result is plain
    # Python (possibly nested lists / non-finite floats), so recurse.
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return _jsonable(tolist())
    return str(value)


def _result_json(result) -> str:
    """Strict JSON for an experiment result dataclass (round-trippable:
    no NaN tokens, no stringified numpy scalars)."""
    return json.dumps(_jsonable(result), allow_nan=False)


if __name__ == "__main__":
    sys.exit(main())
