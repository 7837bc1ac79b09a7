"""``repro fleet`` — run a simulated fleet and report on it.

Two subcommands:

``fleet run``
    Build a tenant roster (from flags or a ``--spec`` JSON file),
    simulate it across N shards (optionally a worker pool), and render
    the fleet report as text, markdown, or JSON.  ``--trace DIR``
    additionally writes ``fleet.<name>.metrics.json`` (the file
    ``repro report --gate`` consumes), ``fleet_report.json``, and
    ``fleet_report.md`` into DIR.

``fleet report PATH``
    Re-render a saved ``fleet_report.json`` (or a directory containing
    one) without re-simulating.

The rendered report never contains the shard/worker partitioning —
that is printed separately as invocation metadata — so saving the
report from two differently-sharded runs yields byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.checks import check_number
from repro.fleet.arrivals import ARRIVAL_KINDS, arrival_from_dict
from repro.fleet.coordinator import FleetSpec, run_fleet
from repro.fleet.tenant import TenantSpec, tenants_from_json

__all__ = ["fleet_command"]


def fleet_command(argv: list[str]) -> int:
    """Entry point for ``repro fleet ...``; returns an exit code."""
    if not argv or argv[0] in ("-h", "--help"):
        print(
            "usage: repro fleet run [options]  |  repro fleet report PATH\n"
            "run 'repro fleet run --help' for the full option list"
        )
        return 0 if argv else 2
    if argv[0] == "run":
        return _run_command(argv[1:])
    if argv[0] == "report":
        return _report_command(argv[1:])
    print(f"unknown fleet subcommand: {argv[0]}", file=sys.stderr)
    return 2


def _build_tenants(args) -> tuple[TenantSpec, ...]:
    """Roster from flags: sessions dealt evenly across the apps."""
    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    if not apps:
        raise ValueError("--apps needs at least one workload name")
    if len(set(apps)) != len(apps):
        raise ValueError(f"--apps must be unique, got {apps}")
    if args.sessions < len(apps):
        raise ValueError(
            f"--sessions {args.sessions} cannot cover {len(apps)} apps"
        )
    per_app, extra = divmod(args.sessions, len(apps))
    arrival = arrival_from_dict({"kind": args.arrival})
    tenants = []
    for i, app in enumerate(apps):
        drift = (
            args.drift
            if args.drift_tenant is not None and args.drift_tenant == app
            else None
        )
        tenants.append(
            TenantSpec(
                name=app,
                app=app,
                governor=args.governor,
                sessions=per_app + (1 if i < extra else 0),
                jobs_per_session=args.jobs,
                arrival=arrival,
                jitter_sigma=args.jitter,
                drift_factor=drift,
            )
        )
    if args.drift_tenant is not None and args.drift_tenant not in apps:
        raise ValueError(
            f"--drift-tenant {args.drift_tenant!r} is not one of {apps}"
        )
    return tuple(tenants)


def _run_command(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro fleet run",
        description=(
            "Simulate a multi-tenant fleet of interactive sessions on "
            "the virtual clock and roll up per-tenant/fleet-wide error "
            "budgets, burn rates, and a top-K worst-tenants table."
        ),
    )
    parser.add_argument(
        "--sessions", type=int, default=100,
        help="total sessions, dealt across --apps (default 100)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="event-loop partitions (never changes results)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the shard pool (never changes results)",
    )
    parser.add_argument("--seed", type=int, default=42, help="root seed")
    parser.add_argument(
        "--apps", default="rijndael,2048",
        help="comma-separated workloads, one tenant each",
    )
    parser.add_argument(
        "--governor", default="prediction", help="governor for every tenant"
    )
    parser.add_argument(
        "--jobs", type=int, default=20, help="jobs per session"
    )
    parser.add_argument(
        "--arrival", default="poisson", choices=sorted(ARRIVAL_KINDS),
        help="arrival process for every tenant",
    )
    parser.add_argument(
        "--jitter", type=float, default=0.02, help="timing-noise sigma"
    )
    parser.add_argument(
        "--top-k", type=int, default=5, help="worst-tenant table length"
    )
    parser.add_argument(
        "--profile-jobs", type=int, default=60,
        help="jobs profiled per app when training predictive controllers",
    )
    parser.add_argument(
        "--drift-tenant", default=None, metavar="NAME",
        help="inject execution-time drift into this tenant's sessions",
    )
    parser.add_argument(
        "--drift", type=float, default=1.5, metavar="FACTOR",
        help="drift slowdown factor for --drift-tenant",
    )
    parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="JSON tenant roster (overrides --sessions/--apps/... flags)",
    )
    parser.add_argument(
        "--name", default="run",
        help="trace run name: metrics land in fleet.<name>.metrics.json",
    )
    parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="write fleet.<name>.metrics.json + fleet_report.{json,md} "
        "into DIR (the directory `repro report --gate` consumes)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    parser.add_argument(
        "--markdown", action="store_true", help="print the report as markdown"
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the rendered report to FILE",
    )
    parser.add_argument(
        "--fail-on-page", action="store_true",
        help="exit 1 when any page-severity alert fired",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="host-profile every shard and merge into one fleet profile "
        "(host.fleet.<name>.* artifacts under --trace; never touches "
        "the deterministic report)",
    )
    parser.add_argument(
        "--energy", action="store_true",
        help="attribute every session's joules with conservation-checked "
        "ledgers and add per-tenant/fleet energy sections to the report "
        "(deterministic: byte-identical across shard/worker counts)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return int(error.code or 0)
    if args.json and args.markdown:
        print("--json and --markdown are mutually exclusive", file=sys.stderr)
        return 2

    try:
        if args.spec is not None:
            tenants = tenants_from_json(pathlib.Path(args.spec).read_text())
        else:
            tenants = _build_tenants(args)
        spec = FleetSpec(
            tenants=tenants,
            seed=args.seed,
            shards=args.shards,
            top_k=args.top_k,
            profile_jobs=args.profile_jobs,
            energy=args.energy,
        )
    except (ValueError, FileNotFoundError) as error:
        print(str(error), file=sys.stderr)
        return 2

    started = time.time()
    outcome = run_fleet(spec, workers=args.workers, profile=args.profile)
    elapsed = time.time() - started
    report = outcome.report

    if args.json:
        text = report.to_json()
    elif args.markdown:
        text = report.render_markdown()
    else:
        text = report.render_text()
    print(text)
    # Invocation metadata stays out of the report itself so the report
    # is a determinism witness across partitionings.
    print(
        f"[fleet: {report.sessions} sessions / {report.jobs} jobs on "
        f"{spec.shards} shard(s) x {args.workers} worker(s) in "
        f"{elapsed:.1f}s]",
        file=sys.stderr,
    )

    if args.output is not None:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
    if outcome.host_profile is not None:
        # Host profile to stderr with the other invocation metadata:
        # wall-clock observations never touch the deterministic report.
        from repro.telemetry.hostprof import render_profile

        print(
            render_profile(
                outcome.host_profile,
                title=f"fleet host profile ({spec.shards} shard(s))",
            ),
            file=sys.stderr,
        )
    if args.trace is not None:
        written = write_fleet_trace(report, args.trace, name=args.name)
        if outcome.host_profile is not None:
            from repro.telemetry.hostprof import write_host_profile

            # host.fleet.<name> keeps the host artifacts clear of the
            # deterministic fleet.<name>.metrics.json gate input while
            # still landing under the `host.` run prefix.
            written += write_host_profile(
                outcome.host_profile, args.trace, f"host.fleet.{args.name}"
            )
        print(
            f"[trace: {len(written)} file(s) -> {args.trace}]",
            file=sys.stderr,
        )

    if args.fail_on_page and report.page_alerts > 0:
        print(
            f"\nFLEET SLO VIOLATED ({report.page_alerts} page alert(s))",
            file=sys.stderr,
        )
        return 1
    return 0


def write_fleet_trace(
    report, directory: pathlib.Path | str, name: str = "run"
) -> list[pathlib.Path]:
    """Write a fleet's trace artifacts; returns the paths.

    ``fleet.<name>.metrics.json`` matches the registry-dump shape the
    report/gate tooling reads, so fleet summaries gate through the
    same ``repro report DIR --gate BASELINE`` flow as single runs.
    """
    from repro.fleet.aggregate import fleet_metrics

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    metrics_path = directory / f"fleet.{name}.metrics.json"
    metrics_path.write_text(json.dumps(fleet_metrics(report), indent=2))
    written.append(metrics_path)
    json_path = directory / "fleet_report.json"
    json_path.write_text(report.to_json() + "\n")
    written.append(json_path)
    md_path = directory / "fleet_report.md"
    md_path.write_text(report.render_markdown() + "\n")
    written.append(md_path)
    return written


def _report_command(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro fleet report",
        description="Re-render a saved fleet_report.json.",
    )
    parser.add_argument(
        "path", help="fleet_report.json, or a directory containing one"
    )
    parser.add_argument(
        "--markdown", action="store_true", help="render markdown"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return int(error.code or 0)

    path = pathlib.Path(args.path)
    if path.is_dir():
        path = path / "fleet_report.json"
    if not path.is_file():
        print(f"no fleet report at {path}", file=sys.stderr)
        return 2
    try:
        report = _report_from_dict(json.loads(path.read_text()))
    except ValueError as error:
        print(f"{path}: {error}", file=sys.stderr)
        return 2
    print(report.render_markdown() if args.markdown else report.render_text())
    return 0


class _Fields:
    """The fields of one JSON object from a saved report.

    A missing or malformed field raises a ``ValueError`` that names the
    object's owner and the field; :meth:`count` and :meth:`real` check
    numbers through :func:`~repro.checks.check_number`.
    """

    _REQUIRED = object()

    def __init__(self, owner: str, data: object):
        if not isinstance(data, dict):
            raise ValueError(f"{owner} must be a JSON object, got {data!r}")
        self.owner = owner
        self.data = data

    def __call__(self, key: str, convert=None, default=_REQUIRED):
        if key not in self.data:
            if default is not self._REQUIRED:
                return default
            raise ValueError(f"{self.owner}: no {key!r} field")
        value = self.data[key]
        if convert is None:
            return value
        try:
            return convert(value)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            raise ValueError(
                f"{self.owner}: malformed {key!r} field: {value!r}"
            ) from None

    def count(self, key: str) -> int:
        return check_number(self.owner, key, self(key), count=True)

    def real(self, key: str) -> float:
        return float(check_number(self.owner, key, self(key)))

    def reals(self, key: str) -> dict[str, float]:
        """A JSON object of finite numbers, as floats."""
        return {
            k: float(check_number(self.owner, f"{key}[{k!r}]", v))
            for k, v in self(key, _json_object).items()
        }


def _json_list(value: object) -> list:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return value


def _json_str(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _json_object(value: object) -> dict:
    if not isinstance(value, dict):
        raise TypeError("not an object")
    return value


def _json_bool(value: object) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not a bool")
    return value


def _window_tail(value: object) -> tuple[int, int]:
    """A ``[bad, observed]`` pair of job counts."""
    bad, observed = value
    return (
        check_number("window tail", "bad", bad, count=True),
        check_number("window tail", "observed", observed, count=True),
    )


def _report_from_dict(data: object):
    """Rebuild a renderable FleetReport from its as_dict() JSON.

    Raises ``ValueError`` naming the tenant and the field when a field
    is missing or malformed.
    """
    from repro.fleet.aggregate import FleetReport, SloRollup, TenantRollup
    from repro.telemetry.energy import EnergyState

    def energy_state(owner, payload):
        # Absent or null in pre-attribution reports -> None.
        if payload is None:
            return None
        return EnergyState.from_dict(payload, f"{owner} energy")

    def slo_rollup(owner, payload):
        s = _Fields(owner, payload)
        return SloRollup(
            spec_name=s("spec_name"),
            severity=s("severity"),
            jobs=s.count("jobs"),
            bad=s.count("bad"),
            budget_consumed=s.real("budget_consumed"),
            burn_rates=s.reals("burn_rates"),
            window_tails=s(
                "window_tails",
                lambda tails: {
                    k: _window_tail(v) for k, v in _json_object(tails).items()
                },
            ),
            exceeding=s("exceeding", _json_bool),
            alerts=s.count("alerts"),
        )

    def tenant_rollup(payload):
        name = payload.get("name") if isinstance(payload, dict) else None
        t = _Fields(f"fleet report tenant {name!r}", payload)
        return TenantRollup(
            name=t("name", _json_str),
            app=t("app"),
            governor=t("governor"),
            sessions=t.count("sessions"),
            jobs=t.count("jobs"),
            misses=t.count("misses"),
            energy_j=t.real("energy_j"),
            switches=t.count("switches"),
            miss_rate=t.real("miss_rate"),
            slack_p50_s=t.real("slack_p50_s"),
            slack_p95_s=t.real("slack_p95_s"),
            objective=t.real("objective"),
            slo=tuple(
                slo_rollup(f"{t.owner} slo", s) for s in t("slo", _json_list)
            ),
            energy=energy_state(t.owner, t("energy", default=None)),
        )

    report = _Fields("fleet report", data)
    tenants = tuple(
        tenant_rollup(t) for t in report("tenants", _json_list)
    )
    by_name = {t.name: t for t in tenants}

    def ranked(names, energy=False):
        # The ranking tables look every name up among the tenants.
        for name in _json_list(names):
            tenant = by_name[name]
            if energy and tenant.energy is None:
                raise ValueError("ranked without energy")
        return tuple(names)

    return FleetReport(
        seed=report.count("seed"),
        tenants=tenants,
        sessions=report.count("sessions"),
        jobs=report.count("jobs"),
        misses=report.count("misses"),
        energy_j=report.real("energy_j"),
        switches=report.count("switches"),
        miss_rate=report.real("miss_rate"),
        slack_p50_s=report.real("slack_p50_s"),
        slack_p95_s=report.real("slack_p95_s"),
        budget_consumed=report.real("budget_consumed"),
        burn_rates=report.reals("burn_rates"),
        page_alerts=report.count("page_alerts"),
        ticket_alerts=report.count("ticket_alerts"),
        top_k=report("top_k", ranked),
        energy=energy_state(report.owner, report("energy", default=None)),
        energy_top_k=report(
            "energy_top_k", lambda names: ranked(names, energy=True), ()
        ),
    )
