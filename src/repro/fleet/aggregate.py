"""Fleet roll-up: per-tenant and fleet-wide SLO accounting.

The fleet analogue of the single-run SLO watchdog: every session
carries mergeable :class:`~repro.telemetry.slo.SloTrackerState`
snapshots, and this module folds them — always in canonical
``(roster order, session index)`` order, so the numbers are
bit-identical however the fleet was sharded — into:

- a :class:`TenantRollup` per tenant: merged error budget, multi-window
  burn rates, miss rate, energy, slack tail;
- fleet-wide totals, where the error budget generalizes to
  ``sum(bad) / sum(objective_i * jobs_i)`` (each tenant spends its own
  allowance; the fleet budget is the sum of allowances) and burn rates
  weigh each tenant's window tail against the job-weighted mean
  objective;
- a top-K worst-tenants table ranked by page-severity budget consumed.

The rendered report deliberately excludes shard/worker counts — those
are invocation metadata, printed separately — so a report file is a
determinism witness: byte-equal across partitionings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce

from repro.fleet.session import SessionResult
from repro.fleet.tenant import TenantSpec
from repro.telemetry.energy import EnergyState, merge_energy
from repro.telemetry.metrics import percentile
from repro.telemetry.slo import SloTrackerState, merge_states

__all__ = [
    "SloRollup",
    "TenantRollup",
    "FleetReport",
    "aggregate_fleet",
    "fleet_metrics",
]


@dataclass(frozen=True)
class SloRollup:
    """One SLO spec's merged accounting across a tenant's sessions.

    Attributes:
        spec_name: The spec that was tracked.
        severity: ``"page"`` or ``"ticket"``.
        jobs: Jobs classified across all merged sessions.
        bad: Bad jobs.
        budget_consumed: Fraction of the merged error budget spent.
        burn_rates: Merged burn rate per window, keyed ``"w<jobs>"``.
        window_tails: Per window, ``(bad, observed)`` over the merged
            ring tail — the raw numerator/denominator behind the burn
            rate, which the fleet-wide roll-up re-weighs.
        exceeding: Whether the merged tails violate every window.
        alerts: Alerts fired across the constituent sessions.
    """

    spec_name: str
    severity: str
    jobs: int
    bad: int
    budget_consumed: float
    burn_rates: dict[str, float]
    window_tails: dict[str, tuple[int, int]]
    exceeding: bool
    alerts: int

    @classmethod
    def from_state(cls, state: SloTrackerState, alerts: int) -> "SloRollup":
        return cls(
            spec_name=state.spec.name,
            severity=state.spec.severity,
            jobs=state.jobs,
            bad=state.bad,
            budget_consumed=state.budget_consumed,
            burn_rates=state.burn_rates(),
            window_tails={
                f"w{window.jobs}": (sum(ring), len(ring))
                for window, ring in zip(state.spec.windows, state.rings)
            },
            exceeding=state.exceeding,
            alerts=alerts,
        )

    def as_dict(self) -> dict:
        return {
            "spec_name": self.spec_name,
            "severity": self.severity,
            "jobs": self.jobs,
            "bad": self.bad,
            "budget_consumed": self.budget_consumed,
            "burn_rates": dict(self.burn_rates),
            "window_tails": {
                window: list(tail)
                for window, tail in self.window_tails.items()
            },
            "exceeding": self.exceeding,
            "alerts": self.alerts,
        }


@dataclass(frozen=True)
class TenantRollup:
    """One tenant's merged outcome.

    Attributes:
        name / app / governor: Identity, echoed from the spec.
        sessions: Sessions merged.
        jobs / misses / energy_j / switches: Summed over sessions.
        miss_rate: ``misses / jobs``.
        slack_p50_s / slack_p95_s: Percentiles over every job's slack.
        slo: Merged accounting per spec, in spec order.
        objective: The tenant's page miss objective (budget weighting).
        energy: Merged energy-attribution state (phase/OPP marginals,
            counterfactual), present when the fleet ran with
            attribution on; None otherwise.
    """

    name: str
    app: str
    governor: str
    sessions: int
    jobs: int
    misses: int
    energy_j: float
    switches: int
    miss_rate: float
    slack_p50_s: float
    slack_p95_s: float
    slo: tuple[SloRollup, ...]
    objective: float
    energy: EnergyState | None = None

    @property
    def worst_budget_consumed(self) -> float:
        """Budget consumed on the worst page-severity objective."""
        page = [r.budget_consumed for r in self.slo if r.severity == "page"]
        return max(page) if page else 0.0

    @property
    def page_alerts(self) -> int:
        return sum(r.alerts for r in self.slo if r.severity == "page")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "app": self.app,
            "governor": self.governor,
            "sessions": self.sessions,
            "jobs": self.jobs,
            "misses": self.misses,
            "energy_j": self.energy_j,
            "switches": self.switches,
            "miss_rate": self.miss_rate,
            "slack_p50_s": self.slack_p50_s,
            "slack_p95_s": self.slack_p95_s,
            "objective": self.objective,
            "slo": [r.as_dict() for r in self.slo],
            "energy": None if self.energy is None else self.energy.as_dict(),
        }


@dataclass(frozen=True)
class FleetReport:
    """The fleet-wide roll-up (the ``fleet run`` deliverable).

    Content excludes the partitioning (shards/workers) on purpose:
    byte-equality of two reports proves the runs computed the same
    fleet.

    Attributes:
        seed: Root seed the fleet derived everything from.
        tenants: Per-tenant roll-ups, roster order.
        sessions / jobs / misses / energy_j / switches: Fleet totals.
        miss_rate: Fleet miss fraction.
        slack_p50_s / slack_p95_s: Percentiles over every fleet job.
        budget_consumed: ``sum(bad) / sum(objective_i * jobs_i)`` over
            tenants' page deadline objectives.
        burn_rates: Fleet burn per window: summed window tails over the
            job-weighted mean objective.
        page_alerts / ticket_alerts: Alert totals by severity.
        top_k: Worst tenants by page budget consumed (name order breaks
            ties), at most K entries.
        energy: Fleet-wide merged energy-attribution state (folded from
            the tenant roll-ups in roster order), present only when the
            fleet ran with attribution on.  Conservation holds at this
            level too: its ``total_j`` equals the per-tenant ledgers'
            sum, each of which was checked against its board.
        energy_top_k: Most energy-hungry tenants ranked by attributed
            joules (name order breaks ties), at most K entries; empty
            when attribution was off.
    """

    seed: int
    tenants: tuple[TenantRollup, ...]
    sessions: int
    jobs: int
    misses: int
    energy_j: float
    switches: int
    miss_rate: float
    slack_p50_s: float
    slack_p95_s: float
    budget_consumed: float
    burn_rates: dict[str, float]
    page_alerts: int
    ticket_alerts: int
    top_k: tuple[str, ...]
    energy: EnergyState | None = None
    energy_top_k: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "sessions": self.sessions,
            "jobs": self.jobs,
            "misses": self.misses,
            "energy_j": self.energy_j,
            "switches": self.switches,
            "miss_rate": self.miss_rate,
            "slack_p50_s": self.slack_p50_s,
            "slack_p95_s": self.slack_p95_s,
            "budget_consumed": self.budget_consumed,
            "burn_rates": dict(self.burn_rates),
            "page_alerts": self.page_alerts,
            "ticket_alerts": self.ticket_alerts,
            "top_k": list(self.top_k),
            "energy": None if self.energy is None else self.energy.as_dict(),
            "energy_top_k": list(self.energy_top_k),
            "tenants": [t.as_dict() for t in self.tenants],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def _top_k_rows(self) -> list[tuple]:
        by_name = {t.name: t for t in self.tenants}
        rows = []
        for rank, name in enumerate(self.top_k, start=1):
            t = by_name[name]
            rows.append(
                (
                    rank,
                    name,
                    f"{t.worst_budget_consumed:.3f}",
                    f"{100 * t.miss_rate:.2f}%",
                    t.misses,
                    t.jobs,
                    t.page_alerts,
                )
            )
        return rows

    def _energy_tenant_rows(self) -> list[tuple]:
        by_name = {t.name: t for t in self.tenants}
        rows = []
        for rank, name in enumerate(self.energy_top_k, start=1):
            t = by_name[name]
            state = t.energy
            assert state is not None  # ranked only when attribution ran
            savings = state.savings_frac
            rows.append(
                (
                    rank,
                    name,
                    f"{state.total_j:.3f}",
                    f"{state.j_per_job * 1e3:.3f}",
                    f"{100 * savings:.1f}%" if savings == savings else "-",
                    f"{state.phase_j('execute'):.3f}",
                    f"{state.phase_j('idle'):.3f}",
                )
            )
        return rows

    def _energy_summary(self, sep: str) -> str:
        """One-line fleet energy roll-up, with ``sep`` between fields."""
        state = self.energy
        assert state is not None
        savings = state.savings_frac
        fields = [
            f"attributed {state.total_j:.3f} J",
            f"counterfactual {state.counterfactual_j:.3f} J",
            (
                f"savings {100 * savings:.1f}%"
                if savings == savings
                else "savings -"
            ),
            f"J/job {state.j_per_job * 1e3:.3f} mJ",
            f"overlap {state.overlap_j * 1e3:.3f} mJ",
        ]
        return sep.join(fields)

    def render_text(self) -> str:
        """Plain-text report (the CLI default)."""
        from repro.telemetry.report import _table

        sections = [
            f"fleet report (seed {self.seed}): "
            f"{self.sessions} sessions, {self.jobs} jobs"
        ]
        tenant_rows = [
            (
                t.name,
                t.app,
                t.governor,
                t.sessions,
                t.jobs,
                f"{100 * t.miss_rate:.2f}%",
                f"{t.worst_budget_consumed:.3f}",
                f"{t.energy_j:.3f}",
                t.page_alerts,
            )
            for t in self.tenants
        ]
        sections.append(
            _table(
                ["tenant", "app", "governor", "sessions", "jobs",
                 "miss-rate", "budget", "energy[J]", "alerts"],
                tenant_rows,
                title="tenants (budget = error budget consumed, page severity)",
            )
        )
        burn = "  ".join(
            f"{window}={rate:.2f}x"
            for window, rate in sorted(self.burn_rates.items())
        )
        sections.append(
            "fleet: "
            f"miss-rate {100 * self.miss_rate:.2f}%  "
            f"budget {self.budget_consumed:.3f}  "
            f"burn [{burn}]  "
            f"energy {self.energy_j:.3f} J  "
            f"slack p50/p95 {self.slack_p50_s * 1e3:.2f}/"
            f"{self.slack_p95_s * 1e3:.2f} ms  "
            f"alerts page={self.page_alerts} ticket={self.ticket_alerts}"
        )
        sections.append(
            _table(
                ["#", "tenant", "budget", "miss-rate", "misses", "jobs",
                 "alerts"],
                self._top_k_rows(),
                title=f"top-{len(self.top_k)} worst tenants",
            )
        )
        if self.energy is not None:
            sections.append(
                "energy attribution: " + self._energy_summary("  ")
            )
            sections.append(
                _table(
                    ["#", "tenant", "energy[J]", "J/job[mJ]", "savings",
                     "execute[J]", "idle[J]"],
                    self._energy_tenant_rows(),
                    title=(
                        f"top-{len(self.energy_top_k)} energy-hungry "
                        "tenants (savings vs performance governor)"
                    ),
                )
            )
        return "\n\n".join(sections)

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown (the CI artifact format)."""

        def md_table(headers: list[str], rows: list[tuple]) -> str:
            lines = [
                "| " + " | ".join(headers) + " |",
                "|" + "|".join("---" for _ in headers) + "|",
            ]
            for row in rows:
                lines.append(
                    "| " + " | ".join(str(c) for c in row) + " |"
                )
            return "\n".join(lines)

        tenant_rows = [
            (
                t.name,
                t.app,
                t.governor,
                t.sessions,
                t.jobs,
                f"{100 * t.miss_rate:.2f}%",
                f"{t.worst_budget_consumed:.3f}",
                f"{t.energy_j:.3f}",
                t.page_alerts,
            )
            for t in self.tenants
        ]
        burn = ", ".join(
            f"{window}: {rate:.2f}x"
            for window, rate in sorted(self.burn_rates.items())
        )
        parts = [
            f"# Fleet report (seed {self.seed})",
            f"- sessions: {self.sessions}",
            f"- jobs: {self.jobs}",
            f"- miss rate: {100 * self.miss_rate:.2f}%",
            f"- error budget consumed: {self.budget_consumed:.3f}",
            f"- burn rates: {burn}",
            f"- energy: {self.energy_j:.3f} J",
            f"- alerts: {self.page_alerts} page, "
            f"{self.ticket_alerts} ticket",
            "",
            "## Tenants",
            md_table(
                ["tenant", "app", "governor", "sessions", "jobs",
                 "miss rate", "budget", "energy [J]", "page alerts"],
                tenant_rows,
            ),
            "",
            f"## Top-{len(self.top_k)} worst tenants",
            md_table(
                ["#", "tenant", "budget", "miss rate", "misses", "jobs",
                 "page alerts"],
                self._top_k_rows(),
            ),
        ]
        if self.energy is not None:
            parts.extend(
                [
                    "",
                    "## Energy attribution",
                    "- " + self._energy_summary("\n- "),
                    "",
                    (
                        f"### Top-{len(self.energy_top_k)} energy-hungry "
                        "tenants"
                    ),
                    md_table(
                        ["#", "tenant", "energy [J]", "J/job [mJ]",
                         "savings", "execute [J]", "idle [J]"],
                        self._energy_tenant_rows(),
                    ),
                ]
            )
        return "\n".join(parts)


def _merge_tenant(
    tenant: TenantSpec, results: list[SessionResult]
) -> TenantRollup:
    """Fold one tenant's session results (already in canonical order)."""
    if not results:
        raise ValueError(f"tenant {tenant.name!r} produced no sessions")
    n_specs = len(results[0].slo_states)
    merged_states = [
        reduce(merge_states, (r.slo_states[i] for r in results))
        for i in range(n_specs)
    ]
    slacks = [s for r in results for s in r.slacks_s]
    jobs = sum(r.jobs for r in results)
    misses = sum(r.misses for r in results)
    energy = None
    if all(r.energy_state is not None for r in results):
        # Canonical (session index) fold order keeps the float sums
        # bit-identical for every shard partitioning.
        energy = reduce(merge_energy, (r.energy_state for r in results))
    return TenantRollup(
        name=tenant.name,
        app=tenant.app,
        governor=tenant.governor,
        sessions=len(results),
        jobs=jobs,
        misses=misses,
        energy_j=sum(r.energy_j for r in results),
        switches=sum(r.switches for r in results),
        miss_rate=misses / jobs if jobs else 0.0,
        slack_p50_s=percentile(slacks, 50) if slacks else float("nan"),
        slack_p95_s=percentile(slacks, 95) if slacks else float("nan"),
        slo=tuple(
            SloRollup.from_state(state, alerts=len(state.alerts))
            for state in merged_states
        ),
        objective=tenant.miss_objective,
        energy=energy,
    )


def aggregate_fleet(
    tenants: tuple[TenantSpec, ...],
    results: list[SessionResult] | tuple[SessionResult, ...],
    seed: int,
    top_k: int = 5,
) -> FleetReport:
    """Roll session results up into a :class:`FleetReport`.

    Results may arrive in any order (shards finish when they finish);
    they are re-sorted into canonical ``(roster order, session index)``
    order first, so the folded floating-point sums — and therefore the
    rendered report — are identical for every partitioning.
    """
    order = {tenant.name: i for i, tenant in enumerate(tenants)}
    unknown = {r.tenant for r in results} - set(order)
    if unknown:
        raise ValueError(f"results reference unknown tenants {sorted(unknown)}")
    canonical = sorted(results, key=lambda r: (order[r.tenant], r.index))

    rollups = []
    for tenant in tenants:
        mine = [r for r in canonical if r.tenant == tenant.name]
        rollups.append(_merge_tenant(tenant, mine))

    jobs = sum(t.jobs for t in rollups)
    misses = sum(t.misses for t in rollups)
    slacks = [s for r in canonical for s in r.slacks_s]

    # Fleet error budget: each tenant's allowance is objective_i * jobs_i
    # bad jobs; the fleet-wide budget is the sum of allowances, spent by
    # the sum of page-objective violations.
    allowance = sum(t.objective * t.jobs for t in rollups)
    page_bad = 0
    # Fleet burn per window: pool every tenant's page-severity window
    # tail and weigh the pooled bad fraction against the job-weighted
    # mean objective (each tenant contributes its own allowance).
    ring_bad: dict[str, int] = {}
    ring_len: dict[str, int] = {}
    for rollup in rollups:
        for slo in rollup.slo:
            if slo.severity != "page":
                continue
            page_bad += slo.bad
            for window, (bad, observed) in slo.window_tails.items():
                ring_bad[window] = ring_bad.get(window, 0) + bad
                ring_len[window] = ring_len.get(window, 0) + observed
    mean_objective = allowance / jobs if jobs else 1.0
    burn_rates = {
        window: (
            (ring_bad[window] / ring_len[window]) / mean_objective
            if ring_len[window]
            else 0.0
        )
        for window in sorted(ring_bad)
    }

    ranked = sorted(
        rollups,
        key=lambda t: (-t.worst_budget_consumed, -t.misses, t.name),
    )

    fleet_energy = None
    energy_top_k: tuple[str, ...] = ()
    if all(t.energy is not None for t in rollups):
        # Roster-order fold mirrors the per-tenant session fold, so the
        # fleet state is the same bytes however the fleet was sharded.
        fleet_energy = reduce(merge_energy, (t.energy for t in rollups))
        hungry = sorted(
            rollups, key=lambda t: (-t.energy.total_j, t.name)
        )
        energy_top_k = tuple(t.name for t in hungry[: max(top_k, 0)])
    return FleetReport(
        seed=seed,
        tenants=tuple(rollups),
        sessions=sum(t.sessions for t in rollups),
        jobs=jobs,
        misses=misses,
        energy_j=sum(t.energy_j for t in rollups),
        switches=sum(t.switches for t in rollups),
        miss_rate=misses / jobs if jobs else 0.0,
        slack_p50_s=percentile(slacks, 50) if slacks else float("nan"),
        slack_p95_s=percentile(slacks, 95) if slacks else float("nan"),
        budget_consumed=page_bad / allowance if allowance else 0.0,
        burn_rates=burn_rates,
        page_alerts=sum(t.page_alerts for t in rollups),
        ticket_alerts=sum(
            slo.alerts
            for t in rollups
            for slo in t.slo
            if slo.severity == "ticket"
        ),
        top_k=tuple(t.name for t in ranked[: max(top_k, 0)]),
        energy=fleet_energy,
        energy_top_k=energy_top_k,
    )


def fleet_metrics(report: FleetReport) -> dict:
    """The report as a metrics-registry dump (``*.metrics.json`` shape).

    Written as ``fleet.<name>.metrics.json`` into a trace directory so
    the existing ``repro report --gate`` flow can hold fleet summaries
    to a committed baseline.  Names are chosen for
    :func:`repro.telemetry.report.metric_direction`: ``fleet.misses`` /
    ``fleet.*_alerts`` / ``fleet.energy_j`` gate lower-is-better,
    ``fleet.slack_*`` higher-is-better, counts gate as neutral drift.
    With attribution on, the attributed roll-up additionally exports
    ``fleet.energy_attributed_j`` / ``fleet.energy_j_per_job``
    (lower-is-better) and ``fleet.energy_savings_frac``
    (higher-is-better — "savings" outranks "energy" in the direction
    table).
    """
    gauges = {
        "fleet.energy_j": report.energy_j,
        "fleet.miss_rate": report.miss_rate,
        "fleet.budget_consumed": report.budget_consumed,
        "fleet.slack_p50_s": report.slack_p50_s,
        "fleet.slack_p95_s": report.slack_p95_s,
    }
    if report.energy is not None:
        state = report.energy
        gauges["fleet.energy_attributed_j"] = state.total_j
        gauges["fleet.energy_counterfactual_j"] = state.counterfactual_j
        if state.jobs:
            gauges["fleet.energy_j_per_job"] = state.j_per_job
        savings = state.savings_frac
        if savings == savings:
            gauges["fleet.energy_savings_frac"] = savings
    return {
        "counters": {
            "fleet.sessions": report.sessions,
            "fleet.jobs": report.jobs,
            "fleet.misses": report.misses,
            "fleet.switches": report.switches,
            "fleet.page_alerts": report.page_alerts,
            "fleet.ticket_alerts": report.ticket_alerts,
        },
        "gauges": gauges,
        "histograms": {},
    }
