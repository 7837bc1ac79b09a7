"""Fleet demo: three tenants, one drifting, and the SLO roll-up.

A small fleet of interactive sessions runs under one virtual clock:
a 2048 tenant whose ample slack absorbs bursty arrivals, a steady
rijndael tenant on periodic arrivals, and a second rijndael tenant —
identical except its platform silently slows down by x1.8 halfway
through every session.  The fleet report merges each tenant's
per-session error budgets (merge == concatenation, see
``docs/fleet.md``), pools the burn-rate windows, and ranks the top-K
worst tenants — the drifting tenant should head that table.

The same spec is then re-run on a different shard count to show the
determinism contract: the reports are byte-identical, because shard
and worker counts are partitioning, not input.

Run:  python examples/fleet_demo.py
"""

from repro.fleet.arrivals import BurstyArrivals
from repro.fleet.coordinator import FleetSpec, run_fleet
from repro.fleet.tenant import TenantSpec

TENANTS = (
    TenantSpec(
        name="puzzles",
        app="2048",
        sessions=12,
        jobs_per_session=24,
        arrival=BurstyArrivals(burst_factor=4.0),
    ),
    TenantSpec(
        name="crypto",
        app="rijndael",
        sessions=8,
        jobs_per_session=24,
    ),
    TenantSpec(
        name="crypto-drift",
        app="rijndael",
        sessions=8,
        jobs_per_session=24,
        drift_factor=1.8,      # platform slows x1.8 ...
        drift_at_frac=0.5,     # ... halfway through each session
    ),
)


def main():
    spec = FleetSpec(tenants=TENANTS, seed=7, shards=4, top_k=3)
    print(
        f"running {spec.total_sessions} sessions on {spec.shards} shards "
        "(first run trains the controllers; reruns hit the cache)\n"
    )
    outcome = run_fleet(spec)
    report = outcome.report
    print(report.render_text())

    drifter = next(t for t in report.tenants if t.name == "crypto-drift")
    steady = next(t for t in report.tenants if t.name == "crypto")
    print(
        f"\nsame app, same arrivals: drift pushes the miss rate "
        f"from {steady.miss_rate:.1%} to {drifter.miss_rate:.1%} and burns "
        f"{drifter.worst_budget_consumed:.1f}x of the error budget "
        f"(page alerts: {drifter.page_alerts})"
    )
    assert report.top_k[0] == "crypto-drift", report.top_k

    # The determinism contract: partitioning never reaches the report.
    rerun = run_fleet(FleetSpec(tenants=TENANTS, seed=7, shards=1, top_k=3))
    assert rerun.report.to_json() == report.to_json()
    print(
        "\nre-ran on 1 shard: report is byte-identical "
        "(shards are partitioning, not input)"
    )


if __name__ == "__main__":
    main()
