"""Coordinator: the fleet-level determinism contract, worker pools."""

import pytest

from repro.fleet.arrivals import BurstyArrivals, PoissonArrivals
from repro.fleet.coordinator import FleetSpec, run_fleet
from repro.fleet.tenant import TenantSpec

TENANTS = (
    TenantSpec(
        name="alpha", app="sha", governor="interactive",
        sessions=6, jobs_per_session=6,
    ),
    TenantSpec(
        name="beta", app="sha", governor="interactive",
        sessions=5, jobs_per_session=5, arrival=PoissonArrivals(rate=1.4),
    ),
    TenantSpec(
        name="gamma", app="sha", governor="interactive",
        sessions=2, jobs_per_session=8,
        arrival=BurstyArrivals(), drift_factor=1.8,
    ),
)


def _spec(**overrides):
    base = dict(tenants=TENANTS, seed=7)
    base.update(overrides)
    return FleetSpec(**base)


class TestDeterminism:
    def test_report_bit_identical_across_shard_counts(self):
        """The acceptance invariant: shard count never leaks into the
        report, down to the serialized bytes."""
        reports = {
            n: run_fleet(_spec(shards=n)).report.to_json()
            for n in (1, 2, 4)
        }
        assert reports[1] == reports[2] == reports[4]

    def test_report_bit_identical_across_worker_counts(self):
        serial = run_fleet(_spec(shards=4), workers=1).report
        pooled = run_fleet(_spec(shards=4), workers=2).report
        assert serial.to_json() == pooled.to_json()

    def test_repeat_runs_identical(self):
        assert (
            run_fleet(_spec()).report.to_json()
            == run_fleet(_spec()).report.to_json()
        )

    def test_seed_changes_results(self):
        assert (
            run_fleet(_spec()).report.to_json()
            != run_fleet(_spec(seed=8)).report.to_json()
        )


class TestOutcome:
    def test_totals_cover_the_roster(self):
        outcome = run_fleet(_spec(shards=3))
        report = outcome.report
        assert report.sessions == 13
        assert report.jobs == 6 * 6 + 5 * 5 + 2 * 8
        assert sum(len(s.sessions) for s in outcome.shard_results) == 13
        assert [t.name for t in report.tenants] == ["alpha", "beta", "gamma"]
        assert sum(s.jobs_run for s in outcome.shard_results) == report.jobs

    def test_workers_capped_at_shard_count(self):
        # 8 workers over 2 shards must not deadlock or misbehave.
        outcome = run_fleet(_spec(shards=2), workers=8)
        assert outcome.report.sessions == 13


class TestHostProfile:
    """--profile is observational: merged roll-up, untouched report."""

    def test_profile_never_changes_the_report(self):
        plain = run_fleet(_spec(shards=1)).report.to_json()
        profiled = run_fleet(_spec(shards=3), profile=True)
        assert profiled.report.to_json() == plain

    def test_profile_survives_worker_pool(self):
        outcome = run_fleet(_spec(shards=4), workers=2, profile=True)
        assert outcome.report.to_json() == run_fleet(
            _spec(shards=1)
        ).report.to_json()
        assert outcome.host_profile is not None
        assert outcome.host_profile.jobs == outcome.report.jobs

    def test_merged_profile_covers_every_shard(self):
        outcome = run_fleet(_spec(shards=3), profile=True)
        profile = outcome.host_profile
        assert profile.jobs == outcome.report.jobs
        assert profile.wall_s > 0
        # Every shard contributed: wall time sums across shards, and
        # the per-shard snapshots ride on the results.
        per_shard = [s.host_profile for s in outcome.shard_results]
        assert all(p is not None for p in per_shard)
        assert profile.wall_s == pytest.approx(
            sum(p.wall_s for p in per_shard)
        )
        assert "interp" in profile.phases
        assert "fleet" in profile.phases

    def test_unprofiled_outcome_has_no_profile(self):
        outcome = run_fleet(_spec(shards=2))
        assert outcome.host_profile is None
        assert all(
            s.host_profile is None for s in outcome.shard_results
        )


class TestValidation:
    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            FleetSpec(tenants=())

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            FleetSpec(
                tenants=(
                    TenantSpec(name="a", app="sha"),
                    TenantSpec(name="a", app="sha"),
                )
            )

    def test_bad_shard_and_worker_counts_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            FleetSpec(tenants=TENANTS, shards=0)
        with pytest.raises(ValueError, match="worker"):
            run_fleet(_spec(), workers=0)
