"""Shards: planning, running each session to completion, canonical result
order."""

import pytest

from repro.fleet.arrivals import PoissonArrivals
from repro.fleet.session import FleetBuild, run_session
from repro.fleet.shard import ShardPlan, plan_shards, run_shard
from repro.fleet.tenant import TenantSpec

BUILD = FleetBuild(root_seed=7)

TENANTS = (
    TenantSpec(
        name="alpha", app="sha", governor="interactive",
        sessions=5, jobs_per_session=6,
    ),
    TenantSpec(
        name="beta", app="sha", governor="interactive",
        sessions=3, jobs_per_session=4, arrival=PoissonArrivals(),
    ),
)


class TestPlanning:
    def test_round_robin_covers_every_session_once(self):
        plans = plan_shards(TENANTS, 3, BUILD)
        assert len(plans) == 3
        dealt = [pair for plan in plans for pair in plan.assignments]
        expected = [
            (t.name, i) for t in TENANTS for i in range(t.sessions)
        ]
        assert sorted(dealt) == sorted(expected)
        sizes = [len(plan.assignments) for plan in plans]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_takes_everything(self):
        (plan,) = plan_shards(TENANTS, 1, BUILD)
        assert len(plan.assignments) == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="shard"):
            plan_shards(TENANTS, 0, BUILD)
        with pytest.raises(ValueError, match="outside"):
            ShardPlan(
                index=2, n_shards=2, build=BUILD,
                tenants=TENANTS, assignments=(),
            )


class TestEventLoop:
    def test_shard_matches_isolated_sessions(self):
        """Interleaving cannot change any session's results."""
        (plan,) = plan_shards(TENANTS, 1, BUILD)
        shard = run_shard(plan)
        for result in shard.sessions:
            tenant = next(t for t in TENANTS if t.name == result.tenant)
            assert result == run_session(tenant, result.index, BUILD)

    def test_results_in_canonical_order(self):
        (plan,) = plan_shards(TENANTS, 1, BUILD)
        shard = run_shard(plan)
        keys = [(r.tenant, r.index) for r in shard.sessions]
        order = {t.name: i for i, t in enumerate(TENANTS)}
        assert keys == sorted(keys, key=lambda k: (order[k[0]], k[1]))

    def test_jobs_run_counts_every_job(self):
        (plan,) = plan_shards(TENANTS, 1, BUILD)
        shard = run_shard(plan)
        assert shard.jobs_run == sum(r.jobs for r in shard.sessions)
        assert shard.jobs_run == 5 * 6 + 3 * 4

    def test_unknown_tenant_rejected(self):
        plan = ShardPlan(
            index=0, n_shards=1, build=BUILD,
            tenants=TENANTS, assignments=(("ghost", 0),),
        )
        with pytest.raises(ValueError, match="unknown tenant"):
            run_shard(plan)


class TestShardCountIndependence:
    def test_sessions_identical_across_partitionings(self):
        """The tentpole invariant at the session level: the same
        session computes identically whichever shard runs it."""
        by_count = {}
        for n_shards in (1, 2, 3):
            results = {}
            for plan in plan_shards(TENANTS, n_shards, BUILD):
                for result in run_shard(plan).sessions:
                    results[(result.tenant, result.index)] = result
            by_count[n_shards] = results
        assert by_count[1] == by_count[2] == by_count[3]
