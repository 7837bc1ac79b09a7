"""A shard runs its sessions one at a time, one step per job."""

import weakref

from repro.fleet.arrivals import PoissonArrivals
from repro.fleet.session import FleetBuild, Session
from repro.fleet.shard import plan_shards, run_shard
from repro.fleet.tenant import TenantSpec

BUILD = FleetBuild(root_seed=7)

TENANTS = (
    TenantSpec(
        name="alpha", app="sha", governor="interactive",
        sessions=4, jobs_per_session=5,
    ),
    TenantSpec(
        name="beta", app="sha", governor="performance",
        sessions=2, jobs_per_session=3, arrival=PoissonArrivals(),
    ),
)


def test_shard_holds_one_live_session(monkeypatch):
    live = weakref.WeakSet()
    most = 0
    init = Session.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal most
        init(self, *args, **kwargs)
        live.add(self)
        most = max(most, len(live))

    monkeypatch.setattr(Session, "__init__", counting_init)
    (plan,) = plan_shards(TENANTS, 1, BUILD)
    run_shard(plan)
    assert most == 1


def test_shard_steps_each_session_once_per_job(monkeypatch):
    steps = []
    step = Session.step

    def counting_step(self):
        steps.append((self.tenant.name, self.index))
        return step(self)

    monkeypatch.setattr(Session, "step", counting_step)
    (plan,) = plan_shards(TENANTS, 1, BUILD)
    shard = run_shard(plan)
    assert len(steps) == shard.jobs_run == 4 * 5 + 2 * 3
    for result in shard.sessions:
        assert steps.count((result.tenant, result.index)) == result.jobs
