"""The fleet coordinator: plan shards, run them, merge the results.

``run_fleet`` is the one entry point: it deals a
:class:`~repro.fleet.tenant.TenantSpec` roster out to N shards
(:func:`repro.fleet.shard.plan_shards`), executes them serially or on
a ``multiprocessing`` pool, and folds the per-session results into a
:class:`~repro.fleet.aggregate.FleetReport` in canonical order.

Determinism contract: the report depends only on ``(tenants, seed)``.
Shard count changes which shard a session runs in, and after which
other sessions; worker count changes which process; neither enters any
seed path, and the merge re-sorts results canonically — so
``run_fleet(spec)`` is bit-identical for every ``shards``/``workers``
choice.  Tests assert this directly.

Worker pools fork (where the platform allows), so the coordinator
pre-warms the per-process controller cache *before* the pool spawns:
children inherit the trained artifacts and skip training entirely.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

from repro.fleet.aggregate import FleetReport, aggregate_fleet
from repro.fleet.session import FleetBuild, lab_for
from repro.fleet.shard import ShardResult, plan_shards, run_shard
from repro.fleet.tenant import TenantSpec
from repro.telemetry.hostprof import ProfileState, merge_profiles

__all__ = ["FleetSpec", "FleetOutcome", "run_fleet"]


@dataclass(frozen=True)
class FleetSpec:
    """Everything that determines a fleet simulation's results.

    Attributes:
        tenants: The roster (order matters: it keys the canonical
            session order and the report layout).
        seed: Root seed; every stream in the fleet derives from it.
        shards: Partitions of the roster, the worker pool's unit of
            dispatch (a scale knob, not a result knob).
        top_k: Worst-tenant table length.
        profile_jobs: Controller build size (see
            :class:`~repro.fleet.session.FleetBuild`).
        energy: Attribute every session's joules (conservation-checked
            per-session ledgers, rolled up per tenant and fleet-wide in
            the report's energy section).  Deterministic given
            ``(tenants, seed)``, so the byte-identical-report contract
            extends to attribution-enabled runs.
    """

    tenants: tuple[TenantSpec, ...]
    seed: int = 42
    shards: int = 1
    top_k: int = 5
    profile_jobs: int = 60
    energy: bool = False

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a fleet needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        if self.shards < 1:
            raise ValueError(f"need >= 1 shard, got {self.shards}")

    @property
    def build(self) -> FleetBuild:
        return FleetBuild(root_seed=self.seed, profile_jobs=self.profile_jobs)

    @property
    def total_sessions(self) -> int:
        return sum(t.sessions for t in self.tenants)


@dataclass(frozen=True)
class FleetOutcome:
    """A fleet run's full yield: the report plus execution metadata.

    The report is the deterministic part; ``shard_results`` carry the
    partition-dependent extras (per-shard job counts) callers may want
    for diagnostics without contaminating the report.  The merged host
    profile is likewise diagnostics-only: wall-clock data lives here
    and in separate artifacts, never inside the report, so the
    byte-identical-report contract holds with profiling on or off.
    """

    report: FleetReport
    shard_results: tuple[ShardResult, ...] = field(repr=False)
    host_profile: ProfileState | None = None


def _prewarm(spec: FleetSpec) -> None:
    """Train every needed controller once, in this process."""
    lab = lab_for(spec.build)
    for tenant in spec.tenants:
        # Static governors train nothing; prediction/adaptive cache a
        # controller process-wide for all sessions (and, when the pool
        # forks, for all workers).
        lab.make_governor(tenant.governor, tenant.app)


def run_fleet(
    spec: FleetSpec, workers: int = 1, profile: bool = False
) -> FleetOutcome:
    """Simulate a fleet; results are independent of ``workers``.

    Args:
        spec: The fleet to simulate.
        workers: Process count.  1 runs shards in-process; more uses a
            ``multiprocessing`` pool over shard plans (capped at the
            shard count — a shard is the unit of dispatch).
        profile: Host-profile every shard and merge the snapshots into
            one fleet-level :class:`ProfileState`
            (:attr:`FleetOutcome.host_profile`).  Observational only:
            the report stays byte-identical to an unprofiled run.
    """
    if workers < 1:
        raise ValueError(f"need >= 1 worker, got {workers}")
    plans = plan_shards(
        spec.tenants, spec.shards, spec.build, profile=profile,
        energy=spec.energy,
    )
    _prewarm(spec)
    workers = min(workers, len(plans))
    if workers == 1:
        shard_results = tuple(run_shard(plan) for plan in plans)
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            shard_results = tuple(pool.map(run_shard, plans))
    results = [
        session for shard in shard_results for session in shard.sessions
    ]
    report = aggregate_fleet(
        spec.tenants, results, seed=spec.seed, top_k=spec.top_k
    )
    host_profile = None
    if profile:
        host_profile = ProfileState()
        for shard in shard_results:
            if shard.host_profile is not None:
                host_profile = merge_profiles(
                    host_profile, shard.host_profile
                )
    return FleetOutcome(
        report=report,
        shard_results=shard_results,
        host_profile=host_profile,
    )
