"""Shards: a fleet's unit of dispatch to the worker pool.

A shard owns a slice of the fleet's sessions and runs them one after
another: each session is built, run to its last job and reduced to its
:class:`~repro.fleet.session.SessionResult` before the next is built,
so a shard holds one live session at a time.

Sessions are computationally independent (each owns its board, its
random streams and its governor, and reads the shared controller cache
only), so the order they run in cannot change any session's results.
:class:`ShardPlan` is a frozen, picklable value so a coordinator can
ship shards to worker processes; results come back in canonical
``(tenant, session index)`` order whatever order the shard ran them in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fleet.session import FleetBuild, SessionResult, run_session
from repro.fleet.tenant import TenantSpec
from repro.telemetry.hostprof import (
    NO_HOSTPROF,
    HostProfiler,
    ProfileState,
    StackSampler,
)

__all__ = ["ShardPlan", "ShardResult", "plan_shards", "run_shard"]


@dataclass(frozen=True)
class ShardPlan:
    """One shard's share of a fleet, fully self-describing.

    Attributes:
        index: Shard number, 0-based.
        n_shards: Total shards in the fleet (for display only — it
            never enters any seed derivation).
        build: Shared build configuration (root seed, training size).
        tenants: The full tenant roster (specs are small; shipping all
            of them keeps the plan self-contained).
        assignments: ``(tenant name, session index)`` pairs this shard
            runs.
        profile: Host-profile this shard's execution (phase timers +
            stack sampler).  Observational only — it never enters a
            seed path, so the session results are identical either
            way; the profile comes back in
            :attr:`ShardResult.host_profile`.
        energy: Attribute every session's joules with a per-session
            energy ledger (conservation-checked).  Observational like
            ``profile``: no seed path, identical session results, the
            states ride back on each
            :attr:`~repro.fleet.session.SessionResult.energy_state`.
    """

    index: int
    n_shards: int
    build: FleetBuild
    tenants: tuple[TenantSpec, ...]
    assignments: tuple[tuple[str, int], ...]
    profile: bool = False
    energy: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.n_shards:
            raise ValueError(
                f"shard index {self.index} outside [0, {self.n_shards})"
            )


@dataclass(frozen=True)
class ShardResult:
    """One shard's outcome: session results in canonical order.

    Attributes:
        index: The shard that produced this.
        sessions: Results sorted by (tenant order in the roster,
            session index) — the order the coordinator merges in.
        jobs_run: Total jobs the shard's sessions executed.
        host_profile: This shard's host profile when the plan asked
            for one (picklable, so it survives the worker-pool trip
            back; the coordinator merges shards' profiles).
    """

    index: int
    sessions: tuple[SessionResult, ...]
    jobs_run: int
    host_profile: ProfileState | None = None


def plan_shards(
    tenants: tuple[TenantSpec, ...],
    n_shards: int,
    build: FleetBuild,
    profile: bool = False,
    energy: bool = False,
) -> tuple[ShardPlan, ...]:
    """Split a fleet round-robin across ``n_shards`` shards.

    Sessions are enumerated in canonical order (roster order, then
    session index) and dealt out one at a time, so shard loads stay
    balanced even when tenants differ wildly in session count.
    """
    if n_shards < 1:
        raise ValueError(f"need >= 1 shard, got {n_shards}")
    roster: list[tuple[str, int]] = [
        (tenant.name, index)
        for tenant in tenants
        for index in range(tenant.sessions)
    ]
    return tuple(
        ShardPlan(
            index=shard,
            n_shards=n_shards,
            build=build,
            tenants=tuple(tenants),
            assignments=tuple(roster[shard::n_shards]),
            profile=profile,
            energy=energy,
        )
        for shard in range(n_shards)
    )


def run_shard(plan: ShardPlan) -> ShardResult:
    """Execute one shard's sessions, each to completion, in plan order.

    Top-level (hence picklable) so a ``multiprocessing`` pool can map
    over plans directly.  With ``plan.profile`` set, the whole shard
    runs under a :class:`HostProfiler` (building each session and
    reducing it to its result charged to the ``fleet`` phase, per-job
    phases charged inside the runners) and the snapshot rides back on
    the result.
    """
    hostprof = (
        HostProfiler(sampler=StackSampler()) if plan.profile else NO_HOSTPROF
    )
    by_name = {tenant.name: tenant for tenant in plan.tenants}
    order = {tenant.name: i for i, tenant in enumerate(plan.tenants)}
    for tenant_name, _ in plan.assignments:
        if tenant_name not in by_name:
            raise ValueError(
                f"shard {plan.index} assigned unknown tenant "
                f"{tenant_name!r}"
            )

    with hostprof.running():
        results = [
            run_session(
                by_name[tenant_name],
                session_index,
                plan.build,
                hostprof=hostprof,
                energy=plan.energy,
            )
            for tenant_name, session_index in plan.assignments
        ]
    results.sort(key=lambda r: (order[r.tenant], r.index))
    return ShardResult(
        index=plan.index,
        sessions=tuple(results),
        jobs_run=sum(r.jobs for r in results),
        host_profile=hostprof.state() if plan.profile else None,
    )
