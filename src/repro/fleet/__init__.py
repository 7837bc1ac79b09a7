"""Fleet-scale serving simulator: sharded multi-tenant executors.

The paper evaluates one interactive session at a time; a deployment of
its controller serves *fleets* of them.  This package simulates
thousands of concurrent sessions on the existing simulated clock:

- :mod:`repro.fleet.tenant` declares per-tenant service classes
  (workload, governor, deadline budget, arrival process) and
  :mod:`repro.fleet.arrivals` generates their job release schedules
  (periodic, Poisson, bursty/MMPP, diurnal).
- :mod:`repro.fleet.shard` runs a slice of the fleet's sessions, each
  one :class:`~repro.runtime.executor.TaskLoopRunner` run to completion
  before the next is built; :mod:`repro.fleet.coordinator` deals a
  fleet out to N shards (the unit a ``multiprocessing`` pool
  dispatches) and merges the results.
- :mod:`repro.fleet.aggregate` rolls the per-session SLO tracker
  states up into per-tenant and fleet-wide error budgets, multi-window
  burn rates, and a top-K worst-tenants report.

The determinism contract (see ``docs/fleet.md``): every session's
stream is derived from ``(root seed, tenant name, session index)`` via
:mod:`repro.fleet.seeding` — shard and worker counts never enter the
derivation, and results merge in canonical session order — so a fleet
report is bit-identical no matter how the fleet was partitioned.
"""

from repro.fleet.aggregate import (
    FleetReport,
    TenantRollup,
    aggregate_fleet,
    fleet_metrics,
)
from repro.fleet.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    arrival_from_dict,
)
from repro.fleet.coordinator import FleetOutcome, FleetSpec, run_fleet
from repro.fleet.seeding import derive_seed, session_seed
from repro.fleet.session import SessionResult, run_session
from repro.fleet.shard import ShardPlan, ShardResult, plan_shards, run_shard
from repro.fleet.tenant import TenantSpec, tenants_from_json, tenants_to_json

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "PeriodicArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "arrival_from_dict",
    "derive_seed",
    "session_seed",
    "TenantSpec",
    "tenants_to_json",
    "tenants_from_json",
    "SessionResult",
    "run_session",
    "ShardPlan",
    "ShardResult",
    "plan_shards",
    "run_shard",
    "FleetSpec",
    "FleetOutcome",
    "run_fleet",
    "TenantRollup",
    "FleetReport",
    "aggregate_fleet",
    "fleet_metrics",
]
