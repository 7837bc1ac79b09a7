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
