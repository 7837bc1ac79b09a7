"""One tenant session: an executor plus its SLO accounting.

A session is the fleet's unit of work: one
:class:`~repro.runtime.executor.TaskLoopRunner` over one job stream,
plus the :class:`~repro.telemetry.slo.JobObservation` of every job it
completes, which :meth:`Session.result` folds once per spec with
:func:`~repro.telemetry.slo.fold_state` (the state a
:class:`~repro.telemetry.slo.SloTracker` would hold).  Sessions are built
entirely from ``(tenant spec, session index, root seed)`` — every random
stream is named by :func:`repro.fleet.seeding.session_seed` — so the
same session computes identically on any shard of any worker.

Boards come from :func:`repro.analysis.harness.seeded_board`, trained
controllers from the process-wide cache behind
:class:`~repro.analysis.harness.Lab` (one Lab per build configuration,
:func:`lab_for`); a coordinator pre-warms that cache before forking
workers, so every child inherits the trained artifacts for free.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.analysis.harness import Lab, seeded_board
from repro.fleet.arrivals import PeriodicArrivals
from repro.fleet.seeding import derive_seed, session_seeds
from repro.fleet.tenant import TenantSpec
from repro.pipeline.config import PipelineConfig
from repro.runtime.executor import TaskLoopRunner
from repro.telemetry.energy import EnergyLedger, EnergyState
from repro.telemetry.events import NO_TELEMETRY
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.slo import (
    JobObservation,
    SloTrackerState,
    default_slos,
    fold_state,
)

__all__ = ["FleetBuild", "SessionResult", "Session", "run_session", "lab_for"]

#: Samples per OPP pair for a fleet's switch-time microbenchmark.
SWITCH_SAMPLES = 60


@dataclass(frozen=True)
class FleetBuild:
    """Shared build configuration for a fleet's trained artifacts.

    Attributes:
        root_seed: The fleet's root seed; controller training derives
            its own seed from it (never from shard/worker identity).
        profile_jobs: Jobs profiled per app when training predictive
            controllers.  Smaller than the single-run default: a fleet
            amortizes one controller over thousands of sessions and the
            training cost is paid per worker process.
    """

    root_seed: int
    profile_jobs: int = 60


#: One Lab per build configuration: (root_seed, profile_jobs) -> Lab.
#: Sessions share its apps and interpreter; its controllers live in the
#: harness's process-wide cache.
_LABS: dict[tuple[int, int], Lab] = {}


def lab_for(build: FleetBuild) -> Lab:
    """This process's shared Lab for a build configuration."""
    key = (build.root_seed, build.profile_jobs)
    if key not in _LABS:
        _LABS[key] = Lab(
            pipeline_config=PipelineConfig(n_profile_jobs=build.profile_jobs),
            seed=derive_seed(build.root_seed, "fleet", "build"),
            switch_samples=SWITCH_SAMPLES,
        )
    return _LABS[key]


@dataclass(frozen=True)
class SessionResult:
    """What one session did, ready to merge shard-count-independently.

    Attributes:
        tenant: Owning tenant's name.
        index: Session index within the tenant (the seed path).
        jobs: Jobs completed.
        misses: Deadline misses.
        energy_j: Total board energy over the session.
        switches: DVFS transitions performed.
        makespan_s: Virtual time from first release to last completion.
        slacks_s: Per-job slack values, in job order (fleet-level
            percentile roll-ups need the raw values).
        slo_states: One mergeable tracker snapshot per tenant SLO spec,
            in spec order.
        energy_state: Mergeable energy-attribution snapshot, present
            when the fleet ran with attribution on (``--energy``);
            None otherwise.
    """

    tenant: str
    index: int
    jobs: int
    misses: int
    energy_j: float
    switches: int
    makespan_s: float
    slacks_s: tuple[float, ...]
    slo_states: tuple[SloTrackerState, ...]
    energy_state: EnergyState | None = None


class Session:
    """A live session: steps its runner, observes each job for its SLOs.

    Args:
        tenant: Owning tenant's spec.
        index: Session index within the tenant (the seed path).
        build: Shared build configuration.
        hostprof: Optional host profiler handed down to the runner
            (``fleet run --profile``).  Purely observational: it
            touches no seed path, so profiled and unprofiled fleets
            produce byte-identical reports.
        energy: When True, attribute this session's joules with a
            per-session :class:`~repro.telemetry.energy.EnergyLedger`
            (``fleet run --energy``).  Also purely observational — the
            ledger only watches the board's segment stream — so fleet
            reports stay byte-identical across shard/worker counts
            whether attribution is on or off.
    """

    def __init__(
        self,
        tenant: TenantSpec,
        index: int,
        build: FleetBuild,
        hostprof: HostProfiler | None = None,
        energy: bool = False,
    ):
        self.tenant = tenant
        self.index = index
        lab = lab_for(build)
        app = lab.app(tenant.app)
        budget = app.task.budget_s * tenant.budget_scale
        n_jobs = tenant.jobs_per_session
        arrivals_seed, jitter_seed, switch_seed, inputs_seed = session_seeds(
            build.root_seed,
            tenant.name,
            index,
            "arrivals",
            "jitter",
            "switch",
            "inputs",
        )

        # Periodic releases draw nothing, so they skip seeding a
        # generator (~8 us a session).
        arrival_rng = (
            None
            if isinstance(tenant.arrival, PeriodicArrivals)
            else random.Random(arrivals_seed)
        )
        arrivals = tenant.arrival.arrivals(n_jobs, budget, arrival_rng)

        board = seeded_board(
            lab.opps,
            lab.power,
            tenant.jitter_sigma,
            jitter_seed,
            switch_seed,
            drift=(
                None
                if tenant.drift_factor is None
                else (tenant.drift_factor, tenant.drift_at_frac * n_jobs * budget)
            ),
        )

        self.energy_ledger = (
            EnergyLedger(board.power, board.opps) if energy else None
        )
        self.runner = TaskLoopRunner(
            board=board,
            task=app.task.with_budget(budget),
            governor=lab.make_governor(tenant.governor, tenant.app),
            inputs=app.inputs(n_jobs, seed=inputs_seed),
            arrivals=arrivals,
            interpreter=lab.interpreter,
            telemetry=NO_TELEMETRY,
            hostprof=hostprof,
            energy=self.energy_ledger,
        )
        self._slos = default_slos(
            budget_s=budget, miss_objective=tenant.miss_objective
        )
        self._observations: list[JobObservation] = []
        self._energy_mark = 0.0
        self._finished_at = 0.0

    def step(self) -> bool:
        """Run the next job; False when the session is exhausted."""
        record = self.runner.step()
        if record is None:
            return False
        energy = self.runner.board.energy_j()
        predicted = record.predicted_time_s
        residual = math.nan
        if not math.isnan(predicted) and predicted > 0:
            residual = (record.exec_time_s - predicted) / predicted
        self._observations.append(
            JobObservation(
                record.index,
                record.end_s,
                record.missed,
                record.slack_s,
                energy - self._energy_mark,
                residual,
            )
        )
        self._energy_mark = energy
        self._finished_at = record.end_s
        return True

    def result(self) -> SessionResult:
        runner = self.runner
        observations = self._observations
        energy_state = None
        if self.energy_ledger is not None:
            # The invariant is cheap to enforce on every session, so a
            # leaking attribution path can never reach the roll-up.
            self.energy_ledger.check_conservation(runner.board)
            energy_state = self.energy_ledger.state()
        # Nothing reads SLO state before the result, so each job's step
        # is one append and the specs fold the observations here.
        return SessionResult(
            tenant=self.tenant.name,
            index=self.index,
            jobs=len(observations),
            misses=sum(obs.missed for obs in observations),
            energy_j=runner.energy_j(),
            switches=runner.switch_count,
            makespan_s=self._finished_at,
            slacks_s=tuple(obs.slack_s for obs in observations),
            slo_states=tuple(
                fold_state(spec, observations) for spec in self._slos
            ),
            energy_state=energy_state,
        )


def run_session(
    tenant: TenantSpec,
    index: int,
    build: FleetBuild,
    hostprof: HostProfiler | None = None,
    energy: bool = False,
) -> SessionResult:
    """Run one session start to finish: build it, step it once per job,
    and reduce it to its result.

    ``hostprof`` and ``energy`` are :class:`Session`'s.  With an enabled
    profiler, building the session and reducing it are charged to the
    ``fleet`` phase (its jobs charge their own phases in the runner).
    """
    profiled = hostprof is not None and hostprof.enabled
    if profiled:
        t0 = hostprof.clock()
    session = Session(tenant, index, build, hostprof=hostprof, energy=energy)
    if profiled:
        hostprof.add("fleet", hostprof.clock() - t0)
    for _ in range(session.runner.jobs_remaining):
        session.step()
    if profiled:
        t0 = hostprof.clock()
    result = session.result()
    if profiled:
        hostprof.add("fleet", hostprof.clock() - t0)
    return result
