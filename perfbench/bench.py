"""The benchmark's three workloads and what a run measures on them.

Every workload is built from one process, one thread, and measured as a
closed loop on the host: the next job is simulated as soon as the
previous one returns.  Work is done in *rounds*.  A round replays the
workload's fixed job streams from a fresh start (fresh boards, governors
and sessions), so every round must reproduce the first one bit for bit;
the first round also yields the simulated metrics, which therefore do
not depend on how many rounds the host manages in the window.

- ``eval-light``: the paper's evaluation loop (periodic releases at the
  budget, ``prediction`` governor, sequential placement, sigma = 0.02)
  over the seven apps whose jobs cost 0.1-0.35 ms of host time.
- ``eval-heavy``: the same loop over pocketsphinx alone.
- ``fleet-mix``: ``run_fleet`` with one worker over the seven light apps
  x five governors, short sessions, Poisson/bursty/diurnal arrivals, one
  drifting adaptive tenant, energy attribution on.

The workload seed reaches only the generators: job inputs, jitter and
switch-latency draws for ``eval-*``, and the fleet's root seed (inputs,
arrivals, jitter and the fleet's own build seed) for ``fleet-mix``.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from array import array
from dataclasses import dataclass, field, replace
from itertools import product

#: Lab seed of the ``eval-*`` builds (switch microbenchmark).  Fixed, so
#: the workload seed reaches only the generators.
BUILD_SEED = 42
#: Seed the committed reference outputs were recorded at.
REFERENCE_SEED = 7
#: Jobs per fleet session (short, like the CI smoke fleet).
FLEET_JOBS = 10

LIGHT_APPS = ("2048", "curseofwar", "ldecode", "rijndael", "sha", "uzbl", "xpilot")
HEAVY_APPS = ("pocketsphinx",)
FLEET_GOVERNORS = ("prediction", "adaptive", "interactive", "pid", "performance")
#: The fleet tenant whose execution time steps up mid-session.
DRIFT_TENANT = "adaptive-rijndael"

WORKLOADS = ("eval-light", "eval-heavy", "fleet-mix")


@dataclass(frozen=True)
class Size:
    """How much work one round holds.

    Attributes:
        light_jobs: Jobs per app stream in ``eval-light``.
        heavy_jobs: Jobs per round in ``eval-heavy``.
        fleet_sessions: Sessions per tenant in ``fleet-mix``.
    """

    light_jobs: int = 400
    heavy_jobs: int = 100
    fleet_sessions: int = 12


SIZES = {
    "full": Size(),
    # For the self-tests: every code path, a fraction of a second of jobs.
    "tiny": Size(light_jobs=12, heavy_jobs=3, fleet_sessions=1),
}


def digest(value) -> str:
    """Short stable fingerprint of a simulated output (exact float repr)."""
    return hashlib.sha1(repr(value).encode()).hexdigest()[:12]


def digests(outputs: dict[str, list]) -> dict[str, list[str]]:
    """A round's outputs as digests, the form the checks exchange."""
    return {key: [digest(out) for out in stream] for key, stream in outputs.items()}


@dataclass
class Round:
    """One replay of a workload's job streams.

    Attributes:
        jobs: Jobs simulated.
        misses: Simulated deadline misses.
        outputs: Stream key -> simulated outputs (per job for
            ``eval-*``: OPP MHz, end time, cumulative energy; per session
            for ``fleet-mix``).
        energy_j: App or tenant -> simulated energy.
        host_ns: Host wall time of the round.
        scale: Factor taking ``host_ns`` to the reference host speed.
    """

    jobs: int
    misses: int
    outputs: dict[str, list] = field(repr=False)
    energy_j: dict[str, float]
    host_ns: int = 0
    scale: float = 1.0


class EvalWorkload:
    """Periodic job streams under ``prediction``, one runner per app."""

    governor = "prediction"
    #: Jobs one checked output covers.
    unit_jobs = 1

    def __init__(self, apps: tuple[str, ...], jobs: int, seed: int):
        self.apps = apps
        self.jobs = jobs
        self.seed = seed

    def setup(self) -> None:
        """Lab (switch microbenchmark), controllers, inputs, runners."""
        from repro.analysis.harness import Lab
        from repro.runtime.executor import TaskLoopRunner

        self.lab = Lab(jitter_sigma=0.02, seed=BUILD_SEED)
        self.runners = {}
        for name in self.apps:
            app = self.lab.app(name)
            self.runners[name] = TaskLoopRunner(
                board=self._board(name),
                task=app.task,
                governor=self.lab.make_governor(self.governor, name),
                inputs=app.inputs(self.jobs, seed=self.seed),
                interpreter=self.lab.interpreter,
            )

    def _board(self, name: str):
        return self.lab.make_board(zlib.crc32(f"{self.seed}|{name}".encode()))

    def programs(self) -> tuple[set[int], set[int]]:
        """ids of the task programs and of the prediction-slice programs."""
        tasks = {id(self.lab.app(name).task.program) for name in self.apps}
        slices = {id(self.lab.controller(name).slice.program) for name in self.apps}
        return tasks, slices

    def run_round(self, latencies: array) -> Round:
        outputs, energy, jobs, misses = {}, {}, 0, 0
        clock = time.perf_counter_ns
        for name, runner in self.runners.items():
            runner.reset(
                board=self._board(name),
                governor=self.lab.make_governor(self.governor, name),
            )
            board = runner.board
            stream = []
            for _ in range(runner.jobs_remaining):
                t0 = clock()
                record = runner.step()
                latencies.append(clock() - t0)
                stream.append((record.opp_mhz, record.end_s, board.energy_j()))
                misses += record.missed
            outputs[name] = stream
            energy[name] = board.energy_j()
            jobs += len(stream)
        return Round(jobs, misses, outputs, energy)

    def baseline_energy(self) -> dict[str, float]:
        """Energy of the same job streams under ``performance``."""
        from repro.runtime.executor import TaskLoopRunner

        energy = {}
        for name, runner in self.runners.items():
            baseline = TaskLoopRunner(
                board=self._board(name),
                task=runner.task,
                governor=self.lab.make_governor("performance", name),
                inputs=runner.inputs,
                interpreter=self.lab.interpreter,
            )
            energy[name] = baseline.run().energy_j
        return energy


def fleet_roster(size: Size, governor: str | None = None):
    """The ``fleet-mix`` tenants: light apps x governors, mixed arrivals.

    ``governor`` overrides every tenant's governor while keeping names
    (hence every seed path) unchanged: the ``performance`` baseline.
    """
    from repro.fleet.arrivals import BurstyArrivals, DiurnalArrivals, PoissonArrivals
    from repro.fleet.tenant import TenantSpec

    arrivals = (PoissonArrivals(), BurstyArrivals(), DiurnalArrivals())
    tenants = []
    for i, (app, gov) in enumerate(product(LIGHT_APPS, FLEET_GOVERNORS)):
        name = f"{gov}-{app}"
        tenants.append(
            TenantSpec(
                name=name,
                app=app,
                governor=governor or gov,
                sessions=size.fleet_sessions,
                jobs_per_session=FLEET_JOBS,
                arrival=arrivals[i % len(arrivals)],
                drift_factor=1.5 if name == DRIFT_TENANT else None,
            )
        )
    return tuple(tenants)


class FleetWorkload:
    """``run_fleet`` over the mixed roster, one worker, energy attributed."""

    #: Jobs one checked output (a session's result) covers.
    unit_jobs = FLEET_JOBS

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.seed = seed

    def setup(self) -> None:
        """Roster, the fleet's Lab (switch microbenchmark), controllers."""
        from repro.fleet.coordinator import FleetSpec
        from repro.fleet.session import lab_for

        self.spec = FleetSpec(
            tenants=fleet_roster(self.size), seed=self.seed, energy=True
        )
        self.lab = lab_for(self.spec.build)
        for tenant in self.spec.tenants:
            self.lab.make_governor(tenant.governor, tenant.app)

    def programs(self) -> tuple[set[int], set[int]]:
        tasks = {id(self.lab.app(app).task.program) for app in LIGHT_APPS}
        slices = {id(self.lab.controller(app).slice.program) for app in LIGHT_APPS}
        return tasks, slices

    def run_round(self, latencies: array) -> Round:
        from repro.fleet.coordinator import run_fleet
        from repro.fleet.session import Session

        original = Session.step
        clock = time.perf_counter_ns

        def timed_step(session):
            t0 = clock()
            stepped = original(session)
            latencies.append(clock() - t0)
            return stepped

        Session.step = timed_step
        try:
            outcome = run_fleet(self.spec, workers=1)
        finally:
            Session.step = original
        return self._round(outcome)

    @staticmethod
    def _round(outcome) -> Round:
        outputs, energy, jobs, misses = {}, {}, 0, 0
        for shard in outcome.shard_results:
            for s in shard.sessions:
                outputs[f"{s.tenant}/{s.index}"] = [
                    (s.jobs, s.misses, s.energy_j, s.switches, s.makespan_s, s.slacks_s)
                ]
                energy[s.tenant] = energy.get(s.tenant, 0.0) + s.energy_j
                jobs += s.jobs
                misses += s.misses
        return Round(jobs, misses, outputs, energy)

    def baseline_energy(self) -> dict[str, float]:
        from repro.fleet.coordinator import run_fleet

        spec = replace(
            self.spec, tenants=fleet_roster(self.size, governor="performance")
        )
        return self._round(run_fleet(spec, workers=1)).energy_j


def make_workload(name: str, size: Size, seed: int):
    if name == "eval-light":
        return EvalWorkload(LIGHT_APPS, size.light_jobs, seed)
    if name == "eval-heavy":
        return EvalWorkload(HEAVY_APPS, size.heavy_jobs, seed)
    if name == "fleet-mix":
        return FleetWorkload(size, seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def check_outputs(
    outputs: dict[str, list], expected: dict[str, list], unit_jobs: int
) -> tuple[int, int]:
    """Jobs attempted and jobs failed against ``expected``.

    ``outputs`` and ``expected`` each hold a round's outputs or their
    digests.  Each entry covers ``unit_jobs`` jobs (one for a job of
    ``eval-*``, a whole session for ``fleet-mix``).  An entry fails when
    it differs from its expected entry, has none, or is expected but was
    not produced.
    """
    attempted = failed = 0
    for key in outputs.keys() | expected.keys():
        stream, want = outputs.get(key, ()), expected.get(key, ())
        for i in range(max(len(stream), len(want))):
            attempted += unit_jobs
            ok = i < len(stream) and i < len(want) and (
                want[i] == stream[i] or want[i] == digest(stream[i])
            )
            failed += 0 if ok else unit_jobs
    return attempted, failed


def sim_metrics(first: Round, baseline: dict[str, float]) -> dict[str, float]:
    """Fig. 15's normalized energy and the deadline-miss rate of a round."""
    ratios = [first.energy_j[key] / baseline[key] for key in baseline]
    return {
        "sim_energy_norm": sum(ratios) / len(ratios),
        "sim_miss_pct": 100.0 * first.misses / first.jobs,
        "sim_deadline_met_pct": 100.0 * (first.jobs - first.misses) / first.jobs,
    }
