"""True micro-benchmarks of the library's hot paths.

Unlike the figure benches (one-shot simulations), these use
pytest-benchmark's statistical timing across many rounds: interpreter
throughput, slice execution, model fitting, and a full governed job.
They guard against performance regressions in the substrate itself.
"""

from repro.features.profiler import Profiler
from repro.models.solver import (
    solve_asymmetric_lasso,
    solve_asymmetric_lasso_stack,
)
from repro.platform.board import Board
from repro.platform.cpu import SimulatedCpu
from repro.platform.opp import default_xu3_a7_table
from repro.programs.instrument import Instrumenter
from repro.programs.interpreter import Interpreter
from repro.programs.slicer import Slicer
from repro.telemetry.hostprof import best_of
from repro.workloads.registry import get_app

OPPS = default_xu3_a7_table()
INTERP = Interpreter()


def test_perf_interpreter_ldecode_job(benchmark):
    """One ldecode frame through the interpreter (~1600 node visits)."""
    app = get_app("ldecode")
    inputs = app.inputs(1, seed=0)[0]
    g = app.task.program.fresh_globals()
    result = benchmark(INTERP.execute, app.task.program, inputs, g)
    assert result.work.cycles > 1e6


def test_perf_slice_execution(benchmark):
    """One prediction-slice run (the per-job run-time cost)."""
    app = get_app("ldecode")
    inst = Instrumenter().instrument(app.task.program)
    sl = Slicer().slice(inst)
    inputs = app.inputs(1, seed=0)[0]
    result = benchmark(INTERP.execute_isolated, sl.program, inputs, {})
    assert result.features.counters


def test_perf_instrument_and_slice(benchmark):
    """The offline program transformations on the biggest workload."""
    app = get_app("2048")

    def transform():
        inst = Instrumenter().instrument(app.task.program)
        return Slicer().slice(inst)

    sl = benchmark(transform)
    assert sl.needed_sites


def test_perf_solver_fit(benchmark):
    """One asymmetric-Lasso fit at profiling scale (200 x 8)."""
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.uniform(0, 50, (200, 8))
    y = X @ rng.uniform(0, 2, 8) + rng.normal(0, 1, 200)
    result = benchmark(
        solve_asymmetric_lasso, X, y, alpha=100.0, gamma=10.0, max_iter=2000
    )
    assert result.beta.shape == (8,)


def test_perf_solver_fit_pair(benchmark):
    """Two targets on one 200 x 8 design in one stacked solve, as the
    fmax and fmin anchor models are fit."""
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.uniform(0, 50, (200, 8))
    Y = np.stack(
        [X @ rng.uniform(0, 2, 8) + rng.normal(0, 1, 200) for _ in range(2)]
    )
    results = benchmark(
        solve_asymmetric_lasso_stack,
        X,
        Y,
        alpha=100.0,
        gamma=10.0,
        max_iter=2000,
    )
    assert [r.beta.shape for r in results] == [(8,), (8,)]


def test_perf_profile_50_jobs(benchmark):
    """Profiling 50 instrumented sha jobs (offline-flow hot loop)."""
    app = get_app("sha")
    inst = Instrumenter().instrument(app.task.program)
    profiler = Profiler(INTERP, SimulatedCpu(), OPPS)
    inputs = app.inputs(50, seed=0)
    trace = benchmark(profiler.profile, inst, inputs)
    assert len(trace) == 50


def test_perf_one_governed_job(benchmark):
    """A full simulated job under the predictive governor."""
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.offline import build_controller
    from repro.platform.switching import SwitchLatencyModel
    from repro.runtime.executor import TaskLoopRunner

    app = get_app("xpilot")
    controller = build_controller(
        app,
        opps=OPPS,
        config=PipelineConfig(n_profile_jobs=40),
        switch_table=SwitchLatencyModel(OPPS).microbenchmark(10),
    )
    inputs = app.inputs(1, seed=0)

    def one_job():
        board = Board(opps=OPPS)
        return TaskLoopRunner(
            board, app.task, controller.governor(), inputs
        ).run()

    result = benchmark(one_job)
    assert result.n_jobs == 1


def _smoke_run(telemetry=None, n_jobs=50):
    """A governed smoke run (no training) used by the telemetry guards."""
    from repro.governors.interactive import InteractiveGovernor
    from repro.runtime.executor import TaskLoopRunner

    app = get_app("sha")
    board = Board(opps=OPPS)
    runner = TaskLoopRunner(
        board,
        app.task,
        InteractiveGovernor(OPPS),
        app.inputs(n_jobs, seed=0),
        telemetry=telemetry,
    )
    return runner.run()


def test_perf_telemetry_noop_under_two_percent():
    """The disabled-telemetry machinery must cost <2% of a smoke run.

    With no sink attached the executor still evaluates its
    ``telemetry.enabled`` guards and one ``has_decision_for()`` call per
    job.  Time those no-op checks directly, at the per-job multiplicity
    the instrumented hot path performs, and demand they stay under 2% of
    the smoke run's wall time.
    """
    import time as _time

    from repro.telemetry.events import NO_TELEMETRY

    n_jobs = 50
    t_run = best_of(lambda: _smoke_run(telemetry=None, n_jobs=n_jobs))

    checks_per_job = 16  # generous upper bound on guarded sites per job
    start = _time.perf_counter()
    for _ in range(n_jobs * checks_per_job):
        if NO_TELEMETRY.enabled:
            raise AssertionError("null telemetry must stay disabled")
    for index in range(n_jobs):
        NO_TELEMETRY.has_decision_for(index)
    t_checks = _time.perf_counter() - start

    assert t_checks < 0.02 * t_run, (
        f"no-op telemetry checks took {t_checks * 1e3:.3f} ms against a "
        f"{t_run * 1e3:.1f} ms smoke run (>{2}% budget)"
    )


def test_perf_watchdog_disabled_is_provably_noop():
    """With telemetry off, the watchdog must not exist on the hot path.

    ``Watchdog.attach`` refuses a disabled pipeline, so a watched-but-
    untraced run is *bitwise* the bare run: zero calls into watch.py and
    zero allocations attributable to it per job.  tracemalloc proves the
    allocation half; the attach contract proves the call half.
    """
    import tracemalloc

    from repro.telemetry.events import NO_TELEMETRY
    from repro.telemetry.watch import Watchdog

    watchdog = Watchdog()
    assert watchdog.attach(NO_TELEMETRY) is False
    # The refused attach mutated nothing: the null pipeline kept its
    # (absent) sink and the watchdog saw no stream.
    assert not hasattr(NO_TELEMETRY, "sink")
    assert watchdog.jobs == 0

    watch_file = __import__(
        "repro.telemetry.watch", fromlist=["__file__"]
    ).__file__
    tracemalloc.start()
    try:
        _smoke_run(telemetry=None, n_jobs=20)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    watch_allocs = snapshot.filter_traces(
        [tracemalloc.Filter(True, watch_file)]
    )
    assert not watch_allocs.statistics("lineno"), (
        "a run without telemetry allocated inside repro.telemetry.watch: "
        f"{watch_allocs.statistics('lineno')[:3]}"
    )


def test_perf_watchdog_attached_overhead_bounded():
    """An attached watchdog must stay within 2x of the bare run.

    Same tripwire style as the enabled-telemetry bound: the tee sink
    adds one dict-free dispatch per event, so doubling the run means a
    detector grew an accidental hot loop.
    """
    from repro.telemetry.events import Telemetry
    from repro.telemetry.watch import Watchdog

    Watchdog()  # warm the one-time drift-detector import before timing
    t_noop = best_of(lambda: _smoke_run(telemetry=None))
    observed = []

    def run_watched():
        telemetry = Telemetry()
        watchdog = Watchdog(telemetry=telemetry)
        assert watchdog.attach(telemetry) is True
        _smoke_run(telemetry=telemetry)
        observed.append(watchdog.jobs)

    t_watched = best_of(run_watched)
    assert observed[0] == 50, "watchdog must classify every job"
    assert t_watched < 2.0 * max(t_noop, 1e-4), (
        f"attached watchdog {t_watched * 1e3:.1f} ms vs "
        f"no-op {t_noop * 1e3:.1f} ms"
    )


def test_perf_hostprof_disabled_is_provably_noop():
    """With profiling off, the host profiler must not exist on the hot path.

    The executor instruments phases behind ``if hostprof.enabled:``
    guards and defaults to the shared :data:`NO_HOSTPROF` singleton, so
    an unprofiled run performs zero allocations attributable to
    ``repro.telemetry.hostprof`` — the same tracemalloc proof the
    watchdog and attribution guards use.
    """
    import tracemalloc

    from repro.telemetry.hostprof import NO_HOSTPROF

    assert NO_HOSTPROF.enabled is False
    hostprof_file = __import__(
        "repro.telemetry.hostprof", fromlist=["__file__"]
    ).__file__
    _smoke_run(telemetry=None, n_jobs=5)  # warm caches before tracing
    tracemalloc.start()
    try:
        _smoke_run(telemetry=None, n_jobs=20)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    hostprof_allocs = snapshot.filter_traces(
        [tracemalloc.Filter(True, hostprof_file)]
    )
    assert not hostprof_allocs.statistics("lineno"), (
        "an unprofiled run allocated inside repro.telemetry.hostprof: "
        f"{hostprof_allocs.statistics('lineno')[:3]}"
    )


def test_perf_hostprof_timers_overhead_bounded():
    """Phase timers (sampler off) must stay within 2x of the bare run.

    The per-job cost is a handful of ``perf_counter`` reads and dict
    updates; doubling the run means an instrumentation site grew into
    the hot loop.  The statistical sampler is deliberately excluded —
    it is opt-in and priced separately by ``repro profile``.
    """
    from repro.governors.interactive import InteractiveGovernor
    from repro.runtime.executor import TaskLoopRunner
    from repro.telemetry.hostprof import HostProfiler

    app = get_app("sha")

    def run_profiled():
        board = Board(opps=OPPS)
        hostprof = HostProfiler()
        runner = TaskLoopRunner(
            board,
            app.task,
            InteractiveGovernor(OPPS),
            app.inputs(50, seed=0),
            hostprof=hostprof,
        )
        with hostprof.running():
            runner.run()
        return hostprof

    t_bare = best_of(lambda: _smoke_run(telemetry=None))
    t_profiled = best_of(run_profiled)
    state = run_profiled().state()
    assert state.jobs == 50, "profiled run must count every job"
    assert "interp" in state.phases
    assert t_profiled < 2.0 * max(t_bare, 1e-4), (
        f"host-profiled run {t_profiled * 1e3:.1f} ms vs "
        f"bare {t_bare * 1e3:.1f} ms"
    )


def _sha_controller():
    """A small trained controller for the attribution guards (cached)."""
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.offline import build_controller
    from repro.platform.switching import SwitchLatencyModel

    if not hasattr(_sha_controller, "value"):
        _sha_controller.value = build_controller(
            get_app("sha"),
            opps=OPPS,
            config=PipelineConfig(n_profile_jobs=40),
            switch_table=SwitchLatencyModel(OPPS).microbenchmark(10),
        )
    return _sha_controller.value


def _predictive_run(telemetry=None, n_jobs=30):
    """A predictive-governed sha run (the path that builds attribution)."""
    from repro.runtime.executor import TaskLoopRunner

    app = get_app("sha")
    controller = _sha_controller()
    board = Board(opps=OPPS)
    runner = TaskLoopRunner(
        board,
        app.task,
        controller.governor(),
        app.inputs(n_jobs, seed=0),
        telemetry=telemetry,
    )
    return runner.run()


def test_perf_attribution_disabled_is_provably_noop():
    """With telemetry off, attribution capture must not run at all.

    The governors guard ``build_provenance`` behind ``telemetry.enabled``,
    so an untraced predictive run performs zero allocations attributable
    to ``repro.telemetry.provenance`` — tracemalloc proves it, the same
    way the watchdog guard does.
    """
    import tracemalloc

    provenance_file = __import__(
        "repro.telemetry.provenance", fromlist=["__file__"]
    ).__file__
    _predictive_run(telemetry=None, n_jobs=5)  # warm caches before tracing
    tracemalloc.start()
    try:
        _predictive_run(telemetry=None, n_jobs=20)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    provenance_allocs = snapshot.filter_traces(
        [tracemalloc.Filter(True, provenance_file)]
    )
    assert not provenance_allocs.statistics("lineno"), (
        "an untraced predictive run allocated inside "
        "repro.telemetry.provenance: "
        f"{provenance_allocs.statistics('lineno')[:3]}"
    )


def test_perf_attribution_overhead_bounded(monkeypatch):
    """Capturing attribution must stay within 2x of an audited run.

    Every audited decision now snapshots coefficients, decomposes the
    prediction, and walks the OPP ladder; all of it is per-job
    O(features + OPPs).  Baseline: the same traced run with provenance
    assembly stubbed out (schema-v1 audit behavior), so the bound
    isolates the new capture cost from pre-existing telemetry overhead.
    """
    import repro.governors.predictive as predictive_mod
    from repro.telemetry.events import Telemetry

    audited = []

    def run_audited():
        telemetry = Telemetry()
        result = _predictive_run(telemetry=telemetry)
        audited.append((result.n_jobs, telemetry.decisions))

    t_full = best_of(run_audited)
    n_jobs, decisions = audited[0]
    assert len(decisions) == n_jobs
    assert all(
        r.attribution is not None for r in decisions if r.mode == "certified"
    )
    assert any(r.attribution is not None for r in decisions), (
        "audited run captured no attribution payloads"
    )

    monkeypatch.setattr(
        predictive_mod, "build_provenance", lambda **kwargs: (None, (), -1)
    )
    t_stubbed = best_of(lambda: _predictive_run(telemetry=Telemetry()))

    assert t_full < 2.0 * max(t_stubbed, 1e-4), (
        f"attribution capture {t_full * 1e3:.1f} ms vs audited run "
        f"without it {t_stubbed * 1e3:.1f} ms"
    )


def test_perf_fleet_overhead_per_job_bounded():
    """Fleet scheduling must cost <= 2x a bare executor job at 1k sessions.

    A shard runs its sessions one after another and wraps every job
    in SLO classification; sessions add per-session setup (board,
    governor, arrival schedule) and teardown (trackers).  Amortized
    over a 1000-session shard, all of that together must stay within
    2x the per-job cost of one plain executor run of the same
    workload — i.e. the fleet layer may at most double a job, never
    multiply it.  Uses sha + the interactive governor so no training
    cost pollutes either side.
    """
    from repro.fleet.session import FleetBuild
    from repro.fleet.shard import plan_shards, run_shard
    from repro.fleet.tenant import TenantSpec

    n_sessions = 1000
    jobs_per_session = 4
    tenants = (
        TenantSpec(
            name="scale",
            app="sha",
            governor="interactive",
            sessions=n_sessions,
            jobs_per_session=jobs_per_session,
        ),
    )
    build = FleetBuild(root_seed=7)
    (plan,) = plan_shards(tenants, 1, build)
    run_shard(plan)  # warm app/program caches outside the timed region

    fleet_jobs = n_sessions * jobs_per_session
    t_fleet = best_of(lambda: run_shard(plan), rounds=2)

    single_jobs = 200
    t_single = best_of(
        lambda: _smoke_run(telemetry=None, n_jobs=single_jobs), rounds=3
    )

    fleet_per_job = t_fleet / fleet_jobs
    single_per_job = t_single / single_jobs
    assert fleet_per_job < 2.0 * single_per_job, (
        f"fleet job costs {fleet_per_job * 1e6:.1f} us vs "
        f"{single_per_job * 1e6:.1f} us bare ({n_sessions} sessions)"
    )


def test_perf_telemetry_enabled_overhead_bounded():
    """Recording everything must stay within 2x of the bare run.

    A loose tripwire (best-of-5 wall time) so an accidental O(n^2)
    sink or per-event allocation storm fails CI rather than silently
    doubling every traced experiment.
    """
    from repro.telemetry.events import Telemetry

    t_noop = best_of(lambda: _smoke_run(telemetry=None))
    recorded = []

    def run_enabled():
        telemetry = Telemetry()
        _smoke_run(telemetry=telemetry)
        recorded.append(len(telemetry.events))

    t_enabled = best_of(run_enabled)
    assert recorded[0] > 0, "enabled run must actually record events"
    assert t_enabled < 2.0 * max(t_noop, 1e-4), (
        f"enabled telemetry {t_enabled * 1e3:.1f} ms vs "
        f"no-op {t_noop * 1e3:.1f} ms"
    )


def test_perf_energy_disabled_is_provably_noop():
    """With attribution off, the ledger must not exist on the hot path.

    The executor defaults to the :data:`NO_ENERGY_LEDGER` singleton and
    guards every attribution site behind ``if self.energy.enabled:``, so
    an unattributed run performs zero allocations attributable to
    ``repro.telemetry.energy`` — the same tracemalloc proof the
    watchdog and host-profiler guards use.
    """
    import tracemalloc

    from repro.telemetry.energy import NO_ENERGY_LEDGER

    assert NO_ENERGY_LEDGER.enabled is False
    energy_file = __import__(
        "repro.telemetry.energy", fromlist=["__file__"]
    ).__file__
    _smoke_run(telemetry=None, n_jobs=5)  # warm caches before tracing
    tracemalloc.start()
    try:
        _smoke_run(telemetry=None, n_jobs=20)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    energy_allocs = snapshot.filter_traces(
        [tracemalloc.Filter(True, energy_file)]
    )
    assert not energy_allocs.statistics("lineno"), (
        "an unattributed run allocated inside repro.telemetry.energy: "
        f"{energy_allocs.statistics('lineno')[:3]}"
    )


def test_perf_energy_ledger_overhead_bounded():
    """An attached energy ledger must stay within 2x of the bare run.

    Attribution costs one dict upsert per power segment plus a few
    float adds; doubling the smoke run means the observe path grew an
    accidental hot loop (e.g. re-walking the timeline per job).
    """
    from repro.governors.interactive import InteractiveGovernor
    from repro.runtime.executor import TaskLoopRunner
    from repro.telemetry.energy import EnergyLedger

    app = get_app("sha")

    def run_attributed():
        board = Board(opps=OPPS)
        ledger = EnergyLedger(board.power, board.opps)
        runner = TaskLoopRunner(
            board,
            app.task,
            InteractiveGovernor(OPPS),
            app.inputs(50, seed=0),
            energy=ledger,
        )
        runner.run()
        return ledger, board

    t_bare = best_of(lambda: _smoke_run(telemetry=None))
    t_attributed = best_of(run_attributed)
    ledger, board = run_attributed()
    assert ledger.state().jobs == 50, "ledger must count every job"
    assert ledger.check_conservation(board) <= 1e-9
    assert t_attributed < 2.0 * max(t_bare, 1e-4), (
        f"attributed run {t_attributed * 1e3:.1f} ms vs "
        f"bare {t_bare * 1e3:.1f} ms"
    )
