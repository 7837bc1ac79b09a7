"""The experiment workbench ("Lab") shared by all figure reproductions.

A :class:`Lab` owns the platform models, trains (and caches) one
predictive controller per application, and runs (app, governor, budget)
combinations with deterministic seeding.  Every experiment module under
:mod:`repro.analysis.experiments` drives a Lab, so benchmarks, examples,
and tests share one code path.  The fleet and ablation harnesses share
two pieces with it: :func:`seeded_board`, the one constructor of a
seeded run's board, and the process-wide cache of trained controllers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import import_module
from typing import TYPE_CHECKING

from repro.governors.base import Governor
from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import TrainedController, build_controller
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter, NoJitter
from repro.platform.opp import OppTable, default_xu3_a7_table
from repro.platform.power import PowerModel
from repro.platform.switching import SwitchLatencyModel, SwitchTimeTable
from repro.programs.interpreter import Interpreter
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.placement import PredictorPlacement
from repro.runtime.records import RunResult
from repro.telemetry.events import NO_TELEMETRY, Telemetry
from repro.workloads.base import InteractiveApp
from repro.workloads.registry import get_app

if TYPE_CHECKING:
    from repro.telemetry.exporters import TraceSession

__all__ = [
    "Lab", "GOVERNOR_NAMES", "check_governor", "default_n_jobs", "seeded_board"
]

#: Governor identifiers accepted by :meth:`Lab.run`.
GOVERNOR_NAMES = (
    "performance",
    "powersave",
    "ondemand",
    "conservative",
    "interactive",
    "pid",
    "prediction",
    "adaptive",
    "oracle",
)

_BATCH_PREFIX = "prediction-batch"

#: Baseline governor name -> (its ``repro.governors`` module, its class).
#: Each class is built from the Lab's OPP table alone.
_BASELINE_GOVERNORS: dict[str, tuple[str, str]] = {
    "performance": ("performance", "PerformanceGovernor"),
    "powersave": ("powersave", "PowersaveGovernor"),
    "ondemand": ("ondemand", "OndemandGovernor"),
    "conservative": ("conservative", "ConservativeGovernor"),
    "interactive": ("interactive", "InteractiveGovernor"),
    "pid": ("pid", "PidGovernor"),
    "oracle": ("oracle", "OracleGovernor"),
}

#: Every governor module a ``prediction`` run does not load, by the
#: name :meth:`Lab.make_governor` looks its class up under (the batch
#: governor under its prefix).
_GOVERNOR_MODULES: dict[str, tuple[str, str]] = {
    **_BASELINE_GOVERNORS,
    "adaptive": ("adaptive", "AdaptiveGovernor"),
    _BATCH_PREFIX: ("batch", "BatchPredictiveGovernor"),
}

#: Those governor classes by name, each imported on first use: a fleet
#: builds a governor per session, and an import statement per call
#: would cost more than the lookup.
_GOVERNOR_CLASSES: dict[str, type[Governor]] = {}

#: :class:`~repro.online.inject.StepDriftJitter`, bound by the first
#: drifting :func:`seeded_board`: a run without drift never loads it.
StepDriftJitter = None

#: Trained controllers of every Lab in the process, keyed by everything a
#: build reads: app, pipeline config, OPP table, and the seed and sample
#: count of the switch-time microbenchmark.  Forked workers inherit them.
_CONTROLLERS: dict[tuple, TrainedController] = {}


def check_governor(name: str) -> None:
    """Raise ValueError unless :meth:`Lab.make_governor` accepts ``name``:
    one of :data:`GOVERNOR_NAMES` or ``prediction-batch<N>``, N >= 1."""
    suffix = name[len(_BATCH_PREFIX):] if name.startswith(_BATCH_PREFIX) else ""
    if name in GOVERNOR_NAMES or (suffix.isdecimal() and int(suffix) >= 1):
        return
    raise ValueError(
        f"unknown governor {name!r}; expected one of {GOVERNOR_NAMES} "
        f"or '{_BATCH_PREFIX}<N>'"
    )


def _governor_class(name: str) -> type[Governor]:
    """The class of governor ``name``, imported on first use."""
    cls = _GOVERNOR_CLASSES.get(name)
    if cls is None:
        module, class_name = _GOVERNOR_MODULES[name]
        cls = getattr(import_module(f"repro.governors.{module}"), class_name)
        _GOVERNOR_CLASSES[name] = cls
    return cls


def seeded_board(
    opps: OppTable,
    power: PowerModel | None,
    jitter_sigma: float,
    jitter_seed: int,
    switch_seed: int,
    drift: tuple[float, float] | None = None,
) -> Board:
    """A fresh board whose timing noise and switch latencies replay from seeds.

    ``jitter_sigma`` 0 disables timing noise.  ``drift`` is an optional
    ``(factor, shift_at_s)`` step: from simulated time ``shift_at_s`` on,
    every job takes ``factor`` times longer (1.0 is no drift).  The step
    is time-triggered, so it lands on the same job for every governor
    however many noise samples each one draws.
    """
    global StepDriftJitter
    jitter = (
        LogNormalJitter(jitter_sigma, seed=jitter_seed)
        if jitter_sigma > 0
        else NoJitter()
    )
    board = Board(
        opps=opps,
        power=power,
        switcher=SwitchLatencyModel(opps, seed=switch_seed),
        jitter=jitter,
    )
    if drift is not None and drift[0] != 1.0:
        if StepDriftJitter is None:
            from repro.online.inject import StepDriftJitter as step

            StepDriftJitter = step
        factor, shift_at_s = drift
        board.cpu.jitter = StepDriftJitter(
            jitter, factor, shift_at_s=shift_at_s, clock=lambda: board.now
        )
    return board


def default_n_jobs(app_name: str, config: PipelineConfig | None = None) -> int:
    """Evaluation job count for an application (configured via
    :attr:`PipelineConfig.eval_n_jobs` and its per-app overrides)."""
    config = config if config is not None else PipelineConfig()
    return config.eval_jobs_for(app_name)


@dataclass(frozen=True)
class _RunKey:
    app: str
    governor: str
    budget_ms: float
    n_jobs: int
    idle: bool
    charge_predictor: bool
    charge_switch: bool
    placement: PredictorPlacement


class Lab:
    """Caching experiment workbench.

    Attributes:
        opps: Operating points of the simulated platform.
        pipeline_config: Offline-training configuration.
        jitter_sigma: Run-to-run timing noise for evaluation runs.
        seed: Base seed; every run derives its own streams from it, and
            the switch-time microbenchmark runs at it.
        switch_samples: Microbenchmark samples per OPP pair.
        trace_session: Optional telemetry session (``--trace DIR``).
            When set, every run gets its own named
            :class:`~repro.telemetry.events.Telemetry` wired into the runner,
            and run caching is bypassed so each trace is complete.
    """

    def __init__(
        self,
        opps: OppTable | None = None,
        pipeline_config: PipelineConfig | None = None,
        jitter_sigma: float = 0.02,
        seed: int = 42,
        switch_samples: int = 100,
        power: PowerModel | None = None,
        trace_session: TraceSession | None = None,
    ):
        self.opps = opps if opps is not None else default_xu3_a7_table()
        self.power = power
        self.pipeline_config = (
            pipeline_config if pipeline_config is not None else PipelineConfig()
        )
        self.jitter_sigma = jitter_sigma
        self.seed = seed
        self.switch_samples = switch_samples
        self.interpreter = Interpreter()
        self.trace_session = trace_session
        self._apps: dict[str, InteractiveApp] = {}
        self._run_cache: dict[_RunKey, RunResult] = {}

    def telemetry_for(self, run_name: str) -> Telemetry:
        """A telemetry pipeline for one run (no-op without a session).

        Experiments that build their own runners (the drift study) call
        this so their runs land in the same ``--trace`` directory as
        :meth:`run`'s.
        """
        if self.trace_session is None:
            return NO_TELEMETRY
        return self.trace_session.telemetry_for(run_name)

    # -- construction helpers ---------------------------------------------------
    def app(self, name: str) -> InteractiveApp:
        """The named application (cached: program state is per-run anyway)."""
        if name not in self._apps:
            self._apps[name] = get_app(name)
        return self._apps[name]

    @cached_property
    def switch_table(self) -> SwitchTimeTable:
        """95th-percentile switch times, microbenchmarked on first use."""
        return SwitchLatencyModel(self.opps, seed=self.seed).microbenchmark(
            samples_per_pair=self.switch_samples
        )

    def controller(
        self, app_name: str, config: PipelineConfig | None = None
    ) -> TrainedController:
        """The trained predictive controller for an app (cached per config)."""
        config = config if config is not None else self.pipeline_config
        if app_name == "pocketsphinx" and config.n_profile_jobs > 80:
            # Seconds-long jobs: a smaller profile keeps training tractable.
            config = replace(config, n_profile_jobs=60)
        return self.trained_controller(app_name, config)

    def trained_controller(
        self, app_name: str, config: PipelineConfig
    ) -> TrainedController:
        """The controller trained with exactly ``config``, once per process."""
        key = (app_name, config, self.opps, self.seed, self.switch_samples)
        if key not in _CONTROLLERS:
            _CONTROLLERS[key] = build_controller(
                self.app(app_name),
                opps=self.opps,
                config=config,
                switch_table=self.switch_table,
                interpreter=self.interpreter,
            )
        return _CONTROLLERS[key]

    def make_governor(
        self,
        name: str,
        app_name: str,
        pipeline_config: PipelineConfig | None = None,
    ) -> Governor:
        """Instantiate a governor by name (trained on demand).

        Each governor's module is imported when the first governor of its
        kind is built, so a run loads only the policy it uses.
        """
        if name in _BASELINE_GOVERNORS:
            return _governor_class(name)(self.opps)
        check_governor(name)
        if name == "prediction":
            return self.controller(app_name, pipeline_config).governor(
                self.interpreter
            )
        if name == "adaptive":
            return _governor_class(name).from_controller(
                self.controller(app_name, pipeline_config),
                interpreter=self.interpreter,
            )
        # §7 future-work controller: "prediction-batch8" -> batch of 8.
        controller = self.controller(app_name, pipeline_config)
        return _governor_class(_BATCH_PREFIX)(
            slice=controller.slice,
            predictor=controller.predictor,
            dvfs=controller.dvfs,
            switch_table=controller.switch_table,
            interpreter=self.interpreter,
            batch_size=int(name[len(_BATCH_PREFIX):]),
        )

    def make_board(self, run_seed: int) -> Board:
        """A fresh board with this Lab's noise level and a derived seed."""
        return seeded_board(
            self.opps, self.power, self.jitter_sigma, run_seed, run_seed
        )

    # -- running -------------------------------------------------------------------
    def run(
        self,
        app_name: str,
        governor_name: str,
        budget_s: float | None = None,
        n_jobs: int | None = None,
        idle: bool = False,
        charge_predictor: bool = True,
        charge_switch: bool = True,
        placement: PredictorPlacement = PredictorPlacement.SEQUENTIAL,
        pipeline_config: PipelineConfig | None = None,
        use_cache: bool = True,
    ) -> RunResult:
        """Run one (app, governor) combination.

        Results are cached by their full parameter set; identical calls
        across experiments (e.g. the performance baseline) are free.
        """
        app = self.app(app_name)
        budget = budget_s if budget_s is not None else app.task.budget_s
        jobs = (
            n_jobs
            if n_jobs is not None
            else default_n_jobs(app_name, self.pipeline_config)
        )
        key = _RunKey(
            app=app_name,
            governor=governor_name,
            budget_ms=round(budget * 1e6),
            n_jobs=jobs,
            idle=idle,
            charge_predictor=charge_predictor,
            charge_switch=charge_switch,
            placement=placement,
        )
        telemetry = self.telemetry_for(f"{app_name}.{governor_name}")
        # A cached result has no trace; with a session active every run
        # must actually execute so its telemetry is complete.
        cacheable = (
            use_cache and pipeline_config is None and not telemetry.enabled
        )
        if cacheable and key in self._run_cache:
            return self._run_cache[key]

        governor = self.make_governor(governor_name, app_name, pipeline_config)
        # Derive a run seed that differs per configuration but is stable
        # ACROSS PROCESSES (builtin hash() is salted per interpreter run).
        run_seed = zlib.crc32(
            f"{self.seed}|{app_name}|{governor_name}|{key.budget_ms}".encode()
        )
        board = self.make_board(run_seed)
        task = app.task.with_budget(budget)
        runner = TaskLoopRunner(
            board=board,
            task=task,
            governor=governor,
            inputs=app.inputs(jobs, seed=self.seed),
            interpreter=self.interpreter,
            placement=placement,
            idle=idle,
            charge_predictor=charge_predictor,
            charge_switch=charge_switch,
            telemetry=telemetry,
        )
        result = runner.run()
        if cacheable:
            self._run_cache[key] = result
        return result

    def normalized_energy(
        self, result: RunResult, app_name: str, budget_s: float | None = None
    ) -> float:
        """Energy relative to the performance governor at the same budget."""
        reference = self.run(
            app_name,
            "performance",
            budget_s=budget_s if budget_s is not None else result.budget_s,
            n_jobs=result.n_jobs,
        )
        return result.energy_relative_to(reference)
