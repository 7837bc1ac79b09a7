"""Tests for the task-loop runner."""

import collections

import pytest

from repro.governors import oracle
from repro.governors.base import Decision, Governor
from repro.governors.interactive import InteractiveGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.programs.expr import Const, Var
from repro.programs.interpreter import Interpreter
from repro.programs.ir import Assign, Block, Loop, Program, Seq
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.placement import PredictorPlacement
from repro.runtime.task import Task
from tests.programs.reference_interpreter import TreeWalkingInterpreter

OPPS = default_xu3_a7_table()


def fixed_program(cycles=14e6):
    """A job with constant work: exactly ``cycles`` frequency-scaled cycles."""
    return Program("fixed", Block(cycles))  # CPI = 1 -> cycles == instructions


def loopy_program():
    """Work proportional to input ``n`` (4000 instr per unit of n)."""
    return Program("loopy", Loop("l", Var("n"), Block(3998)))


class FixedGovernor(Governor):
    """Test helper: always requests one specific level."""

    timer_period_s = None

    def __init__(self, opp):
        self.opp = opp

    @property
    def name(self) -> str:
        return "fixed"

    def decide(self, ctx):
        if ctx.board.current_opp.index != self.opp.index:
            return Decision(self.opp)
        return None


def run_task(
    program,
    governor,
    inputs,
    budget_s=0.050,
    board=None,
    **runner_kwargs,
):
    board = board if board is not None else Board()
    runner = TaskLoopRunner(
        board,
        Task(program.name, program, budget_s),
        governor,
        inputs,
        **runner_kwargs,
    )
    return runner.run(), board


class TestBasicExecution:
    def test_requires_inputs(self):
        with pytest.raises(ValueError):
            TaskLoopRunner(
                Board(),
                Task("t", fixed_program(), 0.05),
                PerformanceGovernor(OPPS),
                [],
            )

    def test_job_count_matches_inputs(self):
        result, _ = run_task(
            fixed_program(), PerformanceGovernor(OPPS), [{}] * 7
        )
        assert result.n_jobs == 7

    def test_exec_time_matches_model(self):
        result, _ = run_task(fixed_program(14e6), PerformanceGovernor(OPPS), [{}])
        # 14M cycles at 1400 MHz = 10 ms.
        assert result.jobs[0].exec_time_s == pytest.approx(0.010)

    def test_jobs_released_periodically(self):
        result, _ = run_task(
            fixed_program(), PerformanceGovernor(OPPS), [{}] * 3, budget_s=0.05
        )
        arrivals = [j.arrival_s for j in result.jobs]
        assert arrivals == pytest.approx([0.0, 0.05, 0.10])

    def test_no_misses_with_plenty_of_budget(self):
        result, _ = run_task(
            fixed_program(), PerformanceGovernor(OPPS), [{}] * 5
        )
        assert result.n_missed == 0

    def test_miss_detected_when_infeasible(self):
        # 140M cycles = 100 ms at fmax; budget 50 ms.
        result, _ = run_task(
            fixed_program(140e6), PerformanceGovernor(OPPS), [{}] * 2
        )
        assert result.miss_rate == 1.0

    def test_energy_accumulates(self):
        result, _ = run_task(
            fixed_program(), PerformanceGovernor(OPPS), [{}] * 5
        )
        assert result.energy_j > 0
        assert result.energy_by_tag["job"] > 0
        assert result.energy_by_tag["idle"] > 0

    def test_result_metadata(self):
        result, _ = run_task(fixed_program(), PerformanceGovernor(OPPS), [{}])
        assert result.governor == "performance"
        assert result.app == "fixed"
        assert result.budget_s == 0.05


class TestFrequencyEffects:
    def test_low_frequency_stretches_jobs(self):
        fast, _ = run_task(fixed_program(), FixedGovernor(OPPS.fmax), [{}] * 3)
        slow, _ = run_task(fixed_program(), FixedGovernor(OPPS.fmin), [{}] * 3)
        assert slow.jobs[-1].exec_time_s > fast.jobs[-1].exec_time_s * 5

    def test_low_frequency_saves_energy(self):
        fast, _ = run_task(fixed_program(), FixedGovernor(OPPS.fmax), [{}] * 5)
        slow, _ = run_task(fixed_program(), FixedGovernor(OPPS.fmin), [{}] * 5)
        assert slow.energy_j < fast.energy_j

    def test_powersave_misses_heavy_jobs(self):
        # 28M cycles: 20 ms at fmax, 140 ms at fmin -> misses at fmin only.
        fast, _ = run_task(
            fixed_program(28e6), PerformanceGovernor(OPPS), [{}] * 3
        )
        slow, _ = run_task(
            fixed_program(28e6), PowersaveGovernor(OPPS), [{}] * 3
        )
        assert fast.n_missed == 0
        assert slow.n_missed == 3

    def test_switch_time_recorded(self):
        result, board = run_task(
            fixed_program(), FixedGovernor(OPPS.fmin), [{}] * 2
        )
        assert result.jobs[0].switch_time_s > 0
        assert result.switch_count == 1  # only the first job switches

    def test_uncharged_switch_is_instant(self):
        result, board = run_task(
            fixed_program(),
            FixedGovernor(OPPS.fmin),
            [{}] * 2,
            charge_switch=False,
        )
        assert result.jobs[0].switch_time_s == 0.0
        assert board.current_opp == OPPS.fmin
        assert result.switch_count == 1  # still counted as a transition


class CountingInterpreter(Interpreter):
    """Counts executions of each program object, through either entry."""

    def __init__(self):
        super().__init__()
        self.runs = collections.Counter()

    def execute(self, program, inputs, globals_=None):
        self.runs[id(program)] += 1
        return super().execute(program, inputs, globals_)

    def execute_isolated(self, program, inputs, globals_):
        self.runs[id(program)] += 1
        return super().execute_isolated(program, inputs, globals_)


class GlobalsSpy(Governor):
    """Records the task globals each decision sees and each job leaves."""

    timer_period_s = None

    def __init__(self):
        self.before = []
        self.after = []
        self.live = None

    @property
    def name(self) -> str:
        return "spy"

    def decide(self, ctx):
        self.before.append(dict(ctx.task_globals))
        return None

    def on_job_end(self, record, ctx):
        self.after.append(dict(ctx.task_globals))
        self.live = ctx.task_globals
        return None


def accumulating_program():
    """Globals that depend on every job's inputs and on their history."""
    return Program(
        "accumulating",
        Seq(
            [
                Loop("l", Var("n"), Block(900, mem_refs=3)),
                Assign("turn", Var("turn") + Const(1)),
                Assign(
                    "total", Var("total") * Const(3) % Const(1009) + Var("n")
                ),
                Assign("scratch", Var("n") * Const(2)),  # a local
            ]
        ),
        globals_init={"turn": 0, "total": 1},
    )


ACCUMULATING_INPUTS = [{"n": n} for n in (5, 0, 17, 3, 11, 8)]


def reference_states(program, job_inputs):
    """Globals before each job, then after the last: back-to-back runs of
    the reference tree-walker on one globals dict."""
    reference = TreeWalkingInterpreter()
    globals_ = program.fresh_globals()
    states = [dict(globals_)]
    for inputs in job_inputs:
        reference.execute(program, inputs, globals_)
        states.append(dict(globals_))
    return states


@pytest.fixture(scope="module")
def uzbl_controller():
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.offline import build_controller
    from repro.platform.switching import SwitchLatencyModel
    from repro.workloads.registry import get_app

    app = get_app("uzbl")
    controller = build_controller(
        app,
        opps=OPPS,
        config=PipelineConfig(n_profile_jobs=40),
        switch_table=SwitchLatencyModel(OPPS).microbenchmark(10),
    )
    return app, controller


class TestStateEvolution:
    def test_task_interpreted_once_per_job(self):
        program = accumulating_program()
        interpreter = CountingInterpreter()
        run_task(
            program,
            PerformanceGovernor(OPPS),
            ACCUMULATING_INPUTS,
            interpreter=interpreter,
        )
        assert interpreter.runs[id(program)] == len(ACCUMULATING_INPUTS)

    def test_globals_advance_once_per_job(self):
        program = accumulating_program()
        spy = GlobalsSpy()
        run_task(program, spy, ACCUMULATING_INPUTS)
        expected = reference_states(program, ACCUMULATING_INPUTS)
        assert spy.after == expected[1:]
        assert spy.live == expected[-1]

    @pytest.mark.parametrize("placement", list(PredictorPlacement))
    def test_decide_sees_pre_job_globals(self, placement):
        program = accumulating_program()
        spy = GlobalsSpy()
        run_task(program, spy, ACCUMULATING_INPUTS, placement=placement)
        assert spy.before == reference_states(program, ACCUMULATING_INPUTS)[:-1]

    @pytest.mark.parametrize("placement", list(PredictorPlacement))
    def test_slice_sees_pre_job_globals(self, uzbl_controller, placement):
        """The prediction slice runs against pre-job state in every
        placement, on an app whose globals drive its work."""
        app, controller = uzbl_controller
        governor = controller.governor()
        analyze = governor.analyze
        seen = {}

        def spying_analyze(ctx):
            seen[ctx.index] = dict(ctx.task_globals)
            return analyze(ctx)

        governor.analyze = spying_analyze
        inputs = app.inputs(12, seed=5)
        run_task(
            app.task.program, governor, inputs, budget_s=app.task.budget_s,
            placement=placement,
        )
        expected = reference_states(app.task.program, inputs)
        assert seen
        assert seen == {index: expected[index] for index in seen}

    def test_input_dependent_work(self):
        result, _ = run_task(
            loopy_program(),
            PerformanceGovernor(OPPS),
            [{"n": 1000}, {"n": 5000}, {"n": 2000}],
        )
        times = result.exec_times_s
        assert times[1] > times[0]
        assert times[1] > times[2]


class TestIdling:
    def test_idling_reduces_energy_for_performance(self):
        inputs = [{}] * 10
        plain, _ = run_task(
            fixed_program(28e6), PerformanceGovernor(OPPS), inputs
        )
        idled, _ = run_task(
            fixed_program(28e6),
            PerformanceGovernor(OPPS),
            inputs,
            idle=True,
        )
        assert idled.energy_j < plain.energy_j

    def test_idling_does_not_cause_misses_for_performance(self):
        result, _ = run_task(
            fixed_program(28e6),
            PerformanceGovernor(OPPS),
            [{}] * 10,
            idle=True,
        )
        assert result.n_missed == 0

    def test_idling_restores_level_for_opinionless_governor(self):
        """After an idle dip to fmin the pre-idle level is restored when
        the governor has no explicit decision."""

        class OneShot(Governor):
            timer_period_s = None

            def __init__(self):
                self.decisions = 0

            @property
            def name(self):
                return "oneshot"

            def decide(self, ctx):
                self.decisions += 1
                if self.decisions == 1:
                    return Decision(OPPS[6])
                return None  # no opinion afterwards

        result, board = run_task(
            fixed_program(1e6),
            OneShot(),
            [{}] * 3,
            idle=True,
        )
        # Level 6 was restored after each idle dip (not left at fmin).
        assert board.current_opp.index == 6
        assert result.jobs[-1].opp_mhz == OPPS[6].freq_mhz

    def test_short_gaps_not_idled(self):
        # Jobs take ~49 ms of a 50 ms budget: gap ~1 ms < min_gap 4 ms.
        result, board = run_task(
            fixed_program(68e6),
            PerformanceGovernor(OPPS),
            [{}] * 4,
            idle=True,
        )
        assert result.switch_count == 0

    @pytest.mark.parametrize("gap_ms, idled", ((3.9, False), (4.1, True)))
    def test_gaps_of_4ms_or_less_not_idled(self, gap_ms, idled):
        """At fmax a job of (50 - gap) ms leaves a gap of ``gap_ms``
        before each release; only gaps longer than 4 ms drop to fmin.
        Free switches keep every gap the same length."""
        cycles = (50.0 - gap_ms) * 1e-3 * OPPS.fmax.freq_hz
        result, board = run_task(
            fixed_program(cycles),
            PerformanceGovernor(OPPS),
            [{}] * 4,
            idle=True,
            charge_switch=False,
        )
        # Each of the three idled gaps is one dip to fmin and one restore.
        assert result.switch_count == (6 if idled else 0)


class TestTimers:
    def test_interactive_scales_down_on_light_load(self):
        # 1.4M cycles = 1 ms at fmax in a 50 ms period: utilization ~2%.
        result, board = run_task(
            fixed_program(1.4e6), InteractiveGovernor(OPPS), [{}] * 30
        )
        assert board.current_opp.freq_hz < OPPS.fmax.freq_hz
        late = [j for j in result.jobs if j.arrival_s > 0.3]
        assert all(j.opp_mhz < 1400 for j in late)

    def test_interactive_sprints_on_heavy_load(self):
        """Saturating load pushes it to fmax (it may later oscillate down:
        at fmax the load looks light again — classic interactive-governor
        hysteresis, not a bug)."""
        board = Board(initial_opp=OPPS.fmin)
        result, board = run_task(
            fixed_program(30e6),
            InteractiveGovernor(OPPS),
            [{}] * 20,
            board=board,
        )
        assert any(j.opp_mhz == OPPS.fmax.freq_mhz for j in result.jobs)

    def test_interactive_misses_when_scaled_too_low(self):
        """The deadline-blindness the paper exploits: utilization-driven
        scaling can miss deadlines on bursty work."""
        inputs = []
        for i in range(40):
            inputs.append({"n": 12000 if i % 8 == 7 else 400})
        result, _ = run_task(loopy_program(), InteractiveGovernor(OPPS), inputs)
        assert result.n_missed > 0

    def test_timer_fires_during_idle(self):
        """Near-idle samples taken between jobs retarget the clock to
        fmin before the next release boosts it again."""
        from repro.telemetry.events import Telemetry

        telemetry = Telemetry()
        result, board = run_task(
            fixed_program(1.4e6),
            InteractiveGovernor(OPPS),
            [{}] * 30,
            telemetry=telemetry,
        )
        busy = [(job.start_s, job.end_s) for job in result.jobs]
        idle_retargets = [
            event
            for event in telemetry.events
            if event.name == "timer.retarget"
            and not any(start <= event.ts_s <= end for start, end in busy)
        ]
        assert idle_retargets
        assert {e.args["to_mhz"] for e in idle_retargets} == {
            OPPS.fmin.freq_mhz
        }

    def test_input_boost_raises_frequency_at_job_start(self):
        board = Board(initial_opp=OPPS.fmin)
        gov = InteractiveGovernor(OPPS)
        result, board = run_task(
            fixed_program(1.4e6), gov, [{}] * 5, board=board
        )
        assert result.jobs[0].opp_mhz == gov.hispeed_opp.freq_mhz


class TestJitterIntegration:
    def test_jittered_exec_times_vary(self):
        board = Board(jitter=LogNormalJitter(0.05, seed=11))
        result, _ = run_task(
            fixed_program(), PerformanceGovernor(OPPS), [{}] * 10, board=board
        )
        assert len(set(result.exec_times_s)) > 1

    def test_deterministic_given_seed(self):
        def once():
            board = Board(jitter=LogNormalJitter(0.05, seed=11))
            result, _ = run_task(
                fixed_program(),
                PerformanceGovernor(OPPS),
                [{}] * 10,
                board=board,
            )
            return result.energy_j, result.exec_times_s

        assert once() == once()


class RetargetOnce(Governor):
    """Test helper: jumps to fmax at the first utilization sample."""

    timer_period_s = 0.004

    def __init__(self, opps):
        self.opps = opps
        self.fired = 0

    @property
    def name(self) -> str:
        return "retarget-once"

    def decide(self, ctx):
        return None

    def on_timer(self, now_s, utilization):
        self.fired += 1
        if self.fired == 1:
            return self.opps.fmax
        return None


class TestMidJobRetargeting:
    """A utilization-timer retarget mid-job re-times the remaining work.

    One 14e6-cycle job starts at fmin (200 MHz, would take 70 ms) and is
    retargeted to fmax (1400 MHz) at the 4 ms timer, so the analytic
    execution time is ``0.004 + (1 - 0.004/0.070) * 0.010`` seconds —
    and the cycles spent at each level must still sum to the job's work.
    """

    T_FMIN = 14e6 / 200e6
    T_FMAX = 14e6 / 1400e6

    def run_retargeted(self, **runner_kwargs):
        board = Board(initial_opp=OPPS.fmin)
        return run_task(
            fixed_program(14e6),
            RetargetOnce(OPPS),
            [{}],
            board=board,
            charge_switch=False,
            **runner_kwargs,
        )

    def test_exec_time_matches_analytic_split(self):
        result, _ = self.run_retargeted()
        done_at_retarget = 0.004 / self.T_FMIN
        expected = 0.004 + (1 - done_at_retarget) * self.T_FMAX
        assert result.jobs[0].exec_time_s == pytest.approx(expected)
        # Far faster than staying at fmin, slower than pure fmax.
        assert self.T_FMAX < result.jobs[0].exec_time_s < self.T_FMIN

    def test_job_record_keeps_final_frequency(self):
        result, board = self.run_retargeted()
        assert board.current_opp == OPPS.fmax

    def test_work_is_conserved_across_the_retarget(self):
        from repro.telemetry.events import Telemetry

        telemetry = Telemetry()
        self.run_retargeted(telemetry=telemetry)
        counters = telemetry.metrics.as_dict()["counters"]
        residency = {
            name.split("[")[1].rstrip("]"): value
            for name, value in counters.items()
            if name.startswith("executor.residency_s[")
        }
        assert set(residency) == {"200", "1400"}
        assert residency["200"] == pytest.approx(0.004)
        cycles = sum(
            seconds * float(mhz) * 1e6 for mhz, seconds in residency.items()
        )
        assert cycles == pytest.approx(14e6)
        assert counters["executor.timer_retargets"] == 1

    def test_retarget_emits_instant_event(self):
        from repro.telemetry.events import Telemetry

        telemetry = Telemetry()
        self.run_retargeted(telemetry=telemetry)
        retargets = [
            e for e in telemetry.events if e.name == "timer.retarget"
        ]
        assert len(retargets) == 1
        assert retargets[0].ts_s == pytest.approx(0.004)
        assert retargets[0].args["to_mhz"] == OPPS.fmax.freq_mhz


class TestOracleWork:
    def test_oracle_gets_the_isolated_forks_work(self):
        """The oracle predicts from the same work the job then executes:
        with no jitter its prediction is the job's time to the bit."""
        runner = TaskLoopRunner(
            board=Board(opps=OPPS),
            task=Task("loopy", loopy_program(), 0.050),
            governor=OracleGovernor(OPPS),
            inputs=[{"n": n} for n in (1000, 3000, 2000)],
            charge_predictor=False,
            charge_switch=False,
        )
        result = runner.run()
        assert [job.predicted_time_s for job in result.jobs] == [
            job.exec_time_s * (1.0 + oracle.MARGIN) for job in result.jobs
        ]
