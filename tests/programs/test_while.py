"""Tests for condition-controlled While loops (the paper's Fig. 7
``while (n = n->next)`` case)."""

import pytest
from hypothesis import given, strategies as st

from repro.programs.expr import Compare, Const, Var
from repro.programs.instrument import Instrumenter
from repro.programs.interpreter import Interpreter
from repro.programs.ir import (
    Assign,
    Block,
    If,
    Program,
    Seq,
    While,
)
from repro.programs.serialize import program_from_json, program_to_json
from repro.programs.slicer import Slicer
from repro.programs.validate import free_variables, validate_program

INTERP = Interpreter()


def list_walk_program():
    """A linked-list-walk style task: work per remaining element."""
    return Program(
        "walker",
        Seq(
            [
                Assign("remaining", Var("n_elements")),
                While(
                    "walk",
                    Compare(">", Var("remaining"), Const(0)),
                    Seq(
                        [
                            Block(25_000, 20, name="process_node"),
                            Assign("remaining", Var("remaining") - Const(1)),
                        ]
                    ),
                ),
            ]
        ),
    )


class TestWhileNode:
    def test_requires_site(self):
        with pytest.raises(ValueError):
            While("", Const(True), Block(1))

    def test_rejects_negative_max_trips(self):
        with pytest.raises(ValueError):
            While("w", Const(True), Block(1), max_trips=-1)

    def test_children(self):
        body = Block(1)
        assert While("w", Const(True), body).children() == (body,)

    def test_validates_and_reports_free_vars(self):
        program = list_walk_program()
        validate_program(program)
        assert free_variables(program) == frozenset({"n_elements"})


class TestWhileExecution:
    def test_runs_until_condition_false(self):
        result = INTERP.execute(list_walk_program(), {"n_elements": 5})
        # 5 iterations x (25000 + assign 2 + iter 2) + checks + setup assign.
        assert result.work.cycles > 5 * 25_000

    def test_zero_iterations(self):
        result = INTERP.execute(list_walk_program(), {"n_elements": 0})
        assert result.work.cycles < 100

    def test_max_trips_clamps_runaway_loop(self):
        runaway = Program(
            "r", While("w", Const(True), Block(10), max_trips=25)
        )
        result = INTERP.execute(runaway, {})
        # 25 x (check + iteration bookkeeping + body); the clamp exits
        # without a final condition check.
        assert result.work.cycles == pytest.approx(25 * (1 + 2 + 10))

    def test_counted_records_trip_count(self):
        program = list_walk_program()
        inst = Instrumenter().instrument(program)
        result = INTERP.execute(inst.program, {"n_elements": 7})
        assert result.features.counter("walk") == 7.0

    @given(n=st.integers(0, 60))
    def test_trip_count_matches_semantics(self, n):
        inst = Instrumenter().instrument(list_walk_program())
        result = INTERP.execute(inst.program, {"n_elements": n})
        assert result.features.counter("walk") == float(n)


class TestWhileSlicing:
    def test_slice_keeps_driving_assignments(self):
        """The body's decrement is what terminates the loop; the slice
        must keep it (and the setup) to count iterations."""
        inst = Instrumenter().instrument(list_walk_program())
        sl = Slicer().slice(inst, {"walk"})
        assert "remaining" in sl.relevant_vars
        result = INTERP.execute_isolated(sl.program, {"n_elements": 9}, {})
        assert result.features.counter("walk") == 9.0

    def test_slice_drops_compute_but_iterates(self):
        inst = Instrumenter().instrument(list_walk_program())
        sl = Slicer().slice(inst, {"walk"})
        full = INTERP.execute(inst.program, {"n_elements": 40})
        sliced = INTERP.execute_isolated(sl.program, {"n_elements": 40}, {})
        # Iterating is unavoidable (no hoisting for While)...
        assert sliced.work.cycles > 40
        # ...but the 25k-instruction bodies are gone.
        assert sliced.work.cycles < full.work.cycles / 50

    def test_slice_terminates_even_for_runaway_condition(self):
        """max_trips carries into the slice: a condition the retained
        assignments never falsify cannot hang the predictor."""
        program = Program(
            "r",
            While(
                "w",
                Compare(">", Var("x"), Const(0)),  # x never written
                Block(1000),
                max_trips=30,
            ),
        )
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst, {"w"})
        result = INTERP.execute_isolated(sl.program, {"x": 1}, {})
        assert result.features.counter("w") == 30.0

    def test_unneeded_while_with_no_kept_body_vanishes(self):
        program = Program(
            "p",
            Seq(
                [
                    list_walk_program().body,
                    If("other", Compare(">", Var("y"), Const(0)), Block(10)),
                ]
            ),
        )
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst, {"other"})
        result = INTERP.execute_isolated(
            sl.program, {"n_elements": 50, "y": 1}, {}
        )
        assert result.work.cycles < 20  # the walk is gone entirely


class TestWhileSerialization:
    def test_roundtrip(self):
        program = list_walk_program()
        restored = program_from_json(program_to_json(program))
        for n in (0, 3, 11):
            a = INTERP.execute(program, {"n_elements": n})
            b = INTERP.execute(restored, {"n_elements": n})
            assert a.work == b.work


class TestWhileThroughPipeline:
    def test_trainable_and_deployable(self):
        """A While-based app through the full offline flow and a run."""
        import random

        from repro.pipeline.config import PipelineConfig
        from repro.pipeline.offline import build_controller
        from repro.platform.board import Board
        from repro.platform.opp import default_xu3_a7_table
        from repro.platform.switching import SwitchLatencyModel
        from repro.runtime.executor import TaskLoopRunner
        from repro.runtime.task import Task
        from repro.workloads.base import InteractiveApp, JobTimeStats

        opps = default_xu3_a7_table()

        def generate_inputs(n_jobs, seed=0):
            rng = random.Random(seed)
            return [{"n_elements": rng.randint(10, 1500)} for _ in range(n_jobs)]

        app = InteractiveApp(
            task=Task("walker", list_walk_program(), budget_s=0.050),
            description="list walker",
            generate_inputs=generate_inputs,
            paper_stats=JobTimeStats(0.1, 15.0, 30.0),
        )
        controller = build_controller(
            app,
            opps=opps,
            config=PipelineConfig(n_profile_jobs=80),
            switch_table=SwitchLatencyModel(opps).microbenchmark(10),
        )
        assert "walk" in controller.predictor.needed_sites
        board = Board(opps=opps)
        result = TaskLoopRunner(
            board, app.task, controller.governor(), app.inputs(60, seed=9)
        ).run()
        assert result.miss_rate == 0.0
        assert min(j.opp_mhz for j in result.jobs) < opps.fmax.freq_mhz
