"""The folded and the sequential instruction tally, against the reference.

A program whose instruction costs are all integral compiles to a folded
tally: constants add once per straight-line suite, and a loop adds
``(LOOP_ITER_COST + body constants) * trips`` once.  Any other program,
and any job whose folded total passes 2**53, runs the sequential form,
which adds every cost in place.  Both forms must match the tree-walking
reference bit for bit: ``repr(Work)``, counters, call addresses and
globals, key order included (``assert_same_stream``).
"""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.harness import Lab
from repro.programs import interpreter
from repro.programs.expr import Const, Var
from repro.programs.interpreter import Interpreter
from repro.programs.ir import Assign, Block, Hint, If, Loop, Program, Seq
from repro.workloads.registry import app_names
from tests.programs.reference_interpreter import TreeWalkingInterpreter
from tests.programs.test_compiled_differential import (
    _versions,
    assert_same_stream,
)
from tests.programs.test_random_programs import (
    FRACTIONAL_COSTS,
    deep,
    program_and_inputs,
)

#: Integral costs large enough that most random jobs pass 2**53; the odd
#: low bit makes the sequential float sum round.
HUGE_COSTS = st.integers(0, 5000).map(lambda k: k * 2**44 + 1)


def compiled_form(program):
    """The compiled function cached on ``program`` (after one run)."""
    return getattr(program, interpreter._COMPILED_ATTR)


def run_once(program, inputs):
    Interpreter().execute(program, inputs, program.fresh_globals())
    return compiled_form(program)


class TestRandomPrograms:
    @deep
    @given(pi=program_and_inputs(n_inputs=4, costs=FRACTIONAL_COSTS))
    def test_fractional_costs_match(self, pi):
        """Fractional Block, Assign and Hint costs and mem_refs."""
        program, job_inputs = pi
        for version in _versions(program):
            assert_same_stream(version, job_inputs)

    @deep
    @given(pi=program_and_inputs(n_inputs=4, costs=HUGE_COSTS))
    def test_totals_past_two_to_the_53_match(self, pi):
        """Folded programs whose jobs mostly take the fallback."""
        program, job_inputs = pi
        for version in _versions(program):
            assert_same_stream(version, job_inputs)
            assert compiled_form(version).folded


def _huge_program(first):
    """``first`` instructions, then 1 + 5 * (2 + 1000) more at n = 5."""
    return Program(
        "huge",
        Seq(
            [
                Block(first, 1 / 3, name="huge"),
                Assign("g", Var("g") + Const(1), cost=1),
                Loop("l", Var("n"), Block(1000, 0.5)),
            ]
        ),
        globals_init={"g": 0},
    )


_TAIL = 1 + 5 * (2 + 1000)


class TestExactnessLimit:
    def test_total_of_exactly_two_to_the_53_folds(self):
        program = _huge_program(2**53 - _TAIL)
        result = Interpreter().execute(program, {"n": 5})
        assert result.work.cycles == 2**53
        assert_same_stream(program, [{"n": 5}] * 3)
        compiled = compiled_form(program)
        assert compiled.folded and compiled.sequential is None

    def test_total_past_two_to_the_53_falls_back(self):
        program = _huge_program(2**53)
        reference = TreeWalkingInterpreter().execute(program, {"n": 5})
        # One rounding of the exact total is not the sequential sum, so
        # only the fallback can match the reference here.
        assert float(2**53 + _TAIL) != reference.work.cycles
        assert_same_stream(program, [{"n": 5}] * 3)
        compiled = compiled_form(program)
        assert compiled.folded and compiled.sequential is not None

    @pytest.mark.parametrize("method", ["execute", "execute_isolated"])
    def test_fallback_commits_globals_once(self, method):
        program = _huge_program(2**53)
        globals_ = program.fresh_globals()
        result = getattr(Interpreter(), method)(program, {"n": 5}, globals_)
        assert result.globals == {"g": 1}
        assert globals_ == {"g": 1 if method == "execute" else 0}
        assert compiled_form(program).sequential is not None


class TestFoldDecision:
    def test_fractional_cost_in_a_never_taken_branch(self):
        """One fractional cost anywhere keeps the whole tally in order."""
        program = Program(
            "never",
            Seq(
                [
                    Loop("l", Var("n"), Block(300000, 200.0)),
                    If("b", Const(False), Block(1 / 3)),
                ]
            ),
        )
        assert not run_once(program, {"n": 3}).folded
        assert_same_stream(program, [{"n": 3}, {"n": 7}])

    @pytest.mark.parametrize(
        "node",
        [
            Block(2.5),
            Assign("x", Const(1), cost=0.5),
            Hint("h", Const(1), cost=1 / 3),
        ],
        ids=repr,
    )
    def test_any_fractional_instruction_cost_is_sequential(self, node):
        assert not run_once(Program("p", node), {}).folded

    def test_fractional_mem_refs_still_fold(self):
        program = Program("p", Loop("l", Const(4), Block(3, 1 / 3)))
        assert run_once(program, {}).folded

    def test_key_error_after_a_hoisted_loop_cost(self):
        """The loop's ``K * trips`` is added before its body reads an
        unbound name: same message, same globals written."""
        program = Program(
            "hoisted",
            Seq(
                [
                    Assign("g", Var("g") + Const(1)),
                    Loop(
                        "l",
                        Var("n"),
                        Seq(
                            [
                                Block(100, 0.5),
                                Assign("h", Var("i")),
                                Assign("g", Var("g") + Var("missing")),
                            ]
                        ),
                        loop_var="i",
                    ),
                ]
            ),
            globals_init={"g": 0, "h": -1},
        )
        assert run_once(program, {"n": 0}).folded
        with pytest.raises(KeyError, match="undefined variable 'missing'"):
            Interpreter().execute(program, {"n": 3})
        assert_same_stream(program, [{"n": 0}, {"n": 3}, {"n": 2}])


def test_shipped_programs_fold_and_never_fall_back():
    """All 24 shipped programs (task, instrumented and trained slice of
    the eight apps) compile to the folded tally, and 400 jobs (60 for
    pocketsphinx) never take the 2**53 fallback."""
    lab = Lab()
    compiled = []
    for app_name in app_names():
        app = lab.app(app_name)
        controller = lab.controller(app_name)
        job_inputs = app.inputs(60 if app_name == "pocketsphinx" else 400, 3)
        for program in (
            app.task.program,
            controller.instrumented.program,
            controller.slice.program,
        ):
            globals_ = program.fresh_globals()
            for inputs in job_inputs:
                Interpreter().execute(program, inputs, globals_)
            compiled.append((program.name, compiled_form(program)))
    assert len(compiled) == 24
    assert [name for name, f in compiled if not f.folded] == []
    assert [name for name, f in compiled if f.sequential is not None] == []
