"""Closed-form memory tallies of constant-cost loops, against the reference.

In a folded program, a loop with no loop variable whose body is one
``Block`` with an integral ``mem_refs`` ``c`` adds nothing per trip but
``mem += c``.  It compiles to one checked addition of ``c * trips``: the
sum is taken when it is exact and below ``2**53`` (then every addition
of the loop is exact too, and gives the same float), else the loop runs
as before.  The compiled function lists those loops' sites in its
``closed_loops`` attribute.

Every program here must match the tree-walking reference bit for bit:
``repr(Work)``, counters, call addresses and globals, key order included,
under both ``execute`` and ``execute_isolated`` (``assert_same_stream``).
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.analysis.harness import Lab
from repro.programs import interpreter
from repro.programs.expr import Compare, Const, Var
from repro.programs.ir import (
    Assign,
    Block,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
)
from repro.workloads.registry import app_names
from tests.programs.test_compiled_differential import (
    _versions,
    assert_same_stream,
)
from tests.programs.test_folded_tally import compiled_form, run_once
from tests.programs.test_random_programs import deep, program_and_inputs

#: The loops of the shipped programs that compile to the closed form,
#: per app; the task and the instrumented program have the same ones,
#: and no trained slice has any.
SHIPPED_CLOSED_LOOPS = {
    "ldecode": ("skip_mbs", "deblock"),
    "pocketsphinx": ("senones",),
    "sha": ("chunks",),
    "uzbl": ("repaint", "parse"),
    "xpilot": ("ships",),
}


def _closed_loop_program(start, step, max_trips=10**6):
    """``mem = start``, then ``n`` trips that each add ``step``."""
    return Program(
        "closed",
        Seq(
            [
                Block(0, start, name="start"),
                Loop("l", Var("n"), Block(3, step), max_trips=max_trips),
            ]
        ),
    )


class TestRule:
    """The emitted check, run directly, against repeated addition."""

    @staticmethod
    def run(start, step, trips):
        """(mem, whether the loop ran) for one compiled closed loop."""
        compiled = interpreter._compile(_closed_loop_program(start, step))
        assert compiled.closed_loops == ("l",)
        entered = []

        def repeat(value, times):
            entered.append(times)
            return itertools.repeat(value, times)

        compiled.__globals__["repeat"] = repeat
        _, mem = compiled({"n": trips}, {}, {})
        return mem, bool(entered)

    @staticmethod
    def repeated(start, step, trips):
        mem = 0.0
        mem += start
        for _ in range(trips):
            mem += step
        return mem

    @staticmethod
    def exact(start, step, trips):
        """Whether ``start + step * trips`` is a float below 2**53."""
        total = Fraction(start) + Fraction(step) * trips
        return total < 2**53 and Fraction(float(total)) == total

    def check(self, start, step, trips):
        mem, looped = self.run(start, step, trips)
        assert repr(mem) == repr(self.repeated(start, step, trips))
        # The closed form is taken exactly when the sum is exact.
        assert looped != self.exact(start, step, trips)
        return looped

    def test_binade_edges(self):
        """Starts at, just under and just over powers of two, up to
        2**53, with steps from 0 up; both outcomes of the check occur."""
        starts = {0.0, 1 / 3, 213.33333333333334}
        for e in (1, 10, 30, 51, 52, 53):
            power = 2.0**e
            ulp = 2.0 ** max(e - 53, -1074)
            starts |= {
                power,
                power - ulp,
                power + 2 * ulp,
                power - 0.5,
                power - 7,
                power + 0.5,
            }
        outcomes = []
        for start in sorted(s for s in starts if s >= 0):
            for step in (0, 0.0, 1, 2.0, 3.0, 200.0, 2**20 + 1, 2.0**52):
                for trips in (0, 1, 2, 3, 7, 40):
                    outcomes.append(self.check(start, step, trips))
        assert outcomes.count(True) > 100 and outcomes.count(False) > 100

    @given(
        start=st.one_of(
            st.floats(0, 2.0**54, allow_nan=False, allow_infinity=False),
            st.integers(0, 60).flatmap(
                lambda e: st.integers(-40, 40).map(
                    lambda k: max(0.0, 2.0**e + k / 4)
                )
            ),
        ),
        step=st.one_of(
            st.integers(0, 2**22),
            st.integers(0, 2**22).map(float),
            st.integers(0, 52).map(lambda e: 2.0**e),
        ),
        trips=st.integers(0, 60),
    )
    def test_random_triples(self, start, step, trips):
        self.check(start, step, trips)

    def test_at_and_past_two_to_the_53(self):
        limit = 2**53
        assert not self.check(limit - 10.0, 2.0, 4)  # ends at 2**53 - 2
        assert self.check(limit - 10.0, 2.0, 5)  # ends at 2**53
        assert self.check(limit - 10.0, 2.0, 6)  # ends past it
        assert self.check(limit - 10.0, 1, 11)  # rounds at 2**53 + 1
        assert self.check(float(limit), 0, 5)

    def test_zero_step_takes_the_closed_form(self):
        for start in (0.0, 1 / 3, 2.0**53 - 1, 2.0**60):
            looped = self.check(start, 0, 1000)
            assert looped == (start >= 2**53)


def _mixed_program(start):
    """Integral and fractional memory costs, nested loops and a clamp."""
    inner = Loop("inner", Var("m"), Block(2, 6.0))
    return Program(
        "mixed",
        Seq(
            [
                Block(0, start, name="start"),
                Loop("frac", Var("f"), Block(7, 1 / 3)),
                Loop("int", Var("n"), Block(5, 200.0)),
                Loop("zero", Var("n"), Seq([Block(3, 0)])),
                Loop("small", Var("m"), Block(1, 7), max_trips=3),
                Loop(
                    "outer",
                    Var("n"),
                    Seq([Block(1, 0.25), inner, Assign("g", Var("g") + 1)]),
                    loop_var="i",
                ),
                If("b", Compare(">", Var("g"), Const(2)), inner),
                Loop("none", Var("m"), Block(9, 4.0), max_trips=0),
            ]
        ),
        globals_init={"g": 0},
    )


def _jobs():
    return [
        {"f": f, "n": n, "m": m}
        for f, n, m in [
            (0, 0, 0),
            (3, 4, 2),
            (1, -3, 9),
            (7, 25, 5),
            (2, 12, 3),
            (0, 3, -1),
        ]
    ]


class TestDifferential:
    @pytest.mark.parametrize(
        "start",
        [0.0, 1000.5, 2.0**51 + 0.5, 2.0**52 - 10.5, 2.0**53 - 3000, 2.0**53],
        ids=repr,
    )
    def test_mixed_costs_match(self, start):
        """Fractional sums before integral ones, sums that cross a power
        of two inside a loop (and lose low bits there), sums at and past
        2**53, zero trips and max_trips clamps, nested loops."""
        program = _mixed_program(start)
        closed = run_once(program, _jobs()[0]).closed_loops
        assert closed == ("int", "zero", "small", "inner", "inner", "none")
        assert_same_stream(program, _jobs())

    def test_inside_a_deep_nesting_helper(self):
        body = Loop("deepest", Var("n"), Block(1, 5.0))
        for depth in range(interpreter._MAX_LOOPS + 2):
            body = Loop(f"l{depth}", Const(1), Seq([Block(1, 0.5), body]))
        program = Program("deep", Seq([Block(0, 1 / 3), body]))
        assert run_once(program, {"n": 2}).closed_loops == ("deepest",)
        assert_same_stream(program, [{"n": n} for n in (0, 3, 17)])

    def test_with_the_instruction_fallback(self):
        """Past 2**53 instructions the job reruns in the sequential twin,
        which adds every memory cost in place."""
        program = Program(
            "huge",
            Seq(
                [
                    Block(2**53, 1 / 3, name="huge"),
                    Loop("l", Var("n"), Block(1, 8.0)),
                ]
            ),
        )
        assert_same_stream(program, [{"n": n} for n in (0, 5, 40)])
        compiled = compiled_form(program)
        assert compiled.closed_loops == ("l",)
        assert compiled.sequential is not None
        assert compiled.sequential.closed_loops == ()

    @pytest.mark.parametrize(
        "loop",
        [
            Loop("l", Var("n"), Block(1, 2.0), loop_var="i"),
            Loop("l", Var("n"), Seq([Block(1, 2.0), Block(1, 2.0)])),
            Loop("l", Var("n"), Block(1, 2.5)),
            Loop("l", Var("n"), Block(1, 2.0**53 + 2)),
            Loop("l", Var("n"), Assign("x", Const(1))),
            Loop("l", Var("n"), Block(1, 2.0), elide_body=True),
        ],
        ids=repr,
    )
    def test_other_loops_keep_their_form(self, loop):
        program = Program("p", loop)
        assert run_once(program, {"n": 3}).closed_loops == ()
        assert_same_stream(program, [{"n": 3}, {"n": 0}])

    def test_unfolded_programs_close_nothing(self):
        program = Program("p", Loop("l", Var("n"), Block(0.5, 2.0)))
        compiled = run_once(program, {"n": 3})
        assert not compiled.folded and compiled.closed_loops == ()


#: Memory costs for random programs: small integers, thirds, and values
#: whose sums cross 2**52 and 2**53.
MEM_COSTS = st.one_of(
    st.integers(0, 20),
    st.integers(0, 60).map(lambda k: k / 3),
    st.sampled_from([0.0, 2.0**52 - 0.5, 2.0**53 - 40, 2.0**51 + 0.5]),
)


def _with_mem_refs(node, costs):
    """``node`` with each Block's mem_refs taken from ``costs`` in turn."""
    if isinstance(node, Block):
        return dataclasses.replace(node, mem_refs=next(costs))
    if isinstance(node, Seq):
        return Seq([_with_mem_refs(child, costs) for child in node.stmts])
    if isinstance(node, Loop):
        return dataclasses.replace(node, body=_with_mem_refs(node.body, costs))
    if isinstance(node, If):
        orelse = node.orelse
        return dataclasses.replace(
            node,
            then=_with_mem_refs(node.then, costs),
            orelse=None if orelse is None else _with_mem_refs(orelse, costs),
        )
    if isinstance(node, IndirectCall):
        default = node.default
        return dataclasses.replace(
            node,
            table={
                key: _with_mem_refs(callee, costs)
                for key, callee in node.table.items()
            },
            default=None if default is None else _with_mem_refs(default, costs),
        )
    return node


class TestRandomPrograms:
    @deep
    @given(
        pi=program_and_inputs(n_inputs=4),
        costs=st.lists(MEM_COSTS, min_size=1, max_size=8),
    )
    def test_mixed_memory_costs_match(self, pi, costs):
        """Folded random programs whose memory costs mix integral and
        fractional values: task, instrumented and slice."""
        program, job_inputs = pi
        program = dataclasses.replace(
            program, body=_with_mem_refs(program.body, itertools.cycle(costs))
        )
        for version in _versions(program):
            assert_same_stream(version, job_inputs)
            assert compiled_form(version).folded


def test_shipped_constant_cost_loops_compile_closed():
    """14 loops of the 24 shipped programs take the closed form: a new
    fractional memory cost in one of them fails here, not silently."""
    lab = Lab()
    closed = 0
    for app_name in app_names():
        app = lab.app(app_name)
        controller = lab.controller(app_name)
        inputs = app.inputs(1, 3)[0]
        expected = SHIPPED_CLOSED_LOOPS.get(app_name, ())
        for program, sites in (
            (app.task.program, expected),
            (controller.instrumented.program, expected),
            (controller.slice.program, ()),
        ):
            compiled = run_once(program, inputs)
            assert compiled.closed_loops == sites, program.name
            closed += len(sites)
    assert closed == 14
