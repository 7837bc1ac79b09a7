"""Property-based testing over RANDOM programs.

A hypothesis strategy generates arbitrary (but valid) IR programs —
nested branches, loops, indirect calls, hints, state updates — and
random inputs for them.  The core guarantees of the paper's tooling must
hold for every such program, not just the shipped workloads:

- instrumentation does not change program semantics (state, control
  flow), only adds counter cost;
- the prediction slice computes exactly the features the instrumented
  program counts, for every input;
- the slice never costs more than the instrumented task;
- slices are side-effect free;
- serialization round-trips behaviour exactly.
"""

import json

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.programs.expr import BinOp, Compare, Const, Var
from repro.programs.instrument import Instrumenter
from repro.programs.interpreter import Interpreter
from repro.programs.ir import (
    Assign,
    Block,
    Hint,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
)
from repro.programs.serialize import program_from_dict, program_to_dict
from repro.programs.slicer import Slicer
from repro.programs.validate import validate_program

INTERP = Interpreter()

INPUT_VARS = ("in_a", "in_b", "in_c")
GLOBAL_VARS = ("g_x", "g_y")
#: Loop variables of the programs drawn with ``reads_locals``.
LOOP_VARS = ("i_a", "i_b")
#: What those programs' expressions read besides inputs and globals: the
#: local ``local_t`` and the loop variables, bound or not where read.
LOCAL_VARS = ("local_t",) + LOOP_VARS

# A site-name counter unique per generated program (hypothesis draws).
_site_counter = st.shared(st.just(None), key="noop")


def exprs(depth=2, names=INPUT_VARS + GLOBAL_VARS):
    """Small integer expressions over ``names`` and constants."""
    leaves = st.one_of(
        st.integers(-3, 12).map(Const),
        st.sampled_from(names).map(Var),
    )
    if depth == 0:
        return leaves
    return st.one_of(
        leaves,
        st.builds(
            BinOp,
            st.sampled_from(["+", "-", "*", "%", "min", "max"]),
            exprs(depth - 1, names),
            exprs(depth - 1, names),
        ),
    )


def conditions(names=INPUT_VARS + GLOBAL_VARS):
    return st.builds(
        Compare, st.sampled_from(["<", "<=", "==", ">", ">="]),
        exprs(1, names), exprs(1, names),
    )


class _SiteNamer:
    """Deterministic unique site labels within one generated program."""

    def __init__(self):
        self.n = 0

    def next(self, kind):
        self.n += 1
        return f"{kind}{self.n}"


#: Costs with thirds mixed in: k/3 is no float, so tallies round.
FRACTIONAL_COSTS = st.one_of(
    st.integers(0, 5000), st.integers(0, 15000).map(lambda k: k / 3)
)


def stmts(namer, depth, costs=None, reads_locals=False):
    """Statement strategy with bounded nesting.

    With ``costs``, Block, Assign and Hint costs all draw from it; by
    default Blocks draw integers and the others keep their default cost.
    With ``reads_locals``, expressions also read :data:`LOCAL_VARS` and
    each ``Loop`` may bind one of :data:`LOOP_VARS`.
    """
    names = INPUT_VARS + GLOBAL_VARS
    loop_vars = st.none()
    if reads_locals:
        names += LOCAL_VARS
        loop_vars = st.sampled_from((None,) + LOOP_VARS)
    if costs is None:
        block = st.builds(Block, st.integers(0, 5000), st.integers(0, 20))
        cost = ()
    else:
        block = st.builds(Block, costs, costs)
        cost = (costs,)
    simple = st.one_of(
        block,
        st.builds(
            Assign,
            st.sampled_from(GLOBAL_VARS + ("local_t",)),
            exprs(1, names),
            *cost,
        ),
        st.builds(
            lambda e, *c: Hint(namer.next("hint"), e, *c),
            exprs(1, names),
            *cost,
        ),
    )
    if depth == 0:
        return simple
    inner = stmts(namer, depth - 1, costs, reads_locals)
    compound = st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(Seq),
        st.builds(
            lambda cond, then, orelse: If(
                namer.next("if"), cond, then, orelse
            ),
            conditions(names),
            inner,
            st.one_of(st.none(), inner),
        ),
        st.builds(
            lambda count, body, var: Loop(
                namer.next("loop"), count, body, loop_var=var, max_trips=50
            ),
            exprs(1, names),
            inner,
            loop_vars,
        ),
        st.builds(
            lambda target, bodies: IndirectCall(
                namer.next("call"),
                target,
                {i: body for i, body in enumerate(bodies)},
            ),
            exprs(1, names),
            st.lists(inner, min_size=1, max_size=3),
        ),
    )
    return st.one_of(simple, compound)


@st.composite
def programs(draw, costs=None, reads_locals=False):
    namer = _SiteNamer()
    statements = stmts(namer, 2, costs, reads_locals)
    body = draw(st.lists(statements, min_size=1, max_size=4))
    if reads_locals:
        # The drawn statements run in a loop, so every name they access
        # is read or written in a loop body; a few more read them after.
        outer = Loop(
            namer.next("outer"),
            Var("in_a"),
            Seq(body),
            loop_var="i_a",
            max_trips=3,
        )
        body = [outer] + draw(st.lists(statements, max_size=2))
    return Program(
        "random", Seq(body), globals_init={"g_x": 0, "g_y": 1}
    )


@st.composite
def program_and_inputs(draw, n_inputs=3, costs=None, reads_locals=False):
    program = draw(programs(costs, reads_locals))
    inputs = [
        {name: draw(st.integers(-5, 20)) for name in INPUT_VARS}
        for _ in range(n_inputs)
    ]
    return program, inputs


# No shrink phase: shrinking a failing random program can run for many
# minutes, so a regression reports its first failing example instead.
deep = settings(
    max_examples=30,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestRandomProgramInvariants:
    @deep
    @given(pi=program_and_inputs())
    def test_generated_programs_are_valid(self, pi):
        program, _ = pi
        validate_program(program)
        # Every read is an input, a global or assigned somewhere.
        validate_program(program, inputs=INPUT_VARS)

    @deep
    @given(pi=program_and_inputs())
    def test_instrumentation_preserves_state_evolution(self, pi):
        program, inputs = pi
        instrumented = Instrumenter().instrument(program).program
        g_plain = program.fresh_globals()
        g_inst = program.fresh_globals()
        for job in inputs:
            INTERP.execute(program, job, g_plain)
            INTERP.execute(instrumented, job, g_inst)
            assert g_plain == g_inst

    @deep
    @given(pi=program_and_inputs())
    def test_instrumentation_only_adds_cost(self, pi):
        program, inputs = pi
        instrumented = Instrumenter().instrument(program).program
        g_plain = program.fresh_globals()
        g_inst = program.fresh_globals()
        for job in inputs:
            plain = INTERP.execute(program, job, g_plain)
            inst = INTERP.execute(instrumented, job, g_inst)
            assert inst.work.cycles >= plain.work.cycles
            assert inst.work.mem_time_s == pytest.approx(
                plain.work.mem_time_s
            )

    @deep
    @given(pi=program_and_inputs())
    def test_slice_features_match_for_any_program(self, pi):
        """THE core guarantee: for arbitrary programs and inputs, the
        slice computes exactly the features the instrumented task counts,
        with live state evolving between jobs."""
        program, inputs = pi
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst)
        g = program.fresh_globals()
        for job in inputs:
            sliced = INTERP.execute_isolated(sl.program, job, g)
            full = INTERP.execute(inst.program, job, g)
            assert sliced.features.counters == full.features.counters
            assert (
                sliced.features.call_addresses == full.features.call_addresses
            )

    @deep
    @given(pi=program_and_inputs())
    def test_slice_never_costs_more(self, pi):
        program, inputs = pi
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst)
        g = program.fresh_globals()
        for job in inputs:
            sliced = INTERP.execute_isolated(sl.program, job, g)
            full = INTERP.execute(inst.program, job, dict(g))
            assert sliced.work.cycles <= full.work.cycles
            INTERP.execute(program, job, g)

    @deep
    @given(pi=program_and_inputs())
    def test_slice_is_side_effect_free(self, pi):
        program, inputs = pi
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst)
        g = program.fresh_globals()
        snapshot = dict(g)
        for job in inputs:
            INTERP.execute_isolated(sl.program, job, g)
            assert g == snapshot

    @deep
    @given(pi=program_and_inputs())
    def test_serialization_roundtrip_on_random_programs(self, pi):
        program, inputs = pi
        restored = program_from_dict(
            json.loads(json.dumps(program_to_dict(program)))
        )
        g_a = program.fresh_globals()
        g_b = restored.fresh_globals()
        for job in inputs:
            a = INTERP.execute(program, job, g_a)
            b = INTERP.execute(restored, job, g_b)
            assert a.work == b.work
            assert g_a == g_b

    @deep
    @given(pi=program_and_inputs())
    def test_subset_slice_counts_subset(self, pi):
        """Slicing to half the sites yields exactly those sites' features."""
        program, inputs = pi
        inst = Instrumenter().instrument(program)
        labels = list(inst.site_labels)
        if not labels:
            return
        subset = set(labels[: max(1, len(labels) // 2)])
        sl = Slicer().slice(inst, subset)
        g = program.fresh_globals()
        for job in inputs:
            sliced = INTERP.execute_isolated(sl.program, job, g)
            full = INTERP.execute(inst.program, job, g)
            for site in subset:
                assert sliced.features.counter(site) == full.features.counter(
                    site
                )
            observed = set(sliced.features.counters) | set(
                sliced.features.call_addresses
            )
            assert observed <= subset
