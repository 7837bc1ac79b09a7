"""Tests for instrumentation, slicing, and validation."""

import pytest
from hypothesis import given, strategies as st

from repro.programs.expr import Compare, Const, Var
from repro.programs.instrument import Instrumenter
from repro.programs.interpreter import Interpreter
from repro.programs.ir import (
    Assign,
    Block,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
    walk,
)
from repro.programs.slicer import Slicer
from repro.programs.validate import (
    static_instruction_bound,
    validate_program,
)


def video_decoder_like():
    """A small program with all three feature kinds and real dataflow."""
    return Program(
        name="decoder",
        body=Seq(
            [
                Assign("n_mb", Var("width") * Var("height")),
                If(
                    "is_key",
                    Compare("==", Var("frame_type"), Const(1)),
                    Seq([Block(5000, 50), Assign("last_key", Var("frame_no"))]),
                    Block(1000, 10),
                ),
                Loop(
                    "mb_loop",
                    Var("n_mb"),
                    Seq(
                        [
                            Block(200, 2),
                            If(
                                "skip",
                                Compare("<", Var("complexity"), Const(3)),
                                Block(10),
                                Block(400, 4),
                            ),
                        ]
                    ),
                ),
                IndirectCall(
                    "post",
                    Var("filter_fn"),
                    {1: Block(3000, 30), 2: Block(100, 1)},
                ),
            ]
        ),
        globals_init={"last_key": 0},
    )


def decoder_inputs(**overrides):
    inputs = dict(
        width=8, height=6, frame_type=1, frame_no=7, complexity=5, filter_fn=1
    )
    inputs.update(overrides)
    return inputs


class TestInstrumenter:
    def test_marks_all_sites(self):
        inst = Instrumenter().instrument(video_decoder_like())
        assert set(inst.site_labels) == {"is_key", "mb_loop", "skip", "post"}

    def test_site_kinds(self):
        inst = Instrumenter().instrument(video_decoder_like())
        kinds = {s.site: s.kind for s in inst.sites}
        assert kinds["is_key"] == "branch"
        assert kinds["mb_loop"] == "loop"
        assert kinds["post"] == "call"

    def test_original_program_untouched(self):
        prog = video_decoder_like()
        Instrumenter().instrument(prog)
        counted = [n for n in walk(prog.body) if getattr(n, "counted", False)]
        assert counted == []

    def test_all_control_nodes_counted_in_copy(self):
        inst = Instrumenter().instrument(video_decoder_like())
        control = [
            n
            for n in walk(inst.program.body)
            if isinstance(n, (If, Loop, IndirectCall))
        ]
        assert all(n.counted for n in control)

    def test_duplicate_sites_rejected(self):
        prog = Program(
            "bad",
            Seq(
                [
                    If("same", Const(True), Block(1)),
                    Loop("same", Const(1), Block(1)),
                ]
            ),
        )
        with pytest.raises(ValueError, match="duplicate"):
            Instrumenter().instrument(prog)

    def test_instrumented_run_is_slower_than_original(self):
        """Counting features costs instructions (paper: instrumented task
        takes at least as long as the original)."""
        prog = video_decoder_like()
        inst = Instrumenter().instrument(prog)
        interp = Interpreter()
        original = interp.execute(prog, decoder_inputs())
        instrumented = interp.execute(inst.program, decoder_inputs())
        assert instrumented.work.cycles > original.work.cycles

    def test_instrumentation_preserves_semantics(self):
        prog = video_decoder_like()
        inst = Instrumenter().instrument(prog)
        interp = Interpreter()
        g1, g2 = prog.fresh_globals(), prog.fresh_globals()
        interp.execute(prog, decoder_inputs(), g1)
        interp.execute(inst.program, decoder_inputs(), g2)
        assert g1 == g2


class TestSlicerFeatureEquivalence:
    def test_slice_features_match_instrumented_run(self):
        inst = Instrumenter().instrument(video_decoder_like())
        sl = Slicer().slice(inst)
        interp = Interpreter()
        full = interp.execute(inst.program, decoder_inputs())
        sliced = interp.execute_isolated(
            sl.program, decoder_inputs(), video_decoder_like().fresh_globals()
        )
        assert sliced.features.counters == full.features.counters
        assert sliced.features.call_addresses == full.features.call_addresses

    @given(
        width=st.integers(0, 20),
        height=st.integers(0, 20),
        frame_type=st.integers(0, 2),
        complexity=st.integers(0, 6),
        filter_fn=st.integers(1, 3),
    )
    def test_feature_equivalence_property(
        self, width, height, frame_type, complexity, filter_fn
    ):
        """The slice computes identical features for any input (the paper's
        approximate slice can err; ours is exact for this alias-free IR)."""
        inst = Instrumenter().instrument(video_decoder_like())
        sl = Slicer().slice(inst)
        interp = Interpreter()
        inputs = decoder_inputs(
            width=width,
            height=height,
            frame_type=frame_type,
            complexity=complexity,
            filter_fn=filter_fn,
        )
        full = interp.execute(inst.program, inputs)
        sliced = interp.execute_isolated(
            sl.program, inputs, video_decoder_like().fresh_globals()
        )
        assert sliced.features.counters == full.features.counters
        assert sliced.features.call_addresses == full.features.call_addresses

    def test_slice_is_much_cheaper(self):
        inst = Instrumenter().instrument(video_decoder_like())
        sl = Slicer().slice(inst)
        interp = Interpreter()
        full = interp.execute(inst.program, decoder_inputs())
        sliced = interp.execute_isolated(
            sl.program, decoder_inputs(), {}
        )
        assert sliced.work.cycles < full.work.cycles / 10

    def test_slice_has_no_compute_blocks(self):
        inst = Instrumenter().instrument(video_decoder_like())
        sl = Slicer().slice(inst)
        blocks = [n for n in walk(sl.program.body) if isinstance(n, Block)]
        assert blocks == []


class TestSlicerSubsetting:
    def test_subset_counts_only_needed_sites(self):
        inst = Instrumenter().instrument(video_decoder_like())
        sl = Slicer().slice(inst, {"mb_loop"})
        result = Interpreter().execute_isolated(
            sl.program, decoder_inputs(), {}
        )
        assert set(result.features.counters) == {"mb_loop"}
        assert result.features.call_addresses == {}

    def test_unknown_site_rejected(self):
        inst = Instrumenter().instrument(video_decoder_like())
        with pytest.raises(KeyError, match="nope"):
            Slicer().slice(inst, {"nope"})

    def test_fewer_sites_never_costs_more(self):
        inst = Instrumenter().instrument(video_decoder_like())
        full_slice = Slicer().slice(inst)
        small_slice = Slicer().slice(inst, {"is_key"})
        interp = Interpreter()
        full = interp.execute_isolated(full_slice.program, decoder_inputs(), {})
        small = interp.execute_isolated(small_slice.program, decoder_inputs(), {})
        assert small.work.cycles <= full.work.cycles

    def test_empty_needed_set_gives_trivial_slice(self):
        inst = Instrumenter().instrument(video_decoder_like())
        sl = Slicer().slice(inst, set())
        result = Interpreter().execute_isolated(sl.program, decoder_inputs(), {})
        assert result.features.counters == {}
        assert result.work.cycles == 0

    def test_loop_body_elided_when_only_count_needed(self):
        """A needed loop whose body sliced away is hoisted (Fig. 8)."""
        prog = Program(
            "p", Loop("l", Var("n"), Block(1000))
        )
        inst = Instrumenter().instrument(prog)
        sl = Slicer().slice(inst, {"l"})
        loops = [n for n in walk(sl.program.body) if isinstance(n, Loop)]
        assert len(loops) == 1
        assert loops[0].elide_body
        result = Interpreter().execute_isolated(
            sl.program, {"n": 500}, {}
        )
        assert result.features.counter("l") == 500
        assert result.work.cycles < 10


class TestSlicerDataflow:
    def test_keeps_assignment_chain(self):
        prog = Program(
            "p",
            Seq(
                [
                    Assign("a", Var("x") + Const(1)),
                    Assign("b", Var("a") * Const(2)),
                    Block(100000),
                    Loop("l", Var("b"), Block(50)),
                ]
            ),
        )
        inst = Instrumenter().instrument(prog)
        sl = Slicer().slice(inst, {"l"})
        assert {"a", "b", "x"} <= set(sl.relevant_vars)
        result = Interpreter().execute_isolated(sl.program, {"x": 3}, {})
        assert result.features.counter("l") == 8

    def test_drops_irrelevant_assignments(self):
        prog = Program(
            "p",
            Seq(
                [
                    Assign("unused", Var("x") + Const(1)),
                    Loop("l", Var("n"), Block(50)),
                ]
            ),
        )
        inst = Instrumenter().instrument(prog)
        sl = Slicer().slice(inst, {"l"})
        assigns = [n for n in walk(sl.program.body) if isinstance(n, Assign)]
        assert assigns == []

    def test_control_dependence_keeps_guarding_if(self):
        """An assignment feeding a needed loop sits inside an If: the If's
        condition (and its variables) must survive even though the If
        itself is not a needed feature."""
        prog = Program(
            "p",
            Seq(
                [
                    Assign("n", Const(1)),
                    If(
                        "guard",
                        Compare(">", Var("x"), Const(0)),
                        Assign("n", Const(10)),
                    ),
                    Loop("l", Var("n"), Block(50)),
                ]
            ),
        )
        inst = Instrumenter().instrument(prog)
        sl = Slicer().slice(inst, {"l"})
        assert "x" in sl.relevant_vars
        interp = Interpreter()
        taken = interp.execute_isolated(sl.program, {"x": 5}, {})
        not_taken = interp.execute_isolated(sl.program, {"x": -5}, {})
        assert taken.features.counter("l") == 10
        assert not_taken.features.counter("l") == 1

    def test_slice_side_effects_do_not_escape(self):
        prog = Program(
            "p",
            Seq(
                [
                    Assign("state", Var("state") + Const(1)),
                    Loop("l", Var("state"), Block(50)),
                ]
            ),
            globals_init={"state": 3},
        )
        inst = Instrumenter().instrument(prog)
        sl = Slicer().slice(inst, {"l"})
        g = prog.fresh_globals()
        result = Interpreter().execute_isolated(sl.program, {}, g)
        assert result.features.counter("l") == 4  # saw the incremented value
        assert g["state"] == 3  # but the write never escaped

    def test_loop_var_dependence_keeps_iteration(self):
        """If the needed feature depends on the loop variable, the loop
        cannot be elided."""
        prog = Program(
            "p",
            Loop(
                "outer",
                Var("n"),
                If("inner", Compare("==", Var("i") % 2, Const(0)), Block(10)),
                loop_var="i",
            ),
        )
        inst = Instrumenter().instrument(prog)
        sl = Slicer().slice(inst, {"inner"})
        result = Interpreter().execute_isolated(sl.program, {"n": 6}, {})
        assert result.features.counter("inner") == 3


class TestValidate:
    def test_valid_program_passes(self):
        validate_program(video_decoder_like())

    def test_duplicate_sites_caught(self):
        prog = Program(
            "bad",
            Seq(
                [
                    If("dup", Const(True), Block(1)),
                    If("dup", Const(False), Block(1)),
                ]
            ),
        )
        with pytest.raises(ValueError, match="duplicate"):
            validate_program(prog)

    def test_static_bound_slice_smaller_than_original(self):
        prog = video_decoder_like()
        inst = Instrumenter().instrument(prog)
        sl = Slicer().slice(inst)
        original = static_instruction_bound(prog.body, loop_bound=10)
        sliced = static_instruction_bound(sl.program.body, loop_bound=10)
        assert sliced < original / 10
