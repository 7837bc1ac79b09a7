"""Tests for programmer-provided hint features (paper §3.5)."""

import pytest

from repro.features.encoding import FeatureEncoder
from repro.programs.expr import Const, Var
from repro.programs.instrument import Instrumenter
from repro.programs.interpreter import Interpreter
from repro.programs.ir import Assign, Block, Hint, Loop, Program, Seq
from repro.programs.slicer import Slicer
from repro.programs.validate import validate_program

INTERP = Interpreter()


def hinted_program():
    """A task whose cost tracks input metadata exposed via a hint."""
    return Program(
        "hinted",
        Seq(
            [
                Hint("meta_size", Var("file_kb"), cost=500),
                Assign("work_units", Var("file_kb") * Const(2)),
                Loop("units", Var("work_units"), Block(10_000)),
            ]
        ),
    )


class TestHintNode:
    def test_requires_site(self):
        with pytest.raises(ValueError):
            Hint("", Const(1))

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            Hint("h", Const(1), cost=-1)

    def test_no_children(self):
        assert Hint("h", Const(1)).children() == ()

    def test_validates_in_program(self):
        validate_program(hinted_program())

    def test_hint_reads_are_reads(self):
        with pytest.raises(ValueError, match="file_kb"):
            validate_program(hinted_program(), inputs=[])


class TestHintExecution:
    def test_uncounted_hint_records_nothing(self):
        result = INTERP.execute(hinted_program(), {"file_kb": 7})
        assert "meta_size" not in result.features.counters

    def test_counted_hint_records_gauge_value(self):
        inst = Instrumenter().instrument(hinted_program())
        result = INTERP.execute(inst.program, {"file_kb": 7})
        assert result.features.counter("meta_size") == 7.0

    def test_gauge_semantics_not_cumulative(self):
        """Re-executing a hint overwrites; it is a reading, not a count."""
        program = Program(
            "g",
            Loop(
                "l",
                Const(3),
                Hint("gauge", Var("i"), counted=True),
                loop_var="i",
            ),
        )
        result = INTERP.execute(program, {})
        assert result.features.counter("gauge") == 2.0  # last iteration

    def test_hint_costs_instructions(self):
        cheap = INTERP.execute(
            Program("p", Hint("h", Const(1), cost=0)), {}
        )
        pricey = INTERP.execute(
            Program("p", Hint("h", Const(1), cost=5000)), {}
        )
        assert pricey.work.cycles == cheap.work.cycles + 5000


class TestHintInstrumentationAndSlicing:
    def test_instrumenter_registers_hint_site(self):
        inst = Instrumenter().instrument(hinted_program())
        assert {s.site: s.kind for s in inst.sites}["meta_size"] == "hint"

    def test_slice_keeps_needed_hint(self):
        inst = Instrumenter().instrument(hinted_program())
        sl = Slicer().slice(inst, {"meta_size"})
        result = INTERP.execute_isolated(sl.program, {"file_kb": 12}, {})
        assert result.features.counter("meta_size") == 12.0
        # The loop (not needed) sliced away entirely.
        assert result.work.cycles < 1000

    def test_slice_drops_unneeded_hint(self):
        inst = Instrumenter().instrument(hinted_program())
        sl = Slicer().slice(inst, {"units"})
        result = INTERP.execute_isolated(sl.program, {"file_kb": 12}, {})
        assert "meta_size" not in result.features.counters

    def test_slice_features_match_full_run(self):
        inst = Instrumenter().instrument(hinted_program())
        sl = Slicer().slice(inst)
        for kb in (1, 5, 40):
            full = INTERP.execute(inst.program, {"file_kb": kb})
            sliced = INTERP.execute_isolated(sl.program, {"file_kb": kb}, {})
            assert sliced.features.counters == full.features.counters

    def test_hint_dependence_pulls_in_assign_chain(self):
        program = Program(
            "chain",
            Seq(
                [
                    Assign("derived", Var("x") + Const(3)),
                    Hint("h", Var("derived")),
                    Block(100_000),
                ]
            ),
        )
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst, {"h"})
        assert "x" in sl.relevant_vars
        result = INTERP.execute_isolated(sl.program, {"x": 4}, {})
        assert result.features.counter("h") == 7.0


class TestHintEncoderIntegration:
    def test_hint_is_a_numeric_column(self):
        inst = Instrumenter().instrument(hinted_program())
        samples = [
            INTERP.execute(inst.program, {"file_kb": kb}).features
            for kb in (2, 9)
        ]
        encoder = FeatureEncoder(inst.sites).fit(samples)
        assert "meta_size" in encoder.column_names
        x = encoder.encode(samples[1])
        names = list(encoder.column_names)
        assert x[names.index("meta_size")] == 9.0
