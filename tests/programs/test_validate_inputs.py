"""``validate_program`` with declared inputs: unbound reads are typos."""

import pytest

from repro.programs.expr import Compare, Const, Var
from repro.programs.ir import Assign, Block, If, Loop, Program, Seq
from repro.programs.validate import validate_program


def make(body):
    return Program("p", body, globals_init={"g": 0})


class TestValidateInputs:
    def test_lenient_without_declared_inputs(self):
        # Any otherwise-unbound read could be an input, so no error.
        validate_program(make(Seq([Assign("y", Var("mystery"))])))

    def test_unbound_read_raises_with_inputs(self):
        program = make(Seq([Assign("y", Var("mystery"))]))
        with pytest.raises(ValueError, match="mystery"):
            validate_program(program, inputs=["in_a"])

    def test_error_lists_every_unbound_name(self):
        program = make(
            Seq([Assign("y", Var("zz_typo")), If("b", Var("aa_typo"), Block(1))])
        )
        with pytest.raises(ValueError) as excinfo:
            validate_program(program, inputs=[])
        assert "aa_typo" in str(excinfo.value)
        assert "zz_typo" in str(excinfo.value)

    def test_inputs_globals_loop_vars_and_assigns_are_bound(self):
        program = make(
            Seq(
                [
                    Assign("n", Var("in_a") + Var("g")),
                    Loop("l", Var("n"), Assign("y", Var("i")), loop_var="i"),
                    If(
                        "w",
                        Compare(">", Var("y"), Const(0)),
                        Assign("y", Var("y") - Const(1)),
                    ),
                ]
            )
        )
        validate_program(program, inputs=["in_a"])

    def test_empty_inputs_differs_from_none(self):
        program = make(Seq([Assign("y", Var("in_a"))]))
        validate_program(program)  # lenient
        with pytest.raises(ValueError, match="in_a"):
            validate_program(program, inputs=[])
