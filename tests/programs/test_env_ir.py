"""Tests for environments and the statement IR."""

import math
from fractions import Fraction

import pytest

from repro.programs.env import Environment
from repro.programs.expr import Const
from repro.programs.ir import (
    Assign,
    Block,
    Hint,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
    walk,
)


class TestEnvironmentLookup:
    def test_layering_locals_over_globals_over_inputs(self):
        env = Environment({"x": 1, "y": 1, "z": 1}, {"y": 2, "z": 2})
        env.write("w", 9)
        assert env["x"] == 1
        assert env["y"] == 2  # global shadows input
        env.write("q_local", 3)
        assert env["q_local"] == 3

    def test_missing_raises(self):
        with pytest.raises(KeyError):
            Environment()["nope"]

    def test_contains(self):
        env = Environment({"a": 1}, {"b": 2})
        env.write("c", 3)
        assert "a" in env and "b" in env and "c" in env
        assert "d" not in env

    def test_iteration_deduplicates(self):
        env = Environment({"a": 1}, {"a": 2})
        assert list(env).count("a") == 1

    def test_len_counts_unique_names(self):
        env = Environment({"a": 1}, {"a": 2, "b": 3})
        assert len(env) == 2


class TestEnvironmentWrites:
    def test_write_updates_existing_global(self):
        g = {"state": 1}
        env = Environment({}, g)
        env.write("state", 5)
        assert g["state"] == 5

    def test_write_new_name_is_local(self):
        g = {"state": 1}
        env = Environment({}, g)
        env.write("tmp", 5)
        assert "tmp" not in g
        assert env["tmp"] == 5

    def test_input_shadowed_not_mutated(self):
        env = Environment({"n": 3}, {})
        env.write("n", 10)
        assert env["n"] == 10
        assert env.inputs["n"] == 3


class TestEnvironmentForks:
    def test_fresh_locals_drops_scratch(self):
        g = {"state": 1}
        env = Environment({"i": 1}, g)
        env.write("tmp", 5)
        fresh = env.fresh_locals()
        assert "tmp" not in fresh
        assert fresh["state"] == 1

    def test_fork_isolated_protects_globals(self):
        g = {"state": 1}
        env = Environment({}, g)
        fork = env.fork_isolated()
        fork.write("state", 99)
        assert fork["state"] == 99
        assert g["state"] == 1  # the whole point of isolation

    def test_fork_sees_current_global_values(self):
        g = {"state": 1}
        env = Environment({}, g)
        g["state"] = 42
        assert env.fork_isolated()["state"] == 42

    def test_snapshot_flattens(self):
        env = Environment({"a": 1}, {"b": 2})
        env.write("c", 3)
        assert env.snapshot() == {"a": 1, "b": 2, "c": 3}


class TestIrValidation:
    def test_block_rejects_negative_instructions(self):
        with pytest.raises(ValueError):
            Block(-1)

    def test_block_rejects_negative_mem_refs(self):
        with pytest.raises(ValueError):
            Block(1, mem_refs=-1)

    def test_assign_rejects_empty_target(self):
        with pytest.raises(ValueError):
            Assign("", Const(1))

    def test_if_requires_site(self):
        with pytest.raises(ValueError):
            If("", Const(True), Block(1))

    def test_loop_requires_site(self):
        with pytest.raises(ValueError):
            Loop("", Const(1), Block(1))

    def test_loop_rejects_negative_max_trips(self):
        with pytest.raises(ValueError):
            Loop("l", Const(1), Block(1), max_trips=-1)

    def test_indirect_call_requires_int_addresses(self):
        with pytest.raises(TypeError):
            IndirectCall("c", Const(1), table={"a": Block(1)})


# Costs must be finite reals >= 0; max_trips an int >= 0.  Each builder
# puts the hostile value in one field and names the node it expects in
# the message.
_BAD_COSTS = [
    math.nan,
    math.inf,
    -math.inf,
    -1,
    -0.5,
    "ten",
    "10",
    None,
    True,
    complex(1, 0),
    [1],
]
_COST_FIELDS = {
    "Block.instructions": (lambda v: Block(v, name="mac"), "'mac'"),
    "Block.mem_refs": (lambda v: Block(1, v, name="mac"), "'mac'"),
    "Assign.cost": (lambda v: Assign("x", Const(1), cost=v), "'x'"),
    "Hint.cost": (lambda v: Hint("meta", Const(1), cost=v), "'meta'"),
}
_BAD_TRIPS = [2.5, 3.0, math.nan, math.inf, -1, "5", None, True]
_TRIP_FIELDS = {
    "Loop.max_trips": (
        lambda v: Loop("l", Const(1), Block(1), max_trips=v),
        "'l'",
    ),
}


class TestHostileIrValues:
    @pytest.mark.parametrize("value", _BAD_COSTS, ids=repr)
    @pytest.mark.parametrize("field", sorted(_COST_FIELDS))
    def test_bad_cost_raises_value_error_naming_the_node(self, field, value):
        build, name = _COST_FIELDS[field]
        with pytest.raises(ValueError, match=name) as excinfo:
            build(value)
        assert field.split(".")[1] in str(excinfo.value)

    @pytest.mark.parametrize("value", _BAD_TRIPS, ids=repr)
    @pytest.mark.parametrize("field", sorted(_TRIP_FIELDS))
    def test_bad_max_trips_raises_value_error_naming_the_site(
        self, field, value
    ):
        build, name = _TRIP_FIELDS[field]
        with pytest.raises(ValueError, match=name) as excinfo:
            build(value)
        assert "max_trips" in str(excinfo.value)

    @pytest.mark.parametrize(
        "value", [0, 0.0, -0.0, 7, 2.5, 10**30, Fraction(1, 3)], ids=repr
    )
    @pytest.mark.parametrize("field", sorted(_COST_FIELDS))
    def test_finite_non_negative_costs_build(self, field, value):
        _COST_FIELDS[field][0](value)

    @pytest.mark.parametrize("field", sorted(_TRIP_FIELDS))
    def test_int_max_trips_build(self, field):
        for value in (0, 1, 10**12):
            _TRIP_FIELDS[field][0](value)


class TestTreeStructure:
    def test_children_of_seq(self):
        a, b = Block(1), Block(2)
        assert Seq([a, b]).children() == (a, b)

    def test_children_of_if_with_else(self):
        t, e = Block(1), Block(2)
        node = If("s", Const(True), t, e)
        assert node.children() == (t, e)

    def test_children_of_if_without_else(self):
        t = Block(1)
        assert If("s", Const(True), t).children() == (t,)

    def test_children_of_call_sorted_by_address(self):
        one, two, dflt = Block(1), Block(2), Block(3)
        node = IndirectCall("c", Const(1), {2: two, 1: one}, default=dflt)
        assert node.children() == (one, two, dflt)

    def test_walk_preorder(self):
        inner = Block(1, name="inner")
        loop = Loop("l", Const(2), inner)
        root = Seq([Assign("x", Const(1)), loop])
        nodes = list(walk(root))
        assert nodes[0] is root
        assert inner in nodes
        assert loop in nodes

    def test_program_fresh_globals_is_a_copy(self):
        prog = Program("p", Block(1), globals_init={"s": 0})
        g = prog.fresh_globals()
        g["s"] = 99
        assert prog.globals_init["s"] == 0
