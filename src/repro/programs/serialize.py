"""JSON (de)serialization of programs — expressions and statements.

Needed so a generated controller can ship with an application (paper
§4.2: developers "distribute the trained model coefficients with the
program"; the prediction slice is a program, so it must serialize too).

The format is a type-tagged nested dict, stable across versions of this
library: every node is ``{"t": "<TypeName>", ...fields}``.
"""

from __future__ import annotations

from typing import Any

from repro.programs.expr import (
    BinOp,
    BoolOp,
    Compare,
    Const,
    Expr,
    IfExpr,
    UnaryOp,
    Var,
)
from repro.programs.ir import (
    Assign,
    Block,
    Hint,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
    Stmt,
)

__all__ = [
    "expr_to_dict",
    "expr_from_dict",
    "stmt_to_dict",
    "stmt_from_dict",
    "program_to_dict",
    "program_from_dict",
]


# -- expressions ---------------------------------------------------------------
def expr_to_dict(expr: Expr) -> dict[str, Any]:
    """Type-tagged dict for an expression tree."""
    if isinstance(expr, Const):
        return {"t": "Const", "value": expr.value}
    if isinstance(expr, Var):
        return {"t": "Var", "name": expr.name}
    if isinstance(expr, BinOp):
        return {
            "t": "BinOp",
            "op": expr.op,
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    if isinstance(expr, UnaryOp):
        return {
            "t": "UnaryOp",
            "op": expr.op,
            "operand": expr_to_dict(expr.operand),
        }
    if isinstance(expr, Compare):
        return {
            "t": "Compare",
            "op": expr.op,
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    if isinstance(expr, BoolOp):
        return {
            "t": "BoolOp",
            "op": expr.op,
            "operands": [expr_to_dict(o) for o in expr.operands],
        }
    if isinstance(expr, IfExpr):
        return {
            "t": "IfExpr",
            "cond": expr_to_dict(expr.cond),
            "then": expr_to_dict(expr.then),
            "orelse": expr_to_dict(expr.orelse),
        }
    raise TypeError(f"cannot serialize expression type {type(expr).__name__}")


def expr_from_dict(data: dict[str, Any]) -> Expr:
    """Inverse of :func:`expr_to_dict`."""
    tag = data["t"]
    if tag == "Const":
        return Const(data["value"])
    if tag == "Var":
        return Var(data["name"])
    if tag == "BinOp":
        return BinOp(
            data["op"], expr_from_dict(data["left"]), expr_from_dict(data["right"])
        )
    if tag == "UnaryOp":
        return UnaryOp(data["op"], expr_from_dict(data["operand"]))
    if tag == "Compare":
        return Compare(
            data["op"], expr_from_dict(data["left"]), expr_from_dict(data["right"])
        )
    if tag == "BoolOp":
        return BoolOp(data["op"], [expr_from_dict(o) for o in data["operands"]])
    if tag == "IfExpr":
        return IfExpr(
            expr_from_dict(data["cond"]),
            expr_from_dict(data["then"]),
            expr_from_dict(data["orelse"]),
        )
    raise ValueError(f"unknown expression tag {tag!r}")


# -- statements -------------------------------------------------------------------
def stmt_to_dict(stmt: Stmt) -> dict[str, Any]:
    """Type-tagged dict for a statement tree."""
    if isinstance(stmt, Block):
        return {
            "t": "Block",
            "instructions": stmt.instructions,
            "mem_refs": stmt.mem_refs,
            "name": stmt.name,
        }
    if isinstance(stmt, Assign):
        return {
            "t": "Assign",
            "target": stmt.target,
            "expr": expr_to_dict(stmt.expr),
            "cost": stmt.cost,
        }
    if isinstance(stmt, Seq):
        return {"t": "Seq", "stmts": [stmt_to_dict(s) for s in stmt.stmts]}
    if isinstance(stmt, If):
        return {
            "t": "If",
            "site": stmt.site,
            "cond": expr_to_dict(stmt.cond),
            "then": stmt_to_dict(stmt.then),
            "orelse": None if stmt.orelse is None else stmt_to_dict(stmt.orelse),
            "counted": stmt.counted,
        }
    if isinstance(stmt, Loop):
        return {
            "t": "Loop",
            "site": stmt.site,
            "count": expr_to_dict(stmt.count),
            "body": stmt_to_dict(stmt.body),
            "loop_var": stmt.loop_var,
            "max_trips": stmt.max_trips,
            "counted": stmt.counted,
            "elide_body": stmt.elide_body,
        }
    if isinstance(stmt, IndirectCall):
        return {
            "t": "IndirectCall",
            "site": stmt.site,
            "target": expr_to_dict(stmt.target),
            "table": {
                str(addr): stmt_to_dict(callee)
                for addr, callee in stmt.table.items()
            },
            "default": None if stmt.default is None else stmt_to_dict(stmt.default),
            "counted": stmt.counted,
        }
    if isinstance(stmt, Hint):
        return {
            "t": "Hint",
            "site": stmt.site,
            "expr": expr_to_dict(stmt.expr),
            "cost": stmt.cost,
            "counted": stmt.counted,
        }
    raise TypeError(f"cannot serialize statement type {type(stmt).__name__}")


def stmt_from_dict(data: dict[str, Any]) -> Stmt:
    """Inverse of :func:`stmt_to_dict`."""
    tag = data["t"]
    if tag == "Block":
        return Block(
            instructions=data["instructions"],
            mem_refs=data["mem_refs"],
            name=data["name"],
        )
    if tag == "Assign":
        return Assign(
            target=data["target"],
            expr=expr_from_dict(data["expr"]),
            cost=data.get("cost", 2),
        )
    if tag == "Seq":
        return Seq([stmt_from_dict(s) for s in data["stmts"]])
    if tag == "If":
        return If(
            site=data["site"],
            cond=expr_from_dict(data["cond"]),
            then=stmt_from_dict(data["then"]),
            orelse=(
                None if data["orelse"] is None else stmt_from_dict(data["orelse"])
            ),
            counted=data["counted"],
        )
    if tag == "Loop":
        return Loop(
            site=data["site"],
            count=expr_from_dict(data["count"]),
            body=stmt_from_dict(data["body"]),
            loop_var=data["loop_var"],
            max_trips=data["max_trips"],
            counted=data["counted"],
            elide_body=data["elide_body"],
        )
    if tag == "IndirectCall":
        return IndirectCall(
            site=data["site"],
            target=expr_from_dict(data["target"]),
            table={
                int(addr): stmt_from_dict(callee)
                for addr, callee in data["table"].items()
            },
            default=(
                None
                if data["default"] is None
                else stmt_from_dict(data["default"])
            ),
            counted=data["counted"],
        )
    if tag == "Hint":
        return Hint(
            site=data["site"],
            expr=expr_from_dict(data["expr"]),
            cost=data.get("cost", 2),
            counted=data["counted"],
        )
    raise ValueError(f"unknown statement tag {tag!r}")


# -- programs ------------------------------------------------------------------
def program_to_dict(program: Program) -> dict[str, Any]:
    """Type-tagged dict for a whole program."""
    return {
        "name": program.name,
        "body": stmt_to_dict(program.body),
        "globals_init": dict(program.globals_init),
    }


def program_from_dict(data: dict[str, Any]) -> Program:
    """Inverse of :func:`program_to_dict`."""
    return Program(
        name=data["name"],
        body=stmt_from_dict(data["body"]),
        globals_init=dict(data["globals_init"]),
    )

