"""Interpreter: executes a task program, producing Work and features.

Execution has two observable outputs:

- :class:`repro.platform.cpu.Work` — how much frequency-dependent and
  memory-bound work the job performed (this is what the simulated CPU
  turns into time and energy);
- :class:`RawFeatures` — the control-flow feature counters, populated only
  for nodes marked ``counted`` by the instrumenter (counting costs extra
  instructions, exactly like real counter increments).

Programs run as Python code.  The first execution of a
:class:`~repro.programs.ir.Program` object compiles its statement tree
into one Python function (stdlib :func:`compile`) and keeps it on that
object, so the function lives exactly as long as the program does.  The
generated code keeps the run's inputs, globals and locals in one flat
dict (those used in loops in Python locals, below) and does its
arithmetic inline.  Work, features and final globals are those of a
node-by-node evaluation of the statement semantics below, bit for bit:

- Feature counters, call addresses and variable writes happen in
  exactly the order of the semantics.  So does the memory tally, with
  the same float additions, except in the closed loops below.
- The instruction tally is *folded* when every ``Block.instructions``,
  ``Assign.cost`` and ``Hint.cost`` in the tree is an integral ``int``
  or ``float`` (those of never-taken branches too).  It is then a Python
  int.  The constant costs of a straight-line suite are added once, at
  its head.  The per-trip constant of a loop body, ``LOOP_ITER_COST``
  included, is added once as ``K * trips``, before the loop runs.  This
  is exact: every partial sum, in either order, is an integer no larger
  than the job's total, and every integer up to ``2**53`` is a float.
  So when the total is at most ``2**53``, each float addition of the
  node-by-node order is exact too, and both give the same float.
- A folded run checks its total once, at the end.  Past ``2**53`` the
  job runs again, from its untouched inputs and globals, with the same
  program compiled with folding off (built on first need).  That form,
  also the one for any program with a fractional instruction cost, adds
  each cost as a float, in place.
- In a folded program, a ``Loop`` with no loop variable whose body is
  one ``Block`` (alone, or the only statement of a ``Seq``) adds nothing
  per trip but ``mem += c``.  When ``c``, the Block's ``mem_refs``, is
  an integral ``int`` or ``float`` of at most ``2**53``, the loop is
  *closed*: ``k = c * trips`` and ``t = mem + k`` are computed, and
  ``mem = t`` when ``t < 2**53 and t - k == mem``; otherwise the loop
  runs, adding ``c`` per trip.  This is exact.  Costs are never negative
  and ``mem`` starts at ``0.0``, so every partial sum of the loop lies
  in ``[mem, t]``, and ``k <= t < 2**53`` makes ``k`` the exact integer
  ``c * trips``.  The one test holds only when ``t`` is ``mem + k``
  exactly, because ``t - k`` is computed exactly: when ``k >= mem`` by
  the Fast2Sum lemma; when ``mem > k``, the rounding error of ``t`` is a
  multiple of ``ulp(mem) <= 1`` (which divides the integer ``k``) and at
  most ``ulp(mem)`` in size (``t <= 2 * mem``), so ``t - k``, that is
  ``mem`` plus the error, is a float.  Then ``ulp(t) <= 1`` divides the
  integers ``c`` and ``k`` and so ``mem``, every partial sum is a
  multiple of ``ulp(t)`` no larger than ``t``, hence a float, and each
  per-trip addition is exact and gives the same float.  The loop still
  runs when the sum rounds (it crosses into a binade too coarse for the
  low bits of ``mem``) or reaches ``2**53``.  Fractional ``c`` (e.g.
  ``320000 / 1500``) is always added per trip.
- A variable read or written in the body of a loop that runs its body
  (one not elided), and the variable of every such loop, is *held*: the
  function reads it from the flat dict once, at entry, into a Python
  local and uses that local for the rest of the run.  So is the count of
  every site that a counted ``If`` or ``Loop`` in such a body bumps, in
  a local accumulator.  Which names and sites are held depends on the
  program alone.  This is exact: the run reads and writes the same
  values in the same order, and only where they live meanwhile differs.
  A held name absent at entry holds a sentinel until it is assigned; a
  read not preceded by an assignment on every path checks for it and
  then reads the dict, which raises the ``KeyError`` naming the variable
  at the same point, left operand first.  A held site enters the
  counters at its first bump, so the counters keep their first-bump key
  order, and takes its final value when the run ends.  The written held
  names are stored back into the dict in a ``finally``, so after an
  error it holds every global written before the error, as it does for
  the names that are not held.

The compiled function's ``folded`` attribute says which form it is, its
``closed_loops`` attribute lists the sites of its closed loops, and its
``held_names`` and ``held_sites`` attributes list what it holds.

Statement semantics (costs in instructions, from :mod:`repro.programs.ir`):

- ``Block``: add ``instructions``, then add ``mem_refs`` to the memory
  tally.
- ``Assign``: add ``cost``, evaluate, write the target.
- ``If``: add ``BRANCH_COST``; when taken and counted, add
  ``COUNTER_COST`` and bump the site by 1.0; run the taken arm.
- ``Loop``: trips = ``int(count)`` clamped to ``[0, max_trips]``; when
  counted, add ``COUNTER_COST`` and bump the site by trips; unless the
  body is elided, each trip adds ``LOOP_ITER_COST``, binds the loop
  variable (if any) and runs the body.
- ``Hint``: add ``cost``; when counted, add ``COUNTER_COST`` and set the
  site to ``float(expr)``.
- ``IndirectCall``: add ``CALL_DISPATCH_COST``; address = ``int(target)``;
  when counted, add ``COUNTER_COST`` and record the address; run the
  table entry for the address, else the default, else nothing.

Variables follow :class:`~repro.programs.env.Environment`: locals over
globals over inputs, and a write updates a global when the name is one,
else a local.  Globals never gain keys, so one dict holding the inputs
overwritten by the globals gives the same lookups, and its global entries
after the run are the final globals.  Expressions evaluate left to right
like :meth:`~repro.programs.expr.Expr.evaluate`, with the zero-guarded
``//``, ``/`` and ``%``; reading an unbound name raises ``KeyError``
naming it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping

from repro.platform.cpu import Work
from repro.programs.expr import (
    BinOp,
    BoolOp,
    Compare,
    Const,
    Expr,
    IfExpr,
    UnaryOp,
    Value,
    Var,
)
from repro.programs.ir import (
    BRANCH_COST,
    CALL_DISPATCH_COST,
    COUNTER_COST,
    LOOP_ITER_COST,
    Assign,
    Block,
    Hint,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
    Stmt,
    walk,
)

__all__ = ["RawFeatures", "ExecutionResult", "Interpreter"]

#: ``co_filename`` of compiled programs: it names this module, so host
#: profiles attribute compiled IR to the interpreter.
COMPILED_FILENAME = f"<{__name__}>"

#: Program attribute holding its compiled form (not a dataclass field).
_COMPILED_ATTR = "_compiled"


@dataclass
class RawFeatures:
    """Per-execution control-flow feature record.

    Attributes:
        counters: site label -> count (branch-taken and loop-iteration
            features).
        call_addresses: site label -> addresses observed at that indirect
            call site, in call order (one-hot encoded downstream).
    """

    counters: dict[str, float] = field(default_factory=dict)
    call_addresses: dict[str, list[int]] = field(default_factory=dict)

    def bump(self, site: str, amount: float = 1.0) -> None:
        """Increment a counter feature (branch taken / loop trips)."""
        self.counters[site] = self.counters.get(site, 0.0) + amount

    def set_value(self, site: str, value: float) -> None:
        """Record a gauge feature (absolute reading; hints use this)."""
        self.counters[site] = value

    def record_call(self, site: str, address: int) -> None:
        """Record an observed call-target address at a call site."""
        self.call_addresses.setdefault(site, []).append(address)

    def counter(self, site: str) -> float:
        """Counter value for a site (0.0 when the site never fired)."""
        return self.counters.get(site, 0.0)


@dataclass(slots=True)
class ExecutionResult:
    """Everything one execution of a program produced.

    ``globals`` holds the final globals; the run's inputs are the
    caller's and its locals are scratch, so neither is kept.
    """

    work: Work
    features: RawFeatures
    globals: dict[str, Value]


class Interpreter:
    """Executes programs.

    Attributes:
        cycles_per_instruction: CPI of the modelled core (A7 in-order: ~1).
        mem_seconds_per_ref: Seconds of non-overlapped memory time per
            memory reference (builds the ``T_mem`` term of the DVFS model).
    """

    def __init__(
        self,
        cycles_per_instruction: float = 1.0,
        mem_seconds_per_ref: float = 80e-9,
    ):
        if cycles_per_instruction <= 0:
            raise ValueError("cycles_per_instruction must be positive")
        if mem_seconds_per_ref < 0:
            raise ValueError("mem_seconds_per_ref must be non-negative")
        self.cycles_per_instruction = cycles_per_instruction
        self.mem_seconds_per_ref = mem_seconds_per_ref

    def execute(
        self,
        program: Program,
        inputs: Mapping[str, Value],
        globals_: dict[str, Value] | None = None,
    ) -> ExecutionResult:
        """Run one job of ``program`` with the given inputs.

        Args:
            program: The task to execute.
            inputs: Per-job input values.
            globals_: Persistent global state, mutated in place.  Pass the
                same dict across jobs to model evolving program state; by
                default each call gets fresh globals.

        Returns:
            The work performed, features counted, and the final globals
            (``globals_`` itself).
        """
        if globals_ is None:
            globals_ = program.fresh_globals()
        return self._execute(program, inputs, globals_, globals_)

    def execute_isolated(
        self,
        program: Program,
        inputs: Mapping[str, Value],
        globals_: dict[str, Value],
    ) -> ExecutionResult:
        """Run with copy-on-fork globals: writes do not escape.

        This is how prediction slices execute (paper §3.2): the slice reads
        live program state but cannot corrupt it.  The result's
        ``globals`` is a new dict of the globals the run left behind.
        """
        return self._execute(program, inputs, globals_, {})

    def _execute(
        self,
        program: Program,
        inputs: Mapping[str, Value],
        globals_: dict[str, Value],
        final: dict[str, Value],
    ) -> ExecutionResult:
        """Run ``program``; its final globals land in ``final``."""
        compiled = program.__dict__.get(_COMPILED_ATTR)
        if compiled is None:
            compiled = _compile(program)
            # Not a dataclass field: equality, repr and serialization
            # never see it, and Program.__getstate__ leaves it unpickled.
            object.__setattr__(program, _COMPILED_ATTR, compiled)
        namespace = dict(inputs)
        namespace.update(globals_)
        counters: dict[str, float] = {}
        calls: dict[str, list[int]] = {}
        try:
            instructions, mem_refs = compiled(namespace, counters, calls)
            if instructions is None:
                # The folded tally passed 2**53: run the job again, from
                # its untouched inputs and globals, adding in order.
                sequential = compiled.sequential
                if sequential is None:
                    sequential = compiled.sequential = _build(program, False)
                namespace = dict(inputs)
                namespace.update(globals_)
                counters, calls = {}, {}
                instructions, mem_refs = sequential(namespace, counters, calls)
        except KeyError as exc:
            raise KeyError(f"undefined variable {exc.args[0]!r}") from None
        finally:
            # On an error too: the globals written before it stay written.
            for name in globals_:
                final[name] = namespace[name]
        return ExecutionResult(
            Work(
                instructions * self.cycles_per_instruction,
                mem_refs * self.mem_seconds_per_ref,
            ),
            RawFeatures(counters, calls),
            final,
        )


# -- the compiler ----------------------------------------------------------------
# CPython rejects more than 20 statically nested loops and 100 indentation
# levels, and deep parenthesis nesting; subtrees past these depths move
# into helper functions that thread the tallies through.
_MAX_LOOPS = 12
_MAX_INDENT = 24
_MAX_EXPR_DEPTH = 40

#: Every integer up to this bound is a float, so an integral tally that
#: stays within it is summed exactly in any order.
_EXACT_LIMIT = 2**53

#: The value of a held variable's local while the variable is unbound.
_UNBOUND = object()


def _compile(program: Program):
    """The Python function that runs ``program``.

    Its ``folded`` attribute says whether it folds the instruction tally:
    it does when every instruction cost in the tree is an integral
    ``int`` or ``float``.  Its ``closed_loops`` attribute lists the sites
    of the loops that add ``c * trips`` to the memory tally at once.
    """
    return _build(program, fold=_integral_costs(program.body))


def _integral(value) -> bool:
    """Whether ``value`` is an integral ``int`` or ``float``."""
    return type(value) is int or (type(value) is float and value.is_integer())


def _integral_costs(body: Stmt) -> bool:
    """Whether every instruction cost in ``body`` is an integral int/float.

    Every node counts, taken or not: a tally folds for the whole program
    or not at all.
    """
    for node in walk(body):
        if isinstance(node, Block):
            cost = node.instructions
        elif isinstance(node, (Assign, Hint)):
            cost = node.cost
        else:
            continue
        if not _integral(cost):
            return False
    return True


def _memory_step(node: Loop) -> float | None:
    """The memory cost ``c`` of a loop whose every trip is ``mem += c``.

    That is a loop with no loop variable whose body is one ``Block``
    (inside any ``Seq`` of one statement) with an integral ``mem_refs``
    of at most ``2**53``; ``c`` is that ``mem_refs`` as a float, the
    number each trip adds.  None for any other loop.
    """
    if node.loop_var is not None:
        return None
    body = node.body
    while isinstance(body, Seq) and len(body.stmts) == 1:
        body = body.stmts[0]
    if not isinstance(body, Block):
        return None
    step = body.mem_refs
    return float(step) if _integral(step) and step <= _EXACT_LIMIT else None


def _held_state(body: Stmt):
    """The variables and counter sites a compiled program holds in locals.

    A variable is held when it is read or written in the body of a loop
    whose body is not elided, or is the variable of such a loop.  A site
    is held when a counted ``If`` or ``Loop`` in such a body bumps it.
    Returns the held names, the held sites, and the held names that the
    program writes somewhere, each sorted.
    """
    names: set[str] = set()
    sites: set[str] = set()
    written: set[str] = set()

    def visit(node: Stmt, looped: bool) -> None:
        reads: frozenset[str] = frozenset()
        if isinstance(node, Assign):
            written.add(node.target)
            if looped:
                names.add(node.target)
            reads = node.expr.variables()
        elif isinstance(node, Hint) and node.counted:
            reads = node.expr.variables()
        elif isinstance(node, If):
            reads = node.cond.variables()
        elif isinstance(node, Loop):
            reads = node.count.variables()
        elif isinstance(node, IndirectCall):
            reads = node.target.variables()
        if looped:
            names.update(reads)
            if isinstance(node, (If, Loop)) and node.counted:
                sites.add(node.site)
        if isinstance(node, Loop):
            if node.elide_body:
                return
            if node.loop_var is not None:
                names.add(node.loop_var)
                written.add(node.loop_var)
            visit(node.body, True)
        else:
            for child in node.children():
                visit(child, looped)

    visit(body, False)
    return (
        tuple(sorted(names)),
        tuple(sorted(sites)),
        tuple(sorted(written & names)),
    )


def _build(program: Program, fold: bool):
    """Compile ``program``, folding its instruction tally when ``fold``."""
    names, sites, written = _held_state(program.body)
    gen = _CodeGen(fold, names, sites, written)
    entry = "run_" + re.sub(r"\W", "_", program.name, flags=re.ASCII)
    gen.function(
        entry,
        "ns, cnt, calls",
        ("cget = cnt.get", f"ins = {0 if fold else 0.0}", "mem = 0.0"),
        program.body,
        # The exactness check: past 2**53 the run's float sum may depend
        # on the order of its additions.
        f"(float(ins) if ins <= {_EXACT_LIMIT} else None)" if fold else "ins",
    )
    namespace = {"repeat": repeat, "UNBOUND": _UNBOUND, **gen.consts}
    exec(compile("\n\n".join(gen.defs), COMPILED_FILENAME, "exec"), namespace)
    compiled = namespace[entry]
    compiled.folded = fold
    compiled.closed_loops = tuple(gen.closed_loops)
    compiled.held_names = names
    compiled.held_sites = sites
    # The sequential twin of a folded program, built on first need.
    compiled.sequential = None
    return compiled


class _CodeGen:
    """Python source for one program's statement tree.

    Generated functions take the flat variable dict ``ns``, the feature
    dicts ``cnt``/``calls`` and the instruction/memory tallies
    ``ins``/``mem``.  The held variables ``names`` and sites ``sites``
    (:func:`_held_state`) live in Python locals ``v<n>`` and ``c<n>``
    for the whole function; every other Python local is a compiler
    temporary.  A subtree moved into a helper function gets the held
    state through ``ns`` and ``cnt`` and holds its own.

    With ``fold`` off, every instruction cost is its own ``ins += cost``
    at its place in the run.  With ``fold`` on, the statement emitters
    return the constant instruction cost of the code they emitted instead
    (an int), and ``ins`` is an int: a straight-line suite adds its
    constants once, at its head, and a loop adds
    ``(LOOP_ITER_COST + body constants) * trips`` once.  A loop whose
    body is then only ``mem += c`` is emitted closed (module docstring).
    """

    def __init__(self, fold: bool, names, sites, written):
        self.fold = fold
        self.defs: list[str] = []
        self.consts: dict[str, object] = {}
        #: Sites of the loops emitted in closed form, in emission order.
        self.closed_loops: list[str] = []
        self._serial = 0
        #: Held variables and sites -> the Python locals holding them.
        self.names = {name: self._fresh("v") for name in names}
        self.sites = {site: self._fresh("c") for site in sites}
        #: The held variables the program writes somewhere.
        self.written = written
        #: Held variables bound on every path to the code being emitted.
        self.bound: set[str] = set()

    def _fresh(self, prefix: str) -> str:
        self._serial += 1
        return f"{prefix}{self._serial}"

    def literal(self, value) -> str:
        """Source for a constant: a literal when exact, else a global."""
        if type(value) in (int, bool) or (
            type(value) is float and math.isfinite(value)
        ):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        name = self._fresh("k")
        self.consts[name] = value
        return name

    def cost(self, lines, pad, value) -> int:
        """Charge ``value`` instructions here; the part left to hoist.

        Folding, the whole integral cost is left to the enclosing suite
        or loop; otherwise it is added in place.
        """
        if self.fold:
            return int(value)
        lines.append(f"{pad}ins += {self.literal(value)}")
        return 0

    # -- statements -----------------------------------------------------------
    def function(self, name, params, prelude, node, result="ins") -> None:
        lines = [f"def {name}({params}):"]
        lines.extend(f"    {line}" for line in prelude)
        outer, self.bound = self.bound, set()
        lines.extend(f"    {line}" for line in self._load(self.names))
        store = self._store()
        if store:
            # Held state is stored back once, on an error too, so that ns
            # then holds the globals the run has written so far.
            lines.append("    try:")
            self.suite(lines, node, 2, 0)
            lines.append("    finally:")
            lines.extend(f"        {line}" for line in store)
        else:
            self.suite(lines, node, 1, 0)
        self.bound = outer
        lines.append(f"    return {result}, mem")
        self.defs.append("\n".join(lines))

    def _load(self, names) -> list[str]:
        """Lines that read the held ``names`` and every held site."""
        return [
            f"{self.names[name]} = ns.get({name!r}, UNBOUND)" for name in names
        ] + [f"{local} = cget({site!r})" for site, local in self.sites.items()]

    def _store(self) -> list[str]:
        """Lines that store back the written held names that are bound
        and every held site that has been bumped."""
        return [
            f"if {self.names[name]} is not UNBOUND:"
            f" ns[{name!r}] = {self.names[name]}"
            for name in self.written
        ] + [
            f"if {local} is not None: cnt[{site!r}] = {local}"
            for site, local in self.sites.items()
        ]

    def suite(self, lines, node, indent, loops, head=None) -> None:
        """Statements for ``node`` at ``indent``, their constant cost
        first; ``pass`` when empty.  ``head`` is a site bumped by 1.0
        before them (a taken, counted branch)."""
        pad = "    " * indent
        body: list[str] = []
        constant = 0
        if head is not None:
            constant += self._bump(body, pad, head, "1.0")
        constant += self.stmt(body, node, indent, loops)
        if constant:
            lines.append(f"{pad}ins += {constant}")
        lines.extend(body)
        if not (constant or body):
            lines.append(f"{pad}pass")

    def stmt(self, lines, node: Stmt, indent: int, loops: int) -> int:
        """Emit ``node``; return its constant cost left to hoist."""
        pad = "    " * indent
        emit = lines.append
        if isinstance(node, Seq):
            return sum(
                self.stmt(lines, child, indent, loops) for child in node.stmts
            )
        if isinstance(node, Block):
            constant = self.cost(lines, pad, node.instructions)
            emit(f"{pad}mem += {self.literal(node.mem_refs)}")
            return constant
        if isinstance(node, Assign):
            constant = self.cost(lines, pad, node.cost)
            value = self.expr(node.expr, 0)
            local = self.names.get(node.target)
            if local is None:
                emit(f"{pad}ns[{node.target!r}] = {value}")
            else:
                emit(f"{pad}{local} = {value}")
                self.bound.add(node.target)
            return constant
        if isinstance(node, Hint):
            constant = self.cost(lines, pad, node.cost)
            if node.counted:
                constant += self.cost(lines, pad, COUNTER_COST)
                value = f"float({self.expr(node.expr, 0)})"
                local = self.sites.get(node.site)
                if local is None:
                    emit(f"{pad}cnt[{node.site!r}] = {value}")
                else:
                    emit(self._enter(pad, node.site))
                    emit(f"{pad}{local} = {value}")
            return constant
        if not isinstance(node, (If, Loop, IndirectCall)):
            raise TypeError(f"unknown statement type {type(node).__name__}")
        if indent >= _MAX_INDENT or loops >= _MAX_LOOPS:
            helper = self._fresh("part")
            self.function(helper, "ns, cnt, cget, calls, ins, mem", (), node)
            call = f"ins, mem = {helper}(ns, cnt, cget, calls, ins, mem)"
            store = self._store()
            if not store:
                emit(pad + call)
                return 0
            # The helper holds its own locals: hand it the held state
            # through ns and cnt, and read back what it wrote, on an
            # error too.
            lines.extend(pad + line for line in store)
            emit(f"{pad}try:")
            emit(f"{pad}    {call}")
            emit(f"{pad}finally:")
            reload = self._load(self.written)
            lines.extend(f"{pad}    {line}" for line in reload)
            return 0
        if isinstance(node, If):
            return self._if(lines, node, indent, loops)
        if isinstance(node, Loop):
            return self._loop(lines, node, indent, loops)
        return self._call(lines, node, indent, loops)

    def _bump(self, lines, pad, site, amount) -> int:
        constant = self.cost(lines, pad, COUNTER_COST)
        local = self.sites.get(site)
        if local is None:
            lines.append(
                f"{pad}cnt[{site!r}] = cget({site!r}, 0.0) + {amount}"
            )
        else:
            lines.append(self._enter(pad, site))
            lines.append(f"{pad}{local} += {amount}")
        return constant

    def _enter(self, pad, site) -> str:
        """The line that enters a held site into ``cnt`` on its first
        write, so the counters keep their first-write key order."""
        local = self.sites[site]
        return f"{pad}if {local} is None: {local} = cnt[{site!r}] = 0.0"

    def _if(self, lines, node: If, indent, loops) -> int:
        pad = "    " * indent
        constant = self.cost(lines, pad, BRANCH_COST)
        lines.append(f"{pad}if {self.expr(node.cond, 0)}:")
        head = node.site if node.counted else None
        before = set(self.bound)
        self.suite(lines, node.then, indent + 1, loops, head)
        then_bound, self.bound = self.bound, before
        if node.orelse is not None:
            lines.append(f"{pad}else:")
            self.suite(lines, node.orelse, indent + 1, loops)
        self.bound &= then_bound
        return constant

    def _loop(self, lines, node: Loop, indent, loops) -> int:
        pad, inner = "    " * indent, "    " * (indent + 1)
        trips = self._fresh("n")
        limit = self.literal(node.max_trips)
        lines.append(f"{pad}{trips} = int({self.expr(node.count, 0)})")
        # max(0, min(trips, max_trips)), as min/max compare.
        lines.append(f"{pad}if {trips} > {limit}: {trips} = {limit}")
        lines.append(f"{pad}if {trips} <= 0: {trips} = 0")
        constant = 0
        if node.counted:
            constant += self._bump(lines, pad, node.site, trips)
        if node.elide_body:
            return constant
        before = set(self.bound)
        body: list[str] = []
        per_trip = self.cost(body, inner, LOOP_ITER_COST)
        if node.loop_var is None:
            header = f"{pad}for _ in repeat(None, {trips}):"
        else:
            # A loop variable is always held: the for statement binds it.
            index = self.names[node.loop_var]
            header = f"{pad}for {index} in range({trips}):"
            self.bound.add(node.loop_var)
        per_trip += self.stmt(body, node.body, indent + 1, loops + 1)
        self.bound = before
        if per_trip:
            lines.append(f"{pad}ins += {per_trip} * {trips}")
        if not body:
            if node.loop_var is None:
                return constant
            body.append(f"{inner}pass")
        step = _memory_step(node) if self.fold else None
        if step is not None:
            # Folded, the body is the one line ``mem += step``: add
            # ``step * trips`` at once when that sum is exact, else loop.
            added, total = self._fresh("m"), self._fresh("m")
            lines.append(f"{pad}{added} = {self.literal(step)} * {trips}")
            lines.append(f"{pad}{total} = mem + {added}")
            lines.append(
                f"{pad}if {total} < {_EXACT_LIMIT}"
                f" and {total} - {added} == mem:"
            )
            lines.append(f"{inner}mem = {total}")
            lines.append(f"{pad}else:")
            header = "    " + header
            body = ["    " + line for line in body]
            self.closed_loops.append(node.site)
        lines.append(header)
        lines.extend(body)
        return constant

    def _call(self, lines, node: IndirectCall, indent, loops) -> int:
        pad = "    " * indent
        address = self._fresh("a")
        constant = self.cost(lines, pad, CALL_DISPATCH_COST)
        lines.append(f"{pad}{address} = int({self.expr(node.target, 0)})")
        if node.counted:
            constant += self.cost(lines, pad, COUNTER_COST)
            lines.append(
                f"{pad}calls.setdefault({node.site!r}, []).append({address})"
            )
        before = self.bound
        arms = []
        keyword = "if"
        for key, callee in node.table.items():
            self.bound = set(before)
            lines.append(f"{pad}{keyword} {address} == {self.literal(key)}:")
            self.suite(lines, callee, indent + 1, loops)
            arms.append(self.bound)
            keyword = "elif"
        # The default, or no arm at all when there is none.
        self.bound = set(before)
        if node.default is not None and keyword == "if":
            constant += self.stmt(lines, node.default, indent, loops)
        elif node.default is not None:
            lines.append(f"{pad}else:")
            self.suite(lines, node.default, indent + 1, loops)
        for bound in arms:
            self.bound &= bound
        return constant

    # -- expressions ----------------------------------------------------------
    def expr(self, node: Expr, depth: int) -> str:
        """Source evaluating ``node`` left to right, exactly like evaluate."""
        if depth >= _MAX_EXPR_DEPTH:
            helper = self._fresh("part")
            # Held locals go in as they are, checked where they are read.
            params = ", ".join(["ns", *self.names.values()])
            self.defs.append(
                f"def {helper}({params}):\n    return {self.expr(node, 0)}"
            )
            return f"{helper}({params})"
        depth += 1
        if isinstance(node, Const):
            return self.literal(node.value)
        if isinstance(node, Var):
            local = self.names.get(node.name)
            if local is None:
                return f"ns[{node.name!r}]"
            if node.name in self.bound:
                return local
            # An unbound held name is absent from ns too, so the read of
            # ns raises the KeyError naming it.
            return (
                f"({local} if {local} is not UNBOUND"
                f" else ns[{node.name!r}])"
            )
        if isinstance(node, (BinOp, Compare)):
            return self._binary(node, depth)
        if isinstance(node, UnaryOp):
            operand = self.expr(node.operand, depth)
            if node.op in ("abs", "int"):
                return f"{node.op}({operand})"
            return f"({node.op} {operand})"
        if isinstance(node, BoolOp):
            operands = f" {node.op} ".join(
                self.expr(operand, depth) for operand in node.operands
            )
            return f"(True if {operands} else False)"
        if isinstance(node, IfExpr):
            cond = self.expr(node.cond, depth)
            then = self.expr(node.then, depth)
            orelse = self.expr(node.orelse, depth)
            return f"({then} if {cond} else {orelse})"
        raise TypeError(f"unknown expression type {type(node).__name__}")

    def _binary(self, node: BinOp | Compare, depth: int) -> str:
        op = node.op
        left = self.expr(node.left, depth)
        right = self.expr(node.right, depth)
        guarded = op in ("//", "/", "%")
        if not guarded and op not in ("min", "max"):
            return f"({left} {op} {right})"
        if guarded and isinstance(node.right, Const) and node.right.value != 0:
            return f"({left} {op} {right})"
        a, b = self._fresh("t"), self._fresh("t")
        if not guarded:
            # min(a, b) is b if b < a else a; max(a, b) is b if b > a else a.
            test = ">" if op == "min" else "<"
            return f"({b} if ({a} := {left}) {test} ({b} := {right}) else {a})"
        zero = "0.0" if op == "/" else "0"
        # ``is not None`` always holds; it only sequences the left operand
        # before the divisor.
        return (
            f"({a} {op} {b} if ({a} := {left}) is not None"
            f" and ({b} := {right}) != 0 else {zero})"
        )
