"""The program tooling's guarantees on every shipped workload.

test_random_programs.py checks instrumentation, slicing, serialization
and the static analyses over generated programs.  This file holds the
eight real task programs to the same guarantees, each over its own input
script, so a workload that reaches a corner the generators never draw
still has to meet them:

- instrumentation changes no state and no memory time; it only adds
  counter instructions, at exactly the sites its schema lists;
- a slice run never changes the caller's globals, and every global it
  writes in its private copy is one the effects pass predicted;
- a slice for a subset of sites counts exactly those sites, with the
  instrumented run's values; an unpruned slice *is* the instrumented run;
- the dataflow passes agree with execution: no read lacks a reaching
  definition, definition tokens name real assignments, whatever is live
  at entry is an input or a global, observed global writes are in the
  effect summary, and the static cost bound covers every job;
- serialization round-trips every program version exactly;
- ``execute_isolated`` is ``execute`` without committing the globals.

Comparisons are exact (``==`` or ``repr``), never approximate.
"""

import functools
import json

import pytest

from repro.pipeline.offline import profiled_input_ranges
from repro.programs.analysis.coverage import (
    counted_sites,
    coverage_diagnostics,
)
from repro.programs.analysis.effects import effect_report
from repro.programs.analysis.hazards import hazard_diagnostics
from repro.programs.analysis.intervals import cost_bound
from repro.programs.analysis.reaching import (
    GLOBAL_DEF,
    INPUT_DEF,
    LOOP_VAR_DEF,
    live_variables,
    reaching_definitions,
)
from repro.programs.instrument import Instrumenter
from repro.programs.interpreter import Interpreter
from repro.programs.ir import Assign, Hint, If, IndirectCall, Loop, walk
from repro.programs.serialize import program_from_dict, program_to_dict
from repro.programs.slicer import Slicer
from repro.workloads.registry import app_names, get_app

INTERP = Interpreter()
N_JOBS = 20

_NODE_TYPES = {
    "branch": (If,),
    "loop": (Loop,),
    "call": (IndirectCall,),
    "hint": (Hint,),
}


@functools.lru_cache(maxsize=None)
def tooling(name):
    """(app, instrumented, full slice, job inputs, input names)."""
    app = get_app(name)
    inst = Instrumenter().instrument(app.task.program)
    sl = Slicer().slice(inst)
    jobs = app.inputs(N_JOBS, seed=11)
    names = frozenset().union(*(frozenset(job) for job in jobs))
    return app, inst, sl, jobs, names


def _exact(mapping):
    """Items in order, as reprs: 0 vs 0.0 and -0.0 vs 0.0 differ."""
    return repr(list(mapping.items()))


def _changed(before, after):
    return {name for name in after if repr(after[name]) != repr(before[name])}


@pytest.mark.parametrize("name", app_names())
class TestInstrumentation:
    def test_preserves_state_and_memory_time(self, name):
        app, inst, _, jobs, _ = tooling(name)
        task = app.task.program
        g_task, g_inst = task.fresh_globals(), task.fresh_globals()
        for job in jobs:
            plain = INTERP.execute(task, job, g_task)
            counted = INTERP.execute(inst.program, job, g_inst)
            assert _exact(g_inst) == _exact(g_task)
            assert counted.work.mem_time_s == plain.work.mem_time_s

    def test_only_adds_counter_instructions(self, name):
        app, inst, _, jobs, _ = tooling(name)
        task = app.task.program
        labels = set(inst.site_labels)
        g_task, g_inst = task.fresh_globals(), task.fresh_globals()
        for job in jobs:
            plain = INTERP.execute(task, job, g_task)
            counted = INTERP.execute(inst.program, job, g_inst)
            assert not plain.features.counters
            assert not plain.features.call_addresses
            assert counted.work.cycles >= plain.work.cycles
            assert set(counted.features.counters) <= labels
            assert set(counted.features.call_addresses) <= labels

    def test_site_schema_matches_the_tree(self, name):
        app, inst, _, _, _ = tooling(name)
        assert counted_sites(app.task.program.body) == frozenset()
        assert counted_sites(inst.program.body) == frozenset(inst.site_labels)
        assert len(set(inst.site_labels)) == len(inst.site_labels)
        by_label = {
            node.site: node
            for node in walk(inst.program.body)
            if getattr(node, "site", None) is not None
        }
        for site in inst.sites:
            assert isinstance(by_label[site.site], _NODE_TYPES[site.kind])


@pytest.mark.parametrize("name", app_names())
class TestSlices:
    def test_isolated_runs_leave_caller_state_alone(self, name):
        app, _, sl, jobs, _ = tooling(name)
        may_write = effect_report(sl.program).may_write_globals
        globals_ = app.task.program.fresh_globals()
        for job in jobs:
            before = dict(globals_)
            result = INTERP.execute_isolated(sl.program, job, globals_)
            assert _exact(globals_) == _exact(before)
            assert _changed(before, result.globals) <= may_write
            INTERP.execute(app.task.program, job, globals_)

    def test_subset_slice_counts_exactly_the_needed_sites(self, name):
        app, inst, _, jobs, _ = tooling(name)
        needed = frozenset(sorted(inst.site_labels)[::2])
        subset = Slicer().slice(inst, needed_sites=needed)
        assert counted_sites(subset.program.body) == needed
        covered, diagnostics = coverage_diagnostics(
            subset.program.body, needed
        )
        assert covered == needed
        assert diagnostics == []
        globals_ = app.task.program.fresh_globals()
        for job in jobs:
            part = INTERP.execute_isolated(subset.program, job, globals_)
            full = INTERP.execute(inst.program, job, globals_)
            assert part.features.counters == {
                site: value
                for site, value in full.features.counters.items()
                if site in needed
            }
            assert part.features.call_addresses == {
                site: addrs
                for site, addrs in full.features.call_addresses.items()
                if site in needed
            }

    def test_subset_slice_never_costs_more_than_the_full_slice(self, name):
        app, inst, sl, jobs, _ = tooling(name)
        subset = Slicer().slice(
            inst, needed_sites=frozenset(sorted(inst.site_labels)[::2])
        )
        globals_ = app.task.program.fresh_globals()
        for job in jobs:
            part = INTERP.execute_isolated(subset.program, job, globals_)
            full = INTERP.execute_isolated(sl.program, job, globals_)
            assert part.work.cycles <= full.work.cycles
            assert part.work.mem_time_s <= full.work.mem_time_s
            INTERP.execute(app.task.program, job, globals_)

    def test_unpruned_slice_is_the_instrumented_run(self, name):
        app, inst, _, jobs, _ = tooling(name)
        unpruned = Slicer().slice(inst, prune=False)
        assert unpruned.program.body == inst.program.body
        globals_ = app.task.program.fresh_globals()
        for job in jobs:
            sliced = INTERP.execute_isolated(unpruned.program, job, globals_)
            full = INTERP.execute(inst.program, job, globals_)
            assert repr(sliced.work) == repr(full.work)
            assert _exact(sliced.features.counters) == _exact(
                full.features.counters
            )
            assert _exact(sliced.globals) == _exact(globals_)


@pytest.mark.parametrize("name", app_names())
class TestStaticAnalyses:
    def test_no_version_reads_an_undefined_name(self, name):
        app, inst, sl, _, names = tooling(name)
        for program in (app.task.program, inst.program, sl.program):
            assert hazard_diagnostics(program, input_names=names) == []

    def test_definition_tokens_name_real_assignments(self, name):
        app, inst, sl, _, names = tooling(name)
        pseudo = {INPUT_DEF, GLOBAL_DEF, LOOP_VAR_DEF}
        for program in (app.task.program, inst.program, sl.program):
            nodes = list(walk(program.body))
            engine = reaching_definitions(program, names)
            for node in nodes:
                state = engine.state_at(node)
                if state is None:
                    continue
                for var, defs in state:
                    for token in defs - pseudo:
                        target, _, index = token.rpartition("@")
                        defining = nodes[int(index)]
                        assert isinstance(defining, Assign), token
                        assert defining.target == target == var

    def test_live_at_entry_is_inputs_and_globals(self, name):
        app, inst, sl, _, names = tooling(name)
        for program in (app.task.program, inst.program, sl.program):
            live = live_variables(program).live_at_entry
            assert live <= names | frozenset(program.globals_init)

    def test_effect_summary_covers_observed_global_writes(self, name):
        app, _, _, jobs, _ = tooling(name)
        task = app.task.program
        may_write = effect_report(task).may_write_globals
        globals_ = task.fresh_globals()
        written = set()
        for job in jobs:
            before = dict(globals_)
            INTERP.execute(task, job, globals_)
            written |= _changed(before, globals_)
        assert written <= may_write

    def test_task_cost_bound_covers_every_job(self, name):
        # The interval analysis seeds globals from globals_init, so the
        # bound holds for runs that start from the initial state.
        app, _, _, jobs, _ = tooling(name)
        task = app.task.program
        bound, _ = cost_bound(task, profiled_input_ranges(jobs, widen=0.5))
        for job in jobs:
            work = INTERP.execute(task, job).work
            assert work.cycles <= (
                bound.instructions * INTERP.cycles_per_instruction
            )
            assert work.mem_time_s <= (
                bound.mem_refs * INTERP.mem_seconds_per_ref + 1e-12
            )


@pytest.mark.parametrize("name", app_names())
def test_every_version_roundtrips_exactly(name):
    app, inst, sl, jobs, _ = tooling(name)
    for program in (app.task.program, inst.program, sl.program):
        restored = program_from_dict(
            json.loads(json.dumps(program_to_dict(program)))
        )
        assert restored == program
        g_original = program.fresh_globals()
        g_restored = program.fresh_globals()
        for job in jobs:
            a = INTERP.execute(program, job, g_original)
            b = INTERP.execute(restored, job, g_restored)
            assert repr(b.work) == repr(a.work)
            assert _exact(b.features.counters) == _exact(a.features.counters)
            assert _exact(b.features.call_addresses) == _exact(
                a.features.call_addresses
            )
            assert _exact(g_restored) == _exact(g_original)


@pytest.mark.parametrize("name", app_names())
def test_isolated_run_is_execute_without_the_commit(name):
    app, _, _, jobs, _ = tooling(name)
    task = app.task.program
    globals_ = task.fresh_globals()
    for job in jobs:
        before = dict(globals_)
        isolated = INTERP.execute_isolated(task, job, globals_)
        assert _exact(globals_) == _exact(before)
        committed = INTERP.execute(task, job, globals_)
        assert repr(isolated.work) == repr(committed.work)
        assert _exact(isolated.features.counters) == _exact(
            committed.features.counters
        )
        assert _exact(isolated.globals) == _exact(globals_)
