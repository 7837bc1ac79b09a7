"""Satellite guarantee: every shipped workload's slice certifies.

Each registered application is instrumented, sliced, and pushed through
the full certifier with input ranges taken from its own input script.
Real findings must be either fixed in the workload program or explicitly
waived next to it (``certifier_waivers``) — an unsuppressed warning here
is a regression.
"""

import pytest

from repro.pipeline.offline import profiled_input_ranges
from repro.programs.analysis.certify import certify_slice
from repro.programs.instrument import Instrumenter
from repro.programs.interpreter import Interpreter
from repro.programs.slicer import Slicer
from repro.workloads.registry import app_names, get_app

INTERP = Interpreter()
N_JOBS = 60


def certified_app(name):
    app = get_app(name)
    inst = Instrumenter().instrument(app.task.program)
    sl = Slicer().slice(inst)
    inputs = app.inputs(N_JOBS, seed=3)
    cert = certify_slice(
        inst,
        sl,
        input_names=frozenset().union(*(frozenset(job) for job in inputs)),
        input_ranges=profiled_input_ranges(inputs, widen=0.5),
        waivers=app.certifier_waivers,
    )
    return app, inst, sl, inputs, cert


@pytest.mark.parametrize("name", app_names())
class TestWorkloadCertification:
    def test_slice_certifies(self, name):
        app, _, _, _, cert = certified_app(name)
        assert cert.certified, [d.format() for d in cert.blocking]
        # Global writes are acceptable only with a reviewed waiver.
        for diag in cert.diagnostics:
            if diag.severity == "warning":
                assert diag.suppressed, diag.format()
                assert diag.suppressed_reason

    def test_cost_bound_is_tight_and_sound(self, name):
        app, _, sl, inputs, cert = certified_app(name)
        assert cert.cost_bound_tight
        bound_cycles = (
            cert.cost_bound_instructions * INTERP.cycles_per_instruction
        )
        bound_mem_s = cert.cost_bound_mem_refs * INTERP.mem_seconds_per_ref
        globals_ = app.task.program.fresh_globals()
        for job in inputs:
            result = INTERP.execute_isolated(sl.program, job, globals_)
            assert result.work.cycles <= bound_cycles + 1e-6
            assert result.work.mem_time_s <= bound_mem_s + 1e-12

    def test_waivers_actually_match_a_finding(self, name):
        # A waiver that matches nothing is stale documentation.
        app, _, _, _, cert = certified_app(name)
        for waiver in app.certifier_waivers:
            assert any(
                waiver.matches(d) for d in cert.diagnostics
            ), f"stale waiver {waiver!r}"
