"""Property-based certification over RANDOM programs.

Reuses the program generators from ``test_random_programs`` to check the
certifier's claims against ground truth on arbitrary IR:

- a slice the effects pass certifies side-effect-free leaves globals
  byte-identical even under NON-isolated execution (isolation is a
  containment measure; the static verdict must hold without it);
- the coverage verdict is honest: every covered site's feature counter
  matches the instrumented program's, for every input;
- the static cost bound dominates every actual slice execution drawn
  from the declared input ranges.
"""

import math

from hypothesis import given

from repro.programs.analysis.certify import certify_slice
from repro.programs.instrument import Instrumenter
from repro.programs.slicer import Slicer

from tests.programs.test_random_programs import (
    INPUT_VARS,
    INTERP,
    deep,
    program_and_inputs,
)

INPUT_RANGES = {name: (-5.0, 20.0) for name in INPUT_VARS}
INPUT_NAMES = frozenset(INPUT_VARS)


class TestCertifierProperties:
    @deep
    @given(pi=program_and_inputs())
    def test_random_slices_always_certify(self, pi):
        """Generated programs read only inputs and globals, so the
        name-based slicer can never drop a needed definition — the
        certifier must agree (warnings allowed, blockers not)."""
        program, _ = pi
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst)
        cert = certify_slice(inst, sl, input_names=INPUT_NAMES)
        assert cert.certified, [d.format() for d in cert.blocking]

    @deep
    @given(pi=program_and_inputs())
    def test_certified_side_effect_free_holds_without_isolation(self, pi):
        program, inputs = pi
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst)
        cert = certify_slice(inst, sl, input_names=INPUT_NAMES)
        if not cert.side_effect_free:
            return
        globals_ = program.fresh_globals()
        snapshot = dict(globals_)
        for job in inputs:
            # Deliberately NOT execute_isolated: the static verdict must
            # guarantee purity on its own.
            INTERP.execute(sl.program, job, globals_)
            assert globals_ == snapshot

    @deep
    @given(pi=program_and_inputs())
    def test_effects_verdict_never_misses_a_global_write(self, pi):
        """Converse direction: if running the slice CAN change globals,
        the certifier must not have called it side-effect-free."""
        program, inputs = pi
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst)
        cert = certify_slice(inst, sl, input_names=INPUT_NAMES)
        globals_ = program.fresh_globals()
        snapshot = dict(globals_)
        for job in inputs:
            INTERP.execute(sl.program, job, globals_)
        if globals_ != snapshot:
            assert not cert.side_effect_free

    @deep
    @given(pi=program_and_inputs())
    def test_covered_sites_match_instrumented_features(self, pi):
        program, inputs = pi
        inst = Instrumenter().instrument(program)
        labels = list(inst.site_labels)
        if not labels:
            return
        subset = frozenset(labels[: max(1, len(labels) // 2)])
        sl = Slicer().slice(inst, set(subset))
        cert = certify_slice(
            inst, sl, needed_sites=subset, input_names=INPUT_NAMES
        )
        assert cert.coverage_ok
        assert frozenset(cert.covered_sites) == subset
        globals_ = program.fresh_globals()
        for job in inputs:
            sliced = INTERP.execute_isolated(sl.program, job, globals_)
            full = INTERP.execute(inst.program, job, globals_)
            for site in cert.covered_sites:
                assert sliced.features.counter(site) == full.features.counter(
                    site
                )

    @deep
    @given(pi=program_and_inputs())
    def test_cost_bound_dominates_every_execution(self, pi):
        program, inputs = pi
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst)
        cert = certify_slice(
            inst, sl, input_names=INPUT_NAMES, input_ranges=INPUT_RANGES
        )
        assert math.isfinite(cert.cost_bound_instructions)
        bound_cycles = (
            cert.cost_bound_instructions * INTERP.cycles_per_instruction
        )
        bound_mem_s = cert.cost_bound_mem_refs * INTERP.mem_seconds_per_ref
        globals_ = program.fresh_globals()
        for job in inputs:
            result = INTERP.execute_isolated(sl.program, job, globals_)
            assert result.work.cycles <= bound_cycles + 1e-6
            assert result.work.mem_time_s <= bound_mem_s + 1e-9
