"""Slice certification: run every analysis pass, produce one certificate.

:func:`certify_slice` is the single entry point the offline pipeline and
the ``repro check`` CLI call.  It runs, in order:

1. **validate** — structural checks on the slice tree (duplicate sites,
   cycles); name-level read checking is left to the hazards pass, whose
   reaching-definitions view also catches use-before-def orderings the
   set-based validator cannot see.
2. **effects** — the §3.2 purity rule (no observable global writes).
3. **coverage** — every non-zero-β model site is computed by the slice.
4. **hazards** — reads the name-based slicer left without a definition.
5. **liveness** — dead stores the slicer retained (wasted slice time).
6. **intervals** — worst-case instruction/mem-ref bound for the slice
   under the profiled input ranges.

The result is a :class:`SliceCertificate`: the pass list, the purity and
coverage verdicts, the static cost bound, and every diagnostic (waived
ones included, marked).  A certificate is *certified* iff no blocking
(unsuppressed error) diagnostic remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.programs.analysis.coverage import coverage_diagnostics
from repro.programs.analysis.diagnostics import (
    Diagnostic,
    Suppression,
    apply_suppressions,
)
from repro.programs.analysis.effects import effect_diagnostics
from repro.programs.analysis.hazards import (
    dead_store_diagnostics,
    hazard_diagnostics,
)
from repro.programs.analysis.intervals import cost_bound
from repro.programs.instrument import InstrumentedProgram
from repro.programs.slicer import PredictionSlice
from repro.programs.validate import validate_program

__all__ = ["ANALYSIS_PASSES", "SliceCertificate", "CertificationError",
           "certify_slice"]

#: Passes :func:`certify_slice` runs, in order.
ANALYSIS_PASSES = (
    "validate",
    "effects",
    "coverage",
    "hazards",
    "liveness",
    "intervals",
)


@dataclass(frozen=True)
class SliceCertificate:
    """Machine-checked facts about one prediction slice.

    Attributes:
        program_name: Name of the certified slice program.
        passes: Analysis passes that ran (in order).
        side_effect_free: True when the slice writes no task global.
        writes_globals: The globals it may write (empty when pure).
        coverage_ok: True when every model-needed site is computed.
        covered_sites: Needed sites the slice does compute (sorted).
        cost_bound_instructions: Static worst-case instruction count,
            ``inf`` when unbounded.
        cost_bound_mem_refs: Static worst-case memory references.
        cost_bound_tight: False when a loop bound came from the
            ``max_trips`` safety clamp — sound but not schedulable.
        diagnostics: Every finding, waived ones included.
    """

    program_name: str
    passes: tuple[str, ...]
    side_effect_free: bool
    writes_globals: tuple[str, ...]
    coverage_ok: bool
    covered_sites: tuple[str, ...]
    cost_bound_instructions: float
    cost_bound_mem_refs: float
    cost_bound_tight: bool
    diagnostics: tuple[Diagnostic, ...]

    @property
    def certified(self) -> bool:
        """No unsuppressed error-severity findings remain."""
        return not any(d.blocking for d in self.diagnostics)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe dict; non-finite bounds serialize as ``None``."""
        instr = self.cost_bound_instructions
        mem = self.cost_bound_mem_refs
        return {
            "program_name": self.program_name,
            "certified": self.certified,
            "passes": list(self.passes),
            "side_effect_free": self.side_effect_free,
            "writes_globals": list(self.writes_globals),
            "coverage_ok": self.coverage_ok,
            "covered_sites": list(self.covered_sites),
            "cost_bound_instructions": instr if math.isfinite(instr) else None,
            "cost_bound_mem_refs": mem if math.isfinite(mem) else None,
            "cost_bound_tight": self.cost_bound_tight,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SliceCertificate":
        instr = data["cost_bound_instructions"]
        mem = data["cost_bound_mem_refs"]
        return cls(
            program_name=data["program_name"],
            passes=tuple(data["passes"]),
            side_effect_free=data["side_effect_free"],
            writes_globals=tuple(data["writes_globals"]),
            coverage_ok=data["coverage_ok"],
            covered_sites=tuple(data["covered_sites"]),
            cost_bound_instructions=math.inf if instr is None else instr,
            cost_bound_mem_refs=math.inf if mem is None else mem,
            cost_bound_tight=data["cost_bound_tight"],
            diagnostics=tuple(
                Diagnostic.from_dict(d) for d in data["diagnostics"]
            ),
        )


class CertificationError(RuntimeError):
    """Raised by the pipeline (certify="error") for uncertified slices."""

    def __init__(self, certificate: SliceCertificate):
        self.certificate = certificate
        findings = "; ".join(
            d.format() for d in certificate.diagnostics if d.blocking
        )
        super().__init__(
            f"slice {certificate.program_name!r} failed certification: "
            f"{findings}"
        )


def certify_slice(
    instrumented: InstrumentedProgram,
    slice_: PredictionSlice,
    needed_sites: frozenset[str] | None = None,
    *,
    input_names: frozenset[str],
    input_ranges: Mapping[str, tuple[float, float]] | None = None,
    waivers: Sequence[Suppression] = (),
) -> SliceCertificate:
    """Run every analysis pass over a prediction slice.

    Args:
        instrumented: The instrumented full program the slice came from
            (used to classify dropped-definition hazards).
        slice_: The slice to certify.
        needed_sites: Feature sites the trained model actually reads
            (non-zero β).  Defaults to every site the slice kept — i.e.
            coverage trivially passes when no model is involved yet.
        input_names: The program's declared input names (for the unbound
            vs dropped-definition distinction).
        input_ranges: Per-input (lo, hi) value ranges, e.g. from the
            profiling sample, for the interval cost bound.
        waivers: Reviewed suppressions (typically the workload's
            ``certifier_waivers``).
    """
    program = slice_.program
    name = program.name
    diagnostics: list[Diagnostic] = []

    try:
        validate_program(program)
    except ValueError as exc:
        diagnostics.append(
            Diagnostic(
                pass_name="validate",
                severity="error",
                site="",
                message=str(exc),
                program=name,
            )
        )

    report, effect_diags = effect_diagnostics(program, program_name=name)
    diagnostics += effect_diags

    needed = slice_.needed_sites if needed_sites is None else needed_sites
    covered, coverage_diags = coverage_diagnostics(
        program.body, frozenset(needed), program_name=name
    )
    diagnostics += coverage_diags

    diagnostics += hazard_diagnostics(
        program,
        original=instrumented.program,
        input_names=input_names,
        program_name=name,
    )
    diagnostics += dead_store_diagnostics(program, program_name=name)

    bound, bound_diags = cost_bound(
        program, input_ranges=input_ranges, program_name=name
    )
    diagnostics += bound_diags

    return SliceCertificate(
        program_name=name,
        passes=ANALYSIS_PASSES,
        side_effect_free=report.side_effect_free,
        writes_globals=tuple(sorted(report.may_write_globals)),
        coverage_ok=not any(
            d.pass_name == "coverage" and d.severity == "error"
            for d in diagnostics
        ),
        covered_sites=tuple(sorted(covered)),
        cost_bound_instructions=bound.instructions,
        cost_bound_mem_refs=bound.mem_refs,
        cost_bound_tight=bound.tight,
        diagnostics=tuple(apply_suppressions(diagnostics, tuple(waivers))),
    )
