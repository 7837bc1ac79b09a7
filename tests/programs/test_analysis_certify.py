"""Diagnostics, suppressions, and the certificate entry point."""

import math

import pytest

from repro.programs.analysis.certify import (
    ANALYSIS_PASSES,
    CertificationError,
    SliceCertificate,
    certify_slice,
)
from repro.programs.analysis.coverage import counted_sites
from repro.programs.analysis.diagnostics import (
    Diagnostic,
    Suppression,
    apply_suppressions,
    max_severity,
)
from repro.programs.expr import Compare, Const, Var
from repro.programs.instrument import Instrumenter
from repro.programs.ir import Assign, Block, If, Loop, Program, Seq
from repro.programs.slicer import PredictionSlice, Slicer


def toy_program(globals_init=None):
    return Program(
        "toy",
        Seq(
            [
                Assign("n", Var("in_a") * Var("in_b")),
                If(
                    "branch",
                    Compare("==", Var("in_c"), Const(1)),
                    Block(1000, 10),
                    Block(10, 1),
                ),
                Loop("iters", Var("n"), Block(100, 1)),
            ]
        ),
        globals_init=dict(globals_init or {}),
    )


def toy_slice():
    inst = Instrumenter().instrument(toy_program())
    return inst, Slicer().slice(inst)


class TestDiagnostic:
    def test_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic(pass_name="effects", severity="fatal", site="", message="m")
        with pytest.raises(ValueError, match="pass name"):
            Diagnostic(pass_name="", severity="error", site="", message="m")

    def test_round_trip(self):
        diag = Diagnostic(
            pass_name="hazards",
            severity="error",
            site="x",
            message="boom",
            program="toy",
            suppressed=True,
            suppressed_reason="reviewed",
        )
        assert Diagnostic.from_dict(diag.as_dict()) == diag
        assert diag.as_dict()["pass"] == "hazards"

    def test_blocking_only_for_unsuppressed_errors(self):
        error = Diagnostic(pass_name="p", severity="error", site="", message="m")
        assert error.blocking
        assert not Diagnostic(
            pass_name="p", severity="warning", site="", message="m"
        ).blocking
        waived = apply_suppressions(
            [error], (Suppression("p", reason="accepted"),)
        )[0]
        assert not waived.blocking
        assert waived.suppressed_reason == "accepted"

    def test_format_marks_waived(self):
        diag = Diagnostic(
            pass_name="effects",
            severity="warning",
            site="g",
            message="writes g",
            suppressed=True,
            suppressed_reason="ok",
        )
        rendered = diag.format()
        assert "@g" in rendered and "[waived]" in rendered


class TestSuppression:
    def test_reason_required(self):
        with pytest.raises(ValueError, match="reason"):
            Suppression("effects", site="g")

    def test_site_wildcard(self):
        any_site = Suppression("effects", reason="r")
        pinned = Suppression("effects", site="g", reason="r")
        diag = Diagnostic(
            pass_name="effects", severity="warning", site="h", message="m"
        )
        assert any_site.matches(diag)
        assert not pinned.matches(diag)

    def test_apply_never_drops_findings(self):
        diags = [
            Diagnostic(pass_name="effects", severity="warning", site="g", message="m"),
            Diagnostic(pass_name="coverage", severity="error", site="s", message="m"),
        ]
        out = apply_suppressions(diags, (Suppression("effects", reason="r"),))
        assert len(out) == 2
        assert out[0].suppressed and not out[1].suppressed

    def test_max_severity(self):
        diags = apply_suppressions(
            [
                Diagnostic(pass_name="a", severity="error", site="", message="m"),
                Diagnostic(pass_name="b", severity="info", site="", message="m"),
            ],
            (Suppression("a", reason="r"),),
        )
        assert max_severity(diags) == "info"
        assert max_severity(diags, include_suppressed=True) == "error"
        assert max_severity([]) is None


class TestCertifySlice:
    def test_clean_slice_certifies(self):
        inst, sl = toy_slice()
        cert = certify_slice(inst, sl)
        assert cert.certified
        assert cert.passes == ANALYSIS_PASSES
        assert cert.side_effect_free and cert.writes_globals == ()
        assert cert.coverage_ok
        assert set(cert.covered_sites) == set(counted_sites(sl.program.body))
        # The slicer hoists the loop counter (Fig. 8), so the bound is
        # tight even with no input ranges: branch (1+1 counter) +
        # hoisted counter (1) + the Assign feeding the trip count (2).
        assert cert.cost_bound_tight
        assert cert.cost_bound_instructions == 5

    def test_dropped_definition_blocks_certification(self):
        inst, _ = toy_slice()
        # A hand-broken slice: keeps the loop (reads ``n``) but lost the
        # assignment that defines it — the §3.2 hazard proper.
        broken = PredictionSlice(
            program=Program(
                "toy_slice",
                Seq([Loop("iters", Var("n"), Block(0), counted=True)]),
            ),
            needed_sites=frozenset({"iters"}),
            relevant_vars=frozenset({"n"}),
        )
        cert = certify_slice(inst, broken)
        assert not cert.certified
        blocking = cert.blocking
        assert [d.pass_name for d in blocking] == ["hazards"]
        assert blocking[0].site == "n"
        assert "dropped" in blocking[0].message

    def test_unbound_read_classified_as_typo(self):
        inst, _ = toy_slice()
        broken = PredictionSlice(
            program=Program(
                "toy_slice",
                Seq([Loop("iters", Var("typo_nn"), Block(0), counted=True)]),
            ),
            needed_sites=frozenset({"iters"}),
            relevant_vars=frozenset(),
        )
        cert = certify_slice(inst, broken)
        assert not cert.certified
        assert "neither an input" in cert.blocking[0].message

    def test_missing_model_site_blocks(self):
        inst, sl = toy_slice()
        cert = certify_slice(
            inst, sl, needed_sites=frozenset({"branch", "ghost_site"})
        )
        assert not cert.certified and not cert.coverage_ok
        assert any(
            d.pass_name == "coverage" and d.site == "ghost_site"
            for d in cert.blocking
        )
        assert "branch" in cert.covered_sites

    def test_extra_sites_are_advisory_only(self):
        inst, sl = toy_slice()
        cert = certify_slice(inst, sl, needed_sites=frozenset({"branch"}))
        assert cert.certified and cert.coverage_ok
        infos = [d for d in cert.diagnostics if d.pass_name == "coverage"]
        assert infos and all(d.severity == "info" for d in infos)

    def test_global_write_warns_and_waives(self):
        program = Program(
            "stateful",
            Seq(
                [
                    Assign("g_s", Var("in_a")),
                    Loop("l", Var("g_s"), Block(100), counted=True),
                ]
            ),
            globals_init={"g_s": 0},
        )
        inst = Instrumenter().instrument(program)
        sl = Slicer().slice(inst)
        ranges = {"in_a": (0, 10)}
        cert = certify_slice(inst, sl, input_ranges=ranges)
        assert not cert.side_effect_free
        assert cert.writes_globals == ("g_s",)
        assert cert.certified  # warnings never block on their own
        assert max_severity(cert.diagnostics) == "warning"
        waived = certify_slice(
            inst,
            sl,
            input_ranges=ranges,
            waivers=(
                Suppression("effects", site="g_s", reason="feature dependence"),
            ),
        )
        assert max_severity(waived.diagnostics) in (None, "info")
        assert any(d.suppressed for d in waived.diagnostics)

    def test_dead_store_reported_as_info(self):
        inst, _ = toy_slice()
        wasteful = PredictionSlice(
            program=Program(
                "toy_slice",
                Seq(
                    [
                        Assign("unused", Var("in_a")),
                        If(
                            "branch",
                            Compare("==", Var("in_c"), Const(1)),
                            Block(0),
                            counted=True,
                        ),
                    ]
                ),
            ),
            needed_sites=frozenset({"branch"}),
            relevant_vars=frozenset(),
        )
        cert = certify_slice(inst, wasteful)
        assert cert.certified
        assert any(
            d.pass_name == "liveness" and d.site == "unused"
            for d in cert.diagnostics
        )

    def test_certificate_round_trip(self):
        inst, sl = toy_slice()
        cert = certify_slice(
            inst,
            sl,
            input_ranges={"in_a": (0, 5), "in_b": (0, 5), "in_c": (0, 1)},
            waivers=(Suppression("coverage", reason="r"),),
        )
        assert SliceCertificate.from_dict(cert.as_dict()) == cert

    def test_round_trip_preserves_unbounded_cost(self):
        inst, sl = toy_slice()
        cert = certify_slice(inst, sl)  # no ranges: loose (finite) bound
        unbounded = SliceCertificate(
            **{
                **cert.__dict__,
                "cost_bound_instructions": math.inf,
                "cost_bound_mem_refs": math.inf,
            }
        )
        data = unbounded.as_dict()
        assert data["cost_bound_instructions"] is None
        restored = SliceCertificate.from_dict(data)
        assert restored.cost_bound_instructions == math.inf
        assert restored == unbounded

    def test_certification_error_names_findings(self):
        inst, _ = toy_slice()
        broken = PredictionSlice(
            program=Program(
                "toy_slice",
                Seq([Loop("iters", Var("n"), Block(0), counted=True)]),
            ),
            needed_sites=frozenset({"iters"}),
            relevant_vars=frozenset({"n"}),
        )
        cert = certify_slice(inst, broken)
        err = CertificationError(cert)
        assert err.certificate is cert
        assert "toy_slice" in str(err) and "hazards" in str(err)
