"""Certification in the offline pipeline and its persistence."""

import dataclasses

import pytest

from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller, profiled_input_ranges
from repro.pipeline.persist import load_controller, save_controller
from repro.programs.analysis.certify import (
    ANALYSIS_PASSES,
    CertificationError,
    SliceCertificate,
)
from repro.programs.analysis.diagnostics import Diagnostic
from repro.workloads.registry import get_app

FAST = dict(n_profile_jobs=40, switch_samples=2)


@pytest.fixture(scope="module")
def controller():
    return build_controller(get_app("sha"), config=PipelineConfig(**FAST))


def failing_certificate():
    return SliceCertificate(
        program_name="sha_slice",
        passes=ANALYSIS_PASSES,
        side_effect_free=True,
        writes_globals=(),
        coverage_ok=False,
        covered_sites=(),
        cost_bound_instructions=1.0,
        cost_bound_mem_refs=0.0,
        cost_bound_tight=True,
        diagnostics=(
            Diagnostic(
                pass_name="coverage",
                severity="error",
                site="ghost",
                message="model site not computed",
            ),
        ),
    )


class TestPipelineCertification:
    def test_default_pipeline_attaches_certificate(self, controller):
        cert = controller.certificate
        assert cert is not None
        assert cert.certified
        assert cert.cost_bound_tight
        assert cert.passes == ANALYSIS_PASSES

    def test_governor_inherits_certificate(self, controller):
        governor = controller.governor()
        assert governor.certificate is controller.certificate
        assert governor.slice_bound_work() is not None

    def test_certify_off_skips_analysis(self):
        config = PipelineConfig(certify="off", **FAST)
        controller = build_controller(get_app("sha"), config=config)
        assert controller.certificate is None
        assert controller.governor().slice_bound_work() is None

    def test_error_mode_raises_on_uncertified_slice(self, monkeypatch):
        monkeypatch.setattr(
            "repro.pipeline.offline.certify_slice",
            lambda *args, **kwargs: failing_certificate(),
        )
        with pytest.raises(CertificationError, match="coverage"):
            build_controller(get_app("sha"), config=PipelineConfig(**FAST))

    def test_warn_mode_warns_and_keeps_certificate(self, monkeypatch):
        monkeypatch.setattr(
            "repro.pipeline.offline.certify_slice",
            lambda *args, **kwargs: failing_certificate(),
        )
        config = PipelineConfig(certify="warn", **FAST)
        with pytest.warns(UserWarning, match="failed certification"):
            controller = build_controller(get_app("sha"), config=config)
        assert controller.certificate is not None
        assert not controller.certificate.certified

    def test_invalid_certify_mode_rejected(self):
        with pytest.raises(ValueError, match="certify"):
            PipelineConfig(certify="maybe")
        with pytest.raises(ValueError):
            PipelineConfig(certify_input_widen=-0.1)


class TestProfiledInputRanges:
    def test_envelopes_the_sample(self):
        ranges = profiled_input_ranges([{"a": 1, "b": 7}, {"a": 5, "b": -2}])
        assert ranges == {"a": (1.0, 5.0), "b": (-2.0, 7.0)}

    def test_widen_stretches_by_span_fraction(self):
        ranges = profiled_input_ranges([{"a": 1}, {"a": 5}], widen=0.5)
        assert ranges["a"] == (-1.0, 7.0)

    def test_constant_input_widens_by_magnitude(self):
        ranges = profiled_input_ranges([{"a": 4}], widen=0.5)
        assert ranges["a"] == (2.0, 6.0)


class TestCertificatePersistence:
    def test_round_trip(self, controller, tmp_path):
        path = tmp_path / "controller.json"
        save_controller(controller, path)
        loaded = load_controller(path)
        assert loaded.certificate == controller.certificate
        assert loaded.config.certify == controller.config.certify
        assert (
            loaded.config.certify_input_widen
            == controller.config.certify_input_widen
        )
        assert loaded.governor().slice_bound_work() is not None

    def test_round_trip_without_certificate(self, controller, tmp_path):
        path = tmp_path / "bare.json"
        bare = dataclasses.replace(controller, certificate=None)
        save_controller(bare, path)
        assert load_controller(path).certificate is None
