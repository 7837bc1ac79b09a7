"""Tests for the offline controller-generation pipeline."""

import numpy as np
import pytest

from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller
from repro.platform.cpu import SimulatedCpu
from repro.platform.opp import default_xu3_a7_table
from repro.platform.switching import SwitchLatencyModel
from repro.programs.interpreter import Interpreter
from repro.programs.ir import Block, walk
from repro.workloads.registry import get_app

OPPS = default_xu3_a7_table()


@pytest.fixture(scope="module")
def switch_table():
    return SwitchLatencyModel(OPPS).microbenchmark(samples_per_pair=30)


@pytest.fixture(scope="module")
def ldecode_controller(switch_table):
    return build_controller(
        get_app("ldecode"),
        opps=OPPS,
        config=PipelineConfig(n_profile_jobs=120),
        switch_table=switch_table,
    )


class TestConfig:
    def test_defaults_match_paper(self):
        config = PipelineConfig()
        assert config.alpha == 100.0
        assert config.margin == 0.10

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(gamma_rel=-1.0)
        with pytest.raises(ValueError):
            PipelineConfig(margin=-0.1)
        with pytest.raises(ValueError):
            PipelineConfig(n_profile_jobs=1)

    def test_hashable_for_caching(self):
        assert hash(PipelineConfig()) == hash(PipelineConfig())


class TestBuildController:
    def test_produces_all_artifacts(self, ldecode_controller):
        tc = ldecode_controller
        assert tc.app_name == "ldecode"
        assert len(tc.trace) == 120
        assert tc.encoder.is_fitted
        assert tc.predictor.needed_sites
        assert tc.slice.program.name == "ldecode_slice"

    def test_governor_construction(self, ldecode_controller):
        gov = ldecode_controller.governor()
        assert gov.name == "prediction"

    def test_predictions_track_actual_times(self, ldecode_controller):
        """On held-out inputs, raw predictions land close to actual."""
        tc = ldecode_controller
        app = get_app("ldecode")
        interp = Interpreter()
        cpu = SimulatedCpu()
        g = app.task.program.fresh_globals()
        rel_errors = []
        for inputs in app.inputs(60, seed=9999):
            result = interp.execute(tc.instrumented.program, inputs, g)
            actual = cpu.ideal_time(result.work, OPPS.fmax)
            predicted = tc.predictor.predict_raw(result.features).t_fmax_s
            rel_errors.append(abs(predicted - actual) / actual)
        assert float(np.mean(rel_errors)) < 0.15

    def test_predictions_skew_conservative(self, ldecode_controller):
        """alpha=100 training must over-predict far more than under."""
        tc = ldecode_controller
        app = get_app("ldecode")
        interp = Interpreter()
        cpu = SimulatedCpu()
        g = app.task.program.fresh_globals()
        under = 0
        total = 0
        for inputs in app.inputs(80, seed=31415):
            result = interp.execute(tc.instrumented.program, inputs, g)
            actual = cpu.ideal_time(result.work, OPPS.fmax)
            predicted = tc.predictor.predict_raw(result.features).t_fmax_s
            under += predicted < actual
            total += 1
        assert under / total < 0.2

    def test_slice_includes_marshal_overhead(self, ldecode_controller):
        blocks = [
            node
            for node in walk(ldecode_controller.slice.program.body)
            if isinstance(node, Block) and node.name == "slice_marshal"
        ]
        assert len(blocks) == 1
        assert blocks[0].instructions > 0

    def test_switch_table_reused_when_given(self, switch_table):
        tc = build_controller(
            get_app("sha"),
            opps=OPPS,
            config=PipelineConfig(n_profile_jobs=50),
            switch_table=switch_table,
        )
        assert tc.switch_table is switch_table

    def test_high_gamma_prunes_features(self, switch_table):
        sparse = build_controller(
            get_app("2048"),
            opps=OPPS,
            config=PipelineConfig(n_profile_jobs=120, gamma_rel=0.2),
            switch_table=switch_table,
        )
        dense = build_controller(
            get_app("2048"),
            opps=OPPS,
            config=PipelineConfig(n_profile_jobs=120, gamma_rel=0.0),
            switch_table=switch_table,
        )
        assert (
            sparse.predictor.n_selected_columns
            <= dense.predictor.n_selected_columns
        )
