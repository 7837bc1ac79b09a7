"""Tests for controller persistence (paper §4.2 distribution format)."""

import pytest

from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller
from repro.pipeline.persist import (
    controller_fingerprint,
    load_controller,
    save_controller,
)
from repro.platform.biglittle import build_biglittle_platform
from repro.platform.board import Board
from repro.platform.opp import default_xu3_a7_table
from repro.platform.switching import SwitchLatencyModel
from repro.programs.interpreter import Interpreter
from repro.runtime.executor import TaskLoopRunner
from repro.workloads.registry import get_app

OPPS = default_xu3_a7_table()
INTERP = Interpreter()


@pytest.fixture(scope="module")
def controller():
    return build_controller(
        get_app("sha"),
        opps=OPPS,
        config=PipelineConfig(n_profile_jobs=60),
        switch_table=SwitchLatencyModel(OPPS).microbenchmark(20),
    )


@pytest.fixture(scope="module")
def full_slice_controller():
    """The slicing-off ablation's controller: a non-default slice_mode."""
    return build_controller(
        get_app("sha"),
        opps=OPPS,
        config=PipelineConfig(n_profile_jobs=60, slice_mode="full"),
        switch_table=SwitchLatencyModel(OPPS).microbenchmark(20),
    )


class TestRoundtrip:
    def test_save_load_metadata(
        self, controller, full_slice_controller, tmp_path
    ):
        for original in (controller, full_slice_controller):
            path = tmp_path / f"sha_{original.config.slice_mode}.json"
            save_controller(original, path)
            restored = load_controller(path)
            assert restored.app_name == "sha"
            assert restored.config == original.config
            assert restored.predictor.margin == original.predictor.margin

    def test_predictions_identical(self, controller, tmp_path):
        path = tmp_path / "c.json"
        save_controller(controller, path)
        restored = load_controller(path)
        app = get_app("sha")
        for inputs in app.inputs(20, seed=5):
            features = INTERP.execute_isolated(
                controller.slice.program, inputs, {}
            ).features
            a = controller.predictor.predict(features)
            b = restored.predictor.predict(features)
            assert b.t_fmax_s == pytest.approx(a.t_fmax_s, rel=1e-12)
            assert b.t_fmin_s == pytest.approx(a.t_fmin_s, rel=1e-12)

    def test_slice_behaviour_identical(self, controller, tmp_path):
        path = tmp_path / "c.json"
        save_controller(controller, path)
        restored = load_controller(path)
        app = get_app("sha")
        for inputs in app.inputs(10, seed=6):
            a = INTERP.execute_isolated(controller.slice.program, inputs, {})
            b = INTERP.execute_isolated(restored.slice.program, inputs, {})
            assert a.features.counters == b.features.counters
            assert a.work == b.work

    def test_switch_table_identical(self, controller, tmp_path):
        path = tmp_path / "c.json"
        save_controller(controller, path)
        restored = load_controller(path)
        for start in OPPS:
            for end in OPPS:
                assert restored.switch_table.time_s(
                    start, end
                ) == pytest.approx(controller.switch_table.time_s(start, end))

    def test_trace_is_not_saved(self, controller, tmp_path):
        path = tmp_path / "c.json"
        save_controller(controller, path)
        assert '"trace": null' in path.read_text()
        assert len(load_controller(path).trace) == 0

    def test_saved_trace_is_ignored_on_load(self, controller, tmp_path):
        """A file whose ``trace`` key holds profiled samples (as older
        versions wrote on request) loads, with an empty trace."""
        import json

        path = tmp_path / "c.json"
        save_controller(controller, path)
        payload = json.loads(path.read_text())
        payload["trace"] = json.dumps(
            [{"counters": {"x": 1.0}, "calls": {}, "t_fmax": 0.01,
              "t_fmin": 0.07}]
        )
        path.write_text(json.dumps(payload))
        restored = load_controller(path)
        assert len(restored.trace) == 0
        assert controller_fingerprint(restored) == controller_fingerprint(
            controller
        )

    def test_version_check(self, controller, tmp_path):
        import json

        path = tmp_path / "c.json"
        save_controller(controller, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_controller(path)


class TestDeployedBehaviour:
    def test_loaded_governor_runs_identically(self, controller, tmp_path):
        path = tmp_path / "c.json"
        save_controller(controller, path)
        restored = load_controller(path)
        app = get_app("sha")

        def run(tc):
            board = Board(opps=OPPS)
            runner = TaskLoopRunner(
                board,
                app.task,
                tc.governor(INTERP),
                app.inputs(30, seed=9),
                interpreter=INTERP,
            )
            return runner.run()

        a = run(controller)
        b = run(restored)
        assert a.energy_j == pytest.approx(b.energy_j)
        assert [j.opp_mhz for j in a.jobs] == [j.opp_mhz for j in b.jobs]


class TestHeterogeneousPersistence:
    def test_biglittle_controller_roundtrips(self, tmp_path):
        table, _, _ = build_biglittle_platform()
        controller = build_controller(
            get_app("xpilot"),
            opps=table,
            config=PipelineConfig(n_profile_jobs=40),
        )
        path = tmp_path / "bl.json"
        save_controller(controller, path)
        restored = load_controller(path)
        assert len(restored.dvfs.opps) == len(table)
        fastest = restored.dvfs.opps.fmax
        assert fastest.cluster == "A15"
        assert fastest.real_freq_hz == 2000e6

    def test_degree2_controller_roundtrips(self, tmp_path):
        controller = build_controller(
            get_app("xpilot"),
            opps=OPPS,
            config=PipelineConfig(n_profile_jobs=40, model_degree=2),
            switch_table=SwitchLatencyModel(OPPS).microbenchmark(10),
        )
        path = tmp_path / "d2.json"
        save_controller(controller, path)
        restored = load_controller(path)
        assert restored.predictor.expansion is not None
        app = get_app("xpilot")
        inputs = app.inputs(5, seed=2)[0]
        features = INTERP.execute_isolated(
            controller.slice.program, inputs, {}
        ).features
        assert restored.predictor.predict(
            features
        ).t_fmax_s == pytest.approx(
            controller.predictor.predict(features).t_fmax_s
        )
