"""Error handling for the controller persistence format."""

import json
import math

import pytest

from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller
from repro.pipeline.persist import load_controller, save_controller
from repro.platform.opp import default_xu3_a7_table
from repro.platform.switching import SwitchLatencyModel
from repro.workloads.registry import get_app

OPPS = default_xu3_a7_table()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    controller = build_controller(
        get_app("xpilot"),
        opps=OPPS,
        config=PipelineConfig(n_profile_jobs=40),
        switch_table=SwitchLatencyModel(OPPS).microbenchmark(10),
    )
    path = tmp_path_factory.mktemp("persist") / "c.json"
    save_controller(controller, path)
    return path


def corrupt(path, tmp_path, mutate):
    payload = json.loads(path.read_text())
    mutate(payload)
    out = tmp_path / "corrupt.json"
    out.write_text(json.dumps(payload))
    return out


class TestCorruptFiles:
    def test_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not json {")
        with pytest.raises(json.JSONDecodeError):
            load_controller(bad)

    def test_missing_version(self, saved, tmp_path):
        bad = corrupt(saved, tmp_path, lambda p: p.pop("format_version"))
        with pytest.raises(ValueError, match="version"):
            load_controller(bad)

    def test_unknown_statement_tag(self, saved, tmp_path):
        def mutate(p):
            p["slice"]["program"]["body"]["t"] = "Goto"

        bad = corrupt(saved, tmp_path, mutate)
        with pytest.raises(ValueError, match="Goto"):
            load_controller(bad)

    def test_column_site_mismatch(self, saved, tmp_path):
        def mutate(p):
            p["encoder_columns"][0]["site"] = "ghost_site"

        bad = corrupt(saved, tmp_path, mutate)
        with pytest.raises(ValueError, match="unknown site"):
            load_controller(bad)

    def test_negative_switch_time(self, saved, tmp_path):
        def mutate(p):
            key = next(iter(p["switch_table"]))
            p["switch_table"][key] = -1.0

        bad = corrupt(saved, tmp_path, mutate)
        with pytest.raises(ValueError, match="negative"):
            load_controller(bad)

    def test_unknown_config_key(self, saved, tmp_path):
        bad = corrupt(saved, tmp_path, lambda p: p["config"].update(bogus=1))
        with pytest.raises(ValueError, match="bogus"):
            load_controller(bad)

    @pytest.mark.parametrize(
        "margin", ["0.1", True, math.nan], ids=["string", "bool", "nan"]
    )
    def test_margin_not_a_finite_number(self, saved, tmp_path, margin):
        bad = corrupt(saved, tmp_path, lambda p: p.update(margin=margin))
        with pytest.raises(ValueError) as error:
            load_controller(bad)
        assert str(error.value) == (
            "saved controller: 'margin' must be a finite number, "
            f"got {margin!r}"
        )

    def test_valid_file_still_loads(self, saved):
        controller = load_controller(saved)
        assert controller.app_name == "xpilot"
