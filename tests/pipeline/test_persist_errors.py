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


#: A saved anchor model's field edited to a value that must not load:
#: case -> (model, field, new value from old).
MODEL_EDITS = {
    "nan-coef": ("model_fmax", "coef", lambda c: [math.nan, *c[1:]]),
    "inf-coef": ("model_fmax", "coef", lambda c: [c[0], math.inf, *c[2:]]),
    "string-coef": ("model_fmax", "coef", lambda c: ["0.001", *c[1:]]),
    "bool-coef": ("model_fmin", "coef", lambda c: [True, *c[1:]]),
    "short-coef": ("model_fmax", "coef", lambda c: c[:-1]),
    "nested-coef": ("model_fmin", "coef", lambda c: [c]),
    "string-intercept": ("model_fmax", "intercept", lambda _: "0.01"),
    "nan-intercept": ("model_fmin", "intercept", lambda _: math.nan),
    "nan-alpha": ("model_fmax", "alpha", lambda _: math.nan),
    "inf-gamma": ("model_fmin", "gamma", lambda _: math.inf),
}


def edit_model(case):
    """The payload edit of ``MODEL_EDITS[case]``."""
    model, key, change = MODEL_EDITS[case]

    def edit(payload):
        payload[model][key] = change(payload[model][key])

    return edit


class TestAnchorModels:
    """A saved anchor model is read by type: every one of these used to
    load, and then predicted NaN or inf, was coerced, or raised a numpy
    shape error mid-run."""

    @pytest.mark.parametrize("case", MODEL_EDITS)
    def test_rejects_naming_model_and_field(self, saved, tmp_path, case):
        model, field, _ = MODEL_EDITS[case]
        bad = corrupt(saved, tmp_path, edit_model(case))
        with pytest.raises(ValueError) as error:
            load_controller(bad)
        message = str(error.value)
        assert "\n" not in message
        assert message.startswith(f"saved controller: '{model}' {field}")

    def test_coef_count_follows_the_expansion(self, saved, tmp_path):
        """With ``model_degree`` 2 a model holds one coefficient per
        expanded term, not per encoder column."""

        def mutate(payload):
            payload["model_degree"] = 2

        with pytest.raises(ValueError, match="'model_fmax' coef must be"):
            load_controller(corrupt(saved, tmp_path, mutate))


#: A field of the saved OPP table's point 3 edited to a value that must
#: not load: case -> (field, value).  Cluster fields apply to the point
#: once it is made a cluster point (``as_cluster_point``).
OPP_EDITS = {
    "nan-voltage": ("voltage_v", math.nan),
    "bool-voltage": ("voltage_v", True),
    "zero-voltage": ("voltage_v", 0.0),
    "string-freq": ("freq_hz", "5e8"),
    "inf-freq": ("freq_hz", math.inf),
    "negative-freq": ("freq_hz", -5e8),
    "float-index": ("index", 3.0),
    "bool-index": ("index", True),
    "int-cluster": ("cluster", 7),
    "nan-real-freq": ("real_freq_hz", math.nan),
    "negative-c-eff": ("c_eff_farads", -1e-10),
    "bool-leak": ("i_leak_amps", False),
}

#: The cluster fields a point needs to load as a ClusterOperatingPoint.
CLUSTER_FIELDS = {
    "t": "cluster",
    "cluster": "A7",
    "real_freq_hz": 5e8,
    "c_eff_farads": 3e-10,
    "i_leak_amps": 0.05,
}


def edit_opp(field, value, cluster):
    """A payload edit setting point 3's ``field`` (after making it a
    cluster point when ``cluster``)."""

    def edit(payload):
        point = payload["opps"]["points"][3]
        if cluster:
            point.update(CLUSTER_FIELDS)
        point[field] = value

    return edit


class TestOppPoints:
    """A saved operating point is read by type: a NaN voltage used to
    load silently (``OppTable`` compares with ``<=``, false for NaN), and
    a bool loaded as 1."""

    @pytest.mark.parametrize("case", OPP_EDITS)
    def test_rejects_naming_point_and_field(self, saved, tmp_path, case):
        field, value = OPP_EDITS[case]
        cluster = field not in ("index", "freq_hz", "voltage_v")
        bad = corrupt(saved, tmp_path, edit_opp(field, value, cluster))
        with pytest.raises(ValueError) as error:
            load_controller(bad)
        message = str(error.value)
        assert "\n" not in message
        assert message.startswith(f"saved controller: 'opps' point 3 {field}")

    def test_replay_exits_2_with_one_line(self, saved, tmp_path, capsys):
        from repro.cli import main

        bad = corrupt(saved, tmp_path, edit_opp("voltage_v", math.nan, False))
        capsys.readouterr()
        assert main(["replay", str(tmp_path), str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"{bad}: saved controller: 'opps' point 3 voltage_v must be a "
            "finite number, got nan\n"
        )

    def test_valid_cluster_point_loads(self, saved, tmp_path):
        from repro.platform.biglittle import ClusterOperatingPoint

        good = corrupt(saved, tmp_path, edit_opp("cluster", "A7", True))
        point = load_controller(good).dvfs.opps[3]
        assert isinstance(point, ClusterOperatingPoint)
        assert (point.cluster, point.real_freq_hz) == ("A7", 5e8)


class TestConfigValues:
    """Every numeric ``PipelineConfig`` field is a finite real or an int
    (not a bool) within its bounds, also when it comes from a file."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", math.nan),
            ("gamma_rel", math.inf),
            ("margin", "0.1"),
            ("model_degree", 3),
            ("model_degree", 2.0),
            ("model_degree", True),
            ("n_profile_jobs", 40.0),
            ("profile_seed", 1.5),
            ("profile_jitter_sigma", -0.02),
            ("profile_jitter_sigma", math.nan),
            ("switch_samples", 0),
            ("switch_samples", 2.5),
            ("max_iter", 0),
            ("max_iter", 2.5),
            ("slice_marshal_base_instr", -1.0),
            ("slice_marshal_base_instr", math.nan),
            ("slice_marshal_per_var_instr", math.inf),
            ("certify_input_widen", math.nan),
            ("eval_n_jobs", True),
            ("eval_n_jobs_overrides", (("pocketsphinx", 2.5),)),
            ("eval_n_jobs_overrides", (("pocketsphinx", "40"),)),
            ("eval_n_jobs_overrides", (("pocketsphinx",),)),
        ],
        ids=repr,
    )
    def test_rejects_with_one_line(self, field, value):
        with pytest.raises(ValueError) as error:
            PipelineConfig(**{field: value})
        message = str(error.value)
        assert "\n" not in message and field in message

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", math.nan),
            ("max_iter", 2.5),
            ("model_degree", 3),
            ("profile_jitter_sigma", -0.5),
            ("eval_n_jobs_overrides", [["pocketsphinx", 2.5]]),
        ],
        ids=repr,
    )
    def test_saved_config_refused(self, saved, tmp_path, capsys, field, value):
        """A saved controller's config is checked as it loads, so
        ``repro replay`` exits 2 with one line naming the field."""
        from repro.cli import main

        bad = corrupt(
            saved, tmp_path, lambda p: p["config"].update({field: value})
        )
        with pytest.raises(ValueError, match=field):
            load_controller(bad)
        capsys.readouterr()
        assert main(["replay", str(tmp_path), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err

    def test_int_too_large_for_a_float(self, saved, tmp_path, capsys):
        """A JSON integer past float range is refused like NaN, not with
        an ``OverflowError`` traceback from ``repro replay``."""
        from repro.cli import main

        huge = 10**400
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            PipelineConfig(alpha=huge)
        assert PipelineConfig(profile_seed=huge).profile_seed == huge
        bad = corrupt(
            saved, tmp_path, lambda p: p["config"].update(alpha=huge)
        )
        capsys.readouterr()
        assert main(["replay", str(tmp_path), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "alpha" in err

    def test_valid_configs_unchanged(self, saved):
        config = load_controller(saved).config
        assert config == PipelineConfig(n_profile_jobs=40)
        listed = PipelineConfig(
            eval_n_jobs_overrides=[["sha", 3], ("rijndael", 9)]
        )
        assert listed.eval_n_jobs_overrides == (("sha", 3), ("rijndael", 9))
        assert PipelineConfig(alpha=10, margin=0).alpha == 10
