"""Decision provenance: attribution, deterministic replay, decision diffing.

Covers the three pillars of ``repro.telemetry.provenance`` plus the
schema-v2 audit-log compatibility guarantees:

- attribution payloads whose per-feature contributions sum to the
  recorded predicted time within 1e-9 (and a hypothesis property test of
  the underlying anchor-term identity);
- bit-exact replay of recorded frequency decisions, in-process and
  across two processes (the CLI in a subprocess) on crc32-seeded
  rijndael and 2048 traces;
- counterfactual knobs (margin / budget / substituted beta);
- divergence classification, unit-level and on an injected-drift pair;
- forward/backward schema tolerance and graceful report degradation.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.experiments import drift_adaptation
from repro.analysis.harness import Lab
from repro.pipeline.persist import load_controller, save_controller
from repro.telemetry.exporters import TraceSession
from repro.telemetry.audit import (
    SCHEMA_VERSION,
    AnchorSnapshot,
    DecisionAttribution,
    DecisionRecord,
    read_decisions_jsonl,
)
from repro.telemetry.provenance import (
    _anchor_terms,
    beta_from_controller_payload,
    diff_decisions,
    load_run_decisions,
    predict_anchor,
    render_diff,
    render_explanation,
    render_replay,
    replay_records,
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def traced_lab(tmp_path_factory):
    """One Lab with traced rijndael and 2048 prediction runs."""
    directory = tmp_path_factory.mktemp("prov-trace")
    lab = Lab(switch_samples=30, trace_session=TraceSession(directory))
    lab.run("rijndael", "prediction", n_jobs=40)
    lab.run("2048", "prediction", n_jobs=40)
    lab.trace_session.flush()
    return directory, lab


@pytest.fixture(scope="module")
def rijndael_records(traced_lab):
    directory, _ = traced_lab
    records, warnings = read_decisions_jsonl(
        directory / "rijndael.prediction.decisions.jsonl"
    )
    assert warnings == []
    return records


@pytest.fixture(scope="module")
def traced_adaptive(tmp_path_factory):
    """A traced adaptive run: online-recalibrated anchor snapshots."""
    directory = tmp_path_factory.mktemp("prov-adaptive")
    lab = Lab(switch_samples=30, trace_session=TraceSession(directory))
    lab.run("sha", "adaptive", n_jobs=40)
    lab.trace_session.flush()
    records, warnings = read_decisions_jsonl(
        directory / "sha.adaptive.decisions.jsonl"
    )
    assert warnings == []
    return lab, records


class TestAttributionCapture:
    def test_every_predictive_decision_is_attributed(self, rijndael_records):
        assert rijndael_records
        for record in rijndael_records:
            assert record.attribution is not None, record.job_index
            assert record.ladder, record.job_index

    def test_contributions_sum_to_predicted_time(self, rijndael_records):
        for record in rijndael_records:
            att = record.attribution
            total = sum(att.contributions_s) + att.intercept_s + att.adjustment_s
            assert abs(total - record.predicted_time_s) <= 1e-9
            # The closing adjustment must be rounding-sized, not a fudge
            # hiding a wrong decomposition.
            assert abs(att.adjustment_s) <= 1e-9

    def test_feature_vector_matches_columns(self, rijndael_records):
        for record in rijndael_records:
            att = record.attribution
            assert len(att.columns) == len(att.x) == len(att.contributions_s)
            assert att.anchor_fmax.kind == "offline"
            assert att.anchor_fmin.kind == "offline"
            assert record.beta_generation == 0

    def test_ladder_covers_every_opp_with_one_chosen(
        self, traced_lab, rijndael_records
    ):
        _, lab = traced_lab
        freqs = tuple(p.freq_mhz for p in lab.opps)
        for record in rijndael_records:
            assert tuple(r.freq_mhz for r in record.ladder) == freqs
            chosen = [r for r in record.ladder if r.chosen]
            assert len(chosen) == 1
            assert chosen[0].freq_mhz == record.opp_mhz

    def test_budget_fields_recorded(self, traced_lab, rijndael_records):
        _, lab = traced_lab
        budget = lab.app("rijndael").task.budget_s
        for record in rijndael_records:
            att = record.attribution
            assert att.budget_s == budget
            assert not math.isnan(att.deadline_s)
            assert not math.isnan(att.switch_estimate_s)
            # effective budget = budget - slice time - switch - reserve,
            # so it can never exceed the full budget.
            assert record.effective_budget_s <= budget

    def test_predict_span_carries_budget_breakdown(
        self, traced_lab, rijndael_records
    ):
        directory, _ = traced_lab
        trace = json.loads(
            (directory / "rijndael.prediction.trace.json").read_text()
        )
        spans = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == "predict"
        ]
        assert spans
        args = spans[0]["args"]
        for key in (
            "opp_index",
            "opp_mhz",
            "budget_s",
            "slice_time_s",
            "switch_estimate_s",
            "effective_budget_s",
            "margin",
        ):
            assert key in args, key
        assert args["effective_budget_s"] <= args["budget_s"]
        # The span reports the effective budget the governor decided
        # with, certified reservation included, on every job.
        span_budget = {
            span["args"]["job"]: span["args"]["effective_budget_s"]
            for span in spans
        }
        audited = [
            r for r in rijndael_records if not math.isnan(r.effective_budget_s)
        ]
        assert any(r.mode == "certified" for r in audited)
        assert len(audited) == len(spans)
        for record in audited:
            assert span_budget[record.job_index] == record.effective_budget_s

    def test_render_explanation_readable(self, rijndael_records):
        text = render_explanation(rijndael_records[0])
        assert "prediction decomposition" in text
        assert "frequency ladder" in text
        assert "<== chosen" in text


class TestSchemaRoundTripAndCompat:
    def test_jsonl_round_trip_is_lossless(self, rijndael_records):
        for record in rijndael_records:
            payload = json.loads(json.dumps(record.as_dict()))
            assert payload["version"] == SCHEMA_VERSION
            assert DecisionRecord.from_dict(payload) == record

    def test_v1_record_parses_with_defaults(self):
        v1 = {
            "job_index": 7,
            "t_s": 0.35,
            "governor": "prediction",
            "opp_mhz": 800.0,
            "predicted_time_s": 0.045,
            "effective_budget_s": None,
            "margin": 0.1,
            "mode": "predict",
            "features": {"rounds": 10.0},
        }
        record = DecisionRecord.from_dict(v1)
        assert record.job_index == 7
        assert record.attribution is None
        assert record.ladder == ()
        assert record.beta_generation == -1
        assert math.isnan(record.effective_budget_s)

    def test_unknown_keys_from_newer_minor_are_ignored(self):
        payload = DecisionRecord(
            job_index=1, t_s=0.0, governor="g", opp_mhz=200.0
        ).as_dict()
        payload["some_future_field"] = {"nested": True}
        record = DecisionRecord.from_dict(payload)
        assert record.job_index == 1

    def test_newer_schema_version_warns_not_raises(self, tmp_path):
        log = tmp_path / "x.decisions.jsonl"
        future = DecisionRecord(
            job_index=0, t_s=0.0, governor="g", opp_mhz=200.0
        ).as_dict()
        future["version"] = SCHEMA_VERSION + 5
        log.write_text(json.dumps(future) + "\nnot json at all\n")
        records, warnings = read_decisions_jsonl(log)
        assert len(records) == 1
        assert any("newer" in w for w in warnings)
        assert any("unreadable record" in w for w in warnings)

    def test_missing_log_warns_not_raises(self, tmp_path):
        records, warnings = read_decisions_jsonl(tmp_path / "gone.jsonl")
        assert records == []
        assert warnings and "older trace" in warnings[0]


class TestAnchorTermIdentity:
    """Property test: per-feature terms sum to the anchor prediction."""

    @staticmethod
    def _check(snapshot, x):
        terms, intercept = _anchor_terms(snapshot, np.asarray(x, dtype=float))
        predicted = predict_anchor(snapshot, x)
        # Tolerance scales with the term magnitudes: the decomposition can
        # cancel catastrophically even when the prediction itself is tiny.
        scale = max(1.0, abs(predicted), float(np.abs(terms).sum()))
        assert abs(float(terms.sum()) + intercept - predicted) <= 1e-9 * scale

    @given(
        coef=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=8
        ),
        intercept=st.floats(-1e3, 1e3, allow_nan=False),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_offline_and_online_pre(self, coef, intercept, data):
        x = data.draw(
            st.lists(
                st.floats(-1e3, 1e3, allow_nan=False),
                min_size=len(coef),
                max_size=len(coef),
            )
        )
        for kind in ("offline", "online-pre"):
            self._check(
                AnchorSnapshot(
                    kind=kind, coef=tuple(coef), intercept=intercept
                ),
                x,
            )

    @given(
        theta=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=9
        ),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_online_design_space(self, theta, data):
        n = len(theta) - 1
        x = data.draw(
            st.lists(
                st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n
            )
        )
        scales = data.draw(
            st.lists(st.floats(0.5, 1e3), min_size=n, max_size=n)
        )
        self._check(
            AnchorSnapshot(
                kind="online",
                coef=tuple(theta),
                intercept=0.0,
                scales=tuple(scales),
            ),
            x,
        )


class TestReplay:
    def test_replay_is_bit_exact(self, traced_lab, rijndael_records):
        _, lab = traced_lab
        dvfs = lab.controller("rijndael").dvfs
        result = replay_records(rijndael_records, dvfs, run="rijndael")
        assert result.total == len(rijndael_records)
        assert result.replayed == result.total
        assert result.skipped == ()
        assert result.matched == result.total
        assert not result.counterfactual
        assert "bit-exact" in render_replay(result)

    def test_adaptive_replay_is_bit_exact(self, traced_adaptive):
        lab, records = traced_adaptive
        result = replay_records(records, lab.controller("sha").dvfs)
        replayable = [r for r in records if r.attribution is not None]
        assert result.matched == result.replayed == len(replayable)
        kinds = {r.attribution.anchor_fmax.kind for r in replayable}
        assert "online" in kinds
        generations = [r.beta_generation for r in replayable]
        assert generations == sorted(generations)
        assert generations[-1] > 0

    def test_counterfactual_budget_squeezes_to_fmax(
        self, traced_lab, rijndael_records
    ):
        _, lab = traced_lab
        dvfs = lab.controller("rijndael").dvfs
        result = replay_records(rijndael_records, dvfs, budget=0.001)
        assert result.counterfactual
        # A 1 ms budget is unmeetable: every decision saturates at fmax.
        assert all(
            d.replayed_opp_mhz == lab.opps.fmax.freq_mhz
            for d in result.decisions
        )

    def test_counterfactual_budget_relaxes_to_fmin(
        self, traced_lab, rijndael_records
    ):
        _, lab = traced_lab
        dvfs = lab.controller("rijndael").dvfs
        result = replay_records(rijndael_records, dvfs, budget=10.0)
        assert result.counterfactual
        assert all(
            d.replayed_opp_mhz == lab.opps.fmin.freq_mhz
            for d in result.decisions
        )
        assert "counterfactual re-score" in render_replay(result)

    def test_counterfactual_same_beta_changes_nothing(
        self, traced_lab, rijndael_records, tmp_path
    ):
        _, lab = traced_lab
        controller = lab.controller("rijndael")
        path = tmp_path / "ctrl.json"
        save_controller(controller, path)
        beta = beta_from_controller_payload(json.loads(path.read_text()))
        result = replay_records(rijndael_records, controller.dvfs, beta=beta)
        assert result.counterfactual
        assert result.changed == ()

    def test_replay_across_two_processes(self, traced_lab, tmp_path):
        """The acceptance bar: `repro replay` in a fresh interpreter
        reproduces 100% of recorded decisions bit-exactly."""
        directory, lab = traced_lab
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        for app in ("rijndael", "2048"):
            ctrl = tmp_path / f"ctrl-{app}.json"
            save_controller(lab.controller(app), ctrl)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "replay",
                    str(directory),
                    str(ctrl),
                    "--run",
                    f"{app}.prediction",
                    "--json",
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            (payload,) = json.loads(proc.stdout)
            assert payload["total"] == 40
            assert payload["replayed"] == payload["total"]
            assert payload["matched"] == payload["total"]
            assert payload["mismatches"] == []

    def test_saved_controller_round_trips_fingerprint(
        self, traced_lab, tmp_path
    ):
        _, lab = traced_lab
        path = tmp_path / "ctrl.json"
        save_controller(lab.controller("rijndael"), path)
        payload = json.loads(path.read_text())
        assert len(payload["fingerprint"]) == 16
        # load_controller tolerates (ignores) the fingerprint field.
        controller = load_controller(path)
        assert controller.app_name == "rijndael"


def _record(job=0, opp=800.0, mode="predict", margin=0.1, governor="prediction",
            x=(1.0, 2.0), generation=0, switch=0.001, eff=0.05, coef=(0.5, 0.25)):
    snap = AnchorSnapshot(kind="offline", coef=coef, intercept=0.01)
    att = DecisionAttribution(
        columns=("a", "b"),
        x=x,
        contributions_s=(0.01, 0.02),
        intercept_s=0.001,
        adjustment_s=0.0,
        tmem_s=0.001,
        ndep_cycles=1e7,
        t_fmax_raw_s=0.02,
        t_fmin_raw_s=0.1,
        anchor_fmax=snap,
        anchor_fmin=snap,
        switch_estimate_s=switch,
        budget_s=0.05,
        deadline_s=1.0,
    )
    return DecisionRecord(
        job_index=job,
        t_s=0.0,
        governor=governor,
        opp_mhz=opp,
        predicted_time_s=0.03,
        effective_budget_s=eff,
        margin=margin,
        mode=mode,
        beta_generation=generation,
        attribution=att,
    )


class TestDiffClassification:
    def test_identical_streams_have_no_divergences(self):
        a = [_record(job=i) for i in range(5)]
        diff = diff_decisions(a, a)
        assert diff.aligned == 5
        assert diff.divergences == ()
        assert "identical" in render_diff(diff)

    def test_feature_drift_wins_over_downstream_causes(self):
        a = [_record()]
        b = [_record(opp=600.0, x=(1.0, 9.0), margin=0.2)]
        (d,) = diff_decisions(a, b).divergences
        assert d.kind == "feature-drift"
        assert "b: 2 -> 9" in d.detail

    def test_beta_change_classified(self):
        a = [_record()]
        b = [_record(opp=600.0, coef=(0.6, 0.25), generation=3)]
        (d,) = diff_decisions(a, b).divergences
        assert d.kind == "beta-change"
        assert "generation 0 -> 3" in d.detail

    def test_margin_switch_and_budget_changes_classified(self):
        base = _record()
        cases = [
            (_record(opp=600.0, margin=0.3), "margin-change"),
            (_record(opp=600.0, switch=0.004), "switch-time"),
            (_record(opp=600.0, eff=0.02), "budget-change"),
            (_record(opp=600.0, mode="fallback"), "mode-change"),
            (_record(opp=600.0, governor="adaptive"), "governor-change"),
        ]
        for other, expected in cases:
            (d,) = diff_decisions([base], [other]).divergences
            assert d.kind == expected, expected

    def test_unaligned_jobs_reported(self):
        a = [_record(job=0), _record(job=1)]
        b = [_record(job=1), _record(job=2)]
        diff = diff_decisions(a, b)
        assert diff.only_a == (0,)
        assert diff.only_b == (2,)
        assert diff.aligned == 1

    def test_ranking_puts_frequency_changes_first(self):
        a = [_record(job=0), _record(job=1)]
        b = [
            _record(job=0, mode="fallback"),  # mode-only divergence
            _record(job=1, opp=200.0, x=(5.0, 5.0)),  # frequency change
        ]
        diff = diff_decisions(a, b)
        assert [d.job_index for d in diff.divergences] == [1, 0]


class TestDiffInjectedDrift:
    @pytest.fixture(scope="class")
    def drift_pair(self, tmp_path_factory):
        """Two traced prediction runs: baseline vs injected input drift."""
        dirs = []
        for scale in (1.0, 1.6):
            directory = tmp_path_factory.mktemp(f"drift-{scale}")
            lab = Lab(switch_samples=30, trace_session=TraceSession(directory))
            drift_adaptation.run(
                lab,
                app_name="sha",
                n_jobs=40,
                window=10,
                slowdown=1.0,
                input_scale=scale,
                governors=("prediction",),
            )
            lab.trace_session.flush()
            dirs.append(directory)
        return dirs

    def test_input_drift_classified_as_feature_drift(self, drift_pair):
        dir_a, dir_b = drift_pair
        runs_a, _ = load_run_decisions(dir_a)
        runs_b, _ = load_run_decisions(dir_b)
        name = "drift.sha.prediction"
        diff = diff_decisions(runs_a[name], runs_b[name], run=name)
        assert diff.aligned == 40
        assert diff.divergences, "input drift must change some decisions"
        # The drift is injected in the second half of the run only, and
        # every divergence traces back to the shifted feature vector.
        assert all(d.kind == "feature-drift" for d in diff.divergences)
        assert all(d.job_index >= 20 for d in diff.divergences)
        text = render_diff(diff, limit=5)
        assert "feature-drift" in text


class TestGracefulDegradation:
    @pytest.fixture()
    def partial_trace(self, tmp_path):
        """A traced run whose audit log is then damaged/removed."""
        lab = Lab(switch_samples=20, trace_session=TraceSession(tmp_path))
        lab.run("sha", "performance", n_jobs=5)
        lab.trace_session.flush()
        return tmp_path

    def test_report_survives_missing_audit_log(self, partial_trace):
        from repro.telemetry.report import summarize_directory

        log = partial_trace / "sha.performance.decisions.jsonl"
        log.unlink()
        text = summarize_directory(partial_trace)
        assert "older trace" in text

    def test_report_survives_corrupt_audit_lines(self, partial_trace):
        from repro.telemetry.report import summarize_directory

        log = partial_trace / "sha.performance.decisions.jsonl"
        log.write_text(log.read_text() + "{corrupt\n")
        text = summarize_directory(partial_trace)
        assert "unreadable record" in text
        assert "5 decisions audited" in text

    def test_cli_report_exits_zero_on_damaged_trace(self, partial_trace, capsys):
        from repro.cli import main

        (partial_trace / "sha.performance.decisions.jsonl").unlink()
        assert main(["report", str(partial_trace)]) == 0
        assert "older trace" in capsys.readouterr().out


class TestCli:
    def test_explain_and_diff_commands(self, traced_lab, capsys):
        from repro.cli import main

        directory, _ = traced_lab
        assert main(["explain", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "rijndael.prediction" in out and "2048.prediction" in out

        assert (
            main(
                [
                    "explain",
                    str(directory),
                    "--run",
                    "rijndael.prediction",
                    "--job",
                    "0",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["attribution"]["columns"]

        assert main(["diff-decisions", str(directory), str(directory)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_missing_inputs_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["explain", str(tmp_path / "nope")]) == 2
        assert main(["replay", str(tmp_path), str(tmp_path / "c.json")]) == 2
        capsys.readouterr()

    def test_replay_rejects_nan_switch_time_exit_2(
        self, traced_lab, tmp_path, capsys
    ):
        """A controller file whose switch table was hand-edited to NaN
        is refused with one line naming the pair, not replayed."""
        from repro.cli import main

        directory, lab = traced_lab
        path = tmp_path / "ctrl.json"
        save_controller(lab.controller("rijndael"), path)
        payload = json.loads(path.read_text())
        payload["switch_table"]["3,5"] = float("nan")
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["replay", str(directory), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "(3, 5)" in err and "nan" in err

    def test_replay_rejects_unknown_config_key_exit_2(
        self, traced_lab, tmp_path, capsys
    ):
        """A controller file with a config key this library does not
        know is refused with one line naming the key, not replayed."""
        from repro.cli import main

        directory, lab = traced_lab
        path = tmp_path / "ctrl.json"
        save_controller(lab.controller("rijndael"), path)
        payload = json.loads(path.read_text())
        payload["config"]["optimize"] = "slice"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["replay", str(directory), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "optimize" in err

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("'config'", lambda data: data.pop("config")),
            ("'model_fmax'", lambda data: data.update(model_fmax=None)),
            ("'opps'", lambda data: data["opps"].update(points="x")),
            ("'slice'", lambda data: data["slice"].pop("program")),
            ("'encoder_columns'", lambda data: data.update(encoder_columns=[1])),
            ("'model_degree'", lambda data: data.update(model_degree=None)),
            ("'margin'", lambda data: data.update(margin=None)),
            ("'margin'", lambda data: data.update(margin=math.inf)),
        ],
        ids=["no-config", "null-model", "string-points", "no-slice-program",
             "int-column", "null-degree", "null-margin", "inf-margin"],
    )
    def test_replay_rejects_malformed_field_exit_2(
        self, traced_lab, tmp_path, capsys, field, edit
    ):
        """A controller file with a missing or malformed field is refused
        with one line naming the field, not a traceback."""
        from repro.cli import main

        directory, lab = traced_lab
        path = tmp_path / "ctrl.json"
        save_controller(lab.controller("rijndael"), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["replay", str(directory), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"{path}: saved controller: ") and field in err

    @pytest.mark.parametrize("bad", ["ten", math.nan], ids=repr)
    def test_replay_rejects_bad_slice_cost_exit_2(
        self, traced_lab, tmp_path, capsys, bad
    ):
        """A controller file whose slice Block has a string or NaN
        instruction count is refused with one line naming the block,
        not replayed."""
        from repro.cli import main

        directory, lab = traced_lab
        path = tmp_path / "ctrl.json"
        save_controller(lab.controller("rijndael"), path)
        payload = json.loads(path.read_text())
        block = _first_block(payload["slice"]["program"]["body"])
        block["instructions"] = bad
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["replay", str(directory), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert repr(block["name"]) in err and "instructions" in err


def _first_block(node):
    """The first serialized ``Block`` in a program dict, depth first."""
    if isinstance(node, dict):
        if node.get("t") == "Block":
            return node
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return None
    for child in children:
        found = _first_block(child)
        if found is not None:
            return found
    return None


def _set_opp(value):
    return lambda record: record.update(opp_mhz=value)


def _set_fits(value):
    def edit(record):
        record["ladder"][0]["fits"] = value

    return edit


class TestUnreadableReplayedLines:
    """``repro replay`` refuses a log it could not fully read.

    Five records of the rijndael prediction run, the second one edited.
    A wrong type makes the line unreadable (``float()``, ``int()`` and
    ``bool()`` coercion used to let these through): replay exits 2 with
    one line naming the file and the line instead of verifying the
    other four, while ``explain`` and ``diff-decisions`` warn and skip.
    """

    EDITS = {
        "opp_mhz 'fast'": _set_opp("fast"),
        "opp_mhz '1200'": _set_opp("1200"),
        "t_s '0.05'": lambda record: record.update(t_s="0.05"),
        "job_index 1.5": lambda record: record.update(job_index=1.5),
        "job_index true": lambda record: record.update(job_index=True),
        "rung fits 'false'": _set_fits("false"),
    }

    @pytest.fixture()
    def edited_trace(self, traced_lab, tmp_path):
        directory, lab = traced_lab
        controller = tmp_path / "ctrl-rijndael.json"
        save_controller(lab.controller("rijndael"), controller)
        lines = (
            (directory / "rijndael.prediction.decisions.jsonl")
            .read_text()
            .splitlines()[:5]
        )
        trace = tmp_path / "trace"
        trace.mkdir()

        def write(edit):
            record = json.loads(lines[1])
            edit(record)
            log = trace / "rijndael.prediction.decisions.jsonl"
            log.write_text(
                "\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n"
            )
            return trace, controller

        return write

    @pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS.keys())
    def test_replay_exits_2_naming_the_line(self, edited_trace, edit, capsys):
        from repro.cli import main

        trace, controller = edited_trace(edit)
        capsys.readouterr()
        assert main(["replay", str(trace), str(controller)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "rijndael.prediction.decisions.jsonl:2: unreadable record" in (
            captured.err
        )
        assert "bit-exact" not in captured.out

    @pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS.keys())
    def test_explain_and_diff_warn_and_skip(self, edited_trace, edit, capsys):
        from repro.cli import main

        trace, _ = edited_trace(edit)
        capsys.readouterr()
        assert main(["explain", str(trace)]) == 0
        assert ":2: unreadable record" in capsys.readouterr().err
        assert main(["diff-decisions", str(trace), str(trace)]) == 0
        assert ":2: unreadable record" in capsys.readouterr().err

    def test_replay_ignores_a_run_it_does_not_replay(
        self, edited_trace, capsys
    ):
        from repro.cli import main

        trace, controller = edited_trace(_set_opp("fast"))
        good = trace / "rijndael.good.decisions.jsonl"
        good.write_text(
            (trace / "rijndael.prediction.decisions.jsonl")
            .read_text()
            .replace('"opp_mhz": "fast"', '"opp_mhz": null', 1)
        )
        capsys.readouterr()
        assert (
            main(
                ["replay", str(trace), str(controller), "--run", "rijndael.good"]
            )
            != 2
        )


class TestTypedRecordFields:
    """Each record field is read with the type its writer gives it."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("job_index", 1.5),
            ("job_index", True),
            ("beta_generation", "3"),
            ("t_s", "0.05"),
            ("t_s", None),
            ("opp_mhz", "1200"),
            ("opp_mhz", True),
            ("predicted_time_s", "0.01"),
            ("margin", float("inf")),
            ("governor", 7),
            ("mode", None),
            ("features", [["a", 1.0]]),
            ("features", {"a": "1.0"}),
            ("attribution", []),
            ("ladder", {}),
        ],
    )
    def test_wrong_type_is_a_value_error(self, rijndael_records, field, value):
        payload = rijndael_records[1].as_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            DecisionRecord.from_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("x", ["1.0"]),
            ("intercept_s", None),
            ("budget_s", "0.05"),
            ("columns", [1]),
            ("anchor_fmax", None),
        ],
    )
    def test_attribution_field_types(self, rijndael_records, field, value):
        payload = rijndael_records[1].attribution.as_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            DecisionAttribution.from_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [("kind", 1), ("coef", "1,2"), ("coef", [None]), ("scales", [True])],
    )
    def test_anchor_field_types(self, rijndael_records, field, value):
        payload = rijndael_records[1].attribution.anchor_fmax.as_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            AnchorSnapshot.from_dict(payload)

    def test_valid_records_read_back_equal(self, rijndael_records):
        for record in rijndael_records:
            assert DecisionRecord.from_dict(record.as_dict()) == record

    def test_missing_fields_take_their_defaults(self):
        attribution = DecisionAttribution.from_dict({})
        assert attribution.columns == () and attribution.x == ()
        assert attribution.anchor_fmax == AnchorSnapshot(kind="offline", coef=())
        assert math.isnan(attribution.budget_s)
        record = DecisionRecord.from_dict({"job_index": 3, "opp_mhz": 200})
        assert record.opp_mhz == 200.0 and record.ladder == ()
