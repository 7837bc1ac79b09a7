"""Tests for feature encoding, traces, and the profiler."""

import numpy as np
import pytest

from repro.features.encoding import FeatureEncoder
from repro.features.profiler import Profiler
from repro.features.trace import ProfileSample, ProfileTrace
from repro.platform.cpu import SimulatedCpu
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.programs.expr import Compare, Const, Var
from repro.programs.instrument import FeatureSite, Instrumenter
from repro.programs.interpreter import Interpreter, RawFeatures
from repro.programs.ir import (
    Assign,
    Block,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
)

SITES = (
    FeatureSite("branch_a", "branch"),
    FeatureSite("loop_b", "loop"),
    FeatureSite("call_c", "call"),
)


def raw(counters=None, calls=None):
    return RawFeatures(counters=counters or {}, call_addresses=calls or {})


class TestEncoderFit:
    def test_requires_sites(self):
        with pytest.raises(ValueError):
            FeatureEncoder([])

    def test_rejects_duplicate_sites(self):
        with pytest.raises(ValueError):
            FeatureEncoder([SITES[0], SITES[0]])

    def test_use_before_fit_raises(self):
        enc = FeatureEncoder(SITES)
        with pytest.raises(RuntimeError):
            enc.encode(raw())

    def test_counter_sites_always_get_columns(self):
        enc = FeatureEncoder(SITES).fit([raw()])
        assert "branch_a" in enc.column_names
        assert "loop_b" in enc.column_names

    def test_call_columns_from_observed_addresses(self):
        samples = [
            raw(calls={"call_c": [10]}),
            raw(calls={"call_c": [20, 10]}),
        ]
        enc = FeatureEncoder(SITES).fit(samples)
        assert "call_c@10" in enc.column_names
        assert "call_c@20" in enc.column_names
        assert enc.n_columns == 4

    def test_no_observed_calls_no_call_columns(self):
        enc = FeatureEncoder(SITES).fit([raw()])
        assert enc.n_columns == 2


class TestEncoding:
    def fitted(self):
        return FeatureEncoder(SITES).fit(
            [raw(calls={"call_c": [10, 20]})]
        )

    def test_counters_encode_directly(self):
        enc = self.fitted()
        x = enc.encode(raw(counters={"branch_a": 3.0, "loop_b": 17.0}))
        names = list(enc.column_names)
        assert x[names.index("branch_a")] == 3.0
        assert x[names.index("loop_b")] == 17.0

    def test_missing_counter_is_zero(self):
        enc = self.fitted()
        x = enc.encode(raw())
        assert np.all(x == 0.0)

    def test_call_one_hot(self):
        enc = self.fitted()
        x = enc.encode(raw(calls={"call_c": [20]}))
        names = list(enc.column_names)
        assert x[names.index("call_c@20")] == 1.0
        assert x[names.index("call_c@10")] == 0.0

    def test_unseen_address_encodes_all_zero(self):
        enc = self.fitted()
        x = enc.encode(raw(calls={"call_c": [999]}))
        names = list(enc.column_names)
        assert x[names.index("call_c@10")] == 0.0
        assert x[names.index("call_c@20")] == 0.0

    def test_multiple_calls_still_one_hot(self):
        enc = self.fitted()
        x = enc.encode(raw(calls={"call_c": [10, 10, 10]}))
        names = list(enc.column_names)
        assert x[names.index("call_c@10")] == 1.0

    def test_encode_matrix_shape(self):
        enc = self.fitted()
        X = enc.encode_matrix([raw(), raw(), raw()])
        assert X.shape == (3, enc.n_columns)

    def test_encode_matrix_empty(self):
        enc = self.fitted()
        assert enc.encode_matrix([]).shape == (0, enc.n_columns)


class TestSitesForColumns:
    def test_maps_columns_back_to_sites(self):
        enc = FeatureEncoder(SITES).fit([raw(calls={"call_c": [10, 20]})])
        mask = [name.startswith("call_c") for name in enc.column_names]
        assert enc.sites_for_columns(mask) == frozenset({"call_c"})

    def test_empty_mask_empty_sites(self):
        enc = FeatureEncoder(SITES).fit([raw()])
        assert enc.sites_for_columns([False] * enc.n_columns) == frozenset()

    def test_wrong_length_rejected(self):
        enc = FeatureEncoder(SITES).fit([raw()])
        with pytest.raises(ValueError):
            enc.sites_for_columns([True])

    def test_one_call_column_keeps_site(self):
        enc = FeatureEncoder(SITES).fit([raw(calls={"call_c": [10, 20]})])
        names = list(enc.column_names)
        mask = [name == "call_c@20" for name in names]
        assert enc.sites_for_columns(mask) == frozenset({"call_c"})


class TestProfileTrace:
    def sample(self, t_fast=0.01, t_slow=0.07):
        return ProfileSample(
            features=raw(counters={"loop_b": 5.0}, calls={"call_c": [10]}),
            time_fmax_s=t_fast,
            time_fmin_s=t_slow,
        )

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            ProfileSample(raw(), -1.0, 0.0)

    def test_append_iter_len(self):
        trace = ProfileTrace()
        trace.append(self.sample())
        trace.append(self.sample(0.02, 0.14))
        assert len(trace) == 2
        assert trace[1].time_fmax_s == 0.02

    def test_times_vectors(self):
        trace = ProfileTrace([self.sample(0.01, 0.07), self.sample(0.02, 0.14)])
        assert trace.times_s("fmax").tolist() == [0.01, 0.02]
        assert trace.times_s("fmin").tolist() == [0.07, 0.14]

    def test_times_bad_anchor(self):
        with pytest.raises(ValueError):
            ProfileTrace().times_s("f50")


class TestProfiler:
    def make_program(self):
        return Program(
            "p",
            Seq(
                [
                    If("b", Compare(">", Var("x"), Const(0)), Block(5000, 10)),
                    Loop("l", Var("n"), Block(100, 1)),
                    IndirectCall("c", Var("fn"), {1: Block(50), 2: Block(5000)}),
                ]
            ),
        )

    def make_profiler(self, jitter=None):
        return Profiler(
            interpreter=Interpreter(),
            cpu=SimulatedCpu(jitter),
            opps=default_xu3_a7_table(),
        )

    def inputs(self, n=5):
        return [{"x": i % 3 - 1, "n": i, "fn": 1 + i % 2} for i in range(n)]

    def test_one_sample_per_input(self):
        inst = Instrumenter().instrument(self.make_program())
        trace = self.make_profiler().profile(inst, self.inputs(7))
        assert len(trace) == 7

    def test_empty_inputs_rejected(self):
        inst = Instrumenter().instrument(self.make_program())
        with pytest.raises(ValueError):
            self.make_profiler().profile(inst, [])

    def test_fmin_slower_than_fmax(self):
        inst = Instrumenter().instrument(self.make_program())
        trace = self.make_profiler().profile(inst, self.inputs())
        for sample in trace:
            assert sample.time_fmin_s > sample.time_fmax_s

    def test_features_recorded(self):
        inst = Instrumenter().instrument(self.make_program())
        trace = self.make_profiler().profile(inst, self.inputs())
        assert trace[4].features.counter("l") == 4.0
        assert trace[4].features.call_addresses["c"] == [1]

    def test_jitter_varies_times(self):
        inst = Instrumenter().instrument(self.make_program())
        same_inputs = [{"x": 1, "n": 10, "fn": 1}] * 10
        trace = self.make_profiler(LogNormalJitter(0.05, seed=3)).profile(
            inst, same_inputs
        )
        assert len({s.time_fmax_s for s in trace}) > 1

    def test_globals_evolve_across_profiled_jobs(self):
        prog = Program(
            "stateful",
            Seq(
                [
                    Loop("l", Var("turn"), Block(100)),
                    Assign("turn", Var("turn") + Const(1)),
                ]
            ),
            globals_init={"turn": 0},
        )
        inst = Instrumenter().instrument(prog)
        trace = self.make_profiler().profile(inst, [{}] * 4)
        trips = [s.features.counter("l") for s in trace]
        assert trips == [0.0, 1.0, 2.0, 3.0]
