"""Tests for the host profiler: phases, merge, sampler, hotspots."""

import json
import math
import pickle

import pytest

from repro.programs.expr import Const
from repro.programs.interpreter import COMPILED_FILENAME, Interpreter
from repro.programs.ir import Block, IndirectCall, Loop, Program
from repro.telemetry.hostprof import (
    NO_HOSTPROF,
    PHASES,
    SUB_PHASES,
    TOP_PHASES,
    HostProfiler,
    NullHostProfiler,
    ProfileState,
    StackSampler,
    _module_of,
    best_of,
    component_of,
    flamegraph_text,
    host_metrics,
    hotspots,
    merge_profiles,
    register_host_metrics,
    render_hotspots,
    render_profile,
    write_host_profile,
)
from repro.telemetry.metrics import MetricsRegistry


class FakeClock:
    """Deterministic clock: each read advances by a scripted step."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def profiler_with(phases, jobs=0, wall_s=0.0):
    hp = HostProfiler(clock=lambda: 0.0)
    for phase, (calls, total) in phases.items():
        for _ in range(calls - 1):
            hp.add(phase, 0.0)
        hp.add(phase, total)
    for _ in range(jobs):
        hp.job_done()
    hp._wall_s = wall_s
    return hp


class TestPhaseAccounting:
    def test_add_accumulates_calls_and_totals(self):
        hp = HostProfiler()
        hp.add("interp", 0.25)
        hp.add("interp", 0.50)
        hp.add("governor", 0.10)
        state = hp.state()
        assert state.phases["interp"] == (2, 0.75)
        assert state.phases["governor"] == (1, 0.10)

    def test_running_brackets_wall_clock(self):
        clock = FakeClock(step=2.0)
        hp = HostProfiler(clock=clock)
        with hp.running():
            pass
        assert hp.state().wall_s == pytest.approx(2.0)
        with hp.running():
            pass
        # Wall time accumulates across nested/sequential regions.
        assert hp.state().wall_s == pytest.approx(4.0)

    def test_other_is_wall_minus_top_phases(self):
        hp = profiler_with(
            {"interp": (1, 0.4), "governor": (1, 0.3), "predict": (1, 0.2)},
            jobs=1,
            wall_s=1.0,
        )
        state = hp.state()
        # Sub-phases (predict) re-slice governor; they never count toward
        # the accounted total.
        assert state.accounted_s == pytest.approx(0.7)
        assert state.other_s == pytest.approx(0.3)

    def test_other_clamps_at_zero_on_overlap(self):
        hp = profiler_with({"interp": (1, 2.0)}, jobs=1, wall_s=1.0)
        assert hp.state().other_s == 0.0

    def test_throughput_and_us_per_job(self):
        hp = profiler_with({"interp": (4, 0.002)}, jobs=4, wall_s=0.004)
        state = hp.state()
        assert state.jobs_per_sec == pytest.approx(1000.0)
        assert state.us_per_job("interp") == pytest.approx(500.0)
        assert state.us_per_job("switch") == 0.0

    def test_empty_profile_throughput_is_nan(self):
        state = ProfileState()
        assert math.isnan(state.jobs_per_sec)
        assert math.isnan(state.us_per_job("interp"))

    def test_phase_vocabulary_is_disjoint(self):
        assert len(set(PHASES)) == len(PHASES)
        assert set(SUB_PHASES).isdisjoint(TOP_PHASES)


class TestNullProfiler:
    """The disabled twin honours the full surface at zero cost."""

    def test_enabled_flags(self):
        assert HostProfiler().enabled is True
        assert NO_HOSTPROF.enabled is False
        assert NullHostProfiler().enabled is False

    def test_noop_methods_and_empty_state(self):
        NO_HOSTPROF.add("interp", 1.0)
        NO_HOSTPROF.job_done()
        with NO_HOSTPROF.running() as hp:
            assert hp is NO_HOSTPROF
        state = NO_HOSTPROF.state()
        assert state == ProfileState()
        assert state.jobs == 0 and state.phases == {}

    def test_clock_is_usable(self):
        # Sites read hostprof.clock() unconditionally inside the guard;
        # the null twin must still expose a real clock.
        a = NO_HOSTPROF.clock()
        b = NO_HOSTPROF.clock()
        assert b >= a


class TestProfileState:
    def test_json_round_trip(self):
        state = ProfileState(
            jobs=7,
            wall_s=1.25,
            phases={"interp": (7, 0.8), "predict": (7, 0.1)},
            samples=3,
            stacks={"a;b;c": 2, "a;b": 1},
        )
        blob = json.dumps(state.as_dict())
        back = ProfileState.from_dict(json.loads(blob))
        assert back == state

    def test_from_dict_tolerates_missing_optionals(self):
        back = ProfileState.from_dict({"jobs": 1, "wall_s": 0.5})
        assert back.jobs == 1
        assert back.samples == 0
        assert back.stacks == {}

    def test_picklable_for_worker_pools(self):
        state = ProfileState(jobs=2, wall_s=0.1, phases={"interp": (2, 0.05)})
        assert pickle.loads(pickle.dumps(state)) == state


class TestMerge:
    """merge_profiles has concatenation semantics, like SLO states."""

    def test_merge_adds_everything(self):
        a = ProfileState(
            jobs=3, wall_s=1.0, phases={"interp": (3, 0.5)},
            samples=2, stacks={"x;y": 2},
        )
        b = ProfileState(
            jobs=2, wall_s=0.5,
            phases={"interp": (2, 0.25), "governor": (2, 0.1)},
            samples=1, stacks={"x;y": 1, "x;z": 1},
        )
        merged = merge_profiles(a, b)
        assert merged.jobs == 5
        assert merged.wall_s == pytest.approx(1.5)
        assert merged.phases["interp"] == (5, 0.75)
        assert merged.phases["governor"] == (2, 0.1)
        assert merged.samples == 3
        assert merged.stacks == {"x;y": 3, "x;z": 1}

    def test_empty_is_identity(self):
        state = ProfileState(jobs=4, wall_s=2.0, phases={"interp": (4, 1.0)})
        assert merge_profiles(ProfileState(), state) == state
        assert merge_profiles(state, ProfileState()) == state

    def test_merge_equals_one_profiler_watching_both(self):
        clock = FakeClock(step=0.5)
        one = HostProfiler(clock=clock)
        with one.running():
            one.add("interp", 0.1)
            one.job_done()
        with one.running():
            one.add("interp", 0.2)
            one.job_done()

        clock_a, clock_b = FakeClock(step=0.5), FakeClock(step=0.5)
        a, b = HostProfiler(clock=clock_a), HostProfiler(clock=clock_b)
        with a.running():
            a.add("interp", 0.1)
            a.job_done()
        with b.running():
            b.add("interp", 0.2)
            b.job_done()
        assert merge_profiles(a.state(), b.state()) == one.state()


class TestComponentAttribution:
    @pytest.mark.parametrize(
        "module, expected",
        [
            ("repro.programs.interpreter", "interp"),
            ("repro.programs.expr", "ir"),
            ("repro.programs.env", "ir"),
            ("repro.models.anchor", "predict"),
            ("repro.online.residuals", "predict"),
            ("repro.governors.predictive", "governor"),
            ("repro.platform.board", "platform"),
            ("repro.runtime.executor", "executor"),
            ("repro.fleet.shard", "fleet"),
            ("repro.telemetry.hostprof", "telemetry"),
            ("repro.something_new", "repro"),
            ("json.decoder", "host"),
            ("<frozen abc>", "host"),
        ],
    )
    def test_module_mapping(self, module, expected):
        assert component_of(module) == expected

    @pytest.mark.parametrize(
        "filename, expected",
        [
            ("/site/src/repro/programs/interpreter.py", "interp"),
            ("/site/src/repro/runtime/executor.py", "executor"),
            (COMPILED_FILENAME, "interp"),
            ("<string>", "host"),
            ("/usr/lib/python3/json/decoder.py", "host"),
        ],
    )
    def test_file_mapping(self, filename, expected):
        assert component_of(_module_of(filename)) == expected


class TestStackSampler:
    def test_samples_every_nth_call(self):
        sampler = StackSampler(interval=1, max_depth=8)

        def leaf():
            return 1

        def root():
            return leaf()

        sampler.start()
        try:
            for _ in range(5):
                root()
        finally:
            sampler.stop()
        assert sampler.samples >= 5
        joined = "\n".join(sampler.stacks)
        assert "leaf" in joined
        # Collapsed form: root appears before leaf on the same stack.
        line = next(s for s in sampler.stacks if s.endswith(":" + "leaf")
                    or s.endswith("leaf"))
        assert line.index("root") < line.index("leaf")

    def test_compiled_programs_sample_as_interp(self):
        """Compiled IR calls no Python function, only builtins (each
        recorded call address is a ``dict.setdefault`` and a
        ``list.append``); those calls are sampled and land on the
        program."""
        program = Program(
            "t",
            Loop(
                "outer",
                Const(20),
                IndirectCall("call", Const(1), {1: Block(1)}, counted=True),
            ),
        )
        sampler = StackSampler(interval=1)
        sampler.start()
        try:
            Interpreter().execute(program, {})
        finally:
            sampler.stop()
        label = f"{_module_of(COMPILED_FILENAME)}:run_t"
        on_program = sum(
            count
            for stack, count in sampler.stacks.items()
            if stack.rsplit(";", 1)[-1] == label
        )
        assert on_program > 20  # one call event, 40 builtin calls
        assert component_of(*label.split(":", 1)) == "interp"

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            StackSampler(interval=0)

    def test_stop_is_idempotent(self):
        sampler = StackSampler()
        sampler.stop()
        sampler.start()
        sampler.stop()
        sampler.stop()

    def test_profiler_drives_sampler_lifetime(self):
        sampler = StackSampler(interval=1)
        hp = HostProfiler(sampler=sampler)

        def work():
            return sum(range(10))

        with hp.running():
            for _ in range(3):
                work()
        assert not sampler._active
        state = hp.state()
        assert state.samples == sampler.samples
        assert state.samples > 0


class TestHotspots:
    def stacks(self):
        return ProfileState(
            jobs=1,
            wall_s=1.0,
            samples=10,
            stacks={
                "m:a;repro.programs.interpreter:Interpreter._run": 6,
                "m:a;repro.programs.expr:Var.evaluate": 3,
                "m:a": 1,
            },
        )

    def test_self_and_cum_counts(self):
        rows = hotspots(self.stacks())
        by_label = {row.label: row for row in rows}
        run = by_label["repro.programs.interpreter:Interpreter._run"]
        assert run.self_samples == 6
        assert run.cum_samples == 6
        assert run.component == "interp"
        assert run.self_pct == pytest.approx(60.0)
        a = by_label["m:a"]
        assert a.self_samples == 1
        assert a.cum_samples == 10  # on every stack
        assert a.component == "host"

    def test_ir_ops_attributed_by_qualname(self):
        rows = hotspots(self.stacks())
        var = next(r for r in rows if "Var.evaluate" in r.label)
        assert var.component == "ir"

    def test_recursion_counted_once_per_stack(self):
        state = ProfileState(samples=2, stacks={"m:f;m:f;m:f": 2})
        (row,) = hotspots(state)
        assert row.cum_samples == 2

    def test_top_n_truncates_by_self_samples(self):
        rows = hotspots(self.stacks(), top_n=1)
        assert len(rows) == 1
        assert rows[0].label.endswith("Interpreter._run")

    def test_render_handles_empty(self):
        assert "no samples" in render_hotspots([])
        text = render_hotspots(hotspots(self.stacks()))
        assert "self%" in text and "component" in text


class TestFlamegraph:
    def test_collapsed_stack_format(self):
        state = ProfileState(stacks={"a;b;c": 3, "a;b": 1})
        text = flamegraph_text(state)
        assert text == "a;b 1\na;b;c 3\n"

    def test_empty_profile_is_empty_text(self):
        assert flamegraph_text(ProfileState()) == ""


class TestHostMetrics:
    def test_registers_throughput_and_phase_gauges(self):
        state = ProfileState(
            jobs=10, wall_s=0.01,
            phases={"interp": (10, 0.004), "predict": (10, 0.001)},
            samples=5,
        )
        registry = MetricsRegistry()
        register_host_metrics(registry, state)
        dump = registry.as_dict()
        assert dump["counters"]["host.jobs"] == 10
        assert dump["counters"]["host.samples"] == 5
        assert dump["gauges"]["host.jobs_per_sec"] == pytest.approx(1000.0)
        assert dump["gauges"]["host.us_per_job.total"] == pytest.approx(
            1000.0
        )
        assert dump["gauges"]["host.us_per_job.interp"] == pytest.approx(
            400.0
        )
        assert "host.us_per_job.other" in dump["gauges"]

    def test_empty_profile_registers_no_gauges(self):
        dump = host_metrics(ProfileState())
        assert dump["counters"]["host.jobs"] == 0
        assert dump["gauges"] == {}


class TestArtifacts:
    def make_state(self):
        return ProfileState(
            jobs=4, wall_s=0.02,
            phases={"interp": (4, 0.01)},
            samples=2,
            stacks={"m:a;repro.programs.interpreter:Interpreter._run": 2},
        )

    def test_write_host_profile_emits_four_files(self, tmp_path):
        written = write_host_profile(self.make_state(), tmp_path, "host.demo")
        assert {p.name for p in written} == {
            "host.demo.hostprof.json",
            "host.demo.flame.txt",
            "host.demo.hotspots.json",
            "host.demo.metrics.json",
        }
        snap = json.loads((tmp_path / "host.demo.hostprof.json").read_text())
        assert ProfileState.from_dict(snap) == self.make_state()
        hot = json.loads((tmp_path / "host.demo.hotspots.json").read_text())
        assert hot["run"] == "host.demo"
        assert hot["jobs"] == 4
        assert hot["hotspots"][0]["component"] == "interp"
        metrics = json.loads(
            (tmp_path / "host.demo.metrics.json").read_text()
        )
        assert "host.jobs_per_sec" in metrics["gauges"]

    def test_empty_profile_writes_null_throughput(self, tmp_path):
        write_host_profile(ProfileState(), tmp_path, "host.empty")
        hot = json.loads((tmp_path / "host.empty.hotspots.json").read_text())
        assert hot["jobs_per_sec"] is None

    def test_render_profile_mentions_phases(self):
        text = render_profile(self.make_state(), title="demo")
        assert text.startswith("demo: 4 jobs")
        assert "interp" in text and "other" in text
        assert "sampler: 2 stack samples" in text


class TestBestOf:
    def test_returns_minimum_round(self):
        # Scripted clock: rounds take 5s, 1s, 3s -> best is 1s.
        times = iter([0.0, 5.0, 5.0, 6.0, 6.0, 9.0])
        elapsed = best_of(lambda: None, rounds=3, clock=lambda: next(times))
        assert elapsed == pytest.approx(1.0)

    def test_calls_fn_once_per_round(self):
        calls = []
        best_of(lambda: calls.append(1), rounds=4)
        assert len(calls) == 4

    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            best_of(lambda: None, rounds=0)
