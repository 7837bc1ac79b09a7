"""Property-based integration tests on system invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.models.dvfs import DvfsModel
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.programs.expr import Var
from repro.programs.ir import Block, Loop, Program
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.task import Task

OPPS = default_xu3_a7_table()

slow = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def loopy_task(budget_s=0.05):
    return Task("loopy", Program("loopy", Loop("l", Var("n"), Block(4000))), budget_s)


class TestRunInvariants:
    @slow
    @given(ns=st.lists(st.integers(0, 8000), min_size=1, max_size=25))
    def test_records_are_causally_ordered(self, ns):
        board = Board(opps=OPPS)
        result = TaskLoopRunner(
            board, loopy_task(), PerformanceGovernor(OPPS),
            [{"n": n} for n in ns],
        ).run()
        for job in result.jobs:
            assert job.arrival_s <= job.start_s <= job.end_s
        for a, b in zip(result.jobs, result.jobs[1:]):
            assert a.end_s <= b.start_s + 1e-9

    @slow
    @given(ns=st.lists(st.integers(0, 8000), min_size=1, max_size=25))
    def test_energy_non_negative_and_monotone_in_jobs(self, ns):
        def energy(inputs):
            board = Board(opps=OPPS)
            return TaskLoopRunner(
                board, loopy_task(), PerformanceGovernor(OPPS), inputs
            ).run().energy_j

        inputs = [{"n": n} for n in ns]
        assert energy(inputs) >= 0.0
        assert energy(inputs + [{"n": 0}]) >= energy(inputs)

    @slow
    @given(
        ns=st.lists(st.integers(0, 8000), min_size=2, max_size=20),
        sigma=st.floats(0.0, 0.1),
    )
    def test_same_seed_same_run(self, ns, sigma):
        def run():
            board = Board(opps=OPPS, jitter=LogNormalJitter(sigma, seed=9))
            return TaskLoopRunner(
                board, loopy_task(), PerformanceGovernor(OPPS),
                [{"n": n} for n in ns],
            ).run()

        a, b = run(), run()
        assert a.energy_j == b.energy_j
        assert [j.end_s for j in a.jobs] == [j.end_s for j in b.jobs]

    @slow
    @given(ns=st.lists(st.integers(100, 8000), min_size=1, max_size=15))
    def test_powersave_never_beats_performance_on_time(self, ns):
        inputs = [{"n": n} for n in ns]
        fast = TaskLoopRunner(
            Board(opps=OPPS), loopy_task(), PerformanceGovernor(OPPS), inputs
        ).run()
        slow_run = TaskLoopRunner(
            Board(opps=OPPS), loopy_task(), PowersaveGovernor(OPPS), inputs
        ).run()
        assert slow_run.jobs[-1].end_s >= fast.jobs[-1].end_s - 1e-9
        # Compare the work's own energy: for very short runs the one-time
        # switch to fmin can legitimately dominate powersave's total.
        assert (
            slow_run.energy_by_tag["job"] <= fast.energy_by_tag["job"] + 1e-12
        )


class TestDvfsModelProperties:
    @given(
        tmem_ms=st.floats(0.0, 20.0),
        ndep_mcycles=st.floats(0.0, 80.0),
    )
    def test_component_roundtrip_from_any_physical_job(
        self, tmem_ms, ndep_mcycles
    ):
        """components() inverts time_at() for any physically valid job."""
        from repro.models.dvfs import DvfsComponents

        model = DvfsModel(OPPS)
        truth = DvfsComponents(tmem_ms / 1e3, ndep_mcycles * 1e6)
        fit = model.components(
            truth.time_at(OPPS.fmin.freq_hz),
            truth.time_at(OPPS.fmax.freq_hz),
        )
        assert fit.tmem_s == pytest.approx(truth.tmem_s, abs=1e-12)
        assert fit.ndep_cycles == pytest.approx(truth.ndep_cycles, rel=1e-9, abs=1e-3)

    @given(
        tmem_ms=st.floats(0.0, 10.0),
        ndep_mcycles=st.floats(0.1, 60.0),
        budget_ms=st.floats(1.0, 200.0),
    )
    def test_chosen_level_meets_budget_whenever_feasible(
        self, tmem_ms, ndep_mcycles, budget_ms
    ):
        from repro.models.dvfs import DvfsComponents

        model = DvfsModel(OPPS)
        truth = DvfsComponents(tmem_ms / 1e3, ndep_mcycles * 1e6)
        t_fmin = truth.time_at(OPPS.fmin.freq_hz)
        t_fmax = truth.time_at(OPPS.fmax.freq_hz)
        budget_s = budget_ms / 1e3
        opp = model.choose_opp(t_fmin, t_fmax, budget_s)
        if t_fmax <= budget_s:
            assert truth.time_at(opp.freq_hz) <= budget_s * (1 + 1e-9)
        else:
            assert opp == OPPS.fmax

    @given(
        tmem_ms=st.floats(0.0, 10.0),
        ndep_mcycles=st.floats(0.1, 60.0),
        budget_ms=st.floats(1.0, 200.0),
    )
    def test_never_chooses_a_wastefully_high_level(
        self, tmem_ms, ndep_mcycles, budget_ms
    ):
        """The level immediately below the chosen one must NOT fit —
        otherwise energy is being wasted (minimality of the choice)."""
        from repro.models.dvfs import DvfsComponents

        model = DvfsModel(OPPS)
        truth = DvfsComponents(tmem_ms / 1e3, ndep_mcycles * 1e6)
        t_fmin = truth.time_at(OPPS.fmin.freq_hz)
        t_fmax = truth.time_at(OPPS.fmax.freq_hz)
        budget_s = budget_ms / 1e3
        opp = model.choose_opp(t_fmin, t_fmax, budget_s)
        if opp.index > 0 and t_fmax <= budget_s:
            below = OPPS[opp.index - 1]
            assert truth.time_at(below.freq_hz) > budget_s * (1 - 1e-9)
