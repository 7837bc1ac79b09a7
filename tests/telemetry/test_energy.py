"""The energy-attribution ledger: conservation, merging, metrics.

The ledger's contract is a conservation law — every joule the board
integrates lands in exactly one (job, phase, OPP) cell — plus mergeable
snapshots the fleet can fold shard-count-independently.  These tests
hold the invariant across every workload and predictor placement, pin
the state algebra (merge == concatenation, serialization round-trip,
pickling for the worker-pool trip), and check the metrics/render
surfaces the CLI and gate consume.
"""

import math
import pickle

import pytest

from repro.platform.board import Board
from repro.platform.opp import default_xu3_a7_table
from repro.platform.sensor import PowerSegment
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.placement import PredictorPlacement
from repro.telemetry.energy import (
    CONSERVATION_TOL_J,
    ENERGY_PHASES,
    NO_ENERGY_LEDGER,
    OVERLAP_PHASE,
    EnergyLedger,
    EnergyState,
    energy_metrics,
    merge_energy,
    render_energy,
    render_energy_cells,
)
from repro.workloads.registry import app_names, get_app

OPPS = default_xu3_a7_table()

ALL_APPS = (
    "rijndael", "2048", "sha", "ldecode",
    "pocketsphinx", "uzbl", "xpilot", "curseofwar",
)


def _governed_run(app_name, governor=None, n_jobs=10, placement=None):
    """One attributed run; returns (result, ledger, board)."""
    from repro.governors.interactive import InteractiveGovernor

    app = get_app(app_name)
    board = Board(opps=OPPS)
    ledger = EnergyLedger(board.power, board.opps)
    kwargs = {} if placement is None else {"placement": placement}
    runner = TaskLoopRunner(
        board=board,
        task=app.task,
        governor=governor or InteractiveGovernor(OPPS),
        inputs=app.inputs(n_jobs, seed=11),
        energy=ledger,
        **kwargs,
    )
    return runner.run(), ledger, board


@pytest.fixture(scope="module")
def controller():
    """A small trained sha controller for the placement tests."""
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.offline import build_controller
    from repro.platform.switching import SwitchLatencyModel

    return build_controller(
        get_app("sha"),
        opps=OPPS,
        config=PipelineConfig(n_profile_jobs=40),
        switch_table=SwitchLatencyModel(OPPS).microbenchmark(10),
    )


class TestConservation:
    """The acceptance invariant, held on every workload in the suite."""

    def test_covers_every_registered_workload(self):
        assert set(ALL_APPS) == set(app_names())

    @pytest.mark.parametrize("app_name", ALL_APPS)
    def test_attributed_cells_sum_to_board_energy(self, app_name):
        result, ledger, board = _governed_run(app_name, n_jobs=8)
        assert result.n_jobs == 8
        error = ledger.check_conservation(board)
        assert error <= CONSERVATION_TOL_J
        # And the snapshot carries the same total.
        state = ledger.state()
        assert state.total_j == pytest.approx(result.energy_j, abs=1e-9)
        assert sum(state.by_phase.values()) == pytest.approx(
            state.total_j, rel=1e-12
        )
        assert sum(state.by_opp_mhz.values()) == pytest.approx(
            state.total_j, rel=1e-12
        )

    @pytest.mark.parametrize(
        "placement",
        [
            PredictorPlacement.SEQUENTIAL,
            PredictorPlacement.PIPELINED,
            PredictorPlacement.PARALLEL,
        ],
    )
    def test_holds_under_every_predictor_placement(
        self, controller, placement
    ):
        """Overlapping placements route slice joules off-timeline; the
        invariant must hold with the overlap added on both sides."""
        result, ledger, board = _governed_run(
            "sha", governor=controller.governor(), n_jobs=20,
            placement=placement,
        )
        assert ledger.check_conservation(board) <= CONSERVATION_TOL_J
        state = ledger.state()
        assert state.total_j == pytest.approx(result.energy_j, abs=1e-9)
        if placement is PredictorPlacement.PIPELINED:
            assert state.overlap_j > 0.0
            assert state.phase_j(OVERLAP_PHASE) == pytest.approx(
                state.overlap_j, rel=1e-12
            )

    def test_check_conservation_raises_on_leak(self):
        _, ledger, board = _governed_run("sha", n_jobs=4)
        ledger._total_j += 1e-6  # simulate a leaking attribution path
        with pytest.raises(ValueError, match="leaked"):
            ledger.check_conservation(board)


class TestOverlapRegression:
    """Satellite fix: overlap is its own attribution tag, and the
    executor's energy breakdown still reconciles with the total."""

    @pytest.mark.parametrize(
        "placement",
        [PredictorPlacement.PIPELINED, PredictorPlacement.PARALLEL],
    )
    def test_breakdown_reconciles_with_energy_j(
        self, controller, placement
    ):
        result, _, _ = _governed_run(
            "sha", governor=controller.governor(), n_jobs=20,
            placement=placement,
        )
        assert result.energy_by_tag["predictor_overlap"] > 0.0
        assert sum(result.energy_by_tag.values()) == pytest.approx(
            result.energy_j, rel=1e-9
        )

    def test_sequential_has_no_overlap_key(self, controller):
        result, _, _ = _governed_run(
            "sha", governor=controller.governor(), n_jobs=10,
            placement=PredictorPlacement.SEQUENTIAL,
        )
        assert "predictor_overlap" not in result.energy_by_tag


class TestLedgerMechanics:
    def _segment(self, start, duration, power, tag):
        return PowerSegment(
            start_s=start, end_s=start + duration, power_w=power, tag=tag
        )

    def test_tag_to_phase_mapping(self):
        board = Board(opps=OPPS)
        ledger = EnergyLedger(board.power, board.opps)
        ledger.begin_job(0)
        ledger.observe(self._segment(0.0, 1.0, 2.0, "job"), 0)
        ledger.observe(self._segment(1.0, 1.0, 1.0, "switch"), 0)
        ledger.observe(self._segment(2.0, 1.0, 0.5, "idle"), 0)
        ledger.observe(self._segment(3.0, 1.0, 1.5, "predictor"), 0)
        ledger.begin_feedback()
        ledger.observe(self._segment(4.0, 1.0, 1.5, "predictor"), 0)
        ledger.end_feedback()
        state = ledger.state()
        assert state.phase_j("execute") == 2.0
        assert state.phase_j("switch") == 1.0
        assert state.phase_j("idle") == 0.5
        assert state.phase_j("predict") == 1.5
        assert state.phase_j("feedback") == 1.5
        assert set(state.by_phase) <= set(ENERGY_PHASES)

    def test_counterfactual_prices_execute_cycle_preservingly(self):
        board = Board(opps=OPPS)
        power = board.power
        ledger = EnergyLedger(power, board.opps)
        ledger.begin_job(0)
        opp = board.opps.fmin
        duration = 2.0
        ledger.observe(
            self._segment(0.0, duration, power.power(opp, 1.0), "job"),
            opp.index,
        )
        busy_frac = opp.freq_hz / board.opps.fmax.freq_hz
        busy_w = power.power(board.opps.fmax, activity=1.0)
        idle_w = power.power(
            board.opps.fmax, activity=power.idle_activity
        )
        expected = duration * (
            busy_frac * busy_w + (1.0 - busy_frac) * idle_w
        )
        assert ledger.counterfactual_j == pytest.approx(expected, rel=1e-12)
        # Non-execute segments price as fmax idle wall-clock.
        ledger.observe(
            self._segment(duration, 1.0, 5.0, "switch"), opp.index
        )
        assert ledger.counterfactual_j == pytest.approx(
            expected + idle_w, rel=1e-12
        )

    def test_overlap_adds_energy_but_no_counterfactual(self):
        board = Board(opps=OPPS)
        ledger = EnergyLedger(board.power, board.opps)
        ledger.begin_job(3)
        ledger.add_overlap(0.25)
        assert ledger.total_j == 0.25
        assert ledger.overlap_j == 0.25
        assert ledger.counterfactual_j == 0.0
        assert ledger.conservation_error_j(0.0) == 0.0
        assert ledger.job_energy_j(3) == 0.25

    def test_top_jobs_ranked_by_energy(self):
        board = Board(opps=OPPS)
        ledger = EnergyLedger(board.power, board.opps)
        for job, power_w in ((0, 1.0), (1, 3.0), (2, 2.0)):
            ledger.begin_job(job)
            ledger.observe(
                self._segment(float(job), 1.0, power_w, "job"), 0
            )
        assert ledger.top_jobs(2) == [(1, 3.0), (2, 2.0)]
        assert ledger.state().jobs == 3

    def test_null_ledger_is_inert(self):
        assert NO_ENERGY_LEDGER.enabled is False
        NO_ENERGY_LEDGER.begin_job(0)
        NO_ENERGY_LEDGER.add_overlap(1.0)
        NO_ENERGY_LEDGER.observe(None, 0)
        assert NO_ENERGY_LEDGER.conservation_error_j(123.0) == 0.0
        state = NO_ENERGY_LEDGER.state()
        assert state.jobs == 0 and state.total_j == 0.0


class TestEnergyState:
    def _state(self, scale=1.0):
        return EnergyState(
            jobs=int(2 * scale),
            total_j=1.5 * scale,
            overlap_j=0.1 * scale,
            counterfactual_j=2.0 * scale,
            by_phase={"execute": 1.2 * scale, "idle": 0.3 * scale},
            time_by_phase={"execute": 0.8 * scale, "idle": 0.5 * scale},
            by_opp_mhz={200.0: 0.5 * scale, 1400.0: 1.0 * scale},
        )

    def test_merge_is_concatenation(self):
        merged = merge_energy(self._state(1.0), self._state(2.0))
        assert merged.jobs == 6
        assert merged.total_j == pytest.approx(4.5)
        assert merged.counterfactual_j == pytest.approx(6.0)
        assert merged.by_phase["execute"] == pytest.approx(3.6)
        assert merged.by_opp_mhz[200.0] == pytest.approx(1.5)

    def test_merge_with_empty_is_identity(self):
        state = self._state()
        merged = merge_energy(EnergyState(), state)
        assert merged == state

    def test_round_trip_through_dict(self):
        state = self._state()
        assert EnergyState.from_dict(state.as_dict()) == state

    def test_from_dict_tolerates_minimal_payload(self):
        state = EnergyState.from_dict({"jobs": 1, "total_j": 0.5})
        assert state.jobs == 1
        assert state.counterfactual_j == 0.0
        assert state.by_phase == {}

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda d: d.pop("jobs"), "no 'jobs' field"),
            (lambda d: d.pop("total_j"), "no 'total_j' field"),
            (lambda d: d.update(jobs=2.0), "jobs must be an int, got 2.0"),
            (
                lambda d: d.update(overlap_j=math.inf),
                "overlap_j must be a finite number, got inf",
            ),
            (
                lambda d: d.update(counterfactual_j=None),
                "counterfactual_j must be a finite number, got None",
            ),
            (
                lambda d: d.update(by_phase=[1.2]),
                "by_phase must be a JSON object, got [1.2]",
            ),
            (
                lambda d: d["time_by_phase"].update(idle="0.5"),
                "time_by_phase['idle'] must be a finite number, got '0.5'",
            ),
            (
                lambda d: d["by_opp_mhz"].update({"1400": False}),
                "by_opp_mhz['1400'] must be a finite number, got False",
            ),
            (
                lambda d: d["by_opp_mhz"].update(fast=0.5),
                "by_opp_mhz key must be a finite number, got 'fast'",
            ),
            (
                lambda d: d["by_opp_mhz"].update(nan=0.5),
                "by_opp_mhz key must be a finite number, got nan",
            ),
        ],
        ids=["no-jobs", "no-total", "float-jobs", "inf-overlap",
             "null-counterfactual", "list-phases", "string-phase-time",
             "bool-opp-energy", "word-opp-key", "nan-opp-key"],
    )
    def test_from_dict_rejects_malformed_field(self, edit, message):
        payload = self._state().as_dict()
        edit(payload)
        with pytest.raises(ValueError) as error:
            EnergyState.from_dict(payload)
        assert str(error.value) == f"energy state: {message}"

    def test_from_dict_names_its_owner(self):
        with pytest.raises(ValueError) as error:
            EnergyState.from_dict([1.5], "tenant 'a' energy")
        assert str(error.value) == (
            "tenant 'a' energy must be a JSON object, got [1.5]"
        )

    def test_picklable_for_the_worker_pool(self):
        state = self._state()
        assert pickle.loads(pickle.dumps(state)) == state

    def test_savings_and_j_per_job_edge_cases(self):
        empty = EnergyState()
        assert math.isnan(empty.savings_frac)
        assert math.isnan(empty.j_per_job)
        state = self._state()
        assert state.savings_frac == pytest.approx(1.0 - 1.5 / 2.0)
        assert state.j_per_job == pytest.approx(0.75)


class TestMetricsAndRender:
    def test_energy_metrics_shape_and_names(self):
        _, ledger, board = _governed_run("sha", n_jobs=6)
        error = ledger.conservation_error_j(board.energy_j())
        dump = energy_metrics(ledger.state(), error)
        assert dump["counters"]["energy.jobs"] == 6
        gauges = dump["gauges"]
        assert gauges["energy.total_j"] > 0.0
        assert gauges["energy.counterfactual_j"] > 0.0
        assert gauges["energy.conservation_error_j"] <= CONSERVATION_TOL_J
        assert "energy.j_per_job" in gauges
        assert any(k.startswith("energy.phase_j[") for k in gauges)
        assert any(k.startswith("energy.opp_j[") for k in gauges)

    def test_savings_gauge_gates_higher_is_better(self):
        from repro.telemetry.report import metric_direction

        assert metric_direction("energy.savings_frac") == "higher"
        assert metric_direction("energy.total_j") == "lower"
        assert metric_direction("fleet.energy_savings_frac") == "higher"

    def test_render_energy_mentions_every_phase(self):
        _, ledger, _ = _governed_run("sha", n_jobs=6)
        text = render_energy(ledger.state())
        for phase in ENERGY_PHASES:
            assert phase in text
        assert "vs performance governor" in text

    def test_render_cells_lists_top_jobs(self):
        _, ledger, _ = _governed_run("sha", n_jobs=6)
        text = render_energy_cells(ledger, top_n=3)
        assert "top-3" in text
        assert "execute" in text
