"""Tests for the eight benchmark workloads.

Every app must be structurally valid, deterministic per seed, calibrated
to Table 2 within tolerance, and fully compatible with the offline
pipeline (instrumentable, sliceable, and with slice features matching the
instrumented run).
"""

import numpy as np
import pytest

from repro.platform.cpu import SimulatedCpu
from repro.platform.opp import default_xu3_a7_table
from repro.programs.instrument import Instrumenter
from repro.programs.interpreter import Interpreter
from repro.programs.slicer import Slicer
from repro.programs.validate import free_variables, validate_program
from repro.workloads.registry import app_names, get_app

OPPS = default_xu3_a7_table()
INTERP = Interpreter()
CPU = SimulatedCpu()

#: Tolerances against Table 2: the paper measured a real board; we match
#: the shape, not the microsecond (DESIGN.md substitution notes).
REL_TOL = 0.30
N_JOBS = {"pocketsphinx": 50}


def job_times_ms(app, n_jobs=250, seed=0):
    n_jobs = N_JOBS.get(app.name, n_jobs)
    g = app.task.program.fresh_globals()
    return np.array(
        [
            CPU.ideal_time(
                INTERP.execute(app.task.program, inputs, g).work, OPPS.fmax
            )
            * 1000.0
            for inputs in app.inputs(n_jobs, seed=seed)
        ]
    )


class TestRegistry:
    def test_eight_apps_in_table2_order(self):
        assert app_names() == [
            "2048",
            "curseofwar",
            "ldecode",
            "pocketsphinx",
            "rijndael",
            "sha",
            "uzbl",
            "xpilot",
        ]

    def test_get_app_by_name(self):
        assert get_app("ldecode").name == "ldecode"

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError, match="available"):
            get_app("doom")

    def test_all_apps_fresh_instances(self):
        first, second = get_app("sha"), get_app("sha")
        assert first is not second


@pytest.mark.parametrize("name", [
    "2048", "curseofwar", "ldecode", "pocketsphinx",
    "rijndael", "sha", "uzbl", "xpilot",
])
class TestEveryApp:
    def test_program_valid(self, name):
        validate_program(get_app(name).task.program)

    def test_inputs_deterministic_per_seed(self, name):
        app = get_app(name)
        assert app.inputs(20, seed=3) == app.inputs(20, seed=3)

    def test_inputs_vary_across_seeds(self, name):
        app = get_app(name)
        assert app.inputs(50, seed=1) != app.inputs(50, seed=2)

    def test_input_count_validated(self, name):
        with pytest.raises(ValueError):
            get_app(name).inputs(0)

    def test_inputs_cover_free_variables(self, name):
        """Every variable the program needs is supplied by the generator."""
        app = get_app(name)
        required = free_variables(app.task.program)
        for inputs in app.inputs(30, seed=0):
            assert required <= set(inputs), (
                f"{name}: inputs missing {required - set(inputs)}"
            )

    def test_execution_times_vary_between_jobs(self, name):
        times = job_times_ms(get_app(name), n_jobs=60)
        assert times.std() > 0

    def test_calibration_against_table2(self, name):
        app = get_app(name)
        times = job_times_ms(app)
        stats = app.paper_stats
        assert times.mean() == pytest.approx(stats.avg_ms, rel=REL_TOL)
        assert times.max() == pytest.approx(stats.max_ms, rel=REL_TOL)
        # The minimum is the noisiest statistic; allow a looser band but
        # insist on the right order of magnitude.
        assert times.min() < stats.min_ms * 3
        assert times.min() > stats.min_ms / 5

    def test_budget_feasible_at_fmax(self, name):
        """Per the paper, the default budget exceeds the max job time, so
        running flat-out never misses."""
        app = get_app(name)
        times = job_times_ms(app)
        assert times.max() / 1000.0 <= app.task.budget_s

    def test_instrument_and_slice_features_match(self, name):
        app = get_app(name)
        inst = Instrumenter().instrument(app.task.program)
        sl = Slicer().slice(inst)
        g_full = app.task.program.fresh_globals()
        g_slice = app.task.program.fresh_globals()
        for inputs in app.inputs(25, seed=4):
            full = INTERP.execute(inst.program, inputs, g_full)
            sliced = INTERP.execute_isolated(sl.program, inputs, g_slice)
            assert sliced.features.counters == full.features.counters
            assert (
                sliced.features.call_addresses == full.features.call_addresses
            )
            # Keep the slice's view of state in step with the real run.
            INTERP.execute(app.task.program, inputs, g_slice)

    def test_slice_is_cheap(self, name):
        """Slice cost must be a tiny fraction of mean job cost (this is
        what makes sequential predictor placement viable, Fig. 17)."""
        app = get_app(name)
        inst = Instrumenter().instrument(app.task.program)
        sl = Slicer().slice(inst)
        g = app.task.program.fresh_globals()
        job_cycles = []
        slice_cycles = []
        for inputs in app.inputs(25, seed=5):
            job_cycles.append(INTERP.execute(app.task.program, inputs, g).work.cycles)
            slice_cycles.append(
                INTERP.execute_isolated(sl.program, inputs, g).work.cycles
            )
        assert np.mean(slice_cycles) < np.mean(job_cycles) * 0.02


class TestStateEvolution:
    def test_2048_occupancy_drives_game_over_scan(self):
        app = get_app("2048")
        inputs = app.inputs(300, seed=0)
        assert any(job["occupancy"] >= 14 for job in inputs)

    def test_uzbl_navigation_changes_dom_state(self):
        app = get_app("uzbl")
        program = app.task.program
        g = program.fresh_globals()
        before = g["dom_nodes"]
        nav = {"cmd": 3, "n_lines": 5, "page_size": 999}
        INTERP.execute(program, nav, g)
        assert g["dom_nodes"] == 999
        assert g["dom_nodes"] != before

    def test_uzbl_refresh_cost_depends_on_last_page(self):
        app = get_app("uzbl")
        program = app.task.program
        refresh = {"cmd": 2, "n_lines": 5, "page_size": 300}
        g_small = dict(program.fresh_globals(), dom_nodes=100)
        g_big = dict(program.fresh_globals(), dom_nodes=1000)
        small = INTERP.execute(program, refresh, g_small).work.cycles
        big = INTERP.execute(program, refresh, g_big).work.cycles
        assert big > small * 3

    def test_ldecode_idr_every_30_frames(self):
        inputs = get_app("ldecode").inputs(90, seed=0)
        idr = [i for i, job in enumerate(inputs) if job["frame_kind"] == 1]
        assert idr == [0, 30, 60]

    def test_curseofwar_has_idle_and_battle_ticks(self):
        inputs = get_app("curseofwar").inputs(400, seed=0)
        assert any(job["active"] == 0 for job in inputs)
        assert any(job["n_combat_cells"] > 400 for job in inputs)

    def test_rijndael_key_kind_sets_rounds(self):
        app = get_app("rijndael")
        program = app.task.program
        cycles = {}
        for kind in (0, 1, 2):
            g = program.fresh_globals()
            result = INTERP.execute(
                program, {"n_chunks": 10, "key_kind": kind}, g
            )
            cycles[kind] = result.work.cycles
            assert g["rounds"] == {0: 10, 1: 12, 2: 14}[kind]
        assert cycles[0] < cycles[1] < cycles[2]
