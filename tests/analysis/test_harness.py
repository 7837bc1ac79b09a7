"""Tests for the Lab experiment workbench."""

import pytest

from repro.analysis.harness import (
    GOVERNOR_NAMES,
    Lab,
    default_n_jobs,
    seeded_board,
)
from repro.platform.cpu import Work
from repro.platform.opp import default_xu3_a7_table
from tests.platform.test_sensor_board import run_work

OPPS = default_xu3_a7_table()


@pytest.fixture(scope="module")
def lab():
    # Small switch benchmark keeps this module fast.
    return Lab(switch_samples=30)


class TestLabConstruction:
    def test_default_n_jobs(self):
        assert default_n_jobs("ldecode") == 250
        assert default_n_jobs("pocketsphinx") == 40

    def test_governor_names_constructible(self, lab):
        for name in GOVERNOR_NAMES:
            gov = lab.make_governor(name, "sha")
            assert gov.name == name

    def test_unknown_governor_rejected(self, lab):
        with pytest.raises(ValueError, match="unknown governor"):
            lab.make_governor("turbo", "sha")

    def test_controller_cached_per_app(self, lab):
        first = lab.controller("sha")
        second = lab.controller("sha")
        assert first is second

    def test_controllers_differ_across_apps(self, lab):
        assert lab.controller("sha") is not lab.controller("2048")

    def test_labs_with_equal_build_inputs_share_controllers(self, lab):
        assert Lab(switch_samples=30).controller("sha") is lab.controller("sha")

    def test_switch_seed_is_part_of_the_controller_key(self, lab):
        config = lab.pipeline_config
        other = Lab(switch_samples=30, seed=43)
        assert other.trained_controller("sha", config) is not (
            lab.trained_controller("sha", config)
        )


class TestSeededBoard:
    WORK = Work(cycles=1e7)

    def test_unit_drift_is_no_drift(self):
        plain = seeded_board(OPPS, None, 0.05, 3, 4)
        unit = seeded_board(OPPS, None, 0.05, 3, 4, drift=(1.0, 0.0))
        assert [run_work(plain, self.WORK) for _ in range(5)] == [
            run_work(unit, self.WORK) for _ in range(5)
        ]

    def test_drift_engages_at_its_simulated_time(self):
        t = self.WORK.cycles / (OPPS.fmax.freq_mhz * 1e6)
        board = seeded_board(OPPS, None, 0.0, 3, 4, drift=(2.0, 2.5 * t))
        times = [run_work(board, self.WORK) for _ in range(4)]
        assert times == pytest.approx([t, t, t, 2 * t])

    def test_jitter_and_switch_streams_have_their_own_seeds(self):
        a = seeded_board(OPPS, None, 0.05, 3, 4)
        b = seeded_board(OPPS, None, 0.05, 3, 5)
        assert run_work(a, self.WORK) == run_work(b, self.WORK)
        assert a.set_frequency(OPPS.fmin) != b.set_frequency(OPPS.fmin)


class TestLabRuns:
    def test_run_returns_result(self, lab):
        result = lab.run("sha", "performance", n_jobs=20)
        assert result.n_jobs == 20
        assert result.governor == "performance"

    def test_run_cache_hits_for_identical_calls(self, lab):
        first = lab.run("sha", "performance", n_jobs=20)
        second = lab.run("sha", "performance", n_jobs=20)
        assert first is second

    def test_cache_distinguishes_parameters(self, lab):
        plain = lab.run("sha", "performance", n_jobs=20)
        idled = lab.run("sha", "performance", n_jobs=20, idle=True)
        assert plain is not idled

    def test_use_cache_false_reruns(self, lab):
        first = lab.run("sha", "performance", n_jobs=20)
        second = lab.run("sha", "performance", n_jobs=20, use_cache=False)
        assert first is not second
        assert first.energy_j == pytest.approx(second.energy_j)

    def test_normalized_energy_of_reference_is_one(self, lab):
        result = lab.run("sha", "performance", n_jobs=20)
        assert lab.normalized_energy(result, "sha") == pytest.approx(1.0)

    def test_prediction_saves_energy_without_misses(self, lab):
        result = lab.run("sha", "prediction", n_jobs=40)
        assert lab.normalized_energy(result, "sha") < 0.95
        assert result.miss_rate == 0.0

    def test_deterministic_across_labs(self):
        a = Lab(switch_samples=30).run("xpilot", "prediction", n_jobs=30)
        b = Lab(switch_samples=30).run("xpilot", "prediction", n_jobs=30)
        assert a.energy_j == pytest.approx(b.energy_j)
        assert a.miss_rate == b.miss_rate

    def test_seed_changes_results(self):
        a = Lab(switch_samples=30, seed=1).run("xpilot", "performance", n_jobs=30)
        b = Lab(switch_samples=30, seed=2).run("xpilot", "performance", n_jobs=30)
        assert a.energy_j != pytest.approx(b.energy_j)

    def test_oracle_runs_with_oracle_work(self, lab):
        # The paper's oracle is always evaluated with overheads ignored
        # (Fig. 18); with them charged, a switch can push a tightly-chosen
        # level past the deadline.
        result = lab.run(
            "sha",
            "oracle",
            n_jobs=20,
            charge_switch=False,
            charge_predictor=False,
        )
        assert result.miss_rate == 0.0
