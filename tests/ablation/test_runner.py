"""Runner determinism: worker-count independence and paired streams."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.ablation.planner import Scenario, plan_matrix
from repro.ablation.runner import AblationResult, run_ablation

TINY = dict(
    seed=11,
    n_jobs=8,
    components=["safety_margin"],
    profile_jobs=20,
    switch_samples=5,
)
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _last_of_plans_in_one_process(*seeds: int) -> str:
    """Run the tiny plan at each seed in turn, in one fresh interpreter;
    the last plan's results as JSON."""
    script = f"""
import json
from repro.ablation.planner import Scenario, plan_matrix
from repro.ablation.runner import run_ablation

for seed in {list(seeds)!r}:
    plan = plan_matrix(
        ["rijndael"],
        scenarios=[Scenario("jitter", jitter_sigma=0.10)],
        **dict({TINY!r}, seed=seed),
    )
    result = run_ablation(plan)
print(json.dumps(result.as_dict(), sort_keys=True))
"""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def tiny_plan():
    return plan_matrix(
        ["rijndael"],
        scenarios=[Scenario("jitter", jitter_sigma=0.10)],
        **TINY,
    )


class TestWorkerIndependence:
    def test_results_identical_across_worker_counts(self, tiny_plan):
        rendered = {
            workers: json.dumps(
                run_ablation(tiny_plan, workers=workers).as_dict(),
                sort_keys=True,
            )
            for workers in (1, 2, 4)
        }
        assert rendered[1] == rendered[2] == rendered[4]

    def test_worker_count_validated(self, tiny_plan):
        with pytest.raises(ValueError):
            run_ablation(tiny_plan, workers=0)


class TestProcessIndependence:
    def test_results_do_not_depend_on_earlier_plans_in_the_process(self):
        """A plan run after another plan at a different seed equals the
        same plan in a fresh interpreter: trained controllers are cached
        per seed, never reused across seeds."""
        assert _last_of_plans_in_one_process(7, 11) == (
            _last_of_plans_in_one_process(11)
        )


class TestPairedStreams:
    def test_variants_replay_identical_job_streams(self, matrix_result):
        """Same (workload, scenario) cell, any variant: the jobs are the
        same jobs — seed paths exclude the variant, so per-job deltas
        are paired comparisons, not noise."""
        base = matrix_result.cell("rijndael", "jitter", "baseline")
        for variant in matrix_result.plan.variants:
            cell = matrix_result.cell("rijndael", "jitter", variant.name)
            assert cell.n_jobs == base.n_jobs
            assert len(cell.job_energy_j) == base.n_jobs
            assert len(cell.decisions) == base.n_jobs

    def test_cells_cover_the_whole_plan_in_order(self, matrix_result):
        plan = matrix_result.plan
        keys = [
            (c.workload, c.scenario, c.variant)
            for c in matrix_result.cells
        ]
        assert keys == [
            (w, s.name, v.name)
            for w in plan.workloads
            for s in plan.scenarios
            for v in plan.variants
        ]

    def test_unknown_cell_lookup_names_valid_axes(self, matrix_result):
        with pytest.raises(KeyError, match="rijndael"):
            matrix_result.cell("rijndael", "jitter", "nonesuch")


class TestResultRoundTrip:
    def test_json_round_trip_is_lossless(self, matrix_result):
        rendered = json.dumps(matrix_result.as_dict(), sort_keys=True)
        again = AblationResult.from_dict(json.loads(rendered))
        assert (
            json.dumps(again.as_dict(), sort_keys=True) == rendered
        )
        assert again.plan == matrix_result.plan

    def test_decisions_survive_serialization(self, matrix_result):
        cell = matrix_result.cells[0]
        again = type(cell).from_dict(
            json.loads(json.dumps(cell.as_dict()))
        )
        assert again.decisions == cell.decisions

    def test_energy_attribution_covers_every_job(self, matrix_result):
        for cell in matrix_result.cells:
            assert all(e > 0 for e in cell.job_energy_j)
            assert cell.misses == sum(cell.job_missed)
