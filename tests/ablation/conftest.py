"""Shared fixtures: one small executed matrix reused across test files.

The matrix is deliberately tiny (one workload, two stress scenarios,
short runs) but real — every component trains/runs through the actual
pipeline, so direction and divergence assertions are made against
measured behaviour, not mocks.
"""

import pytest

from repro.ablation.planner import Scenario, plan_matrix
from repro.ablation.runner import run_ablation
from repro.ablation.score import score_ablation

SEED = 7
N_JOBS = 40
PROFILE_JOBS = 20
SWITCH_SAMPLES = 5

SCENARIOS = (
    Scenario("jitter", jitter_sigma=0.10),
    Scenario("drift", drift_factor=1.4),
)


@pytest.fixture(scope="session")
def matrix_plan():
    return plan_matrix(
        ["rijndael"],
        seed=SEED,
        n_jobs=N_JOBS,
        scenarios=SCENARIOS,
        profile_jobs=PROFILE_JOBS,
        switch_samples=SWITCH_SAMPLES,
    )


@pytest.fixture(scope="session")
def matrix_result(matrix_plan):
    return run_ablation(matrix_plan, workers=2)


@pytest.fixture(scope="session")
def matrix_report(matrix_result):
    return score_ablation(matrix_result, resamples=100)
