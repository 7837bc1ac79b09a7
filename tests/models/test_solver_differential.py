"""The FISTA loop of :mod:`repro.models.solver` against its verbatim
predecessor in ``tests/models/reference_solver.py``.

Every fit must return the same ``beta`` bytes (signed zeros included),
``n_iter``, ``converged`` flag and ``objective`` bytes, whether it runs
alone (:func:`solve_asymmetric_lasso`) or as one row of a stacked solve
(:func:`solve_asymmetric_lasso_stack`) beside other targets on the same
``X``.  The problems include what the pipeline's designs hold (dead
columns, columns that are exact combinations of others, an unpenalized
intercept) and the edges of the step (no L1 term, alpha < 1, zero L1
weights, a single step, tol 0).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.models.asymmetric as asymmetric
from repro.models import solver
from repro.models.solver import (
    solve_asymmetric_lasso,
    solve_asymmetric_lasso_stack,
)
from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller
from repro.platform.opp import default_xu3_a7_table
from repro.platform.switching import SwitchLatencyModel
from repro.workloads.registry import get_app
from tests.models.reference_solver import (
    solve_asymmetric_lasso as reference_solve,
)

OPPS = default_xu3_a7_table()


def assert_same_result(new, old):
    assert new.beta.tobytes() == old.beta.tobytes(), (new.beta, old.beta)
    assert new.n_iter == old.n_iter
    assert new.converged == old.converged
    assert (
        np.float64(new.objective).tobytes()
        == np.float64(old.objective).tobytes()
    )


def assert_same_fit(X, y, **kwargs):
    new = solve_asymmetric_lasso(X, y, **kwargs)
    assert_same_result(new, reference_solve(X, y, **kwargs))
    return new


def assert_same_stack(X, Y, **kwargs):
    """Each row of the stacked solve against the reference run on that
    row's target alone."""
    results = solve_asymmetric_lasso_stack(X, Y, **kwargs)
    assert len(results) == len(Y)
    for result, y in zip(results, Y):
        assert_same_result(result, reference_solve(X, y, **kwargs))
    return results


def design(seed, kinds, n_rows, n_targets=None):
    """A counter-like design with one column per entry of ``kinds``:
    ``free`` (random counts), ``dead`` (all zero), ``scaled`` (an exact
    multiple of the first column), ``sum`` (the first two columns
    added) or ``one`` (an intercept).  Each target is a random
    combination of the columns plus noise: one 1-D ``y``, or a
    (``n_targets``, ``n_rows``) stack."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 40, (n_rows, len(kinds))).astype(float)
    for j, kind in enumerate(kinds):
        if kind == "dead":
            X[:, j] = 0.0
        elif kind == "scaled":
            X[:, j] = 3.0 * X[:, 0]
        elif kind == "sum":
            X[:, j] = X[:, 0] + X[:, min(1, len(kinds) - 1)]
        elif kind == "one":
            X[:, j] = 1.0
    Y = np.stack(
        [
            X @ rng.uniform(-2.0, 5.0, len(kinds))
            + rng.normal(0.0, 4.0, n_rows)
            for _ in range(n_targets or 1)
        ]
    )
    Y += 50.0
    return X, (Y[0] if n_targets is None else Y)


@st.composite
def problems(draw):
    n_features = draw(st.integers(1, 7))
    kinds = draw(
        st.lists(
            st.sampled_from(["free", "dead", "scaled", "sum", "one"]),
            min_size=n_features,
            max_size=n_features,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    X, Y = design(
        seed, kinds, draw(st.integers(1, 40)), draw(st.integers(1, 3))
    )
    mask = draw(
        st.one_of(
            st.none(),
            st.lists(st.booleans(), min_size=n_features, max_size=n_features),
        )
    )
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from([0.0, 0.25, 1.0, 7.0]),
                min_size=n_features,
                max_size=n_features,
            ),
        )
    )
    return X, Y, dict(
        alpha=draw(st.sampled_from([0.3, 1.0, 10.0, 100.0, 1000.0])),
        gamma=draw(st.sampled_from([0.0, 1.0, 50.0, 3e3])),
        penalty_mask=None if mask is None else np.array(mask),
        gamma_weights=None if weights is None else np.array(weights),
        max_iter=draw(st.sampled_from([1, 2, 9, 120, 600])),
        tol=draw(st.sampled_from([0.0, 1e-9, 1e-5, 0.05, 1.5])),
    )


class TestRandomProblems:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(problem=problems())
    @example(
        problem=(
            *design(
                5, ["free", "dead", "scaled", "free", "sum", "one"], 30, 2
            ),
            dict(
                alpha=0.5,
                gamma=40.0,
                penalty_mask=np.array([True, False, True, False, True, False]),
                gamma_weights=np.array([1.0, 0.0, 0.0, 2.0, 1.0, 1.0]),
                max_iter=600,
                tol=1e-9,
            ),
        )
    )
    def test_same_fit_as_reference(self, problem):
        X, Y, kwargs = problem
        assert_same_stack(X, Y, **kwargs)


class TestEdges:
    X, y = design(11, ["free", "dead", "scaled", "free", "sum", "one"], 25)

    def test_dead_and_dependent_columns(self):
        result = assert_same_fit(
            self.X, self.y, alpha=100.0, gamma=10.0, max_iter=3000
        )
        assert result.beta[1] == 0.0

    def test_no_l1_term(self):
        assert_same_fit(self.X, self.y, alpha=100.0, gamma=0.0, max_iter=800)

    def test_non_contiguous_penalty_mask(self):
        mask = np.array([True, False, True, False, True, False])
        assert_same_fit(
            self.X, self.y, gamma=500.0, penalty_mask=mask, max_iter=800
        )

    def test_zero_gamma_weights(self):
        weights = np.array([0.0, 1.0, 0.0, 5.0, 0.0, 1.0])
        assert_same_fit(
            self.X, self.y, gamma=500.0, gamma_weights=weights, max_iter=800
        )

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0])
    def test_alpha_at_most_one(self, alpha):
        assert_same_fit(self.X, self.y, alpha=alpha, gamma=5.0, max_iter=800)

    def test_one_step_no_tolerance(self):
        result = assert_same_fit(
            self.X, self.y, gamma=5.0, max_iter=1, tol=0.0
        )
        assert result.n_iter == 1 and not result.converged

    def test_all_zero_design(self):
        assert_same_fit(np.zeros((6, 3)), np.ones(6), gamma=1.0)


class TestStack:
    """Rows that share X retire one by one, each at its own step."""

    X, y = design(0, ["free", "free", "dead", "free"], 30)
    Y = np.stack([y, 0.5 * y + 3.0, 200.0 - y])

    def test_rows_retire_at_different_iterations(self):
        results = assert_same_stack(
            self.X, self.Y, gamma=10.0, max_iter=3000, tol=1e-6
        )
        assert [r.n_iter for r in results] == [623, 577, 353]
        assert all(r.converged for r in results)

    def test_capped_row_beside_converged_rows(self):
        results = assert_same_stack(
            self.X, self.Y, gamma=10.0, max_iter=600, tol=1e-6
        )
        assert [(r.n_iter, r.converged) for r in results] == [
            (600, False),
            (577, True),
            (353, True),
        ]

    def test_zero_target_retires_first(self):
        """A zero target has a zero gradient: it stops at the first step
        while the row before it runs on."""
        Y = np.stack([self.y, np.zeros_like(self.y)])
        results = assert_same_stack(self.X, Y, gamma=10.0, max_iter=800)
        assert [r.n_iter for r in results] == [800, 1]

    def test_one_target_through_the_plain_solver(self):
        options = dict(gamma=10.0, max_iter=3000, tol=1e-6)
        plain = assert_same_fit(self.X, self.Y[1], **options)
        (stacked,) = solve_asymmetric_lasso_stack(
            self.X, self.Y[1:2], **options
        )
        assert_same_result(stacked, plain)

    @pytest.mark.parametrize(
        "shape", [(0, 30), (2, 29), (30,), (1, 2, 30)], ids=str
    )
    def test_rejects_targets_not_matching_X(self, shape):
        with pytest.raises(ValueError) as error:
            solve_asymmetric_lasso_stack(self.X, np.ones(shape))
        assert "targets of shape" in str(error.value)


@pytest.fixture(scope="module")
def pipeline_problems():
    """The (X, Y, options) of every stacked solve ``build_controller``
    makes for 2048, uzbl and sha at 40 profile jobs."""
    calls = []
    original = asymmetric.solve_asymmetric_lasso_stack

    def record(X, Y, **kwargs):
        calls.append((X.copy(), Y.copy(), kwargs))
        return original(X, Y, **kwargs)

    asymmetric.solve_asymmetric_lasso_stack = record
    try:
        for name in ("2048", "uzbl", "sha"):
            build_controller(
                get_app(name),
                opps=OPPS,
                config=PipelineConfig(n_profile_jobs=40),
                switch_table=SwitchLatencyModel(OPPS).microbenchmark(2),
            )
    finally:
        asymmetric.solve_asymmetric_lasso_stack = original
    return calls


class TestPipelineDesigns:
    def test_every_fit_matches(self, pipeline_problems):
        """One solve per controller, fmax and fmin stacked."""
        assert [len(Y) for _, Y, _ in pipeline_problems] == [2, 2, 2]
        for X, Y, kwargs in pipeline_problems:
            assert_same_stack(X, Y, **kwargs)


class TestMomentumCoefficients:
    def test_match_the_numpy_scalar_recurrence(self):
        """The precomputed coefficients equal, bit for bit, the ones the
        reference loop derives step by step with numpy scalars."""
        steps = 30_000
        expected = []
        t_accel = 1.0
        for _ in range(steps):
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_accel**2)) / 2.0
            expected.append((t_accel - 1.0) / t_next)
            t_accel = t_next
        got = solver._momentum_coefficients(steps)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_one_per_step(self):
        assert len(solver._momentum_coefficients(7)) == 7
        assert list(solver._momentum_coefficients(1)) == [0.0]
