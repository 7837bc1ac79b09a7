"""Tests for cost-aware feature selection (weighted L1, paper §3.5)."""

import numpy as np
import pytest

from repro.models.asymmetric import AsymmetricLassoModel
from repro.models.solver import solve_asymmetric_lasso
from tests.models.lasso_fit import fit, predict


def redundant_features(seed=0, n=300):
    """Two features carrying (almost) the same signal, one 'expensive'."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 10, n)
    cheap = base + rng.normal(0, 0.05, n)
    expensive = base + rng.normal(0, 0.05, n)
    noise = rng.uniform(0, 10, n)
    X = np.stack([cheap, expensive, noise], axis=1)
    y = 2.0 * base + rng.normal(0, 0.2, n)
    return X, y


class TestSolverWeights:
    def test_weights_validated(self):
        X, y = redundant_features()
        with pytest.raises(ValueError):
            solve_asymmetric_lasso(X, y, gamma_weights=np.ones(2))
        with pytest.raises(ValueError):
            solve_asymmetric_lasso(X, y, gamma_weights=-np.ones(3))

    def test_uniform_weights_match_plain(self):
        X, y = redundant_features()
        plain = solve_asymmetric_lasso(X, y, alpha=1.0, gamma=10.0)
        weighted = solve_asymmetric_lasso(
            X, y, alpha=1.0, gamma=10.0, gamma_weights=np.ones(3)
        )
        assert np.allclose(plain.beta, weighted.beta, atol=1e-8)

    def test_heavily_weighted_feature_dies_first(self):
        X, y = redundant_features()
        result = solve_asymmetric_lasso(
            X,
            y,
            alpha=1.0,
            gamma=50.0,
            gamma_weights=np.array([1.0, 50.0, 1.0]),
        )
        # The expensive twin is dropped; the cheap one carries the signal.
        assert abs(result.beta[1]) < 1e-8
        assert abs(result.beta[0]) > 0.5

    def test_symmetric_twins_without_weights_share(self):
        """Sanity: without cost weights the twins both survive (or the
        solver splits between them) — the asymmetry really comes from
        the weights."""
        X, y = redundant_features()
        result = solve_asymmetric_lasso(X, y, alpha=1.0, gamma=50.0)
        assert abs(result.beta[0]) + abs(result.beta[1]) > 0.5


class TestModelCostAwareFit:
    def test_gamma_weights_forwarded(self):
        X, y = redundant_features()
        model = fit(
            AsymmetricLassoModel(alpha=1.0, gamma=2000.0),
            X,
            y,
            gamma_weights=np.array([1.0, 100.0, 1.0]),
        )
        mask = model.selected_mask()
        assert not mask[1]
        assert mask[0]

    def test_prediction_quality_survives_dropping_expensive_twin(self):
        """A small base gamma with a large cost multiplier kills the
        expensive twin without over-shrinking the survivor."""
        X, y = redundant_features()
        cost_aware = fit(
            AsymmetricLassoModel(alpha=1.0, gamma=100.0),
            X,
            y,
            gamma_weights=np.array([1.0, 2000.0, 1.0]),
        )
        assert not cost_aware.selected_mask()[1]
        err = np.abs(predict(cost_aware, X) - y).mean()
        assert err < 0.5  # the cheap twin suffices


class TestPredictorFeatureCosts:
    def test_costs_steer_site_selection(self):
        """End-to-end: a cheap Hint duplicating an expensive in-loop
        feature wins the slot when costs are provided (§3.5: replace
        high-overhead features)."""
        from repro.features.encoding import FeatureEncoder
        from repro.features.profiler import Profiler
        from repro.models.timing import ExecutionTimePredictor
        from repro.platform.cpu import SimulatedCpu
        from repro.platform.opp import default_xu3_a7_table
        from repro.programs.expr import Var
        from repro.programs.instrument import Instrumenter
        from repro.programs.interpreter import Interpreter
        from repro.programs.ir import Block, Hint, Loop, Program, Seq

        # Work is n * 40k; both the loop counter and the hint expose n.
        program = Program(
            "dual",
            Seq(
                [
                    Hint("n_hint", Var("n"), cost=10),
                    Loop("work_loop", Var("n"), Block(40_000)),
                ]
            ),
        )
        inst = Instrumenter().instrument(program)
        profiler = Profiler(
            Interpreter(), SimulatedCpu(), default_xu3_a7_table()
        )
        trace = profiler.profile(
            inst, [{"n": 10 + 13 * i % 400} for i in range(120)]
        )
        encoder = FeatureEncoder(inst.sites).fit(trace.raw_features)
        names = list(encoder.column_names)
        costs = np.ones(encoder.n_columns)
        costs[names.index("work_loop")] = 200.0  # iterating is expensive

        predictor = ExecutionTimePredictor.train(
            encoder,
            trace,
            alpha=1.0,
            gamma=2e-4 * len(trace) * float(np.mean(trace.times_s("fmax"))),
            feature_costs=costs,
        )
        assert predictor.needed_sites == frozenset({"n_hint"})

    def test_costs_length_validated(self):
        from repro.features.encoding import FeatureEncoder
        from repro.features.profiler import Profiler
        from repro.models.timing import ExecutionTimePredictor
        from repro.platform.cpu import SimulatedCpu
        from repro.platform.opp import default_xu3_a7_table
        from repro.programs.expr import Var
        from repro.programs.instrument import Instrumenter
        from repro.programs.interpreter import Interpreter
        from repro.programs.ir import Block, Loop, Program

        program = Program("p", Loop("l", Var("n"), Block(1000)))
        inst = Instrumenter().instrument(program)
        profiler = Profiler(
            Interpreter(), SimulatedCpu(), default_xu3_a7_table()
        )
        trace = profiler.profile(inst, [{"n": i} for i in range(20)])
        encoder = FeatureEncoder(inst.sites).fit(trace.raw_features)
        with pytest.raises(ValueError, match="feature_costs"):
            ExecutionTimePredictor.train(
                encoder, trace, feature_costs=np.ones(99)
            )
