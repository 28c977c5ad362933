"""Total effects, implied moments, and regression blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semcontrol as sc
from support import mean_stderr, random_cyclic_model


class TestTotalEffects:
    def test_single_edge_effect_is_the_coefficient(self):
        model = sc.StructuralModel.from_edges([("X", "Y", 0.73)])
        part = sc.partition_vertices(model, "X", "Y")
        eff = sc.total_effects(model, part)
        assert eff.to_response == pytest.approx(0.73, abs=1e-15)

    def test_chain_effect_is_the_path_product(self):
        model = sc.StructuralModel.from_edges(
            [("X", "U1", 0.5), ("U1", "Y", 0.4)], variables=["Y", "U1", "X"]
        )
        part = sc.partition_vertices(model, "X", "Y")
        eff = sc.total_effects(model, part)
        assert eff.to_response == pytest.approx(0.2, abs=1e-15)
        assert part.free_descendants == ("U1",)
        assert eff.to_free_descendants[0] == pytest.approx(0.5, abs=1e-15)

    def test_matches_monte_carlo_slope(self):
        model, treatment, response = random_cyclic_model(21, n_min=6, n_max=6)
        part = sc.partition_vertices(model, treatment, response)
        eff = sc.total_effects(model, part)

        n = 400_000
        means, errs = [], []
        for x in (-1.0, 1.0):
            plan = sc.ControlPlan(x, np.zeros(1), np.zeros(0))
            data = sc.simulate_plan(model, part, plan, sc.SimulationConfig(n, seed=5))
            y = data.column(response)
            means.append(y.mean())
            errs.append(mean_stderr(y))
        slope = (means[1] - means[0]) / 2.0
        slope_err = np.hypot(*errs) / 2.0
        assert abs(slope - eff.to_response) < 5 * slope_err

    def test_singular_descendant_system(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 0.5), ("Y", "U", 1.0), ("U", "Y", 1.0)],
            variables=["Y", "U", "X"],
        )
        part = sc.partition_vertices(model, "X", "Y")
        with pytest.raises(sc.SingularSystem):
            sc.total_effects(model, part)


class TestImpliedMoments:
    def test_no_edges_reduces_to_disturbances(self):
        model = sc.StructuralModel.from_edges(
            [],
            variables=["A", "B"],
            intercepts={"A": 1.0, "B": -2.0},
            disturbance_variances={"A": 2.0, "B": 0.5},
        )
        mom = sc.implied_moments(model)
        assert np.allclose(mom.mean, [1.0, -2.0])
        assert np.allclose(mom.covariance, np.diag([2.0, 0.5]))

    def test_single_edge_variance_propagation(self):
        sigma1, sigma2, c = 1.7, 0.6, 0.8
        model = sc.StructuralModel.from_edges(
            [("X", "Y", c)],
            variables=["Y", "X"],
            disturbance_variances={"X": sigma1, "Y": sigma2},
        )
        mom = sc.implied_moments(model)
        assert mom.var("Y") == pytest.approx(c**2 * sigma1 + sigma2, rel=1e-14)
        assert mom.cov("X", "Y") == pytest.approx(c * sigma1, rel=1e-14)

    def test_two_cycle_matches_monte_carlo(self, two_cycle_model):
        mom = sc.implied_moments(two_cycle_model)
        n = 1_000_000
        data = sc.draw_equilibrium(two_cycle_model, sc.SimulationConfig(n, seed=11))
        emp_cov = np.cov(data.rows, rowvar=False, ddof=1)
        # gaussian draws, so var(c_ij) = (s_ii s_jj + s_ij^2) / (n - 1)
        for i in range(2):
            for j in range(2):
                se = np.sqrt(
                    (mom.covariance[i, i] * mom.covariance[j, j] + mom.covariance[i, j] ** 2)
                    / (n - 1)
                )
                assert abs(emp_cov[i, j] - mom.covariance[i, j]) < 3 * se

    def test_unstable_model_rejected(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 1.5), ("Y", "X", 0.8)], variables=["Y", "X"]
        )
        with pytest.raises(sc.UnstableModel):
            sc.implied_moments(model)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_matches_sampler_on_random_models(self, seed):
        model, _, _ = random_cyclic_model(seed)
        mom = sc.implied_moments(model)
        n = 100_000
        data = sc.draw_equilibrium(model, sc.SimulationConfig(n, seed=seed))
        emp_mean = data.rows.mean(axis=0)
        emp_cov = np.cov(data.rows, rowvar=False, ddof=1)
        sd = np.sqrt(np.diag(mom.covariance))
        assert np.all(np.abs(emp_mean - mom.mean) < 5 * sd / np.sqrt(n))
        for i in range(len(sd)):
            for j in range(len(sd)):
                se = np.sqrt(
                    (mom.covariance[i, i] * mom.covariance[j, j] + mom.covariance[i, j] ** 2)
                    / (n - 1)
                )
                assert abs(emp_cov[i, j] - mom.covariance[i, j]) < 5 * se

    def test_gamma_equals_mean_derivative(self):
        # finite-difference check of the reduced form against the plan mean
        model, treatment, response = random_cyclic_model(3)
        part = sc.partition_vertices(model, treatment, response)
        mom = sc.implied_moments(model)
        eff = sc.total_effects(model, part)
        step = 1e-4
        plans = [
            sc.ControlPlan(x, np.zeros(1), np.zeros(len(part.covariates)))
            for x in (step, -step)
        ]
        diff = (
            sc.plan_mean(mom, eff, plans[0]) - sc.plan_mean(mom, eff, plans[1])
        ) / (2 * step)
        assert diff == pytest.approx(eff.to_response, abs=1e-6)


class TestMomentSummary:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            sc.MomentSummary(("A", "B"), np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValueError, match="negative diagonal"):
            sc.MomentSummary(("A",), np.zeros(1), np.array([[-1.0]]))

    def test_non_finite_moments_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sc.MomentSummary(("A",), np.zeros(1), np.array([[np.nan]]))

    def test_named_access(self, iverson_moments):
        assert iverson_moments.var("X") == pytest.approx(1.216)
        assert iverson_moments.cov("Y", "Z1") == pytest.approx(-0.085)
        block = iverson_moments.cov_block(("Y", "X"), ("Z3",))
        assert block[:, 0] == pytest.approx([0.003, 0.061])


class TestRegressionBlocks:
    def test_self_regression_is_identity(self, iverson_moments):
        b = sc.regression_blocks(iverson_moments, ("X",), ("X",))
        assert b[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_response_on_treatment_ratio(self, iverson_moments):
        b = sc.regression_blocks(iverson_moments, ("Y",), ("X",))
        assert b[0, 0] == pytest.approx(0.386 / 1.216, abs=1e-12)

    def test_identity_denominator_returns_covariance(self):
        cov = np.array([
            [2.0, 0.3, 0.4],
            [0.3, 1.0, 0.0],
            [0.4, 0.0, 1.0],
        ])
        mom = sc.MomentSummary(("Y", "W1", "W2"), np.zeros(3), cov)
        b = sc.regression_blocks(mom, ("Y",), ("W1", "W2"))
        assert np.allclose(b, [[0.3, 0.4]], atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_blocks_reproduce_covariances(self, seed):
        model, treatment, response = random_cyclic_model(seed)
        mom = sc.implied_moments(model)
        names = model.variables
        rng = np.random.default_rng(seed)
        rows = tuple(rng.choice(names, size=2, replace=False))
        cols = tuple(v for v in names if v not in rows)[:2]
        if not cols:
            return
        b = sc.regression_blocks(mom, rows, cols)
        assert np.allclose(
            b @ mom.cov_block(cols, cols), mom.cov_block(rows, cols), atol=1e-9
        )

    def test_singular_block_rejected(self):
        cov = np.array([
            [1.0, 1.0, 0.5],
            [1.0, 1.0, 0.5],
            [0.5, 0.5, 1.0],
        ])
        mom = sc.MomentSummary(("A", "B", "C"), np.zeros(3), cov)
        with pytest.raises(sc.SingularBlock):
            sc.regression_blocks(mom, ("C",), ("A", "B"))

    def test_named_bundle(self, iverson_moments, iverson_model):
        part = sc.partition_vertices(iverson_model, "X", "Y", covariates=["Z1"])
        blocks = sc.RegressionBlocks.from_moments(iverson_moments, part)
        assert blocks.response_on_treatment == pytest.approx(0.386 / 1.216, abs=1e-12)
        assert blocks.treatment_on_covariates[0] == pytest.approx(-0.295, abs=1e-12)
        assert blocks.controls_on_covariates[0, 0] == pytest.approx(-0.085, abs=1e-12)
