"""Control-plan stability, surgery, optimal gains, mean and variance."""

import numpy as np
import pytest

import semcontrol as sc
from support import family_member, random_cyclic_model, var_stderr


@pytest.fixture(scope="module")
def iverson_setup():
    model = sc.iverson_model()
    part = sc.partition_vertices(model, "X", "Y")
    moments = sc.iverson_moments()
    effects = sc.total_effects(model, part)
    blocks = sc.RegressionBlocks.from_moments(moments, part)
    return model, part, moments, effects, blocks


def uncond(x=0.0, sigma=0.0):
    return sc.ControlPlan(x, np.zeros(1), np.zeros(0), sigma)


class TestPlanClassification:
    def test_recursive_vs_nonrecursive(self):
        assert not sc.ControlPlan(0.0, [0.0], []).is_nonrecursive
        assert sc.ControlPlan(0.0, [0.1], []).is_nonrecursive

    def test_perfect_vs_imperfect(self):
        assert sc.ControlPlan(0.0, [0.0], []).is_perfect
        assert not sc.ControlPlan(0.0, [0.0], [], noise_variance=0.5).is_perfect

    def test_negative_noise_variance_rejected(self):
        with pytest.raises(ValueError):
            sc.ControlPlan(0.0, [0.0], [], noise_variance=-0.1)


class TestPlanIsStable:
    def test_recursive_plan_has_unit_margin(self, iverson_setup):
        _, _, _, effects, _ = iverson_setup
        status = sc.plan_is_stable(effects, uncond())
        assert status.stable
        assert status.margin == pytest.approx(1.0, abs=1e-15)

    def test_feedback_bound_from_the_study(self, iverson_setup):
        _, _, _, effects, _ = iverson_setup
        gamma = effects.to_response
        inside = sc.ControlPlan(0.0, [0.999 / gamma], [])
        outside = sc.ControlPlan(0.0, [1.001 / gamma], [])
        assert sc.plan_is_stable(effects, inside).stable
        assert not sc.plan_is_stable(effects, outside).stable

    def test_unit_loop_gain_is_unstable(self, iverson_setup):
        _, _, _, effects, _ = iverson_setup
        boundary = sc.ControlPlan(0.0, [1.0 / effects.to_response], [])
        status = sc.plan_is_stable(effects, boundary)
        assert not status.stable
        assert status.margin == pytest.approx(0.0, abs=1e-12)


class TestApplyPlan:
    def test_unconditional_plan_clears_treatment_row(self, iverson_setup):
        model, part, _, _, _ = iverson_setup
        post = sc.apply_plan(model, part, uncond(x=2.0))
        xi = post.index("X")
        assert np.all(post.coefficients[xi] == 0.0)
        assert post.diagram.parents("X") == ()
        assert post.intercepts[xi] == 2.0
        assert post.disturbance_variances[xi] == 0.0
        assert sc.validate_model(post) == []

    def test_feedback_plan_adds_single_parent(self, iverson_setup):
        model, part, _, _, _ = iverson_setup
        post = sc.apply_plan(model, part, sc.ControlPlan(0.0, [0.5], []))
        assert post.diagram.parents("X") == ("Y",)
        assert post.coefficients[post.index("X"), post.index("Y")] == 0.5
        assert sc.validate_model(post) == []

    def test_other_rows_untouched(self, iverson_setup):
        model, part, _, _, _ = iverson_setup
        post = sc.apply_plan(model, part, sc.ControlPlan(1.0, [0.3], [], 0.7))
        xi = model.index("X")
        keep = [i for i in range(model.n_variables) if i != xi]
        assert np.array_equal(post.coefficients[keep], model.coefficients[keep])
        assert np.array_equal(post.intercepts[keep], model.intercepts[keep])

    def test_feedback_block_row_replacement(self):
        model, treatment, response = random_cyclic_model(13)
        part = sc.partition_vertices(model, treatment, response)
        plan = sc.ControlPlan(0.0, np.array([0.2]), np.zeros(len(part.covariates)))
        post = sc.apply_plan(model, part, plan)
        fb = part.descendants + (part.treatment,)
        block = part.submatrix(post.coefficients, fb, fb)
        base = part.submatrix(model.coefficients, fb, fb)
        n_s = len(part.descendants)
        assert np.array_equal(block[:n_s], base[:n_s])
        expected_row = np.zeros(n_s + 1)
        expected_row[0] = 0.2
        assert np.array_equal(block[n_s], expected_row)


class TestResolvePlan:
    def test_optimal_gains_come_from_the_given_result(self, iverson_model, iverson_moments):
        part = sc.partition_vertices(iverson_model, "X", "Y", covariates=["Z1"])
        effects = sc.total_effects(iverson_model, part)
        blocks = sc.RegressionBlocks.from_moments(iverson_moments, part)
        optimal = sc.optimal_b(effects, blocks)
        spec = sc.PlanSpec(1.0, {"Y": -5.0}, "optimal", 0.5)
        plan = sc.resolve_plan(spec, part, optimal)
        assert np.array_equal(plan.covariate_gains, optimal.covariate_gains)
        assert np.array_equal(plan.feedback, [-5.0])
        with pytest.raises(ValueError, match="optimal_b"):
            sc.resolve_plan(spec, part)

    def test_plan_variance_reports_the_feedback_margin(self, iverson_setup):
        _, _, moments, effects, blocks = iverson_setup
        plan = sc.ControlPlan(0.0, [-5.0], [])
        effect = sc.plan_variance(moments, effects, blocks, plan)
        assert effect.margin == sc.plan_is_stable(effects, plan).margin
        assert effect.response_mean == sc.plan_mean(moments, effects, plan)


class TestOptimalGains:
    def test_gain_zero_when_covariate_acts_through_treatment_only(self):
        # W -> X -> Y: the regression of Y on W is already gamma * B_xw
        model = sc.StructuralModel.from_edges(
            [("W", "X", 0.6), ("X", "Y", 0.5)], variables=["Y", "X", "W"]
        )
        part = sc.partition_vertices(model, "X", "Y", covariates=["W"])
        moments = sc.implied_moments(model)
        effects = sc.total_effects(model, part)
        blocks = sc.RegressionBlocks.from_moments(moments, part)
        gains = sc.optimal_b(effects, blocks)
        assert gains.covariate_gains == pytest.approx([0.0], abs=1e-12)
        assert np.abs(gains.residual).max() < 1e-12

    def test_study_covariate_gain(self, iverson_model, iverson_moments):
        part = sc.partition_vertices(iverson_model, "X", "Y", covariates=["Z1"])
        effects = sc.total_effects(iverson_model, part)
        blocks = sc.RegressionBlocks.from_moments(iverson_moments, part)
        gains = sc.optimal_b(effects, blocks)
        # scalar case: b* = B_xw - B_yw / gamma, from the published covariances
        gamma = 0.003 / 0.061
        expected = -0.295 - (-0.085) / gamma
        assert gains.covariate_gains[0] == pytest.approx(expected, abs=1e-12)
        assert gains.covariate_gains[0] == pytest.approx(1.4333, abs=5e-5)
        assert np.abs(gains.residual).max() < 1e-15

    def test_zero_total_effect_rejected(self):
        # two exactly cancelling paths from the treatment to the response
        model = sc.StructuralModel.from_edges(
            [("X", "U", 1.0), ("U", "Y", 0.5), ("X", "Y", -0.5), ("W", "X", 0.4)],
            variables=["Y", "U", "X", "W"],
        )
        part = sc.partition_vertices(model, "X", "Y", covariates=["W"])
        moments = sc.implied_moments(model)
        effects = sc.total_effects(model, part)
        assert effects.to_response == 0.0
        blocks = sc.RegressionBlocks.from_moments(moments, part)
        with pytest.raises(sc.ZeroTotalEffect):
            sc.optimal_b(effects, blocks)

    def test_empty_covariate_set(self, iverson_setup):
        _, _, _, effects, blocks = iverson_setup
        gains = sc.optimal_b(effects, blocks)
        assert gains.covariate_gains.shape == (0,)
        assert gains.residual.shape == (1, 0)

    def test_two_controls_inconsistent_system_surfaces_residual(self):
        model, part, moments, effects, blocks = _two_control_setup(seed=29)
        gains = sc.optimal_b(effects, blocks)
        assert gains.residual.shape == (2, len(part.covariates))
        # the least-squares identity: gamma' residual = 0
        assert np.abs(effects.to_controls @ gains.residual).max() < 1e-10


def _two_control_setup(seed):
    """A model with two controls and at least one covariate."""
    for offset in range(50):
        model, treatment, response = random_cyclic_model(seed + offset, n_min=5, n_max=8)
        base = sc.partition_vertices(model, treatment, response)
        extras = [v for v in base.descendants if v != response]
        if not extras or not base.nondescendants:
            continue
        part = sc.partition_vertices(
            model,
            treatment,
            response,
            controls=[response, extras[0]],
            covariates=list(base.nondescendants[:1]),
        )
        moments = sc.implied_moments(model)
        effects = sc.total_effects(model, part)
        blocks = sc.RegressionBlocks.from_moments(moments, part)
        return model, part, moments, effects, blocks
    raise RuntimeError("no suitable model found")


class TestPlanMean:
    def test_unconditional_mean_is_gamma_x(self, iverson_setup):
        _, _, moments, effects, _ = iverson_setup
        for x in (0.0, 1.0, -3.0):
            value = sc.plan_mean(moments, effects, uncond(x=x))
            assert value == pytest.approx(effects.to_response * x, abs=1e-14)

    def test_feedback_mean_amplification(self, iverson_setup):
        _, _, moments, effects, _ = iverson_setup
        gamma = effects.to_response
        for a in (-5.0, -10.0, 3.0):
            plan = sc.ControlPlan(1.0, [a], [])
            value = sc.plan_mean(moments, effects, plan)
            assert value == pytest.approx(gamma / (1.0 - gamma * a), rel=1e-12)

    def test_feedback_limit_halves_the_coefficient(self, iverson_setup):
        _, _, moments, effects, _ = iverson_setup
        gamma = effects.to_response
        a = -(1.0 - 1e-7) / gamma
        value = sc.plan_mean(moments, effects, sc.ControlPlan(1.0, [a], []))
        assert value == pytest.approx(gamma / 2.0, rel=1e-6)

    def test_unstable_plan_rejected(self, iverson_setup):
        _, _, moments, effects, _ = iverson_setup
        a = 1.0 / effects.to_response
        with pytest.raises(sc.UnstablePlan, match="a'g_fx"):
            sc.plan_mean(moments, effects, sc.ControlPlan(0.0, [a], []))

    def test_nonzero_means_match_surgery(self):
        model, partition, effects, plan = family_member(57)
        moments = sc.implied_moments(model)
        blocks = sc.RegressionBlocks.from_moments(moments, partition)
        value = sc.plan_mean(moments, effects, plan)
        post = sc.implied_moments(sc.apply_plan(model, partition, plan))
        assert value == pytest.approx(post.mean_of((partition.response,))[0], abs=1e-10)


class TestPlanVariance:
    def test_unconditional_variance_closed_form(self, iverson_setup):
        _, _, moments, effects, blocks = iverson_setup
        effect = sc.plan_variance(moments, effects, blocks, uncond())
        gamma = 0.003 / 0.061
        expected = 1.041 + gamma**2 * 1.216 - 2.0 * gamma * 0.386
        assert effect.response_variance == pytest.approx(expected, abs=1e-12)
        assert effect.response_variance == pytest.approx(1.006, abs=5e-4)

    def test_feedback_variance_amplification_exact(self, iverson_setup):
        _, _, moments, effects, blocks = iverson_setup
        gamma = effects.to_response
        base = sc.plan_variance(moments, effects, blocks, uncond()).response_variance
        for a in (-5.0, -10.0, -20.0):
            plan = sc.ControlPlan(0.0, [a], [])
            value = sc.plan_variance(moments, effects, blocks, plan).response_variance
            assert value / base == pytest.approx(1.0 / (1.0 - gamma * a) ** 2, abs=1e-12)

    def test_imperfect_plan_adds_feedback_scaled_noise(self, iverson_setup):
        _, _, moments, effects, blocks = iverson_setup
        gamma = effects.to_response
        for a in (0.0, -5.0):
            factor = 1.0 / (1.0 - gamma * a)
            perfect = sc.plan_variance(
                moments, effects, blocks, sc.ControlPlan(0.0, [a], [], 0.0)
            ).response_variance
            noisy = sc.plan_variance(
                moments, effects, blocks, sc.ControlPlan(0.0, [a], [], 0.8)
            ).response_variance
            assert noisy - perfect == pytest.approx(
                gamma**2 * 0.8 * factor**2, rel=1e-10
            )
            assert noisy > perfect

    def test_covariance_block_is_symmetric_psd(self):
        model, partition, effects, plan = family_member(42, n_f_max=2)
        moments = sc.implied_moments(model)
        blocks = sc.RegressionBlocks.from_moments(moments, partition)
        effect = sc.plan_variance(moments, effects, blocks, plan)
        cov = effect.controls_covariance
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-9

    def test_zero_gains_make_covariates_irrelevant(self, iverson_model, iverson_moments):
        # with b = 0 the variance cannot depend on which W was declared
        part0 = sc.partition_vertices(iverson_model, "X", "Y")
        part1 = sc.partition_vertices(iverson_model, "X", "Y", covariates=["Z1"])
        eff0 = sc.total_effects(iverson_model, part0)
        eff1 = sc.total_effects(iverson_model, part1)
        v0 = sc.plan_variance(
            iverson_moments, eff0,
            sc.RegressionBlocks.from_moments(iverson_moments, part0),
            sc.ControlPlan(0.0, [0.0], np.zeros(0)),
        ).response_variance
        v1 = sc.plan_variance(
            iverson_moments, eff1,
            sc.RegressionBlocks.from_moments(iverson_moments, part1),
            sc.ControlPlan(0.0, [0.0], np.zeros(1)),
        ).response_variance
        assert v0 == pytest.approx(v1, abs=1e-14)


class TestSurgeryConsistency:
    @pytest.mark.parametrize("seed", [1, 2, 8, 15, 23])
    def test_single_control(self, seed):
        self._check(*family_member(seed))

    @pytest.mark.parametrize("seed", [4, 9, 31])
    def test_two_controls(self, seed):
        self._check(*family_member(seed, n_f_max=2))

    @staticmethod
    def _check(model, partition, effects, plan):
        moments = sc.implied_moments(model)
        blocks = sc.RegressionBlocks.from_moments(moments, partition)
        effect = sc.plan_variance(moments, effects, blocks, plan)
        post = sc.implied_moments(sc.apply_plan(model, partition, plan))
        assert effect.response_mean == pytest.approx(
            post.mean_of((partition.response,))[0], abs=1e-9
        )
        f = partition.controls
        assert np.allclose(
            effect.controls_covariance, post.cov_block(f, f), atol=1e-9
        )


class TestOptimality:
    @pytest.mark.parametrize("seed", [2, 9, 12])
    def test_optimal_gains_minimize_variance(self, seed):
        model, partition, effects, plan = family_member(seed)
        if not partition.covariates:
            pytest.skip("family member without covariates")
        moments = sc.implied_moments(model)
        blocks = sc.RegressionBlocks.from_moments(moments, partition)
        best = sc.optimal_b(effects, blocks).covariate_gains
        base_plan = sc.ControlPlan(plan.set_point, plan.feedback, best, plan.noise_variance)
        base = sc.plan_variance(moments, effects, blocks, base_plan).response_variance
        rng = np.random.default_rng(seed)
        for _ in range(100):
            delta = rng.normal(size=best.shape)
            delta *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(delta), 1e-12)
            other = sc.ControlPlan(
                plan.set_point, plan.feedback, best + delta, plan.noise_variance
            )
            value = sc.plan_variance(moments, effects, blocks, other).response_variance
            assert base <= value + 1e-9

    def test_zero_covariance_with_covariates_after_optimal_plan(self):
        model, partition, effects, _ = family_member(6)
        if not partition.covariates:
            pytest.skip("family member without covariates")
        moments = sc.implied_moments(model)
        blocks = sc.RegressionBlocks.from_moments(moments, partition)
        best = sc.optimal_b(effects, blocks).covariate_gains
        plan = sc.ControlPlan(0.3, np.array([0.4 / effects.to_response]), best)
        post = sc.implied_moments(sc.apply_plan(model, partition, plan))
        for w in partition.covariates:
            assert abs(post.cov(partition.response, w)) < 1e-9

        config = sc.SimulationConfig(200_000, seed=99)
        data = sc.simulate_plan(model, partition, plan, config)
        y = data.column(partition.response)
        for w in partition.covariates:
            wv = data.column(w)
            emp = np.cov(y, wv, ddof=1)[0, 1]
            se = np.sqrt(np.var(y, ddof=1) * np.var(wv, ddof=1) / len(y))
            assert abs(emp) < 4 * se


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("seed", [5, 18])
    def test_plan_effect_matches_simulation(self, seed):
        model, partition, effects, plan = family_member(seed, n_f_max=2)
        moments = sc.implied_moments(model)
        blocks = sc.RegressionBlocks.from_moments(moments, partition)
        effect = sc.plan_variance(moments, effects, blocks, plan)

        data = sc.simulate_plan(model, partition, plan, sc.SimulationConfig(300_000, seed=seed))
        y = data.column(partition.response)
        assert abs(y.mean() - effect.response_mean) < 4 * y.std(ddof=1) / np.sqrt(len(y))
        assert abs(y.var(ddof=1) - effect.response_variance) < 4 * var_stderr(y)


class TestCovariateCompare:
    def test_identical_sets_are_equivalent(self, iverson_model, iverson_moments):
        part = sc.partition_vertices(iverson_model, "X", "Y", covariates=["Z1"])
        effects = sc.total_effects(iverson_model, part)
        cmp = sc.covariate_compare(iverson_moments, effects, ("Z1",), ("Z1",))
        assert cmp.first_no_worse and cmp.second_no_worse
        assert cmp.verdict == "either"
        assert np.abs(cmp.difference).max() < 1e-15

    def test_any_set_beats_the_empty_set(self, iverson_model, iverson_moments):
        part = sc.partition_vertices(iverson_model, "X", "Y")
        effects = sc.total_effects(iverson_model, part)
        cmp = sc.covariate_compare(iverson_moments, effects, ("Z1",), ())
        assert cmp.first_no_worse
        assert cmp.verdict == "W1-no-worse"

    def test_study_background_blocks_ordering(self, iverson_model, iverson_moments):
        part = sc.partition_vertices(iverson_model, "X", "Y")
        effects = sc.total_effects(iverson_model, part)
        gamma = effects.to_response
        removed = {
            w: (iverson_moments.cov("Y", w) - gamma * iverson_moments.cov("X", w)) ** 2
            / iverson_moments.var(w)
            for w in ("Z1", "Z2")
        }
        cmp = sc.covariate_compare(iverson_moments, effects, ("Z1",), ("Z2",))
        assert removed["Z1"] > removed["Z2"]
        assert cmp.verdict == "W1-no-worse"
        assert not cmp.second_no_worse

    def test_incomparable_sets(self):
        partition = sc.VertexPartition(
            variables=("Y", "F2", "X", "W1", "W2"),
            treatment="X",
            response="Y",
            descendants=("Y", "F2"),
            nondescendants=("W1", "W2"),
            controls=("Y", "F2"),
            covariates=(),
        )
        effects = sc.EffectSummary(partition, np.array([0.3, 0.3]))
        cov = np.eye(5)
        cov[0, 3] = cov[3, 0] = 0.5  # Y with W1
        cov[1, 4] = cov[4, 1] = 0.5  # F2 with W2
        moments = sc.MomentSummary(partition.variables, np.zeros(5), cov)
        cmp = sc.covariate_compare(moments, effects, ("W1",), ("W2",))
        assert not cmp.first_no_worse and not cmp.second_no_worse
        assert cmp.verdict == "incomparable"

    def test_non_nondescendant_rejected(self, iverson_model, iverson_moments):
        part = sc.partition_vertices(iverson_model, "X", "Y")
        effects = sc.total_effects(iverson_model, part)
        with pytest.raises(sc.ControlSetMismatch):
            sc.covariate_compare(iverson_moments, effects, ("Y",), ("Z1",))


class TestRoleInvariance:
    """The variance formula may not depend on how non-control vertices split."""

    def test_background_vs_free_descendant_role_is_irrelevant(self):
        for seed in (2, 7, 19):
            variant_z, variant_u, treatment, response, covariates = _role_flip_pair(seed)
            shared = sc.sample_moments(
                sc.draw_equilibrium(variant_u, sc.SimulationConfig(20_000, seed=seed))
            )
            values = []
            for variant in (variant_z, variant_u):
                part = sc.partition_vertices(
                    variant, treatment, response, covariates=covariates
                )
                effects = sc.total_effects(variant, part)
                blocks = sc.RegressionBlocks.from_moments(shared, part)
                gamma = effects.to_response
                plan = sc.ControlPlan(
                    1.0, np.array([0.5 / gamma]), 0.3 * np.ones(len(covariates)), 0.2
                )
                values.append(
                    sc.plan_variance(shared, effects, blocks, plan).response_variance
                )
            variant_z_part = sc.partition_vertices(
                variant_z, treatment, response, covariates=covariates
            )
            variant_u_part = sc.partition_vertices(
                variant_u, treatment, response, covariates=covariates
            )
            assert "EXTRA" in variant_z_part.background
            assert "EXTRA" in variant_u_part.free_descendants
            assert values[0] == values[1]  # bitwise identical

    def test_implied_moment_paths_agree(self):
        variant_z, variant_u, treatment, response, covariates = _role_flip_pair(3)
        values = []
        for variant in (variant_z, variant_u):
            part = sc.partition_vertices(variant, treatment, response, covariates=covariates)
            moments = sc.implied_moments(variant)
            effects = sc.total_effects(variant, part)
            blocks = sc.RegressionBlocks.from_moments(moments, part)
            plan = sc.ControlPlan(1.0, np.array([-2.0]), 0.1 * np.ones(len(covariates)), 0.0)
            values.append(sc.plan_variance(moments, effects, blocks, plan).response_variance)
        assert values[0] == pytest.approx(values[1], rel=1e-12)


def _role_flip_pair(seed):
    """Two models differing only in a childless extra vertex's role.

    The extra vertex has no children, so the joint distribution of every
    other variable is the same; whether the treatment points at it (making
    it a free descendant) or not (leaving it background) must not matter.
    """
    base, treatment, response = random_cyclic_model(seed)
    rng = np.random.default_rng(seed + 500)
    names = base.variables + ("EXTRA",)
    n = len(names)

    def extend(extra_parent_coeff):
        coeff = np.zeros((n, n))
        coeff[: n - 1, : n - 1] = base.coefficients
        edges = list(base.diagram.edges)
        if extra_parent_coeff:
            coeff[n - 1, base.index(treatment)] = extra_parent_coeff
            edges.append((treatment, "EXTRA"))
        diagram = sc.PathDiagram(names, tuple(edges))
        return sc.StructuralModel(
            diagram,
            coeff,
            np.concatenate([base.intercepts, [0.5]]),
            np.concatenate([base.disturbance_variances, [1.0]]),
        )

    variant_z = extend(0.0)
    variant_u = extend(float(rng.uniform(0.2, 0.6)))
    part = sc.partition_vertices(variant_z, treatment, response)
    covariates = list(part.nondescendants[:1]) if part.nondescendants[:1] != ("EXTRA",) else []
    return variant_z, variant_u, treatment, response, covariates
