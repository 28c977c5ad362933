"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all);
an assertion failure carries the same detail.  The random model family is
frozen by seed so every run checks the identical cases.
"""

import time

import numpy as np
import pytest

import semcontrol as sc
from semcontrol.cli import run_command
from support import family_member, mean_stderr, var_stderr

FAMILY_SEEDS = tuple(range(20))


def _report(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {title}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {title} {detail}"


@pytest.fixture(scope="module")
def study():
    moments = sc.iverson_moments()
    model = sc.iverson_model()
    partition = sc.partition_vertices(model, "X", "Y")
    effects = sc.total_effects(model, partition)
    blocks = sc.RegressionBlocks.from_moments(moments, partition)
    return moments, model, partition, effects, blocks


@pytest.fixture(scope="module")
def family():
    members = []
    for seed in FAMILY_SEEDS:
        model, partition, effects, plan = family_member(seed)
        moments = sc.implied_moments(model)
        blocks = sc.RegressionBlocks.from_moments(moments, partition)
        members.append((model, partition, moments, effects, blocks, plan))
    return members


def test_criterion_01_iv_reproduction(study):
    moments, *_ = study
    start = time.perf_counter()
    estimate = sc.iv_estimate(moments, "X", "Y", "Z3")
    elapsed = time.perf_counter() - start
    exact = 0.003 / 0.061
    ok = (
        estimate.gamma_hat == pytest.approx(exact, abs=1e-15)
        and abs(estimate.gamma_hat - 0.049) < 1e-3
        and elapsed < 1.0
    )
    _report(1, "IV estimate from the bundled covariance reproduces 0.049",
            ok, f"gamma_hat={estimate.gamma_hat:.5f}, {elapsed:.3f}s")


def test_criterion_02_unconditional_plan_mean(study):
    moments, _, _, effects, _ = study
    failures = []
    for x in (1.0, -2.0, 10.0):
        value = sc.plan_mean(moments, effects, sc.ControlPlan(x, [0.0], []))
        if value != pytest.approx(effects.to_response * x, rel=1e-12):
            failures.append(f"x={x}: {value}")
    coefficient = sc.plan_mean(moments, effects, sc.ControlPlan(1.0, [0.0], []))
    if abs(coefficient - 0.049) >= 1e-3:
        failures.append(f"coefficient {coefficient}")
    _report(2, "recursive plan mean is gamma * x with coefficient 0.049",
            not failures, "; ".join(failures) or f"coefficient={coefficient:.5f}")


def test_criterion_03_feedback_factors(study):
    moments, _, _, effects, blocks = study
    gamma = effects.to_response
    base_mean = sc.plan_mean(moments, effects, sc.ControlPlan(1.0, [0.0], []))
    base_var = sc.plan_variance(
        moments, effects, blocks, sc.ControlPlan(1.0, [0.0], [])
    ).response_variance
    failures = []
    for a in (-5.0, -10.0, -20.0):
        plan = sc.ControlPlan(1.0, [a], [])
        mean_ratio = sc.plan_mean(moments, effects, plan) / base_mean
        var_ratio = sc.plan_variance(
            moments, effects, blocks, plan
        ).response_variance / base_var
        if abs(mean_ratio - 1.0 / (1.0 - gamma * a)) > 1e-12:
            failures.append(f"mean ratio at a={a}")
        if abs(var_ratio - 1.0 / (1.0 - gamma * a) ** 2) > 1e-12:
            failures.append(f"variance ratio at a={a}")
    # limiting amplification at a -> -1/gamma
    limit = -1.0 / gamma
    if abs(1.0 / (1.0 - gamma * limit) - 0.5) > 1e-12:
        failures.append("limiting mean factor")
    if abs(1.0 / (1.0 - gamma * limit) ** 2 - 0.25) > 1e-12:
        failures.append("limiting variance factor")
    near = sc.plan_mean(moments, effects, sc.ControlPlan(1.0, [-(1 - 1e-8) / gamma], []))
    if abs(near - gamma / 2.0) > 1e-7:
        failures.append("limit not approached")
    _report(3, "feedback amplification 1/(1-ga) and its square, limits 1/2 and 1/4",
            not failures, "; ".join(failures))


def test_criterion_04_variance_closed_form_vs_published(study, capsys):
    moments, _, _, effects, blocks = study
    gamma = effects.to_response
    closed = sc.plan_variance(
        moments, effects, blocks, sc.ControlPlan(0.0, [0.0], [])
    ).response_variance
    by_hand = moments.var("Y") + gamma**2 * moments.var("X") - 2 * gamma * moments.cov("X", "Y")
    code = run_command(["reproduce-iverson", "--format", "json"])
    out = capsys.readouterr().out
    ok = (
        abs(closed - by_hand) < 1e-12
        and abs(closed - 1.006) < 5e-4
        and code == 0
        and '"var_y_closed_form": 1.0059' in out
        and '"var_y_published": 0.998' in out
        and "differs from the published" in out
    )
    _report(4, "closed-form variance 1.006 reported beside the published 0.998",
            ok, f"closed={closed:.6f}")


def test_criterion_05_oracle_equivalence(family):
    start = time.perf_counter()
    passed = 0
    details = []
    for seed, (model, partition, moments, effects, blocks, plan) in zip(FAMILY_SEEDS, family):
        predicted = sc.plan_variance(moments, effects, blocks, plan)
        data = sc.simulate_plan(
            model, partition, plan, sc.SimulationConfig(1_000_000, seed=seed)
        )
        y = data.column(partition.response)
        mean_ok = abs(y.mean() - predicted.response_mean) < 4 * mean_stderr(y)
        var_ok = abs(y.var(ddof=1) - predicted.response_variance) < 4 * var_stderr(y)
        if mean_ok and var_ok:
            passed += 1
        else:
            details.append(f"seed {seed}: mean_ok={mean_ok} var_ok={var_ok}")
    elapsed = time.perf_counter() - start
    ok = passed >= 19 and elapsed < 120.0
    _report(5, "closed forms match 1e6-draw simulation within 4 standard errors",
            ok, f"{passed}/20 agree, {elapsed:.1f}s " + "; ".join(details))


def test_criterion_06_optimal_gain_minimality(family):
    rng = np.random.default_rng(2024)
    exercised = 0
    failures = []
    for seed, (model, partition, moments, effects, blocks, plan) in zip(FAMILY_SEEDS, family):
        if not partition.covariates:
            continue
        exercised += 1
        best = sc.optimal_b(effects, blocks).covariate_gains
        at_best = sc.plan_variance(
            moments, effects, blocks,
            sc.ControlPlan(plan.set_point, plan.feedback, best, plan.noise_variance),
        ).response_variance
        for _ in range(100):
            delta = rng.normal(size=best.shape)
            norm = np.linalg.norm(delta)
            if norm > 1.0:
                delta /= norm
            perturbed = sc.plan_variance(
                moments, effects, blocks,
                sc.ControlPlan(plan.set_point, plan.feedback, best + delta, plan.noise_variance),
            ).response_variance
            if at_best > perturbed + 1e-9:
                failures.append(f"seed {seed}")
                break
    ok = not failures and exercised >= 10
    _report(6, "optimal covariate gains minimize the response variance",
            ok, f"{exercised} models x 100 perturbations " + "; ".join(failures))


def test_criterion_07_zero_covariance_after_optimal_plan(family):
    failures = []
    exercised = 0
    for seed, (model, partition, moments, effects, blocks, plan) in zip(FAMILY_SEEDS, family):
        if not partition.covariates:
            continue
        exercised += 1
        best = sc.optimal_b(effects, blocks).covariate_gains
        optimal_plan = sc.ControlPlan(
            plan.set_point, plan.feedback, best, plan.noise_variance
        )
        post = sc.implied_moments(sc.apply_plan(model, partition, optimal_plan))
        worst = max(
            abs(post.cov(partition.response, w)) for w in partition.covariates
        )
        if worst > 1e-9:
            failures.append(f"seed {seed}: cov {worst:.2e}")
    ok = not failures and exercised >= 10
    _report(7, "response is uncorrelated with the covariates under the optimal plan",
            ok, f"{exercised} models " + "; ".join(failures))


def test_criterion_08_surgery_consistency(family):
    failures = []
    for seed, (model, partition, moments, effects, blocks, plan) in zip(FAMILY_SEEDS, family):
        predicted = sc.plan_variance(moments, effects, blocks, plan)
        post = sc.implied_moments(sc.apply_plan(model, partition, plan))
        mean_gap = abs(predicted.response_mean - post.mean_of((partition.response,))[0])
        var_gap = abs(predicted.response_variance - post.var(partition.response))
        if mean_gap > 1e-9 or var_gap > 1e-9:
            failures.append(f"seed {seed}: mean {mean_gap:.2e} var {var_gap:.2e}")
    _report(8, "closed forms agree with moments of the surgered model to 1e-9",
            not failures, "; ".join(failures) or "20 models")


def test_criterion_09_stability_suite(family):
    failures = []
    rng = np.random.default_rng(7)
    # Neumann partial sums converge to the inverse at spectral radius 0.5
    for trial in range(10):
        n = int(rng.integers(3, 11))
        m = rng.normal(size=(n, n))
        m *= 0.5 / sc.spectral_radius(m)
        partial = np.zeros((n, n))
        power = np.eye(n)
        for _ in range(80):
            partial += power
            power = power @ m
        gap = np.linalg.norm(partial - np.linalg.inv(np.eye(n) - m), "fro")
        if gap > 1e-6:
            failures.append(f"neumann trial {trial}: {gap:.2e}")

    # fixed-point iteration equals the partial-sum expansion for k <= 20
    model, partition, _, effects, _, _ = family[0]
    eps = rng.normal(size=model.n_variables)
    v0 = rng.normal(size=model.n_variables)
    forcing = model.intercepts + eps
    trajectory = sc.iterate_equilibrium(model, v0, eps, 20)
    partial = np.zeros(model.n_variables)
    power = np.eye(model.n_variables)
    for k in range(1, 21):
        partial = partial + power @ forcing
        power = power @ model.coefficients
        if np.abs(trajectory[k] - (partial + power @ v0)).max() > 1e-10:
            failures.append(f"iteration step {k}")

    # plans at or beyond unit loop gain are rejected
    moments = sc.implied_moments(model)
    gamma = effects.to_response
    for scale in (1.0, 1.5, -1.0):
        plan = sc.ControlPlan(0.0, np.array([scale / gamma]), np.zeros(len(partition.covariates)))
        if sc.plan_is_stable(effects, plan).stable:
            failures.append(f"loop gain {scale} accepted")
        try:
            sc.plan_mean(moments, effects, plan)
            failures.append(f"plan_mean accepted loop gain {scale}")
        except sc.UnstablePlan:
            pass
    _report(9, "Neumann expansion, iteration formula, and the |a'g| < 1 gate",
            not failures, "; ".join(failures))


def test_criterion_10_role_invariance():
    from test_control import _role_flip_pair

    failures = []
    for seed in (2, 3, 7, 19):
        variant_z, variant_u, treatment, response, covariates = _role_flip_pair(seed)
        shared = sc.sample_moments(
            sc.draw_equilibrium(variant_u, sc.SimulationConfig(20_000, seed=seed))
        )
        values = []
        roles = []
        for variant in (variant_z, variant_u):
            part = sc.partition_vertices(variant, treatment, response, covariates=covariates)
            roles.append(
                "EXTRA" in part.background or "EXTRA" in part.free_descendants
            )
            effects = sc.total_effects(variant, part)
            blocks = sc.RegressionBlocks.from_moments(shared, part)
            plan = sc.ControlPlan(
                1.0,
                np.array([0.5 / effects.to_response]),
                0.3 * np.ones(len(covariates)),
                0.2,
            )
            values.append(
                sc.plan_variance(shared, effects, blocks, plan).response_variance
            )
        if not all(roles):
            failures.append(f"seed {seed}: role flip not realized")
        if values[0] != values[1]:
            failures.append(f"seed {seed}: {values[0]!r} != {values[1]!r}")
    _report(10, "variance is bit-identical when a vertex swaps background/descendant role",
            not failures, "; ".join(failures) or "4 seed pairs")
