"""Construction, evaluation, and optimization of control plans.

A control plan replaces the treatment's structural equation by

    X = x + a' F + b' W + eps*,

where F is the control subset of the descendants (response first), W the
covariate subset of the nondescendants, and eps* a fresh disturbance with
variance sigma*.  The plan is nonrecursive when a is nonzero and perfect
when sigma* is zero.

Writing g for the total effect of the treatment on F, the response mean
and the covariance of F after intervention have closed forms in the
observational moments when |a'g| < 1, the condition the plan functions
gate on.  It does not make the controlled system stable: the post-plan
coefficient matrix can still have spectral radius at least 1, and then its
equilibrium exists but is not reached by iteration, which is why
``simulate_plan`` also gates on that radius.  The covariate-gain vector
minimizing the response variance for a given a is

    b*' = g' (g B_xw - B_fw) / (g'g),

where B_fw and B_xw are the population regressions of F and of the
treatment on W.  At b* the covariance between the response and W vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .effects import EffectSummary, MomentSummary, RegressionBlocks, regression_blocks
from .errors import (
    ControlSetMismatch,
    InputFormatError,
    UnstablePlan,
    ZeroTotalEffect,
)
from .model import (
    PSD_TOL,
    PathDiagram,
    StructuralModel,
    VertexPartition,
    _check_object,
    _number,
    _read_json,
    is_stable,
)


@dataclass(frozen=True, eq=False)
class ControlPlan:
    """Parameters (x, a, b, sigma*) of the intervention equation."""

    set_point: float
    feedback: np.ndarray
    covariate_gains: np.ndarray
    noise_variance: float = 0.0

    def __post_init__(self):
        a = np.atleast_1d(np.array(self.feedback, dtype=float))
        b = np.atleast_1d(np.array(self.covariate_gains, dtype=float))
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("feedback and covariate_gains must be vectors")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("plan gains must be finite")
        if not np.isfinite(self.set_point):
            raise ValueError("set point must be finite")
        if not 0.0 <= self.noise_variance < np.inf:  # NaN fails too
            raise ValueError("noise variance must be finite and nonnegative, "
                             f"got {self.noise_variance!r}")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "feedback", a)
        object.__setattr__(self, "covariate_gains", b)

    @property
    def is_nonrecursive(self) -> bool:
        """True when the plan feeds descendants back into the treatment."""
        return bool(np.any(self.feedback != 0.0))

    @property
    def is_perfect(self) -> bool:
        """True when the treatment can be set without residual noise."""
        return self.noise_variance == 0.0


@dataclass(frozen=True)
class PlanStability:
    """Result of the feedback stability check |a'g| < 1."""

    stable: bool
    margin: float
    loop_gain: float


@dataclass(frozen=True, eq=False)
class PlanEffect:
    """Post-intervention response mean and control-block covariance.

    ``margin`` is 1 - |a'g|, the distance of the feedback loop gain from the
    stability bound.
    """

    response_mean: float
    controls_covariance: np.ndarray
    margin: float
    feedback_factor: float

    @property
    def response_variance(self) -> float:
        return float(self.controls_covariance[0, 0])


@dataclass(frozen=True, eq=False)
class OptimalGains:
    """Variance-minimizing covariate gains, with the consistency residual.

    ``residual`` is the matrix g b' + B_fw - g B_xw evaluated at the returned
    gains.  It is identically zero whenever the defining equation is exactly
    solvable (always with a single control), and is surfaced rather than
    dropped when more controls make the system inconsistent.
    """

    covariate_gains: np.ndarray
    residual: np.ndarray


def _check_plan_shapes(partition: VertexPartition, plan: ControlPlan) -> None:
    n_f = len(partition.controls)
    n_w = len(partition.covariates)
    if plan.feedback.shape != (n_f,):
        raise ValueError(
            f"plan feedback has length {plan.feedback.shape[0]}, partition has {n_f} controls"
        )
    if plan.covariate_gains.shape != (n_w,):
        raise ValueError(
            f"plan covariate gains have length {plan.covariate_gains.shape[0]}, "
            f"partition has {n_w} covariates"
        )


def plan_is_stable(effects: EffectSummary, plan: ControlPlan) -> PlanStability:
    """Check the feedback condition |a'g| < 1 and report the margin."""
    _check_plan_shapes(effects.partition, plan)
    gain = float(plan.feedback @ effects.to_controls)
    return PlanStability(stable=is_stable(abs(gain)), margin=1.0 - abs(gain), loop_gain=gain)


def apply_plan(
    model: StructuralModel,
    partition: VertexPartition,
    plan: ControlPlan,
) -> StructuralModel:
    """Surgery: replace the treatment's equation by the plan equation.

    The returned model keeps every other equation untouched; the treatment
    row carries the feedback gains on the controls and the covariate gains
    on the covariates, its intercept becomes the set point, and its
    disturbance variance becomes the plan's noise variance.
    """
    _check_plan_shapes(partition, plan)
    xi = model.index(partition.treatment)
    parents = np.array([model.index(v) for v in partition.controls + partition.covariates],
                       dtype=np.int64)
    gains = np.concatenate([plan.feedback, plan.covariate_gains])

    coeff = model.coefficients.copy()
    coeff[xi, :] = 0.0
    coeff[xi, parents] = gains

    intercepts = model.intercepts.copy()
    intercepts[xi] = plan.set_point
    dvar = model.disturbance_variances.copy()
    dvar[xi] = plan.noise_variance

    sources, targets = model.diagram.sources, model.diagram.targets
    kept = targets != xi
    added = parents[gains != 0.0]
    diagram = PathDiagram._of(model.variables, np.concatenate([sources[kept], added]),
                              np.concatenate([targets[kept], np.full_like(added, xi)]))
    return StructuralModel(diagram, coeff, intercepts, dvar)


def optimal_b(effects: EffectSummary, blocks: RegressionBlocks) -> OptimalGains:
    """Covariate gains minimizing the post-plan response variance.

    Solves g b' = g B_xw - B_fw for b in the least-squares sense; with a
    single control the solution is exact and the residual is zero.
    """
    gamma = effects.to_controls
    n_f = len(gamma)
    n_w = len(effects.partition.covariates)
    if n_w == 0:
        return OptimalGains(np.zeros(0), np.zeros((n_f, 0)))
    denom = float(gamma @ gamma)
    if denom == 0.0:
        raise ZeroTotalEffect(
            "total effect on the controls is the zero vector; "
            "no covariate gain can move the response variance"
        )
    b_fw = blocks.controls_on_covariates
    b_xw = blocks.treatment_on_covariates
    b_row = gamma @ (np.outer(gamma, b_xw) - b_fw) / denom
    residual = np.outer(gamma, b_row) + b_fw - np.outer(gamma, b_xw)
    return OptimalGains(b_row, residual)


def plan_mean(moments: MomentSummary, effects: EffectSummary, plan: ControlPlan) -> float:
    """Post-intervention mean of the response.

    For shift k = x - mu_x + b' mu_w the value is

        mu_y + g_y k + g_y / (1 - a'g) * a'(mu_f + g k),

    which reduces to mu_y + g_y k for a recursive plan (a = 0).
    """
    status = plan_is_stable(effects, plan)
    if not status.stable:
        raise UnstablePlan(
            f"plan violates the stable condition |a'g_fx| < 1: |a'g_fx| = {abs(status.loop_gain):.6g}"
        )
    partition = effects.partition
    gamma = effects.to_controls
    gamma_y = effects.to_response
    mu_y, mu_x = moments.mean_of((partition.response, partition.treatment)).tolist()
    mu_f = moments.mean_of(partition.controls)
    k = plan.set_point - mu_x + float(plan.covariate_gains @ moments.mean_of(partition.covariates))
    feedback_term = float(plan.feedback @ (mu_f + gamma * k))
    return mu_y + gamma_y * k + gamma_y / (1.0 - status.loop_gain) * feedback_term


def plan_variance(
    moments: MomentSummary,
    effects: EffectSummary,
    blocks: RegressionBlocks,
    plan: ControlPlan,
) -> PlanEffect:
    """Post-intervention covariance of the controls (response variance first).

    With g the total effect on the controls, B_fx and B_xw / B_fw the
    regressions on the treatment and covariates, and D = I + g a'/(1 - a'g),
    the covariance of F after intervention is

        D [ Sigma_ff + g g' sigma*
            + (g - B_fx)(g - B_fx)' sigma_xx - B_fx B_fx' sigma_xx
            + (g b' + B_fw - g B_xw) Sigma_ww (g b' + B_fw - g B_xw)'
            - (B_fw - g B_xw) Sigma_ww (B_fw - g B_xw)' ] D'.

    The b-dependent term is the only part the covariate gains touch; at the
    optimal gains it attains its minimum, and for a single control it
    vanishes entirely.
    """
    response_mean = plan_mean(moments, effects, plan)  # the |a'g| < 1 gate
    status = plan_is_stable(effects, plan)
    partition = effects.partition
    f = partition.controls
    w = partition.covariates
    x = partition.treatment

    gamma = effects.to_controls
    b_fx = blocks.controls_on_treatment
    b_fw = blocks.controls_on_covariates
    b_xw = blocks.treatment_on_covariates
    sigma_ff = moments.cov_block(f, f)
    sigma_ww = moments.cov_block(w, w)
    sigma_xx = moments.var(x)

    core = sigma_ff + np.outer(gamma, gamma) * plan.noise_variance
    diff = gamma - b_fx
    core = core + np.outer(diff, diff) * sigma_xx - np.outer(b_fx, b_fx) * sigma_xx
    with_gains = np.outer(gamma, plan.covariate_gains) + b_fw - np.outer(gamma, b_xw)
    without_gains = b_fw - np.outer(gamma, b_xw)
    core = core + with_gains @ sigma_ww @ with_gains.T
    core = core - without_gains @ sigma_ww @ without_gains.T

    factor = 1.0 / (1.0 - status.loop_gain)
    damp = np.eye(len(f)) + np.outer(gamma, plan.feedback) * factor
    cov_f = damp @ core @ damp.T
    cov_f = 0.5 * (cov_f + cov_f.T)
    return PlanEffect(
        response_mean=response_mean,
        controls_covariance=cov_f,
        margin=status.margin,
        feedback_factor=factor,
    )


@dataclass(frozen=True, eq=False)
class CovariateComparison:
    """Loewner-order comparison of two covariate sets under optimal gains."""

    first_no_worse: bool
    second_no_worse: bool
    difference: np.ndarray

    @property
    def verdict(self) -> str:
        if self.first_no_worse and self.second_no_worse:
            return "either"
        if self.first_no_worse:
            return "W1-no-worse"
        if self.second_no_worse:
            return "W2-no-worse"
        return "incomparable"


def covariate_compare(
    moments: MomentSummary,
    effects: EffectSummary,
    first: Sequence[str],
    second: Sequence[str],
) -> CovariateComparison:
    """Compare two covariate sets by the variance they remove at optimal gains.

    The set whose quadratic form (B_fw - g B_xw) Sigma_ww (.)' dominates in
    the positive-semidefinite order yields the no-worse optimal plan.
    """
    partition = effects.partition
    nondesc = set(partition.nondescendants)
    for name in tuple(first) + tuple(second):
        if name not in nondesc:
            raise ControlSetMismatch(f"{name!r} is not a nondescendant of the treatment")
    gamma = effects.to_controls
    f = partition.controls
    x = (partition.treatment,)

    def removed(w: Sequence[str]) -> np.ndarray:
        w = tuple(w)
        on_w = regression_blocks(moments, f + x, w)  # one inverse of Sigma_ww
        resid = on_w[:-1] - np.outer(gamma, on_w[-1])
        return resid @ moments.cov_block(w, w) @ resid.T

    delta = removed(first) - removed(second)
    delta = 0.5 * (delta + delta.T)
    eigs = np.linalg.eigvalsh(delta)
    return CovariateComparison(
        first_no_worse=bool(eigs.min() >= -PSD_TOL),
        second_no_worse=bool(eigs.max() <= PSD_TOL),
        difference=delta,
    )


# ---------------------------------------------------------------------------
# Plan file format


_PLAN_KEYS = {"x", "a", "b", "sigma_eps_star"}


@dataclass(frozen=True)
class PlanSpec:
    """A plan file as written on disk, before alignment with a partition.

    Gains are keyed by variable name; ``covariate_gains`` may be the literal
    string ``"optimal"``, resolved later against a model's moments.
    """

    set_point: float
    feedback: Mapping[str, float]
    covariate_gains: Mapping[str, float] | str
    noise_variance: float


def _finite(value, field: str) -> float:
    """:func:`_number` for a plan-file field that must also be finite."""
    number = _number(value, field)
    if not np.isfinite(number):
        raise InputFormatError(f"{field} must be finite, got {number!r}")
    return number


def plan_from_dict(payload: dict) -> PlanSpec:
    _check_object(payload, "plan", _PLAN_KEYS)
    set_point = _finite(payload.get("x", 0.0), "'x'")
    noise = _number(payload.get("sigma_eps_star", 0.0), "'sigma_eps_star'")
    feedback = payload.get("a", {})
    if not isinstance(feedback, dict):
        raise InputFormatError("'a' must be an object of control name: gain")
    gains = payload.get("b", {})
    if gains != "optimal" and not isinstance(gains, dict):
        raise InputFormatError("'b' must be an object of covariate name: gain or \"optimal\"")
    if not 0.0 <= noise < np.inf:  # NaN fails too
        raise InputFormatError(f"'sigma_eps_star' must be finite and nonnegative, got {noise!r}")
    return PlanSpec(
        set_point=set_point,
        feedback={k: _finite(v, f"'a' gain for {k!r}") for k, v in feedback.items()},
        covariate_gains=gains if gains == "optimal"
        else {k: _finite(v, f"'b' gain for {k!r}") for k, v in gains.items()},
        noise_variance=noise,
    )


def load_plan(path: str | Path) -> PlanSpec:
    return plan_from_dict(_read_json(path))


def resolve_plan(
    spec: PlanSpec,
    partition: VertexPartition,
    optimal: OptimalGains | None = None,
) -> ControlPlan:
    """Align a plan spec with a partition.

    Feedback keys must name controls and gain keys covariates; anything the
    spec does not mention defaults to zero gain.  A spec asking for optimal
    covariate gains takes them from ``optimal``, the result of
    :func:`optimal_b` for the same partition.
    """
    bad = set(spec.feedback) - set(partition.controls)
    if bad:
        raise ControlSetMismatch(f"plan feedback names non-controls: {sorted(bad)}")
    a = np.array([spec.feedback.get(name, 0.0) for name in partition.controls])

    if spec.covariate_gains == "optimal":
        if optimal is None:
            raise ValueError("resolving optimal gains requires the result of optimal_b")
        b = optimal.covariate_gains
    else:
        bad = set(spec.covariate_gains) - set(partition.covariates)
        if bad:
            raise ControlSetMismatch(f"plan gains name non-covariates: {sorted(bad)}")
        b = np.array([spec.covariate_gains.get(name, 0.0) for name in partition.covariates])
    return ControlPlan(
        set_point=spec.set_point,
        feedback=a,
        covariate_gains=b,
        noise_variance=spec.noise_variance,
    )
