"""Reduced-form effects and population moments of a structural model.

The total effect of the treatment on its descendants is the reduced-form
coefficient vector obtained by eliminating the descendant subsystem,

    tau = (I - A_ss)^(-1) A_sx,

and the implied equilibrium moments of the whole system follow from
eliminating every equation at once:  mean = (I - A)^(-1) intercepts and
covariance = (I - A)^(-1) diag(disturbance variances) (I - A)^(-T).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SingularBlock, SingularSystem, UnstableModel
from .model import StructuralModel, VertexPartition, is_stable, solve, spectral_radius


@dataclass(frozen=True)
class MomentSummary:
    """Mean vector and covariance matrix over the model variables.

    ``n_obs`` is the sample size behind sample moments, when known.
    """

    variables: tuple[str, ...]
    mean: np.ndarray
    covariance: np.ndarray
    n_obs: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        p = len(self.variables)
        if len(set(self.variables)) != p:
            dupes = sorted(v for v, k in Counter(self.variables).items() if k > 1)
            raise ValueError(f"duplicate variable names: {dupes}")
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.covariance, dtype=float)
        if mean.shape != (p,):
            raise ValueError(f"mean must have length {p}, got {mean.shape}")
        if cov.shape != (p, p):
            raise ValueError(f"covariance must be {p}x{p}, got {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("moments must be finite")
        if p and np.abs(cov - cov.T).max() > 1e-12:
            raise ValueError("covariance is not symmetric within 1e-12")
        if p and np.diag(cov).min() < -1e-12:
            raise ValueError("covariance has a negative diagonal entry")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variables)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def mean_of(self, names: Sequence[str]) -> np.ndarray:
        return self.mean[[self.index(n) for n in names]]

    def cov_block(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        r = [self.index(n) for n in rows]
        c = [self.index(n) for n in cols]
        return self.covariance[np.ix_(r, c)]

    def var(self, name: str) -> float:
        i = self.index(name)
        return float(self.covariance[i, i])

    def cov(self, a: str, b: str) -> float:
        return float(self.covariance[self.index(a), self.index(b)])


@dataclass(frozen=True)
class EffectSummary:
    """Total effects of the treatment, in the partition's block order.

    ``to_descendants`` is the reduced-form effect of a unit change in the
    treatment on each descendant.
    """

    partition: VertexPartition
    to_descendants: np.ndarray

    def __post_init__(self):
        tau = np.array(self.to_descendants, dtype=float)
        n_s = len(self.partition.descendants)
        if tau.shape != (n_s,):
            raise ValueError(f"to_descendants must have length {n_s}")
        if not np.isfinite(tau).all():
            raise ValueError("total effects must be finite")
        tau.setflags(write=False)
        object.__setattr__(self, "to_descendants", tau)

    @property
    def to_controls(self) -> np.ndarray:
        """Effects on the control subset (leading block of the descendants)."""
        return self.to_descendants[: len(self.partition.controls)]

    @property
    def to_free_descendants(self) -> np.ndarray:
        return self.to_descendants[len(self.partition.controls):]

    @property
    def to_response(self) -> float:
        """Total effect on the response (first control)."""
        return float(self.to_descendants[0])


def total_effects(model: StructuralModel, partition: VertexPartition) -> EffectSummary:
    """Reduced-form total effects of the treatment on its descendants."""
    coeff = model.coefficients
    s_names = partition.descendants
    a_ss = partition.submatrix(coeff, s_names, s_names)
    a_sx = partition.submatrix(coeff, s_names, (partition.treatment,))[:, 0]

    tau = solve(np.eye(len(s_names)) - a_ss, a_sx, SingularSystem(
        "descendant system (I - A_ss) is numerically singular; "
        "the model has no usable reduced form"
    ))
    return EffectSummary(partition, tau)


def implied_moments(model: StructuralModel) -> MomentSummary:
    """Equilibrium mean and covariance implied by a stable model."""
    rho = spectral_radius(model.coefficients)
    if not is_stable(rho):
        raise UnstableModel(
            f"spectral radius {rho:.6g} is not below 1; equilibrium moments do not exist"
        )
    return _equilibrium_moments(model)


def _equilibrium_moments(model: StructuralModel) -> MomentSummary:
    """:func:`implied_moments` without its spectral-radius gate, for callers
    that have already found both block radii of a valid model below one
    (their eigenvalues are those of the whole coefficient matrix)."""
    n = model.n_variables
    system = np.eye(n) - model.coefficients
    mean = np.linalg.solve(system, model.intercepts)
    inv = np.linalg.solve(system, np.eye(n))
    cov = (inv * model.disturbance_variances) @ inv.T
    cov = 0.5 * (cov + cov.T)
    return MomentSummary(model.variables, mean, cov)


def regression_blocks(
    moments: MomentSummary, rows: Sequence[str], cols: Sequence[str]
) -> np.ndarray:
    """Population regression coefficients of ``rows`` on ``cols``.

    Returns the (len(rows), len(cols)) matrix of covariance of rows with
    cols times the inverse covariance of cols.  An empty ``cols`` yields an
    empty matrix.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    if not cols:
        return np.zeros((len(rows), 0))
    sigma_rc = moments.cov_block(rows, cols)
    sigma_cc = moments.cov_block(cols, cols)
    singular = SingularBlock(f"covariance block for {cols} is singular")
    return solve(sigma_cc.T, sigma_rc.T, singular).T


@dataclass(frozen=True)
class RegressionBlocks:
    """The named regression blocks used by the control-plan formulas.

    All are unconditional population regressions computed from one moment
    summary: controls on treatment, controls on covariates, and treatment on
    covariates.
    """

    partition: VertexPartition
    controls_on_treatment: np.ndarray
    controls_on_covariates: np.ndarray
    treatment_on_covariates: np.ndarray

    @property
    def response_on_treatment(self) -> float:
        return float(self.controls_on_treatment[0])

    @classmethod
    def from_moments(
        cls, moments: MomentSummary, partition: VertexPartition
    ) -> "RegressionBlocks":
        x = (partition.treatment,)
        f = partition.controls
        w = partition.covariates
        return cls(
            partition=partition,
            controls_on_treatment=regression_blocks(moments, f, x)[:, 0],
            controls_on_covariates=regression_blocks(moments, f, w),
            treatment_on_covariates=regression_blocks(moments, x, w)[0],
        )
