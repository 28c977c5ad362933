"""Moment estimation from data and instrumental-variable effect estimation.

Because the reduced form is linear in the moments, the total effect of the
treatment on the response can be recovered from observational covariances
whenever a valid instrument exists: a nondescendant correlated with the
treatment whose only association with the response runs through it.  The
single-instrument estimate is the covariance ratio cov(Y,Z)/cov(X,Z); with
several instruments the two-stage least-squares form projects the treatment
on the instrument block first.  Instrument validity is the caller's
assertion; only the numeric conditions (relevance, rank) are checked here.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .effects import MomentSummary
from .errors import (
    InputFormatError,
    MissingFixture,
    SingularInstrumentBlock,
    TooFewRows,
    WeakInstrument,
)
from .model import (
    PSD_TOL,
    StructuralModel,
    _check_object,
    _read_json,
    inverse,
    model_from_dict,
)
from .simulate import Dataset

#: Relative correlation scale below which an instrument is called weak.
WEAK_INSTRUMENT_TOL = 1e-8


@dataclass(frozen=True)
class IVEstimate:
    """An instrumental-variable estimate of the treatment's total effect."""

    gamma_hat: float
    instruments: tuple[str, ...]
    denominator: float


def sample_moments(data: Dataset) -> MomentSummary:
    """Column means and the n-1 divisor covariance matrix of a dataset."""
    if data.n < 2:
        raise TooFewRows(f"need at least 2 rows to form a covariance, got {data.n}")
    mean = data.rows.mean(axis=0)
    deviations = data.rows - mean  # np.cov's own steps, and bits, on the mean above
    cov = deviations.T @ deviations * (1.0 / (data.n - 1))
    cov = 0.5 * (cov + cov.T)
    return MomentSummary(data.columns, mean, cov, n_obs=data.n)


def _check_roles(treatment: str, response: str, instruments: Sequence[str]) -> None:
    """Refuse a variable that plays two roles, whose estimate would be an identity."""
    if treatment == response:
        raise ValueError("treatment and response must be distinct vertices")
    for name in instruments:
        if name in (treatment, response):
            role = "treatment" if name == treatment else "response"
            raise ValueError(f"instrument {name!r} is also the {role}")


def iv_estimate(
    moments: MomentSummary,
    treatment: str,
    response: str,
    instrument: str,
) -> IVEstimate:
    """Single-instrument estimate cov(Y,Z) / cov(X,Z)."""
    _check_roles(treatment, response, (instrument,))
    sigma_xz = moments.cov(treatment, instrument)
    scale = np.sqrt(moments.var(treatment) * moments.var(instrument))
    if scale == 0.0:
        raise WeakInstrument(f"{treatment} or {instrument} has zero variance")
    if abs(sigma_xz) < WEAK_INSTRUMENT_TOL * scale:
        raise WeakInstrument(
            f"|cov({treatment}, {instrument})| = {abs(sigma_xz):.3g} is below the "
            f"relevance threshold {WEAK_INSTRUMENT_TOL:.1e} * {scale:.3g}"
        )
    sigma_yz = moments.cov(response, instrument)
    return IVEstimate(
        gamma_hat=sigma_yz / sigma_xz,
        instruments=(instrument,),
        denominator=sigma_xz,
    )


def tsls_estimate(
    moments: MomentSummary,
    treatment: str,
    response: str,
    instruments: Sequence[str],
) -> IVEstimate:
    """Two-stage least-squares estimate with one or more instruments.

    With a single instrument this reduces algebraically to the covariance
    ratio of :func:`iv_estimate`.
    """
    instruments = tuple(instruments)
    if not instruments:
        raise ValueError("at least one instrument is required")
    _check_roles(treatment, response, instruments)
    if moments.var(treatment) == 0.0:  # the relevance test below would pass 0 < 0
        raise WeakInstrument(f"{treatment} has zero variance")
    sigma_zz = moments.cov_block(instruments, instruments)
    sigma_zx = moments.cov_block(instruments, (treatment,))[:, 0]
    first_stage = inverse(sigma_zz, SingularInstrumentBlock(
        f"instrument covariance block for {instruments} is rank deficient"
    )) @ sigma_zx
    sigma_zy = moments.cov_block(instruments, (response,))[:, 0]
    projected_var = float(first_stage @ sigma_zx)
    if projected_var < WEAK_INSTRUMENT_TOL**2 * moments.var(treatment):
        raise WeakInstrument(
            f"projected treatment variance {projected_var:.3g} is below the "
            f"relevance threshold"
        )
    return IVEstimate(
        gamma_hat=float(first_stage @ sigma_zy) / projected_var,
        instruments=instruments,
        denominator=projected_var,
    )


# ---------------------------------------------------------------------------
# Covariance file format and bundled fixtures


_COV_KEYS = {"variables", "matrix", "means", "n"}


def _array(value, field: str) -> np.ndarray:
    """A JSON array as finite floats, or an InputFormatError naming the field."""
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise InputFormatError(f"{field} must be a rectangular array of numbers") from None
    if not np.isfinite(array).all():  # NaN, Infinity, or a null that float() reads as NaN
        raise InputFormatError(f"{field} must be finite")
    return array


def covariance_from_dict(payload: dict) -> MomentSummary:
    _check_object(payload, "covariance", _COV_KEYS, ("variables", "matrix"))
    variables = payload["variables"]
    matrix = _array(payload["matrix"], "'matrix'")
    means = payload.get("means")
    mean = np.zeros(len(variables)) if means is None else _array(means, "'means'")
    n_obs = payload.get("n")
    if n_obs is not None:  # an int or a whole float, never a bool, a string or inf
        if not (type(n_obs) in (int, float) and 0 <= n_obs < np.inf and n_obs % 1 == 0):
            raise InputFormatError(f"'n' must be a nonnegative integer, got {n_obs!r}")
        n_obs = int(n_obs)
    try:
        moments = MomentSummary(tuple(variables), mean, matrix, n_obs=n_obs)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None
    # implied and sample moments are PSD by construction; a file need not be
    if variables:
        lowest = np.linalg.eigvalsh(moments.covariance)[0]
        if lowest < -PSD_TOL * np.diag(moments.covariance).max():
            raise InputFormatError(
                f"'matrix' is not positive semidefinite: smallest eigenvalue {lowest:.3g}"
            )
    return moments


def load_covariance(path: str | Path) -> MomentSummary:
    return covariance_from_dict(_read_json(path))


def _fixture(name: str) -> dict:
    """A bundled JSON fixture, read in place so that zipped installs work too."""
    try:
        return _read_json(resources.files("semcontrol").joinpath("data", name))
    except (FileNotFoundError, ModuleNotFoundError):
        raise MissingFixture(f"bundled fixture {name!r} not found") from None


def iverson_moments() -> MomentSummary:
    """Published covariance matrix of the student-faculty contact study.

    Computed by Iverson, Pascarella and Terenzini (1985) for contact (X),
    educational aspiration (Y), and three blocks of background covariates;
    all variables are centered, so the means are zero.
    """
    return covariance_from_dict(_fixture("iverson_covariance.json"))


def iverson_model() -> StructuralModel:
    """Contact-aspiration loop model fitted to the published covariance.

    The graph carries the X <-> Y feedback loop with the background blocks
    feeding both, except that faculty relations (Z3) enter only through
    contact, which is what makes Z3 an instrument.  Path coefficients were
    obtained by exact moment matching: the implied covariance of this model
    reproduces the published matrix to machine precision.
    """
    return model_from_dict(_fixture("iverson_model.json"))
