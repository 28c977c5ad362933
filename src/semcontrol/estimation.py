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

import csv
import json
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
from .model import CONDITION_LIMIT, StructuralModel, model_from_dict

#: Relative correlation scale below which an instrument is called weak.
WEAK_INSTRUMENT_TOL = 1e-8


@dataclass(frozen=True)
class Dataset:
    """A rectangular table of observations, one column per model variable."""

    columns: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError(
                f"rows must be (n, {len(self.columns)}), got {rows.shape}"
            )
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        if not np.isfinite(rows).all():
            raise ValueError("dataset contains missing or non-finite values")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.rows[:, self.columns.index(name)]
        except ValueError:
            raise ValueError(f"unknown column {name!r}") from None

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([repr(float(v)) for v in row])

    @classmethod
    def from_csv(cls, path: str | Path) -> "Dataset":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InputFormatError(f"{path}: empty CSV file") from None
            data = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputFormatError(f"{path}:{lineno}: ragged row")
                try:
                    data.append([float(v) for v in row])
                except ValueError:
                    raise InputFormatError(
                        f"{path}:{lineno}: non-numeric or missing cell"
                    ) from None
        if not data:
            raise InputFormatError(f"{path}: no data rows")
        return cls(tuple(header), np.array(data))


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
    cov = np.atleast_2d(np.cov(data.rows, rowvar=False, ddof=1))
    cov = 0.5 * (cov + cov.T)
    return MomentSummary(data.columns, mean, cov, source="sample", n_obs=data.n)


def iv_estimate(
    moments: MomentSummary,
    treatment: str,
    response: str,
    instrument: str,
    relevance_tol: float = WEAK_INSTRUMENT_TOL,
) -> IVEstimate:
    """Single-instrument estimate cov(Y,Z) / cov(X,Z)."""
    sigma_xz = moments.cov(treatment, instrument)
    scale = np.sqrt(moments.var(treatment) * moments.var(instrument))
    if abs(sigma_xz) < relevance_tol * scale:
        raise WeakInstrument(
            f"|cov({treatment}, {instrument})| = {abs(sigma_xz):.3g} is below the "
            f"relevance threshold {relevance_tol:.1e} * {scale:.3g}"
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
    relevance_tol: float = WEAK_INSTRUMENT_TOL,
    condition_limit: float = CONDITION_LIMIT,
) -> IVEstimate:
    """Two-stage least-squares estimate with one or more instruments.

    With a single instrument this reduces algebraically to the covariance
    ratio of :func:`iv_estimate`.
    """
    instruments = tuple(instruments)
    if not instruments:
        raise ValueError("at least one instrument is required")
    sigma_zz = moments.cov_block(instruments, instruments)
    if np.linalg.cond(sigma_zz) > condition_limit:
        raise SingularInstrumentBlock(
            f"instrument covariance block for {instruments} is rank deficient"
        )
    sigma_zx = moments.cov_block(instruments, (treatment,))[:, 0]
    sigma_zy = moments.cov_block(instruments, (response,))[:, 0]
    first_stage = np.linalg.solve(sigma_zz, sigma_zx)
    projected_var = float(first_stage @ sigma_zx)
    if projected_var < relevance_tol**2 * moments.var(treatment):
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
    """A JSON array as floats, or an InputFormatError naming the field."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise InputFormatError(f"{field} must be a rectangular array of numbers") from None


def covariance_from_dict(payload: dict) -> MomentSummary:
    if not isinstance(payload, dict):
        raise InputFormatError("covariance file must contain a JSON object")
    unknown = set(payload) - _COV_KEYS
    if unknown:
        raise InputFormatError(f"unknown covariance keys: {sorted(unknown)}")
    if "variables" not in payload or "matrix" not in payload:
        raise InputFormatError("covariance file requires 'variables' and 'matrix'")
    variables = payload["variables"]
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise InputFormatError("'variables' must be a list of names")
    matrix = _array(payload["matrix"], "'matrix'")
    means = payload.get("means")
    mean = np.zeros(len(variables)) if means is None else _array(means, "'means'")
    n_obs = payload.get("n")
    try:
        n_obs = None if n_obs is None else int(n_obs)
    except (TypeError, ValueError):
        raise InputFormatError(f"'n' must be an integer, got {n_obs!r}") from None
    try:
        return MomentSummary(tuple(variables), mean, matrix, source="sample", n_obs=n_obs)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def load_covariance(path: str | Path) -> MomentSummary:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON in {path}: {exc}") from None
    return covariance_from_dict(payload)


def _fixture(name: str) -> dict:
    """A bundled JSON fixture, read in place so that zipped installs work too."""
    try:
        text = resources.files("semcontrol").joinpath("data", name).read_text()
    except (FileNotFoundError, ModuleNotFoundError):
        raise MissingFixture(f"bundled fixture {name!r} not found") from None
    return json.loads(text)


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
