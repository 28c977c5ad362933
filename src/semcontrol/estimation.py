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
import functools
import io
import json
import os
import warnings
from collections import deque
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .effects import MomentSummary
from .errors import (
    InputFormatError,
    MissingFixture,
    SingularInstrumentBlock,
    TooFewRows,
    WeakInstrument,
    WorkerFailed,
)
from .model import (
    PSD_TOL,
    StructuralModel,
    _check_object,
    _read_json,
    _write_whole,
    inverse,
    model_from_dict,
)

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
        """Header row, then each value as its shortest round-trip ``repr``, CRLF line ends.

        The rows are formatted a block of about ``_CSV_BLOCK_CELLS`` cells at a
        time by one ``%`` call; ``%r`` of a float is its ``repr``, so the bytes
        are those of a ``csv.writer`` row of ``repr`` strings.  Several blocks are
        formatted by forked workers (:func:`_fork_map`) and written in order.  The
        file is replaced whole or not at all.
        """
        line = ",".join(["%r"] * len(self.columns)) + "\r\n"
        step = max(1, _CSV_BLOCK_CELLS // max(len(self.columns), 1))
        starts = range(0, self.n, step)

        def block(start: int) -> str:
            return _csv_lines(line, self.rows[start:start + step])

        with _write_whole(path, newline="") as fh:
            csv.writer(fh).writerow(self.columns)
            fh.writelines(_fork_map(block, starts) or map(block, starts))

    @classmethod
    def from_csv(cls, path: str | Path) -> "Dataset":
        """A header row, then rows of comma-separated numbers parsed by ``np.loadtxt``.

        Cells may be quoted and padded, blank lines are skipped, and nothing
        is a comment.  A malformed file raises :class:`InputFormatError`
        naming its first bad line.  A file of several segments is parsed by
        forked workers, one segment each (:func:`_read_segments`).
        """
        header, rows = _read_segments(path) or _read_whole(path)
        if rows is not None and not rows.size:
            raise InputFormatError(f"{path}: no data rows")
        if rows is None or rows.shape[1] != len(header):
            raise InputFormatError(_csv_fault(path, len(header)))
        if len(set(header)) != len(header):
            raise InputFormatError(f"{path}: duplicate column names")
        if not np.isfinite(rows).all():  # nan, inf or an overflowing 1e400
            raise InputFormatError(_csv_fault(path, len(header)))
        return cls(tuple(header), rows)


#: Cells formatted per ``%`` call in :meth:`Dataset.to_csv`; bounds its memory.
_CSV_BLOCK_CELLS = 2**18

#: Bytes of a CSV file that one worker of :meth:`Dataset.from_csv` parses per task.
_CSV_SEGMENT_BYTES = 2**23


def _csv_lines(line: str, block: np.ndarray) -> str:
    """The rows of ``block`` as CSV text, ``line`` being the ``%r`` template of one row."""
    return (line * len(block)) % tuple(block.ravel().tolist())


def _loadtxt(lines) -> np.ndarray:
    with warnings.catch_warnings():
        # a header-only file is reported as "no data rows" by Dataset.from_csv
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=float, delimiter=",", comments=None, quotechar='"',
                          ndmin=2)


def _read_whole(path) -> tuple[list[str], np.ndarray | None]:
    """A CSV file's header and its rows in one pass, or None for rows that fail to parse."""
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise InputFormatError(f"{path}: empty CSV file") from None
        try:
            return header, _loadtxt(fh)
        except ValueError:
            return header, None


def _read_segments(path) -> tuple[list[str], np.ndarray] | None:
    """A CSV file's header and rows, parsed by forked workers, or None unless this gives
    exactly what :func:`_read_whole` gives.

    The data lines are cut after a ``\\n`` about every ``_CSV_SEGMENT_BYTES``.  None
    when the file is one segment or :func:`_fork_map` declines, and when the header or
    a segment holds a quote (a quoted cell may hold a line end) or a non-ASCII byte,
    or a segment fails to parse: the single pass then reads, or rejects, the file.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        # a bare CR ends a line for csv.reader, but not for the cuts
        if not head.endswith(b"\n") or not _plain(head) or b"\r" in head[:-2]:
            return None
        cuts = [fh.tell()]
        while True:
            fh.seek(cuts[-1] + _CSV_SEGMENT_BYTES)
            if not fh.readline():  # past the end
                break
            cuts.append(fh.tell())
        end = fh.seek(0, os.SEEK_END)
    if cuts[-1] < end:  # the rest, shorter than a segment
        cuts.append(end)
    parts = _fork_map(functools.partial(_parse_segment, path), zip(cuts, cuts[1:]))
    if parts is None:
        return None
    parts = [part for part in parts if part is None or len(part)]  # drop blank segments
    if not parts or any(part is None for part in parts) or len({p.shape[1] for p in parts}) > 1:
        return None
    return next(csv.reader([head.decode()])), np.concatenate(parts)


def _plain(data: bytes) -> bool:
    return data.isascii() and b'"' not in data


def _parse_segment(path, span: tuple[int, int]) -> np.ndarray | None:
    """``np.loadtxt``'s rows of the bytes [start, stop) of a CSV file, or None unless
    they are plain ASCII without quotes and parse."""
    start, stop = span
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    if not _plain(data):
        return None
    try:
        return _loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline=""))
    except ValueError:
        return None


def _fork_map(work, items) -> Iterator | None:
    """``map(work, items)`` computed by forked worker processes, or None where they
    cannot help: fewer than two items or usable CPUs, or no ``fork``.

    Each worker inherits ``work`` and the data that it reads through the fork, so only
    the items and the results are pickled.  There are ``min(usable CPUs, items)``
    workers, and at most two items per worker are in flight, which bounds the memory
    that the results hold.  A worker that dies or raises ends in :class:`WorkerFailed`.
    """
    items = list(items)
    usable = getattr(os, "sched_getaffinity", None)
    workers = min(len(usable(0)), len(items)) if usable and hasattr(os, "fork") else 1
    return _in_workers(work, items, workers) if workers > 1 else None


def _in_workers(work, items: list, workers: int):
    # imported here so that only the parallel path loads multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _adopt, (work,))
    todo = iter(items)
    try:
        pending = deque(pool.submit(_call, item) for item in islice(todo, 2 * workers))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(_call, item) for item in islice(todo, 1))
            yield result
    except Exception as exc:  # BrokenProcessPool for a worker that died, or what one raised
        raise WorkerFailed(f"a CSV worker process failed: {type(exc).__name__}: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


#: The function that a forked worker applies to each item; only :func:`_adopt`, which
#: runs in the worker, sets it.
_work = None


def _adopt(work) -> None:
    global _work
    _work = work


def _call(item):
    return _work(item)


def _csv_fault(path, width: int) -> str:
    """The message naming the first data line that ``np.loadtxt`` rejected or read
    as a non-finite number.

    Only diagnoses: it walks the rows again, a cell at a time, and accepts a
    cell only if ``loadtxt`` would, so ``1_000`` and non-ASCII digits, which
    Python's ``float`` reads, count as non-numeric.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                return f"{path}:{lineno}: ragged row"
            if not all(_is_number(cell) for cell in row):
                return f"{path}:{lineno}: non-numeric or missing cell"
            if not np.isfinite([float(cell) for cell in row]).all():
                return f"{path}:{lineno}: non-finite cell"
    return f"{path}: unreadable CSV"


def _is_number(cell: str) -> bool:
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


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
