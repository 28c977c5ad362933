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
    """A rectangular table of observations, one column per model variable.  A read-only
    float ``rows`` array is kept as it is; any other is copied, so the caller's stays its own."""

    columns: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        rows = np.asarray(self.rows, dtype=float)
        if rows.flags.writeable:
            rows = rows.copy()
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

        The rows are formatted a block of about ``_CSV_BLOCK_CELLS`` cells at a time
        by :func:`_csv_lines`, whose bytes are those of a ``csv.writer`` row of
        ``repr`` strings.  Several blocks are formatted by forked workers
        (:func:`_fork_map`) and written in order.  The file is replaced whole or not
        at all.
        """
        step = max(1, _CSV_BLOCK_CELLS // max(len(self.columns), 1))
        starts = range(0, self.n, step)

        def block(start: int) -> bytes:
            return _csv_lines(self.rows[start:start + step])

        with _write_whole(path, newline="") as fh:
            csv.writer(fh).writerow(self.columns)
            fh.flush()  # the rows are bytes, written below the text layer
            fh.buffer.writelines(_fork_map(block, starts) or map(block, starts))

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
        rows.setflags(write=False)  # so that the dataset keeps this array and copies nothing
        try:
            return cls(tuple(header), rows)
        except ValueError:  # only a value is left to refuse: nan, inf or an overflowing 1e400
            raise InputFormatError(_csv_fault(path, len(header))) from None


#: Cells per block that :meth:`Dataset.to_csv` hands to :func:`_csv_lines`.
_CSV_BLOCK_CELLS = 2**18

#: Cells that :func:`_csv_lines` formats at a time; bounds its scratch arrays.
_CSV_SUB_CELLS = 2**13

#: Bytes of a CSV file that one worker of :meth:`Dataset.from_csv` parses per task.
_CSV_SEGMENT_BYTES = 2**23

#: ``_POW10[j + 5]`` is the double nearest ``10**j``, exact for ``0 <= j <= 22``.
_POW10 = np.array([float(f"1e{j}") for j in range(-5, 23)])


def _csv_lines(block: np.ndarray) -> bytes:
    """The rows of ``block`` as CSV bytes: each value as its ``repr``, ``,`` between
    cells and ``\\r\\n`` after each row.

    Values in ``1e-4 <= |x| < 1e16``, which ``repr`` writes without an exponent, take
    their digits from :func:`_shortest`; the others, and the ties that it declines, are
    formatted by ``%r``.  :func:`_format_cells` assembles the text ``_CSV_SUB_CELLS``
    cells at a time, with one ``%`` call for the ``repr`` cells among them.
    """
    rows, width = block.shape
    if not width:
        return b"\r\n" * rows
    cells = block.ravel()
    masks = _slot_masks()
    return b"".join(
        _format_cells(cells[start:start + _CSV_SUB_CELLS], start % width, width, masks)
        for start in range(0, cells.size, _CSV_SUB_CELLS)
    )


#: The slot of one cell in :func:`_format_cells`; 0xff marks a digit.
_SLOT = b"-0.000" + b"\xff" * 18 + b"." + b"\xff" * 16 + b"0,\r\n"


def _slot_masks() -> np.ndarray:
    """``_SLOT`` with the characters that ``repr`` drops set to zero, one row per
    (sign, row end, decimal exponent k in [-4, 15], digit count p in [0, 17]).

    The digit bytes are 0xff where kept, so that ``&`` with the digits keeps them.
    With ``a = max(k + 1, 0)`` integer digits, the text is the sign, then ``0.``, the
    ``-k - 1`` zeros and the first digit when ``k < 0``, then the first ``a`` digits
    of the integer copy and ``.`` when ``k >= 0``, then digits ``a`` to ``p - 1`` of
    the fraction copy (which starts at the second digit), ``0`` when ``p <= a``, and
    ``,`` or ``\\r\\n``.  A row with ``p = 0`` keeps only the separator, for a cell
    whose ``repr`` is written into its slot.
    """
    neg, end, k, p = np.ix_(range(2), range(2), range(-4, 16), range(18))
    neg, end, a = neg == 1, end == 1, np.maximum(k + 1, 0)
    keep = ([neg, k < 0, k < 0] + [-k - 1 > z for z in range(3)] + [k < 0]
            + [a > z for z in range(17)] + [k >= 0]
            + [(z >= a) & (z < p) for z in range(1, 17)] + [p <= a])
    keep = [column & (p > 0) for column in keep] + [~end, end, end]
    keep = np.stack([np.broadcast_to(column, (2, 2, 20, 18)) for column in keep], axis=-1)
    return (keep * np.frombuffer(_SLOT, np.uint8)).reshape(-1, len(_SLOT))


def _format_cells(x: np.ndarray, column: int, width: int, masks: np.ndarray) -> bytes:
    """:func:`_csv_lines` of the cells ``x``, the first of which is in ``column``.

    Each cell gets a copy of its row of ``masks``, :data:`_SLOT` with only the
    characters of its text left, into whose digit bytes the 17 digits of
    :func:`_shortest` are and-ed; a ``repr`` goes over the start of the slot.  Deleting
    the zero bytes and the padding of the ``repr`` strings leaves the text.
    """
    n = len(x)
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e16)
    if exact.all():
        digits, k, p = _shortest(a)
    else:  # digits 0, k 0 and p 1 spell 0.0; p 0 leaves the cell to repr
        digits, k, p = np.zeros(n, np.int64), np.zeros(n, np.int32), (a == 0).astype(np.int64)
        at = np.flatnonzero(exact)
        digits[at], k[at], p[at] = _shortest(a[at])
    end = (np.arange(column, column + n) % width) == width - 1
    slots = np.take(masks, ((np.signbit(x) * 2 + end) * 20 + k + 4) * 18 + p, axis=0)
    # the first of the 17 digits, then two words of 8 ASCII digits, the first in the
    # lowest byte: each word's lanes are split in halves, 4 + 4, 2 + 2, then 1 + 1 digits
    high = digits // 10**8
    first = high // 10**8
    words = np.stack([high - first * 10**8, digits - high * 10**8]).astype(np.uint64)
    q = words // 10**4
    words = q | (words - q * 10**4) << 32
    q = (words * 10486 >> 20) & 0x0000007F0000007F  # each 32-bit lane // 100
    words = q | (words - q * 100) << 16
    q = (words * 103 >> 10) & 0x000F000F000F000F  # each 16-bit lane // 10
    words = q | (words - q * 10) << 8 | 0x3030303030303030
    first = first.astype(np.uint8) | ord("0")
    slots[:, 6] &= first
    slots[:, 7] &= first
    for offset, word in ((8, words[0]), (16, words[1]), (25, words[0]), (33, words[1])):
        slots[:, offset:offset + 8].view("<u8")[:, 0] &= word
    at = np.flatnonzero(p == 0)
    if len(at):  # each repr padded with spaces to 24 characters, which no finite repr passes
        text = ("%-24r" * len(at)) % tuple(x[at].tolist())
        slots[at, :24] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)
    return slots.tobytes().translate(None, b"\0 ")


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits that ``repr`` prints for each positive ``a`` in ``[1e-4, 1e16)``.

    Returns ``(V, k, p)``: ``repr`` prints the ``p`` digits of ``V // 10**(17 - p)``,
    ``V`` having 17 digits and ``p`` being the fewest that read back as ``a``, with the
    decimal point after digit ``k + 1``.  ``p`` is 0 where two shortest candidates are
    equally near, a tie left to ``repr``.  Each step is exact:

    - ``k = floor(log10 a)``.  With ``a = m 2^E``, ``1/2 <= m < 1``, ``k`` is ``k0`` or
      ``k0 + 1`` for ``k0 = floor((E - 1) log10 2)``, which ``(E - 1) * 78913 >> 18``
      gives for ``|E| < 1650`` (Adams, "Ryu", PLDI 2018).  ``a >= fl(10^(k0+1))`` picks
      one: ``10^j`` is a double for ``0 <= j <= 22``, and for ``-4 <= j < 0``
      ``fl(10^j)`` is the double just above ``10^j``, so no double lies between.
    - ``S = a 10^m``, ``m = 16 - k`` in ``[1, 20]``, so ``1e16 <= S < 1e17``; ``10^m``
      is a double (``5^20 < 2^53``).  Dekker's two-product (*Numer. Math.* 18, 1971)
      gives ``S = hi + err`` exactly.  ``hi >= 1e16 > 2^53`` is an integer, so
      ``S = N + f`` with integer ``N = hi + floor(err)`` and ``0 <= f < 1``, both exact.
    - A decimal reads back as ``a`` when, scaled by ``10^m``, it lies within ``B`` of
      ``S``, ``B = ulp(a)/2 10^m = 10^m 2^(E-54)``.  ``S`` and ``B`` are multiples of
      ``2^(E-54+m) >= 2^-47`` and ``f +- B`` are below 16 in size, so they are exact, and
      so are ``hiI`` and ``loI``, the largest and smallest integers in ``[S - B, S + B]``.
      ``S 2^-54 < B <= S 2^-53 < 11.2``: the interval holds ``N + (f > 1/2)``, and
      ``w = hiI - loI + 1 <= 23`` integers.
    - Two refinements of that interval move no output in this range, so they are left
      out.  Ties to even keep the edges ``S +- B`` only for an even mantissa ``M``; an
      edge ``(2M +- 1) 5^m 2^(m+E-54)`` is an integer only when ``m + E >= 54``, that is
      ``a >= 2^52`` with ``m = 1``, and then an odd multiple of 5 or 10, never of 100,
      while ``S`` itself is a multiple of 10 and nearer.  Below a power of two the gap
      is ``B/2``; but a power of two here is an integer up to ``2^53`` or ``5^i / 10^i``
      for ``i <= 13``, so ``S`` is its exact digits, ending in 1, 2, 4, 6, 8 or 5,
      followed by ``z`` zeros, ``z = m`` or ``z >= 7``, and every shorter decimal is at
      least ``2 10^z > B`` from ``S``.
    - ``p`` digits read back as ``a`` exactly when a multiple of ``10^j``, ``j = 17 - p``,
      lies in ``[loI, hiI]``, a property that holds for every ``j`` up to the largest.
      ``j >= 1`` when ``hiI mod 10 < w`` and ``j >= 2`` when ``hiI mod 100 < w``; then
      ``hiI - hiI mod 100`` is the one multiple of 100 inside, and ``j`` is 2 plus the
      trailing zeros of ``hiI div 100``, found by binary search: for ``h < 2^53``,
      ``fl(h / 10^s)`` is an integer exactly when ``10^s`` divides ``h``.
    - Of the shortest candidates ``repr`` prints the one nearest to ``S``.  For ``j = 0``
      that is ``N + (f > 1/2)``, a tie when ``f = 1/2``.  For ``j = 1`` the candidates
      are ``M = hiI - hiI mod 10``, ``M - 10`` and ``M - 20`` down to ``loI``, and the
      distance ``M - S`` picks one; a tie when it is 5 or 15 and both neighbours are
      inside.  For ``j >= 2`` there is one candidate.
    - No candidate rounds up to ``10^(k+1)``, which would move the exponent: for
      ``k + 1 >= 0`` it is a double, so ``S + B`` stays below it, and for ``k + 1 < 0``
      it lies above the midpoint of ``fl(10^(k+1))`` and the double below.
    """
    k, n, f, up, w = _interval(a)
    top = n + up.astype(np.int64)
    hundreds = top // 10
    mod10 = top - hundreds * 10
    hundreds //= 10
    mod100 = top - hundreds * 100
    zeros = _trailing_zeros(hundreds.astype(float))
    j1, j2 = mod10 < w, mod100 < w
    gap = (up - mod10) - f  # M - S
    steps = (gap > 5).astype(np.int64) + (gap > 15)
    room = (w - 1 - mod10) // 10
    tie = np.where(j1, ((gap == 5) | (gap == 15)) & (steps < room) & ~j2, f == 0.5)
    v1 = top - mod10 - 10 * np.minimum(steps, room)
    v = n + (f > 0.5)
    v += j1 * (v1 - v) + j2 * (top - mod100 - v1)
    return v, k, (17 - j1 - j2 - j2 * zeros) * ~tie


def _interval(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(k, N, f, up, w)`` of :func:`_shortest`: ``a 10^(16-k) = N + f``, and the ``w``
    integers in the interval that reads back as ``a`` run from ``loI`` to ``hiI = N + up``."""
    e = np.frexp(a)[1]
    k = (e - 1) * 78913 >> 18
    k += a >= np.take(_POW10, k + 6)
    scale = np.take(_POW10, 21 - k)
    n, f = _two_product(a, scale)
    half_gap = np.ldexp(scale, e - 54)
    up = np.floor(f + half_gap)
    return k, n, f, up, (up - np.ceil(f - half_gap)).astype(np.int64) + 1


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(N, f)`` with ``a b = N + f`` exactly, ``N`` an integer and ``0 <= f < 1``, for
    ``a b >= 2^53``: Dekker's two-product, with Veltkamp's split into 26-bit halves."""
    s = a * b
    split = a * 134217729.0  # 2^27 + 1
    a_hi = split - (split - a)
    a_lo = a - a_hi
    split = b * 134217729.0
    b_hi = split - (split - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - s) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    whole = np.floor(err)
    return s.astype(np.int64) + whole.astype(np.int64), err - whole


def _trailing_zeros(h: np.ndarray) -> np.ndarray:
    """The trailing decimal zeros of each positive integer in the float array ``h``, which
    it divides in place: for ``h < 2^53``, ``fl(h / 10^s)`` is an integer exactly when
    ``10^s`` divides ``h``.  ``h < 10^15``, so there are at most 14."""
    zeros = np.zeros(len(h), np.int64)
    for step in (8, 4, 2, 1):
        q = h / 10.0**step
        divides = q == np.floor(q)
        h /= divides * (10.0**step - 1) + 1
        zeros += step * divides
    return zeros


def _loadtxt(lines) -> np.ndarray:
    with warnings.catch_warnings():
        # a header-only file is reported as "no data rows" by Dataset.from_csv
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=float, delimiter=",", comments=None, quotechar='"',
                          ndmin=2)


def _read_whole(path) -> tuple[list[str], np.ndarray | None]:
    """A CSV file's header and its rows in one pass, or None for rows that fail to parse."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise InputFormatError(f"{path}: empty CSV file") from None
        if not _utf8(header):
            raise InputFormatError(f"{path}:1: not valid UTF-8")
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
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        next(reader)
        start = reader.line_num + 1
        for row in reader:  # a quoted cell may hold line ends: name the record's first line
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if not _utf8(row):
                return f"{path}:{lineno}: not valid UTF-8"
            if len(row) != width:
                return f"{path}:{lineno}: ragged row"
            if not all(_is_number(cell) for cell in row):
                return f"{path}:{lineno}: non-numeric or missing cell"
            if not np.isfinite([float(cell) for cell in row]).all():
                return f"{path}:{lineno}: non-finite cell"
    return f"{path}: unreadable CSV"


def _utf8(cells: list[str]) -> bool:
    """False when a cell holds a byte that is not UTF-8, read as a lone surrogate."""
    return not any("\udc80" <= char <= "\udcff" for char in "".join(cells))


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
