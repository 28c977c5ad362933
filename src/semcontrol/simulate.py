"""Monte Carlo equilibrium sampling, the independent check on every closed form, and
the :class:`Dataset` that holds its draws, with its CSV file format.

Each draw solves the full system (I - A) v = intercepts + eps for a fresh disturbance
vector, so a sample is exact equilibrium data rather than the limit of an iteration.  The
iteration itself is exposed separately as a diagnostic: repeated substitution accumulates
the partial sums of the matrix power series and converges exactly when the coefficient
matrix is convergent.

Randomness is counter-based (Philox) with one counter block range per row, so any chunking
of the draw range reproduces the same rows bit for bit and may run in parallel.  A CSV file
holds each value's ``repr``, written and read by :mod:`~semcontrol.codec`.  Forked workers
format and parse a large file a part each, drawing each block of a :func:`draw_and_save` run
that they format, and hand the text and the rows back through one ring (:func:`_fork_map`).
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
import threading
import types
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from .codec import _CSV_SUB_CELLS, _format_cells, _parse_cells, _slot_masks
from .control import ControlPlan, apply_plan
from .effects import _equilibrium_map
from .errors import InputFormatError, UnstableModelWarning, UnstablePlan, WorkerFailed
from .model import StructuralModel, VertexPartition, _write_whole, spectral_radius

RNG_ALGORITHM = "philox4x64-counter"

LAWS = ("gaussian", "uniform")


@dataclass(frozen=True)
class SimulationConfig:
    """Draw count, seed, and disturbance law for one simulation run.

    Only the first two moments of the law matter to any closed form checked
    against the sampler, so the law is configurable; both options are
    zero-mean with the model's variances.
    """

    n_draws: int
    seed: int = 0
    law: str = "gaussian"

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValueError("n_draws must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.law not in LAWS:
            raise ValueError(f"unknown disturbance law {self.law!r}; choose from {LAWS}")


def _uniform_rows(seed: int, n_cols: int, start: int, stop: int) -> np.ndarray:
    """Uniform(0,1) variates for rows [start, stop), one counter block stride per row."""
    blocks_per_row = -(-n_cols // 4)
    generator = np.random.Philox(key=seed)
    generator.advance(start * blocks_per_row)
    u = np.random.Generator(generator).random((stop - start, blocks_per_row * 4))
    return u[:, :n_cols]


def _ndtri():
    """scipy's public ``ndtri`` ufunc, without running ``scipy/special/__init__.py``.

    That ``__init__`` loads scipy's array-API layer, most of a small ``simulate``'s time.
    The ufunc's extension module, ``scipy.special._ufuncs``, loads alone under a bare
    stand-in for the package, removed at once; a later ``import scipy.special`` reuses
    that module, so its ``ndtri`` is this object.  Any failure, as from a scipy that
    moves ``_ufuncs``, falls back to the public import.
    """
    if "scipy.special" not in sys.modules:
        try:
            import scipy

            stand_in = types.ModuleType("scipy.special")
            stand_in.__path__ = [str(Path(scipy.__file__).parent / "special")]
            sys.modules["scipy.special"] = stand_in
            try:
                from scipy.special._ufuncs import ndtri
            finally:
                if sys.modules.get("scipy.special") is stand_in:
                    del sys.modules["scipy.special"]
            return ndtri
        except Exception:  # the public import reports a fault that is not the shortcut's
            pass
    from scipy.special import ndtri

    return ndtri


def _disturbances(model: StructuralModel, config: SimulationConfig,
                  start: int, stop: int) -> np.ndarray:
    u = _uniform_rows(config.seed, model.n_variables, start, stop)
    scale = np.sqrt(model.disturbance_variances)
    if config.law == "gaussian":
        # random() returns multiples of 2^-53 and can return exactly 0, which ndtri
        # maps to -inf; the maximum is also the one array that the block allocates
        eps = np.maximum(u, 2.0**-54)
        _ndtri()(eps, out=eps)
        eps *= scale
        return eps
    eps = u - 0.5
    eps *= scale * np.sqrt(12.0)
    return eps


def _equilibrium_rows(model: StructuralModel, config: SimulationConfig, inverse: np.ndarray,
                      start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows [start, stop) of the run, given ``inverse = (I - A)^-1``: every draw's block kernel.
    They are written into ``out`` when it is given."""
    eps = _disturbances(model, config, start, stop)
    eps += model.intercepts
    # einsum keeps a fixed per-element reduction order, so any chunking of the
    # row range reproduces the exact same bits (BLAS batch kernels do not)
    return np.einsum("ij,rj->ri", inverse, eps, out=out)


def _prepared(model: StructuralModel, config: SimulationConfig,
              row_range: tuple[int, int] | None) -> tuple[np.ndarray, int, int]:
    """``((I - A)^-1, start, stop)`` for a draw of ``row_range``: what is done once before
    its first row.  Refuses a model without variables and a range outside the run, warns
    of an unstable model, and loads ``ndtri`` for a Gaussian law, so that forked workers
    inherit it."""
    if not model.n_variables:  # its rows would be empty, which no CSV can hold
        raise ValueError("model has no variables to draw")
    start, stop = row_range if row_range is not None else (0, config.n_draws)
    if not 0 <= start <= stop <= config.n_draws:
        raise ValueError(f"row range [{start}, {stop}) outside [0, {config.n_draws})")
    inverse = _equilibrium_map(model)
    if not model.stable:
        warnings.warn(
            "model is not stable: equilibrium draws exist but are not reachable "
            "by iteration from any starting point",
            UnstableModelWarning,
            stacklevel=3,
        )
    if config.law == "gaussian":
        _ndtri()
    return inverse, start, stop


def draw_equilibrium(
    model: StructuralModel,
    config: SimulationConfig,
    row_range: tuple[int, int] | None = None,
) -> Dataset:
    """Sample equilibrium data; deterministic given (model, config).

    ``row_range`` selects a slice [start, stop) of the run's draw stream;
    concatenating disjoint slices in order reproduces the full run exactly,
    which is the contract that makes chunked or parallel generation safe.
    An unstable model still has a solvable equilibrium but cannot reach it
    by iteration, so sampling one only emits a warning.
    """
    values = _equilibrium_rows(model, config, *_prepared(model, config, row_range))
    values.setflags(write=False)  # so that the dataset keeps this array and copies nothing
    return Dataset(model.variables, values)


def iterate_equilibrium(
    model: StructuralModel,
    v0: np.ndarray,
    eps: np.ndarray,
    k: int,
) -> np.ndarray:
    """Repeated substitution v <- intercepts + A v + eps with a fixed draw.

    Returns the trajectory of k+1 states starting at ``v0``.  Step k equals
    the partial sum  sum_{i<k} A^i (intercepts + eps) + A^k v0,  so the
    trajectory converges to the equilibrium exactly when A is convergent and
    its divergence is itself informative output.
    """
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    n = model.n_variables
    v0 = np.asarray(v0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if v0.shape != (n,) or eps.shape != (n,):
        raise ValueError(f"v0 and eps must have length {n}")
    trajectory = np.empty((k + 1, n))
    trajectory[0] = v0
    forcing = model.intercepts + eps
    for t in range(k):
        trajectory[t + 1] = forcing + model.coefficients @ trajectory[t]
    return trajectory


def simulate_plan(
    model: StructuralModel,
    partition: VertexPartition,
    plan: ControlPlan,
    config: SimulationConfig,
    row_range: tuple[int, int] | None = None,
) -> Dataset:
    """Sample equilibrium data from the model after conducting a plan.

    Equivalent to drawing from ``apply_plan(model, partition, plan)``; the
    treatment's disturbance carries the plan's noise variance.  The sampler
    gates on the spectral radius of the post-plan coefficient matrix, which
    is the exact condition for the sampled equilibrium to be the reachable
    steady state; ``draw_equilibrium(apply_plan(...))`` samples an
    unreachable one anyway, with a warning.
    """
    return draw_equilibrium(controlled_model(model, partition, plan), config, row_range)


def controlled_model(model: StructuralModel, partition: VertexPartition,
                     plan: ControlPlan) -> StructuralModel:
    """The model after conducting a plan, ``apply_plan(model, partition, plan)``, refused
    with :class:`UnstablePlan` unless its equilibrium is reachable."""
    post = apply_plan(model, partition, plan)
    if not post.stable:
        raise UnstablePlan(
            f"post-plan spectral radius {spectral_radius(post):.6g} is not below 1; the "
            "controlled equilibrium is not reachable"
        )
    return post


def save_run(
    dataset: Dataset,
    path: str | Path,
    digest: str,
    config: SimulationConfig,
) -> Path:
    """Write a dataset as CSV plus a JSON metadata sidecar; returns the sidecar path.

    ``digest`` is the :func:`~semcontrol.model.model_hash` of the model drawn from.
    """
    return _save_run(path, digest, config, dataset.n, dataset.to_csv)[0]


def draw_and_save(model: StructuralModel, config: SimulationConfig, path: str | Path,
                  digest: str) -> tuple[Dataset, Path, tuple[np.ndarray, np.ndarray]]:
    """``draw_equilibrium(model, config)``, then :func:`save_run`: the same dataset and
    files, and the sidecar path; but each block of the CSV is drawn by the worker that
    formats it, into one buffer mapped before the workers fork and shared by all, so that
    no row is sent back.  The dataset is built, and its values checked, before either file
    is replaced.  Rows whose buffer cannot be mapped are refused by :func:`_mapped`, before
    any file is opened or any worker starts.

    Also returns the rows' mean and sample variance, the :func:`_moments` that a report
    gives, computed on a thread while the files are closed and renamed.
    """
    inverse, _, n = _prepared(model, config, None)
    rows = np.frombuffer(_mapped(n * model.n_variables * 8, "rows")).reshape(n, -1)

    def block(start: int, stop: int) -> np.ndarray:
        return _equilibrium_rows(model, config, inverse, start, stop, out=rows[start:stop])

    moments = None

    def write_csv(path: Path) -> Dataset:
        nonlocal moments
        with _write_whole(path, newline="") as fh:
            _write_csv_rows(fh, model.variables, n, block)
            rows.setflags(write=False)  # so that the dataset keeps this array and copies nothing
            # started once the workers are gone: no process may fork while it runs
            moments = _Moments(rows)
            moments.start()
            return Dataset(model.variables, rows)

    try:
        sidecar, data = _save_run(path, digest, config, n, write_csv)
    finally:  # a file that cannot be written or a dataset refused leaves no thread behind
        if moments is not None:
            moments.join()
    return data, sidecar, moments.result()


def _moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows.mean(axis=0)`` and ``rows.var(axis=0, ddof=1)``, bit for bit, for two rows or
    more: the variance is computed from that mean as numpy's own ``var`` computes it."""
    mean = rows.mean(axis=0)
    deviations = rows - mean
    deviations *= deviations
    return mean, deviations.sum(axis=0) / (len(rows) - 1)


class _Moments(threading.Thread):
    """A thread computing the :func:`_moments` of ``rows`` under the numpy error state of
    the thread that made it, which numpy keeps per thread.  :meth:`result` waits for them,
    and raises what they raised."""

    def __init__(self, rows: np.ndarray):
        super().__init__(name="moments")
        self.rows, self.errors = rows, {**np.geterr(), "call": np.geterrcall()}
        self.outcome: tuple | Exception | None = None

    def run(self) -> None:
        try:
            with np.errstate(**self.errors):
                self.outcome = _moments(self.rows)
        except Exception as exc:  # raised again by result(), in the thread that asks
            self.outcome = exc

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        self.join()
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


def _save_run(path, digest: str, config: SimulationConfig, n: int,
              write_csv) -> tuple[Path, object]:
    """The sidecar path of a run of ``n`` rows and what ``write_csv(path)`` returns."""
    path = Path(path)
    sidecar = path.with_name(path.name + ".meta.json")
    meta = {"seed": config.seed, "n": n, "model_hash": digest,
            "rng": RNG_ALGORITHM, "law": config.law}
    # the CSV is replaced inside the sidecar's block, so a sidecar that cannot be
    # written leaves the CSV as it was, and a CSV that cannot be written the sidecar
    with _write_whole(sidecar) as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")
        return sidecar, write_csv(path)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A table of observations, one column per model variable and at least one.  A read-only
    float ``rows`` array is kept as it is; any other is copied, so the caller's stays its own."""

    columns: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise ValueError("a dataset needs at least one column")
        rows = np.asarray(self.rows, dtype=float)
        if rows.flags.writeable:
            rows = rows.copy()
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError(f"rows must be (n, {len(self.columns)}), got {rows.shape}")
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
        """Header row, then each value as its shortest round-trip ``repr``, CRLF line ends
        (:func:`_write_csv_rows`).  The file is replaced whole or not at all."""
        with _write_whole(path, newline="") as fh:
            _write_csv_rows(fh, self.columns, self.n, lambda start, stop: self.rows[start:stop])

    @classmethod
    def from_csv(cls, path: str | Path) -> "Dataset":
        """A header row, then rows of comma-separated numbers, read as ``np.loadtxt``
        reads them.

        Cells may be quoted and padded, blank lines are skipped, and nothing
        is a comment.  A malformed file raises :class:`InputFormatError`
        naming its first bad line.  A file of several segments is parsed a
        segment at a time, by forked workers where they help, which hand the rows
        back through a shared ring (:func:`_read_segments`); a segment of plain
        cells is parsed by an exact kernel a window at a time (:func:`_plain_rows`).
        A file that is not a regular file, such as a pipe, is read into memory
        once and parsed in one pass.
        """
        # a pipe reads once, and the single pass and _csv_fault may each read the file
        data = None if os.path.isfile(path) else Path(path).read_bytes()
        try:
            header, rows = (data is None and _read_segments(path)) or _read_whole(path, data)
        except csv.Error as exc:  # only the header is read by csv: a field over its limit
            raise InputFormatError(f"{path}:1: {exc}") from None
        if not _utf8(header):
            raise InputFormatError(f"{path}:1: not valid UTF-8")
        if rows is not None and not rows.size:
            raise InputFormatError(f"{path}: no data rows")
        if rows is None or rows.shape[1] != len(header):
            raise InputFormatError(_csv_fault(path, len(header), data))
        if len(set(header)) != len(header):
            raise InputFormatError(f"{path}: duplicate column names")
        rows.setflags(write=False)  # so that the dataset keeps this array and copies nothing
        try:
            return cls(tuple(header), rows)
        except ValueError:  # only a value is left to refuse: nan, inf or an overflowing 1e400
            raise InputFormatError(_csv_fault(path, len(header), data)) from None


#: Cells per block that :func:`_write_csv_rows` draws or takes, and writes into one slot.
_CSV_BLOCK_CELLS = 2**18

#: Bytes of a CSV file that one worker of :meth:`Dataset.from_csv` parses per task.
_CSV_SEGMENT_BYTES = 2**23

#: Bytes of a segment that :func:`_plain_rows` reads and parses at a time, each window
#: carried on to the end of its last line; bounds the kernel's scratch arrays.
_CSV_WINDOW_BYTES = 2**20


def _write_csv_rows(fh, columns: tuple[str, ...], n: int, block) -> None:
    """A CSV file's text into the text handle ``fh``: the header row, then ``n`` rows a
    block of about ``_CSV_BLOCK_CELLS`` cells at a time, the rows [start, stop) of
    ``block(start, stop)``.  Several blocks are handled by forked workers
    (:func:`_fork_map`) and written in order.

    Each block's text is formatted by :func:`_format_cells` a part of ``_CSV_SUB_CELLS``
    cells at a time, each part straight into the block's slot of the shared ring of
    :func:`_fork_map`, so no text is pickled.
    """
    csv.writer(fh).writerow(columns)
    fh.flush()  # the rows are bytes, written below the text layer
    if not n:  # nothing to map: mmap refuses an empty buffer
        return
    step = max(1, _CSV_BLOCK_CELLS // len(columns))
    starts = range(0, n, step)
    # each cell's repr takes at most 24 bytes and is followed by "," or "\r\n"
    size = min(step, n) * (25 * len(columns) + 1)
    sub = max(1, _CSV_SUB_CELLS // len(columns))
    masks = _slot_masks()  # built here, so that the forked workers inherit it

    def put(index: int, out) -> None:
        start = starts[index]
        rows = block(start, min(start + step, n))
        for row in range(0, len(rows), sub):
            out.write(_format_cells(rows[row:row + sub].ravel(), len(columns), masks))

    for _, part in _fork_map(put, len(starts), size, "CSV text"):
        fh.buffer.write(part)


def _mapped(size: int, what: str):
    """An anonymous ``mmap`` of ``size`` bytes, which forked workers share with this
    process; one that cannot be mapped, such as for an impossible row count, is refused
    as a :class:`MemoryError` naming its size and ``what`` it holds."""
    import mmap  # here, so that only a draw, a CSV writer or a segment reader loads it

    try:
        return mmap.mmap(-1, size)
    except (OSError, OverflowError):  # no room, or a size past what mmap can take
        raise MemoryError(f"Unable to map {size} bytes for the {what}") from None


def _loadtxt(lines) -> np.ndarray:
    with warnings.catch_warnings():
        # a header-only file is reported as "no data rows" by Dataset.from_csv
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=float, delimiter=",", comments=None, quotechar='"',
                          ndmin=2)


def _text(path, data: bytes | None) -> io.TextIOWrapper:
    """The CSV file, or its bytes ``data`` when read already, as UTF-8 text after an
    optional BOM, each byte that is not UTF-8 kept as a lone surrogate (:func:`_utf8`)."""
    raw = open(path, "rb") if data is None else io.BytesIO(data)
    return io.TextIOWrapper(raw, encoding="utf-8-sig", errors="surrogateescape", newline="")


def _read_whole(path, data: bytes | None) -> tuple[list[str], np.ndarray | None]:
    """A CSV file's header and its rows in one pass, or None for rows that fail to parse."""
    with _text(path, data) as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise InputFormatError(f"{path}: empty CSV file") from None
        try:
            return header, _loadtxt(fh)
        except ValueError:
            return header, None


def _read_segments(path) -> tuple[list[str], np.ndarray | None] | None:
    """A CSV file's header and rows, parsed a segment at a time by :func:`_fork_map`; or
    its header and None for a header that is not UTF-8 or rows of another width than the
    header; or None, for the single pass to read or reject the file.

    The data lines are cut after a ``\\n`` about every ``_CSV_SEGMENT_BYTES``.  None for
    one segment, a header that is not one line without a quote or a bare CR, or a
    segment that is not UTF-8, holds an odd number of quotes or fails.  No byte of a
    multibyte UTF-8 character is a ``\\n``, ``\\r`` or ``"``, so the cuts and the counts
    mean what they would in ASCII.  In a segment that parses, every ``"`` opens or
    closes a quoted cell: any other puts a ``"`` into its cell, which fails, as after
    padding (``1, "2"``), in an unquoted cell (``7"8``) or doubled (``"1""2"``); ``"1"2``
    reads as 12.  So a segment with an even count ends outside quotes, and by induction
    from the header, which has none, the single pass is outside quotes at every cut and
    reads the same records.  An odd count may put a cut inside a quoted cell, and
    ``np.loadtxt`` accepts one left open at the end of its input (``1,"2\\n`` reads as
    ``[[1, 2]]``).  So where a segment's width is not the header's, the single pass
    reads the same records and fails too, and its fault is named without a second parse.

    A worker writes a segment's rows into its slot of the shared ring of :func:`_fork_map`
    and returns only their shape; this process appends the slot to one buffer of rows.
    Each slot has 8 bytes for every 2 of the longest segment, the least that a cell and
    its separator take; only the pages that rows fill are touched.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        # a bare CR ends a line for csv.reader, but not for the cuts
        if not head.endswith(b"\n") or b'"' in head or b"\r" in head[:-2]:
            return None
        cuts, end = [fh.tell()], fh.seek(0, os.SEEK_END)
        while cuts[-1] < end:  # the last segment may be shorter
            fh.seek(cuts[-1] + _CSV_SEGMENT_BYTES)
            fh.readline()
            cuts.append(min(fh.tell(), end))
    if len(cuts) < 3:  # one segment, which the single pass streams
        return None
    header = next(csv.reader([head.decode("utf-8-sig", "surrogateescape")]))
    if not _utf8(header):  # refused by from_csv before any segment is parsed
        return header, None
    segments = list(zip(cuts, cuts[1:], repeat(len(header))))
    size = (max(stop - start for start, stop, _ in segments) // 2 + 1) * 8

    def put(index: int, out) -> tuple[int, int] | None:
        return _parse_segment(path, segments[index], out)

    rows = io.BytesIO()  # each slot is appended and let go, not held to the end
    for shape, part in _fork_map(put, len(segments), size, "CSV rows"):
        if shape is None:
            return None
        if shape[0] and shape[1] != len(header):  # a blank segment has no width
            return header, None
        rows.write(part)
    # getvalue hands over the buffer itself, trimmed to its size; ``or 1`` for an empty
    # header, which only blank lines can follow here, as reshape cannot divide by 0
    return header, np.frombuffer(rows.getvalue()).reshape(-1, len(header) or 1)


def _parse_segment(path, segment: tuple[int, int, int], out) -> tuple[int, int] | None:
    """The shape of ``np.loadtxt``'s rows of the bytes [start, stop) of a CSV file whose
    header has ``width`` cells, their values written to the binary file ``out`` from its
    position; or None unless they are UTF-8 with an even number of quotes and parse.  Rows
    of long plain cells are read by :func:`_plain_rows`, with the same bits; a segment that
    it declines in any window is read whole by ``np.loadtxt``."""
    start, stop, width = segment
    at = out.tell()
    with open(path, "rb") as fh:
        fh.seek(start)
        if _long_cells(fh.read(min(stop - start, 4096))):
            fh.seek(start)
            count = _plain_rows(fh, stop - start, width, out)
            if count is not None:
                return count, width
            out.seek(at)
        fh.seek(start)
        data = fh.read(stop - start)
    if b'"' in data and data.count(b'"') % 2:
        return None
    try:  # a byte that is not UTF-8 raises UnicodeDecodeError, a ValueError
        rows = _loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    except ValueError:
        return None
    out.write(rows)
    return rows.shape


def _long_cells(data: bytes) -> bool:
    """Whether the first 4 KiB of a segment hold cells of 16 bytes or more on average,
    separator included, at most one in 16 of them with an exponent: the cells that
    :func:`_plain_rows` reads faster than ``np.loadtxt``.  ``np.loadtxt``'s cost grows
    with a cell's length, the kernel's hardly: on plain cells it took 1.15 times
    ``np.loadtxt``'s time at 14.7 bytes a cell, and 0.9 and 0.72 times at 16.7 and 19.7."""
    head = min(len(data), 4096)
    cells = data.count(b",", 0, head) + data.count(b"\n", 0, head)
    exponents = data.count(b"e", 0, head) + data.count(b"E", 0, head)
    return head >= 16 * cells and 16 * exponents <= cells


#: A cell of one ``.`` that ``float`` and ``np.loadtxt`` read alike, which
#: :func:`_plain_rows` reads with ``float`` where :func:`_parse_cells` does not: with an
#: exponent, or with too many digits.  ``\\d`` is an ASCII digit in a bytes pattern.
_FLOAT_CELL = rb"-?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?"


def _plain_rows(fh, size: int, width: int, out) -> int | None:
    """The row count of ``np.loadtxt``'s rows of a CSV segment of plain cells, the next
    ``size`` bytes of the binary file ``fh``, whose values it writes to ``out``, bit for
    bit; None, for ``np.loadtxt`` to read, where any cell or row is not plain.

    The segment must be rows of ``width`` cells, separated by ``,``, each row ended by
    ``\\n`` or ``\\r\\n`` (the last may be unended), and every cell either plain, an
    optional ``-``, ASCII digits and one ``.``, with at least one digit, or a cell of
    :data:`_FLOAT_CELL`.  So a quote, a space, a ``+`` sign, a cell without one ``.``, a
    blank line, a bare CR or a byte that is not ASCII sends the segment to ``np.loadtxt``,
    and with it every value, error and line number.  ``np.loadtxt`` reads a cell as ``float``
    does, by ``PyOS_string_to_double``; on these rows it splits the same lines and cells.

    The segment is read a window of ``_CSV_WINDOW_BYTES`` at a time, carried on to the end
    of its last line, so that no copy of the whole segment is made and the scratch arrays
    stay about a window's size.  In each, the ``.``, ``,`` and ``\\n`` bytes are found in
    one pass; every cell holds one ``.`` exactly when they alternate, a ``.`` first.
    :func:`_parse_cells` reads the plain cells, about ``_CSV_SUB_CELLS`` at a time, so that
    its scratch arrays stay in cache.  The cells that it leaves are read by ``float``; but
    more than one in 16 of a group sends the segment to ``np.loadtxt`` at once, as such
    cells read faster there.  The groups are counted from the segment's start, so that
    neither the route nor any value depends on the window size.
    """
    cells = left = 0  # the cells before this window, and those left to float in their group
    while width:  # an empty header has no plain rows
        data = fh.read(min(size, _CSV_WINDOW_BYTES))
        line = fh.readline(size - len(data))  # the rest of the window's last line
        size -= len(data) + len(line)
        last = line or data
        if not last or last.endswith(b"\r"):
            return None
        # a line end before the first cell, and room for the words around every ``.``
        buf = b"".join((b"\0" * 7 + b"\n", data, line, b"\n" * (not last.endswith(b"\n")),
                        b"\0" * 32))
        text = np.frombuffer(buf, np.uint8)
        hits = text[8:] == ord(".")
        hits |= text[8:] == ord(",")
        hits |= text[8:] == ord("\n")
        marks = np.flatnonzero(hits) + 8
        dot = text[marks] == ord(".")
        if len(marks) % 2 or not dot[::2].all() or dot[1::2].any():  # a cell without one ``.``
            return None
        dots, seps = marks[::2], marks[1::2]
        ends = text[seps] == ord("\n")
        if (len(seps) % width or not ends[width - 1::width].all()
                or ends.sum() * width != len(seps)):
            return None
        starts = np.concatenate(([8], seps[:-1] + 1))
        stops = seps - (ends & (text[seps - 1] == ord("\r")))
        # each word ending at a byte: a view that reads 8 bytes at every byte offset
        words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
        values, exact = np.empty(len(seps)), np.empty(len(seps), bool)
        # each group from its first cell, which may lie in an earlier window
        for at in range(-(cells % _CSV_SUB_CELLS), len(seps), _CSV_SUB_CELLS):
            part = slice(max(at, 0), at + _CSV_SUB_CELLS)
            values[part], exact[part] = _parse_cells(text, words, dots[part], starts[part],
                                                     stops[part])
            left += np.count_nonzero(~exact[part])
            if at + _CSV_SUB_CELLS <= len(seps) or not size:  # the group ends here
                if left * 16 > min(_CSV_SUB_CELLS, len(seps) - at):
                    return None
                left = 0
        for at in np.flatnonzero(~exact).tolist():
            cell = buf[starts[at]:stops[at]]
            if not re.fullmatch(_FLOAT_CELL, cell):
                return None
            values[at] = float(cell)
        out.write(values)
        cells += len(seps)
        if not size:
            return cells // width


def _fork_map(put, count: int, size: int, what: str) -> Iterator[tuple]:
    """``(put(index, out), the bytes that it wrote to out)`` for each index in
    ``range(count)``, in order, computed by forked worker processes where they can help:
    two or more items and usable CPUs, and ``fork``; elsewhere in this process.

    ``out`` is the item's slot, of ``size`` bytes, in one ring mapped before the workers
    fork and shared with them (:func:`_mapped`, for ``what``), so only the indices, the
    results and the lengths are pickled.  Each of ``min(usable CPUs, count)`` workers
    (:func:`_workers`) inherits ``put`` and the data that it reads.  At most two items per
    worker are in flight beyond the one whose bytes the consumer holds, so each of the
    ``2 * workers + 1`` slots, used in turn, is filled again only after the consumer asks
    for the next item, which releases the bytes; in this process one slot serves.  The
    ring is closed on every path; a worker that dies or raises ends in :class:`WorkerFailed`.
    """
    workers = _workers(count)
    ring = min(count, 2 * workers + 1) if workers > 1 else 1

    def work(index: int) -> tuple:
        slots.seek(index % ring * size)
        return put(index, slots), slots.tell()

    with _mapped(ring * size, what) as slots, memoryview(slots) as view:
        for index, (result, end) in enumerate(_in_workers(work, range(count), workers)
                                              if workers > 1 else map(work, range(count))):
            # released here, or a raising consumer's traceback would keep slots from closing
            with view[index % ring * size:end] as part:
                yield result, part


def _workers(items: int) -> int:
    """The worker processes that :func:`_fork_map` uses for ``items`` items; 1 or fewer
    for its in-process ``map``."""
    usable = getattr(os, "sched_getaffinity", None)
    return min(len(usable(0)), items) if usable and hasattr(os, "fork") else 1


def _in_workers(work, items, workers: int):
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


def _csv_fault(path, width: int, data: bytes | None) -> str:
    """The message naming the first data line that ``np.loadtxt`` rejected or read
    as a non-finite number.

    Only diagnoses: it walks the rows again, a cell at a time, and accepts a
    cell only if ``loadtxt`` would, so ``1_000`` and non-ASCII digits, which
    Python's ``float`` reads, count as non-numeric.
    """
    with _text(path, data) as fh:
        reader = csv.reader(fh)
        next(reader)
        start = reader.line_num + 1
        try:
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
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            return f"{path}:{start}: {exc}"
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
