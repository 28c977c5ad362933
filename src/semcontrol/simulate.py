"""Monte Carlo equilibrium sampling, the independent check on every closed form, and
the :class:`Dataset` that holds its draws, with its CSV file format.

Each draw solves the full system (I - A) v = intercepts + eps for a fresh disturbance
vector, so a sample is exact equilibrium data rather than the limit of an iteration.  The
iteration itself is exposed separately as a diagnostic: repeated substitution accumulates
the partial sums of the matrix power series and converges exactly when the coefficient
matrix is convergent.

Randomness is counter-based (Philox) with one counter block range per row, so any chunking
of the draw range reproduces the same rows bit for bit and chunks may be generated in
parallel.  A dataset's CSV file holds the ``repr`` of each value, and forked worker
processes (:func:`_fork_map`) format and parse a large file a part each.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import sys
import types
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .control import ControlPlan, apply_plan
from .effects import _equilibrium_map
from .errors import InputFormatError, UnstableModelWarning, UnstablePlan, WorkerFailed
from .model import StructuralModel, VertexPartition, _write_whole, spectral_radius

RNG_ALGORITHM = "philox4x64-counter"

_LAWS = ("gaussian", "uniform")


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
        if self.law not in _LAWS:
            raise ValueError(f"unknown disturbance law {self.law!r}; choose from {_LAWS}")


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
        # random() can return exactly 0, which ndtri maps to -inf
        u = np.where(u == 0.0, 2.0**-54, u)
        return _ndtri()(u) * scale
    return (u - 0.5) * (scale * np.sqrt(12.0))


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
    if not model.n_variables:  # its rows would be empty, which no CSV can hold
        raise ValueError("model has no variables to draw")
    start, stop = row_range if row_range is not None else (0, config.n_draws)
    if not 0 <= start <= stop <= config.n_draws:
        raise ValueError(f"row range [{start}, {stop}) outside [0, {config.n_draws})")

    inverse = _equilibrium_map(model)
    eps = _disturbances(model, config, start, stop)
    # einsum keeps a fixed per-element reduction order, so any chunking of the
    # row range reproduces the exact same bits (BLAS batch kernels do not)
    values = np.einsum("ij,rj->ri", inverse, model.intercepts + eps)
    if not model.stable:
        warnings.warn(
            "model is not stable: equilibrium draws exist but are not reachable "
            "by iteration from any starting point",
            UnstableModelWarning,
            stacklevel=2,
        )
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
    post = apply_plan(model, partition, plan)
    if not post.stable:
        raise UnstablePlan(
            f"post-plan spectral radius {spectral_radius(post):.6g} is not below 1; the "
            "controlled equilibrium is not reachable"
        )
    return draw_equilibrium(post, config, row_range)


def save_run(
    dataset: Dataset,
    path: str | Path,
    digest: str,
    config: SimulationConfig,
) -> Path:
    """Write a dataset as CSV plus a JSON metadata sidecar; returns the sidecar path.

    ``digest`` is the :func:`~semcontrol.model.model_hash` of the model drawn from.
    """
    path = Path(path)
    sidecar = path.with_name(path.name + ".meta.json")
    meta = {"seed": config.seed, "n": dataset.n, "model_hash": digest,
            "rng": RNG_ALGORITHM, "law": config.law}
    # the CSV is replaced inside the sidecar's block, so a sidecar that cannot be
    # written leaves the CSV as it was, and a CSV that cannot be written the sidecar
    with _write_whole(sidecar) as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")
        dataset.to_csv(path)
    return sidecar


@dataclass(frozen=True, eq=False)
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
            fh.buffer.writelines(_fork_map(block, starts))

    @classmethod
    def from_csv(cls, path: str | Path) -> "Dataset":
        """A header row, then rows of comma-separated numbers parsed by ``np.loadtxt``.

        Cells may be quoted and padded, blank lines are skipped, and nothing
        is a comment.  A malformed file raises :class:`InputFormatError`
        naming its first bad line.  A file of several segments is parsed a
        segment at a time, by forked workers where they help (:func:`_read_segments`).
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


#: Cells per block that :meth:`Dataset.to_csv` hands to :func:`_csv_lines`.
_CSV_BLOCK_CELLS = 2**18

#: Cells, in whole rows, that :func:`_csv_lines` formats at a time; bounds its scratch arrays.
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
    formatted by ``%r``.  :func:`_format_cells` assembles the text of whole rows, about
    ``_CSV_SUB_CELLS`` cells at a time, with one ``%`` call for the ``repr`` cells among them.
    """
    rows, width = block.shape
    if not width:
        return b"\r\n" * rows
    step = max(1, _CSV_SUB_CELLS // width)
    masks = _slot_masks()
    return b"".join(_format_cells(block[start:start + step].ravel(), width, masks)
                    for start in range(0, rows, step))


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


def _format_cells(x: np.ndarray, width: int, masks: np.ndarray) -> bytes:
    """:func:`_csv_lines` of the cells ``x``, whole rows of ``width`` cells.

    Each cell gets a copy of its row of ``masks``, :data:`_SLOT` with only the
    characters of its text left, into whose digit bytes the 17 digits of
    :func:`_shortest` are and-ed; a ``repr`` goes over the start of the slot.  Deleting
    the zero bytes and the padding of the ``repr`` strings leaves the text.
    """
    n, a = len(x), np.abs(x)
    # digits 0, k 0 and p 1 spell 0.0; p 0 leaves the cell to repr
    digits, k, p = np.zeros(n, np.int64), np.zeros(n, np.int32), (a == 0).astype(np.int64)
    at = np.flatnonzero((a >= 1e-4) & (a < 1e16))
    digits[at], k[at], p[at] = _shortest(a[at])
    end = np.arange(n) % width == width - 1
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
    text = ("%-24r" * len(at)) % tuple(x[at].tolist())  # 24 wide: no finite repr is longer
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
    its header and None for rows of another width than the header; or None, for the
    single pass to read or reject the file.

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
    rows = io.BytesIO()  # each part is written and let go, not held to the end
    for part in _fork_map(functools.partial(_parse_segment, path), zip(cuts, cuts[1:])):
        if part is None:
            return None
        if len(part):  # a blank segment has no width
            if part.shape[1] != len(header):
                return header, None
            rows.write(part)
    # getvalue hands over the buffer itself, trimmed to its size; ``or 1`` for an empty
    # header, which only blank lines can follow here, as reshape cannot divide by 0
    return header, np.frombuffer(rows.getvalue()).reshape(-1, len(header) or 1)


def _parse_segment(path, span: tuple[int, int]) -> np.ndarray | None:
    """``np.loadtxt``'s rows of the bytes [start, stop) of a CSV file, or None unless
    they are UTF-8 with an even number of quotes and parse."""
    start, stop = span
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    if b'"' in data and data.count(b'"') % 2:
        return None
    try:  # a byte that is not UTF-8 raises UnicodeDecodeError, a ValueError
        return _loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    except ValueError:
        return None


def _fork_map(work, items) -> Iterator:
    """``map(work, items)``, computed by forked worker processes where they can help:
    two or more items and usable CPUs, and ``fork``.  Elsewhere it is that ``map``.

    Each worker inherits ``work`` and the data that it reads through the fork, so only
    the items and the results are pickled.  There are ``min(usable CPUs, items)``
    workers, and at most two items per worker are in flight, which bounds the memory
    that the results hold.  A worker that dies or raises ends in :class:`WorkerFailed`.
    """
    items = list(items)
    usable = getattr(os, "sched_getaffinity", None)
    workers = min(len(usable(0)), len(items)) if usable and hasattr(os, "fork") else 1
    return _in_workers(work, items, workers) if workers > 1 else map(work, items)


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
