"""Path diagrams, cyclic linear structural models, and stability analysis.

A model couples one linear equation per variable,

    v_i = intercept_i + sum_j A[i, j] * v_j + eps_i,

where ``A[i, j]`` is the coefficient on variable ``j`` in the equation for
variable ``i`` and the disturbances ``eps`` are independent with diagonal
covariance.  Directed cycles are allowed; equilibrium behaviour is governed
by the spectral radius of ``A``.  When every relevant block of ``A`` has
spectral radius below one the repeated-substitution expansion converges and
the model has a unique steady-state mean and covariance.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ControlSetMismatch,
    InputFormatError,
    NonFiniteEntry,
    ResponseNotDescendant,
)

#: Margin below one that a spectral radius must clear to be called stable.
STABILITY_TOL = 1e-9

#: 1-norm condition number above which a linear system is declared singular.
CONDITION_LIMIT = 1e12

#: Eigenvalue floor for calling a symmetric matrix positive semidefinite.
PSD_TOL = 1e-9

#: Squarings that :attr:`StructuralModel.certified_stable` tries before it gives up.
_SQUARINGS = 12

_UNIT_ROUNDOFF = 2.0**-53


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class PathDiagram:
    """Directed graph of named variables.

    An edge ``(source, target)`` reads "source is a parent of target".
    Cycles are allowed.  Self-loops and duplicate edges can be represented
    so that :func:`validate_model` may report them; they are never valid.
    The edges are held as ``sources`` and ``targets``, read-only arrays of
    vertex indices in edge order; :attr:`edges` spells them out as name pairs.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]] = ()):
        pairs = tuple(map(tuple, edges))
        if not set(map(len, pairs)) <= {2}:
            raise ValueError("each edge must be a (source, target) pair")
        self._join(vertices, [s for s, _ in pairs], [t for _, t in pairs])

    @classmethod
    def _of(cls, vertices: Sequence[str], sources, targets) -> "PathDiagram":
        """The diagram whose k-th edge runs from ``sources[k]`` to ``targets[k]``, given
        as vertex names or as arrays of vertex indices."""
        diagram = cls.__new__(cls)
        diagram._join(vertices, sources, targets)
        return diagram

    def _join(self, vertices, sources, targets) -> None:
        self.vertices = tuple(vertices)
        index = self._index
        if len(index) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        if not isinstance(sources, np.ndarray):
            try:
                sources, targets = (np.fromiter(map(index.__getitem__, ends), np.int64, len(ends))
                                    for ends in (sources, targets))
            except KeyError:
                s, t = next(e for e in zip(sources, targets) if not index.keys() >= set(e))
                raise ValueError(f"edge ({s!r}, {t!r}) references an unknown vertex") from None
        self.sources, self.targets = _readonly(sources, np.int64), _readonly(targets, np.int64)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PathDiagram) and self.vertices == other.vertices
                and np.array_equal(self.sources, other.sources)
                and np.array_equal(self.targets, other.targets))

    def __repr__(self) -> str:
        return f"PathDiagram({self.vertices!r}, {self.edges!r})"

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """The ``(source, target)`` name pair of every edge, in edge order."""
        name = self.vertices.__getitem__
        return tuple(zip(map(name, self.sources.tolist()), map(name, self.targets.tolist())))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.vertices)}

    @cached_property
    def _multiplicity(self) -> np.ndarray:
        """``[target, source]`` count of each edge, as an n x n matrix."""
        n = self.n_vertices
        return np.bincount(self.targets * n + self.sources, minlength=n * n).reshape(n, n)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def _matrix(self, values) -> np.ndarray:
        """The n x n matrix with ``values[k]`` at ``[target, source]`` of the k-th edge and
        zeros elsewhere; a repeated edge keeps its last value."""
        n = self.n_vertices
        matrix = np.zeros((n, n))
        if self._multiplicity.max(initial=0) <= 1:
            matrix[self.targets, self.sources] = values
        else:  # a fancy assignment does not promise which repeat wins
            for i, j, value in zip(self.targets, self.sources, values):
                matrix[i, j] = value
        return matrix

    def _vector(self, named: Mapping[str, float] | None, default: float) -> np.ndarray:
        """The per-vertex values of ``named``, ``default`` for a vertex it does not name."""
        vector = np.full(self.n_vertices, default)
        for name, value in (named or {}).items():
            vector[self.index(name)] = value
        return vector

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown vertex {name!r}") from None

    def has_edge(self, source: str, target: str) -> bool:
        try:
            return bool(self._multiplicity[self._index[target], self._index[source]])
        except KeyError:
            return False

    def parents(self, name: str) -> tuple[str, ...]:
        return tuple(self.vertices[k] for k in self.sources[self.targets == self.index(name)])

    def descendants(self, name: str) -> set[str]:
        """Vertices reachable from ``name`` by directed paths, excluding ``name``."""
        start = self.index(name)
        edge = self._multiplicity > 0  # [child, parent]
        seen = np.zeros(self.n_vertices, dtype=bool)
        frontier = edge[:, start]
        while frontier.any():
            seen |= frontier
            frontier = edge[:, frontier].any(axis=1) & ~seen
        seen[start] = False
        return set(compress(self.vertices, seen))


@dataclass(frozen=True, eq=False)
class StructuralModel:
    """A path diagram together with its linear structural equations.

    ``coefficients[i, j]`` is the coefficient of variable ``j`` in the
    equation for variable ``i``; its support must match the edge set of the
    diagram exactly (an edge carries a nonzero coefficient, a non-edge a
    zero).  ``disturbance_variances`` is the diagonal of the disturbance
    covariance; disturbances are independent, so off-diagonal terms are
    identically zero and never stored.
    """

    diagram: PathDiagram
    coefficients: np.ndarray
    intercepts: np.ndarray
    disturbance_variances: np.ndarray

    def __post_init__(self):
        n = self.diagram.n_vertices
        coeff = _readonly(self.coefficients)
        mu = _readonly(self.intercepts)
        dvar = _readonly(self.disturbance_variances)
        if coeff.shape != (n, n):
            raise ValueError(f"coefficients must be {n}x{n}, got {coeff.shape}")
        if mu.shape != (n,):
            raise ValueError(f"intercepts must have length {n}, got {mu.shape}")
        if dvar.shape != (n,):
            raise ValueError(f"disturbance_variances must have length {n}, got {dvar.shape}")
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "intercepts", mu)
        object.__setattr__(self, "disturbance_variances", dvar)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.diagram.vertices

    @property
    def n_variables(self) -> int:
        return self.diagram.n_vertices

    def index(self, name: str) -> int:
        return self.diagram.index(name)

    @cached_property
    def _components(self) -> list[tuple[np.ndarray, float]]:
        """:func:`_scc_radii` of the coefficients, searched once per model."""
        return _scc_radii(self.coefficients)

    @cached_property
    def certified_stable(self) -> bool:
        """True when a power-norm bound proves the spectral radius below one, without an
        eigen-solve; False proves nothing.

        The coefficients are squared up to :data:`_SQUARINGS` times.  ``P_k``, the
        computed ``A^(2^k)``, is within ``e_k`` of the exact power in the 1-norm, where
        ``e_0 = 0`` and ``e_k = (2 ||P_(k-1)|| + e_(k-1)) e_(k-1) + gamma_n ||P_(k-1)||^2``
        bounds the rounding of each product (Higham, *Accuracy and Stability of
        Numerical Algorithms*, 2nd ed., section 3.5).  Once ``||P_k|| + e_k < 1/2``,
        ``rho(A)^(2^k) <= ||A^(2^k)|| < 1/2``, so ``rho(A) < 2^(-1/4096)``, below
        ``1 - STABILITY_TOL`` by far more than the rounding of the norms themselves.

        The squaring stops early, with False, once ``|fl(tr P_k)| - gamma_n sum |p_ii|
        >= 2n``, for then no later step can pass the test above.  If ``e_k >= 1``, so is
        every later ``e``, since ``e_(k+1) >= e_k^2``.  Otherwise ``|tr A^(2^k)| > n``: the
        computed trace is within ``gamma_n sum |p_ii|`` of ``tr P_k``, which is within
        ``n e_k < n`` of ``tr A^(2^k)`` (``|tr E| <= n ||E||``).  As ``|tr A^(2^k)| <= n
        rho(A)^(2^k)``, ``rho(A) > 1``.
        """
        n = self.n_variables
        gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
        power, error = self.coefficients, 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow only fails the proof
            for squarings in range(_SQUARINGS + 1):
                norm = float(np.abs(power).sum(axis=0).max(initial=0.0))
                if norm + error < 0.5:
                    return True
                diagonal = np.diagonal(power)
                trace = abs(float(diagonal.sum())) - gamma * float(np.abs(diagonal).sum())
                if squarings == _SQUARINGS or not norm + error < np.inf or trace >= 2 * n:
                    return False
                power, error = power @ power, (2.0 * norm + error) * error + gamma * norm * norm

    @property
    def stable(self) -> bool:
        """Whether the spectral radius is below ``1 - STABILITY_TOL``, by the certificate or
        else by the component search; every stability gate of the package reads this."""
        return self.certified_stable or is_stable(spectral_radius(self))

    @classmethod
    def from_edges(
        cls,
        edge_coefficients: Mapping[tuple[str, str], float] | Iterable[tuple[str, str, float]],
        *,
        variables: Sequence[str] | None = None,
        intercepts: Mapping[str, float] | None = None,
        disturbance_variances: Mapping[str, float] | None = None,
    ) -> "StructuralModel":
        """Build a model from ``(source, target) -> coefficient`` entries.

        Variables default to first-appearance order in the edge list;
        intercepts default to 0 and disturbance variances to 1.  A repeated
        edge keeps its last coefficient.
        """
        if isinstance(edge_coefficients, Mapping):
            rows = [(s, t, c) for (s, t), c in edge_coefficients.items()]
        else:
            rows = [(s, t, c) for s, t, c in edge_coefficients]
        sources, targets = [s for s, _, _ in rows], [t for _, t, _ in rows]
        if variables is None:
            variables = dict.fromkeys(chain.from_iterable(zip(sources, targets)))
        diagram = PathDiagram._of(variables, sources, targets)
        return cls(diagram, diagram._matrix([c for _, _, c in rows]),
                   diagram._vector(intercepts, 0.0), diagram._vector(disturbance_variances, 1.0))


@dataclass(frozen=True)
class VertexPartition:
    """Split of the variables into descendants, treatment, and nondescendants.

    ``descendants`` holds every vertex reachable from the treatment by a
    directed path (treatment excluded), with the control subset first and the
    response first among the controls.  ``nondescendants`` holds the rest,
    with the covariate subset first.  This ordering is the block convention
    used throughout the control formulas.
    """

    variables: tuple[str, ...]
    treatment: str
    response: str
    descendants: tuple[str, ...]
    nondescendants: tuple[str, ...]
    controls: tuple[str, ...]
    covariates: tuple[str, ...]

    @property
    def free_descendants(self) -> tuple[str, ...]:
        """Descendants not used by the plan (the non-control remainder of S)."""
        return self.descendants[len(self.controls):]

    @property
    def background(self) -> tuple[str, ...]:
        """Nondescendants not used by the plan (the non-covariate remainder of T)."""
        return self.nondescendants[len(self.covariates):]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variables)}

    def indices(self, names: Sequence[str]) -> np.ndarray:
        return np.array([self._index[n] for n in names], dtype=int)

    def submatrix(self, matrix: np.ndarray, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        """Extract the block of a variables-by-variables matrix by name."""
        return matrix[np.ix_(self.indices(rows), self.indices(cols))]


@dataclass(frozen=True)
class StabilityReport:
    """Spectral radii of the two blocks whose convergence makes a model stable."""

    nondescendant_radius: float
    feedback_radius: float
    stable: bool
    margin: float


def is_stable(rho: float) -> bool:
    """True when a spectral radius is below one by more than :data:`STABILITY_TOL`."""
    return bool(rho < 1.0 - STABILITY_TOL)


def inverse(matrix: np.ndarray, error: Exception) -> np.ndarray:
    """``np.linalg.inv(matrix)``, the package's one linear solve, raising ``error`` when
    LAPACK finds ``matrix`` singular or ``||M||_1 ||M^-1||_1`` is not ``<= CONDITION_LIMIT``."""
    if matrix.size == 0:  # no covariates, say; numpy 1.x has no 1-norm of a 0x0 matrix
        return np.zeros_like(matrix, dtype=float)
    try:
        inv = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        raise error from None
    if not np.linalg.norm(matrix, 1) * np.linalg.norm(inv, 1) <= CONDITION_LIMIT:
        raise error
    return inv


def spectral_radius(matrix: np.ndarray | StructuralModel) -> float:
    """Largest eigenvalue modulus of a square real matrix, or of a model's coefficients.

    It is the largest radius in :func:`_scc_radii`, which a model searches once.
    Raises :class:`NonFiniteEntry` when the matrix contains NaN or infinity.
    """
    parts = matrix._components if isinstance(matrix, StructuralModel) else _scc_radii(matrix)
    return max((rho for _, rho in parts), default=0.0)


def _scc_radii(matrix: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """The strongly connected components of a square matrix's nonzero pattern, each as
    its indices and the spectral radius of its diagonal block.  Ordered by its
    condensation the matrix is block triangular, so these blocks hold its whole spectrum.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteEntry("matrix has non-finite entries")
    reach, closure = None, (m != 0.0) | np.eye(len(m), dtype=bool)
    while not np.array_equal(reach, closure):  # squaring: about log2(longest path) rounds
        reach = closure
        closure = reach.astype(np.float32) @ reach.astype(np.float32) > 0.0
    mutual = closure & closure.T
    lowest = ~np.tril(mutual, -1).any(axis=1)  # no lower-indexed vertex in its component
    # a one-vertex block's radius is its entry's modulus, which is what eigvals returns
    return [(g, float(np.abs(np.linalg.eigvals(m[np.ix_(g, g)])).max()) if len(g) > 1
             else abs(float(m[g[0], g[0]]))) for g in map(np.flatnonzero, mutual[lowest])]


def validate_model(model: StructuralModel, partition: VertexPartition | None = None) -> list[str]:
    """Check every structural invariant and return the violations found.

    An empty list means the model is valid.  With a partition supplied, the
    nondescendant rows are additionally required to carry zero coefficients
    on the treatment and on every descendant (the zero blocks that make the
    nondescendant subsystem autonomous).
    """
    violations: list[str] = []
    diagram = model.diagram
    coeff = model.coefficients

    if not np.isfinite(coeff).all():
        violations.append("coefficients contain non-finite entries")
    if not np.isfinite(model.intercepts).all():
        violations.append("intercepts contain non-finite entries")
    if not np.isfinite(model.disturbance_variances).all():
        violations.append("disturbance variances contain non-finite entries")

    names = diagram.vertices
    src, tgt = diagram.sources, diagram.targets
    for i in np.flatnonzero(np.diagonal(coeff) != 0.0):
        violations.append(f"self-loop at vertex {names[i]}")
    for k in np.flatnonzero(src == tgt):
        violations.append(f"self-loop edge {names[src[k]]} -> {names[tgt[k]]}")
    if diagram._multiplicity.max(initial=0) > 1:
        counts = Counter(diagram.edges)
        violations.extend(f"duplicate edge {s} -> {t}" for (s, t), k in counts.items() if k > 1)

    # rows are children, columns parents; nonzero() walks them row-major
    support = diagram._multiplicity > 0
    mismatch = support != (coeff != 0.0)
    np.fill_diagonal(mismatch, False)
    for i, j in zip(*np.nonzero(mismatch)):
        if support[i, j]:
            violations.append(f"edge {names[j]} -> {names[i]} has zero coefficient")
        else:
            violations.append(f"coefficient without edge {names[j]} -> {names[i]}")

    for i in np.flatnonzero(model.disturbance_variances < 0.0):
        violations.append(f"negative disturbance variance at {names[i]}")

    if partition is not None:
        rows = partition.nondescendants
        cols = partition.descendants + (partition.treatment,)
        block = coeff[np.ix_([model.index(v) for v in rows], [model.index(v) for v in cols])]
        for i, j in zip(*np.nonzero(block != 0.0)):
            violations.append(f"nondescendant block not zero: {rows[i]} depends on {cols[j]}")
    return violations


def partition_vertices(
    model: StructuralModel,
    treatment: str,
    response: str,
    controls: Sequence[str] | None = None,
    covariates: Sequence[str] | None = None,
) -> VertexPartition:
    """Partition the variables around a treatment and response.

    Descendants are recomputed from graph reachability; declared control and
    covariate sets are validated against that partition, never trusted.
    Ordering is deterministic: the response leads the controls, controls lead
    the descendants, covariates lead the nondescendants, and within each
    group the model's variable order is kept.
    """
    diagram = model.diagram
    diagram.index(treatment)
    diagram.index(response)
    if treatment == response:
        raise ValueError("treatment and response must be distinct vertices")

    reachable = diagram.descendants(treatment)
    if response not in reachable:
        raise ResponseNotDescendant(
            f"response {response!r} is not reachable from treatment {treatment!r}"
        )

    control_set = set(controls) if controls is not None else {response}
    control_set.add(response)
    bad = control_set - reachable
    if bad:
        raise ControlSetMismatch(
            f"control set members {sorted(bad)} are not descendants of {treatment!r}"
        )

    nondesc = [v for v in diagram.vertices if v != treatment and v not in reachable]
    covariate_set = set(covariates) if covariates is not None else set()
    bad = covariate_set - set(nondesc)
    if bad:
        raise ControlSetMismatch(
            f"covariate set members {sorted(bad)} are not nondescendants of {treatment!r}"
        )

    order = list(diagram.vertices)
    controls_ordered = (response,) + tuple(
        v for v in order if v in control_set and v != response
    )
    free = tuple(v for v in order if v in reachable and v not in control_set)
    covs_ordered = tuple(v for v in order if v in covariate_set)
    background = tuple(v for v in nondesc if v not in covariate_set)

    return VertexPartition(
        variables=diagram.vertices,
        treatment=treatment,
        response=response,
        descendants=controls_ordered + free,
        nondescendants=covs_ordered + background,
        controls=controls_ordered,
        covariates=covs_ordered,
    )


def check_stability(model: StructuralModel, partition: VertexPartition) -> StabilityReport:
    """Stability of the model via its two characteristic-equation factors.

    The characteristic polynomial of the full coefficient matrix factors into
    the nondescendant block and the feedback block (descendants plus
    treatment), so the model is stable exactly when both spectral radii are
    below one.  Each block holds whole strongly connected components: one with the
    treatment or a descendant is in the feedback block, any other is nondescendant.
    """
    feedback = set(partition.indices(partition.descendants + (partition.treatment,)))
    rho_t = max((rho for g, rho in model._components if feedback.isdisjoint(g)), default=0.0)
    rho_fb = max((rho for g, rho in model._components if not feedback.isdisjoint(g)), default=0.0)
    worst = max(rho_t, rho_fb)
    return StabilityReport(
        nondescendant_radius=rho_t,
        feedback_radius=rho_fb,
        stable=is_stable(worst),
        margin=1.0 - worst,
    )


# ---------------------------------------------------------------------------
# Model file format


_MODEL_KEYS = {"variables", "edges", "intercepts", "disturbance_variances"}
_EDGE_KEYS = {"from", "to", "coeff"}


def _number(value, field: str) -> float:
    """``float(value)`` for a file field, or an InputFormatError naming the field."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputFormatError(f"{field} must be a number, got {value!r}") from None


def _edge_columns(entries: list) -> tuple[list, list, list]:
    """The ``from``, ``to`` and ``coeff`` columns of the edge list, read one checked edge
    at a time, or an InputFormatError naming the first fault."""
    sources, targets, coeffs = [], [], []
    for entry in entries:
        if not isinstance(entry, dict):
            raise InputFormatError("each edge must be an object")
        unknown = set(entry) - _EDGE_KEYS
        if unknown:
            raise InputFormatError(f"unknown edge keys: {sorted(unknown)}")
        try:
            source, target, coeff = entry["from"], entry["to"], entry["coeff"]
        except KeyError as exc:
            raise InputFormatError(f"edge missing key {exc.args[0]!r}") from None
        if not (isinstance(source, str) and isinstance(target, str)):
            raise InputFormatError("edge 'from' and 'to' must be variable names")
        sources.append(source)
        targets.append(target)
        coeffs.append(_number(coeff, f"edge {source} -> {target} 'coeff'"))
    return sources, targets, coeffs


def model_from_dict(payload: dict) -> StructuralModel:
    """Parse the JSON model schema; unknown keys are rejected."""
    _check_object(payload, "model", _MODEL_KEYS, ("variables", "edges"))
    if not isinstance(payload["edges"], list):
        raise InputFormatError("'edges' must be a list of edge objects")
    return _model(payload, _edge_columns(payload["edges"]))


def _model(payload: dict, columns) -> StructuralModel:
    """The model of a checked ``payload`` whose edge list has the ``from``, ``to`` and
    ``coeff`` columns ``columns``, the ends as names or as vertex indices."""
    variables = payload["variables"]
    sources, targets, coeffs = columns

    def named_map(key: str) -> dict[str, float]:
        raw = payload.get(key, {})
        if not isinstance(raw, dict):
            raise InputFormatError(f"'{key}' must be an object of name: value")
        bad = set(raw) - set(variables)
        if bad:
            raise InputFormatError(f"'{key}' names unknown variables: {sorted(bad)}")
        return {k: _number(v, f"'{key}' value for {k!r}") for k, v in raw.items()}

    intercepts, variances = named_map("intercepts"), named_map("disturbance_variances")
    try:
        diagram = PathDiagram._of(variables, sources, targets)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None
    return StructuralModel(diagram, diagram._matrix(coeffs), diagram._vector(intercepts, 0.0),
                           diagram._vector(variances, 1.0))


def model_to_dict(model: StructuralModel) -> dict:
    diagram = model.diagram
    coeffs = model.coefficients[diagram.targets, diagram.sources].tolist()
    return {
        "variables": list(model.variables),
        "edges": [{"from": s, "to": t, "coeff": c}
                  for (s, t), c in zip(diagram.edges, coeffs)],
        "intercepts": {
            v: float(model.intercepts[i]) for i, v in enumerate(model.variables)
        },
        "disturbance_variances": {
            v: float(model.disturbance_variances[i]) for i, v in enumerate(model.variables)
        },
    }


def _read_json(path, data: bytes | None = None):
    """The JSON value of a model, plan, covariance or fixture file, decoded as UTF-8, from
    its bytes ``data`` if given; an object with a repeated key is refused."""
    if data is None:
        data = (Path(path) if isinstance(path, str) else path).read_bytes()  # or a Traversable
    try:
        return _json_value(data)
    except (ValueError, RecursionError) as exc:  # a bad byte or token, or too deep a nesting
        raise InputFormatError(f"invalid JSON in {path}: {exc}") from None


def _json_value(data: bytes):
    # whatever the locale; a BOM is dropped
    return json.loads(data.decode("utf-8-sig"), object_pairs_hook=_unique_keys)


def _unique_keys(pairs: list) -> dict:
    """The object of ``pairs``, refused with the first key that repeats, of which
    ``json.loads`` would keep only the last value."""
    if len(obj := dict(pairs)) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"duplicate key {key!r}")
    return obj


#: A model file's ``"edges": [``; its first edge, with the names, the number, and the bytes
#: from there to the next edge's first ``"`` or past the ``]``; and the last edge's end.
#: ``W`` is JSON's whitespace, as ``\s`` of a bytes pattern also takes \f and \v.
_EDGES_OPEN, _FIRST_EDGE, _LAST_EDGE_END = (re.compile(p.replace(b"W", rb"[ \t\n\r]*")) for p in (
    rb'"edges"W:W\[', rb'W\{W"from"W:W"([^"]*)"W,W"to"W:W"([^"]*)"W,W"coeff"W:W([-+.0-9eE]+)'
    rb'(W\}W(?:,W\{W|\]))', rb'([-+.0-9eE]+)W\}W\]'))

#: A JSON number that ``json.loads`` reads with ``float``: with a fraction or an exponent.
_JSON_FLOAT = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)")


def _read_edge_list(data: bytes) -> tuple[dict, tuple] | None:
    """The JSON value of a model file's bytes and the ``(sources, targets, coeffs)``
    columns of its edge list, as ``json.loads`` and :func:`model_from_dict` give them; or
    None, for them to read the file.

    With no ``\\`` in the file, its ``"`` bytes delimit its strings.  The top-level
    ``"edges"`` objects must all have the first one's layout, byte for byte outside the
    names and numbers, ``"from"`` and ``"to"`` a name and ``"coeff"`` a number: the layout
    ``json.dumps`` writes with any indent or separators.  A name must be a variable's
    bytes, and a number is read by :func:`~semcontrol.simulate._parse_cells`, or by
    ``float`` if it is one of :data:`_JSON_FLOAT` that its kernel leaves.  The rest of the
    file, a string ``"\\u0000"`` in place of the list, goes to ``json.loads``, and must give
    that string as its ``"edges"``: no string of a file with no ``\\`` holds a NUL, so the
    list was the value of the top-level ``"edges"``.  The keys are checked last, when the
    file is known to be what ``json.loads`` reads, with :func:`model_from_dict`'s errors.
    """
    opened = _EDGES_OPEN.search(data)
    first = opened and _FIRST_EDGE.match(data, opened.end())
    if b"\\" in data or not first:
        return None
    buf = data + bytes(len(first[0]) + 32)  # room for the words read past an edge
    text = np.frombuffer(buf, np.uint8)
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    # each edge's 10 quotes: those of "from", its name, "to", its name and "coeff"
    quotes = np.flatnonzero(text == ord('"'))
    quotes = quotes[np.searchsorted(quotes, opened.end()):]
    quotes = quotes[:len(quotes) // 10 * 10].reshape(-1, 10)
    # the bytes from an edge's first, fourth and eighth quote to its first name, its second
    # name and its number; and from the number to the next edge's first quote
    spans = (data[quotes[0, 0]:first.start(1)], data[first.end(1):first.start(2)],
             data[first.end(2):first.start(3)], first[4])
    anchors = [quotes[:, k].copy() for k in (0, 3, 7)]
    same = np.logical_and.reduce([_same_bytes(words, *pair) for pair in zip(anchors, spans)])
    numbers, ends = anchors[2] + len(spans[2]), anchors[0][1:] - len(spans[3])
    more = same[:-1] & (ends > numbers[:-1]) & _same_bytes(words, ends, spans[3])
    last = int(np.argmin(np.append(more & (not spans[3].endswith(b"]")), False)))
    tail = same[last] and _LAST_EDGE_END.match(data, numbers[last])
    if not tail:
        return None
    try:
        payload = _json_value(data[:opened.end() - 1] + b'"\\u0000"' + data[tail.end():])
    except (ValueError, RecursionError):
        return None
    variables = payload.get("variables") if isinstance(payload, dict) else None
    if (not isinstance(variables, list) or payload.get("edges") != "\0"
            or not all(isinstance(v, str) for v in variables)):
        return None
    names = quotes[:last + 1, [2, 3, 6, 7]].T
    ends_of = _name_indices(words, names[::2].ravel() + 1, names[1::2].ravel(), variables)
    coeffs = _json_floats(data, text, words, numbers[:last + 1],
                          np.append(ends[:last], tail.end(1)))
    if ends_of is None or coeffs is None:
        return None
    _check_object(payload, "model", _MODEL_KEYS, ("variables", "edges"))
    return payload, (*ends_of.reshape(2, -1), coeffs)


def _same_bytes(words: np.ndarray, starts: np.ndarray, span: bytes) -> np.ndarray:
    """Whether the bytes at each of ``starts`` are ``span``; ``words[i]`` is the
    little-endian word of the 8 bytes at ``i``."""
    same = np.ones(len(starts), bool)
    for at in range(0, len(span), 8):  # the last word's lanes past the span masked off
        part = span[at:at + 8]
        same &= (words[starts + at] & _LOW_BYTES[len(part)]) == np.uint64(
            int.from_bytes(part, "little"))
    return same


def _name_indices(words: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                  variables: list) -> np.ndarray | None:
    """The index in ``variables`` of each name in the bytes ``starts:stops``, or None if one
    is not a variable's UTF-8.  A linear probe from the top bits of a hash of the name's
    words finds the variable with its bytes and length, or an empty slot of the table."""
    names = [v.encode() for v in variables]
    width, lengths = -(-max(map(len, names), default=0) // 8), stops - starts
    if not names or lengths.max(initial=0) > 8 * width:
        return None
    at = np.minimum(starts[:, None] + 8 * np.arange(width), len(words) - 1)  # lanes 0 past it
    keys = words[at] & _LOW_BYTES[np.clip(lengths[:, None] - 8 * np.arange(width), 0, 8)]
    known = np.frombuffer(b"".join(n.ljust(8 * width, b"\0") for n in names), "<u8")
    known = known.reshape(len(names), width)
    length = np.fromiter(map(len, names), np.int64, len(names))
    shift = np.uint64(64 - (4 * len(names)).bit_length())  # 4 to 8 slots a variable
    table = np.full(2**(64 - int(shift)), -1)
    for i, slot in enumerate((_fold(known) >> shift).tolist()):
        while table[slot] >= 0:
            slot = (slot + 1) % len(table)
        table[slot] = i
    slots = (_fold(keys) >> shift).astype(np.intp)
    found = table[slots]

    def strays(rows):  # whether the variable found for each name is not the name's
        i = found[rows]
        return (known[i] != keys[rows]).any(axis=1) | (length[i] != lengths[rows])

    wrong = np.flatnonzero(strays(slice(None)))
    while len(wrong):
        if found[wrong].min() < 0:  # an empty slot: no variable has the name's bytes
            return None
        slots[wrong] = (slots[wrong] + 1) % len(table)
        found[wrong] = table[slots[wrong]]
        wrong = wrong[strays(wrong)]
    return found


_LOW_BYTES = np.array([2**(8 * k) - 1 for k in range(9)], np.uint64)


def _fold(keys: np.ndarray) -> np.ndarray:
    """A hash of each row of words, by multiplying by the odd ``2^64 / golden ratio``."""
    folded = np.zeros(len(keys), np.uint64)
    for column in keys.T:
        folded = (folded ^ column) * np.uint64(0x9E3779B97F4A7C15)
    return folded


def _json_floats(data: bytes, text: np.ndarray, words: np.ndarray, starts: np.ndarray,
                 stops: np.ndarray) -> np.ndarray | None:
    """``float`` of each number ``data[starts:stops]``, or None if one is not a number of
    :data:`_JSON_FLOAT`.  :func:`_parse_cells` reads a plain cell, ``-?``, digits, ``.``
    and digits, its integer part ``0`` or without a leading zero; ``float`` the others."""
    from .simulate import _CSV_SUB_CELLS, _parse_cells

    digits = starts + (text[starts] == ord("-"))
    # a plain cell's ``.`` is among the 8 bytes after its first digit
    points = text[digits[:, None] + np.arange(1, 9)] == ord(".")
    before = np.where(points.any(axis=1), points.argmax(axis=1), 8)  # 8 for none
    dots = digits + 1 + before
    plain = (before < 8) & (stops - dots > 1) & ((before == 0) | (text[digits] != ord("0")))
    values, exact = np.empty(len(starts)), np.empty(len(starts), bool)
    for at in range(0, len(starts), _CSV_SUB_CELLS):  # so that the scratch stays in cache
        part = slice(at, at + _CSV_SUB_CELLS)
        values[part], exact[part] = _parse_cells(text, words, dots[part], starts[part],
                                                 stops[part])
    for k in np.flatnonzero(~(exact & plain)).tolist():
        if not _JSON_FLOAT.fullmatch(cell := data[starts[k]:stops[k]]):
            return None
        values[k] = float(cell)
    return values


@contextmanager
def _write_whole(path: str | Path, newline: str | None = None):
    """A UTF-8 text handle whose content replaces ``path`` once the block ends without an error.

    The text goes to a new file beside ``path`` that is then renamed over it, so
    ``path`` ends up whole or as it was.  A terminal, pipe or device, which cannot be
    replaced, is its own new file, written in place.  An ``OSError`` names ``path``.
    """
    path = Path(path)
    in_place = path.is_char_device() or path.is_fifo()
    tmp = str(path if in_place else path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp"))
    try:
        if path.is_dir():  # refused before the block's work rather than at the rename
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fh = open(tmp, "w" if in_place else "x", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        if not in_place:
            os.replace(tmp, path)
    except BaseException as exc:
        if not in_place:
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename in (None, tmp):  # not a nested file's
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _check_object(payload, kind: str, keys: set[str], required: tuple[str, ...] = ()) -> None:
    """Refuse a ``kind`` file's JSON value unless it is an object with no key outside
    ``keys``, every key in ``required``, and any ``'variables'`` as a list of names."""
    if not isinstance(payload, dict):
        raise InputFormatError(f"{kind} file must contain a JSON object")
    unknown = set(payload) - keys
    if unknown:
        raise InputFormatError(f"unknown {kind} keys: {sorted(unknown)}")
    if not payload.keys() >= set(required):
        raise InputFormatError(f"{kind} file requires {' and '.join(map(repr, required))}")
    variables = payload.get("variables", [])
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise InputFormatError("'variables' must be a list of names")


def load_model(path: str | Path) -> StructuralModel:
    data = Path(path).read_bytes()
    read = _read_edge_list(data)
    return _model(*read) if read else model_from_dict(_read_json(path, data))


def save_model(model: StructuralModel, path: str | Path) -> None:
    """The model as UTF-8 JSON with each name as it is, which the edge kernel reads; a name
    with a lone surrogate, which UTF-8 cannot encode, makes every name ``\\u``-escaped."""
    escape = any("\ud800" <= char <= "\udfff" for char in "".join(model.variables))
    with _write_whole(path) as fh:
        fh.write(json.dumps(model_to_dict(model), indent=2, ensure_ascii=escape) + "\n")


def model_hash(model: StructuralModel) -> str:
    """Short content digest of a model: its variable names, its edges (as
    source and target indices, in order) and the exact bits of its
    coefficient matrix, intercepts and disturbance variances."""
    diagram = model.diagram
    digest = hashlib.sha256(json.dumps([model.variables, len(diagram.sources)]).encode())
    for array in (diagram.sources, diagram.targets):
        digest.update(array.astype("<i8").tobytes())
    for array in (model.coefficients, model.intercepts, model.disturbance_variances):
        digest.update(array.astype("<f8").tobytes())
    return digest.hexdigest()[:12]
