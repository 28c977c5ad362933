"""Monte Carlo equilibrium sampling, the independent check on every closed form.

Each draw solves the full system (I - A) v = intercepts + eps for a fresh
disturbance vector, so a sample is exact equilibrium data rather than the
limit of an iteration.  The iteration itself is exposed separately as a
diagnostic: repeated substitution accumulates the partial sums of the
matrix power series and converges exactly when the coefficient matrix is
convergent.

Randomness is counter-based (Philox) with one counter block range per row,
so any chunking of the draw range reproduces the same rows bit for bit and
chunks may be generated in parallel.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import ControlPlan, apply_plan
from .effects import _equilibrium_map
from .errors import UnstableModelWarning, UnstablePlan
from .estimation import Dataset
from .model import StructuralModel, VertexPartition, _write_whole, is_stable, spectral_radius

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


def _disturbances(model: StructuralModel, config: SimulationConfig,
                  start: int, stop: int) -> np.ndarray:
    u = _uniform_rows(config.seed, model.n_variables, start, stop)
    scale = np.sqrt(model.disturbance_variances)
    if config.law == "gaussian":
        # imported here so that only Gaussian draws pay for loading scipy
        from scipy.special import ndtri

        # random() can return exactly 0, which ndtri maps to -inf
        u = np.where(u == 0.0, 2.0**-54, u)
        return ndtri(u) * scale
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
    if not is_stable(spectral_radius(model)):
        warnings.warn(
            "model is not stable: equilibrium draws exist but are not reachable "
            "by iteration from any starting point",
            UnstableModelWarning,
            stacklevel=2,
        )
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
    rho = spectral_radius(post)
    if not is_stable(rho):
        raise UnstablePlan(
            f"post-plan spectral radius {rho:.6g} is not below 1; the controlled "
            "equilibrium is not reachable"
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
