"""Seeded input generator for the semcontrol benchmark.

Builds every input file a workload needs from one integer seed: random
stable cyclic models at a chosen size and edge density, their implied
covariance files, plan files, and copies of the bundled Iverson fixtures.
The same seed always gives byte-identical files.  A manifest records, for
each model, its size, edge count, spectral radius and ``model_hash``.

Run on its own to inspect the inputs of one workload::

    python3 perfbench/gen.py --workload large_model --seed 1 --out /tmp/inputs

The benchmark itself calls :func:`generate` before timing starts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "semcontrol" / "data"

WORKLOADS = ("small_cmds", "large_model", "draws_io")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; ``TINY`` keeps the smoke tests fast."""

    small_n: tuple[int, int] = (5, 16)
    small_models: int = 8
    small_rows: int = 2000
    large_n: int = 512
    large_density: float = 0.3
    large_rows: int = 200
    draws_rows: int = 1_000_000


FULL = Sizes()
TINY = Sizes(small_n=(5, 8), small_models=2, small_rows=200, large_n=40,
             large_rows=50, draws_rows=3000)


@dataclass(frozen=True)
class Model:
    """A generated model in block layout: upstream U*, treatment X, response Y, downstream D*."""

    variables: tuple[str, ...]
    coefficients: np.ndarray
    intercepts: np.ndarray
    disturbance_variances: np.ndarray
    covariates: tuple[str, ...]

    def to_dict(self) -> dict:
        rows, cols = np.nonzero(self.coefficients)
        v = self.variables
        return {
            "variables": list(v),
            "edges": [
                {"from": v[j], "to": v[i], "coeff": float(self.coefficients[i, j])}
                for i, j in zip(rows.tolist(), cols.tolist())
            ],
            "intercepts": dict(zip(v, self.intercepts.tolist())),
            "disturbance_variances": dict(zip(v, self.disturbance_variances.tolist())),
        }

    def implied(self) -> tuple[np.ndarray, np.ndarray]:
        """Equilibrium mean and covariance, computed here rather than by the program."""
        n = len(self.variables)
        inv = np.linalg.inv(np.eye(n) - self.coefficients)
        cov = (inv * self.disturbance_variances) @ inv.T
        return inv @ self.intercepts, 0.5 * (cov + cov.T)

    def response_effect(self) -> float:
        """Total effect of X on Y: the (Y, X) entry of the inverse with X's equation cut."""
        cut = self.coefficients.copy()
        xi = self.variables.index("X")
        cut[xi, :] = 0.0
        inv = np.linalg.inv(np.eye(len(self.variables)) - cut)
        return float(inv[self.variables.index("Y"), xi])


def random_model(rng: np.random.Generator, n: int, n_up: int, density: float,
                 n_cov: int, rho: float, min_effect: float = 0.0) -> Model:
    """A stable cyclic model with an X <-> Y loop and ``n_up`` nondescendants of X.

    Upstream rows draw parents only among the upstream block, so every U*
    stays a nondescendant of X.  The X -> Y and Y -> X edges guarantee a
    feedback cycle, and the first ``n_cov`` upstream variables feed X so
    they are relevant covariates and instruments.  The whole matrix is
    scaled to spectral radius ``rho``.
    """
    names = tuple([f"U{i}" for i in range(n_up)] + ["X", "Y"]
                  + [f"D{i}" for i in range(n - n_up - 2)])
    xi, yi = n_up, n_up + 1
    for _ in range(100):
        mask = rng.random((n, n)) < density
        mask[:n_up, n_up:] = False
        np.fill_diagonal(mask, False)
        mask[yi, xi] = mask[xi, yi] = True
        mask[xi, :n_cov] = True
        signed = rng.uniform(0.1, 1.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
        coeff = np.where(mask, signed, 0.0)
        coeff *= rho / np.abs(np.linalg.eigvals(coeff)).max()
        model = Model(names, coeff, rng.normal(0.0, 1.0, n), rng.uniform(0.5, 1.5, n),
                      names[:n_cov])
        if abs(model.response_effect()) >= min_effect:
            return model
    raise RuntimeError("no model with a large enough effect of X on Y")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload) + "\n")


def _write_model(model: Model, path: Path) -> dict:
    _write_json(path, model.to_dict())
    return {
        "file": path.name,
        "n": len(model.variables),
        "edges": int(np.count_nonzero(model.coefficients)),
        "spectral_radius": float(np.abs(np.linalg.eigvals(model.coefficients)).max()),
    }


def _write_covariance(model: Model, path: Path) -> None:
    mean, cov = model.implied()
    _write_json(path, {"variables": list(model.variables), "matrix": cov.tolist(),
                       "means": mean.tolist()})


def _copy_iverson(out: Path) -> dict:
    shutil.copyfile(FIXTURES / "iverson_model.json", out / "iverson_model.json")
    shutil.copyfile(FIXTURES / "iverson_covariance.json", out / "iverson_cov.json")
    return {"file": "iverson_model.json", "n": 5, "edges": 7}


def _small_cmds(rng, out: Path, sizes: Sizes) -> list[dict]:
    models = []
    for k in range(sizes.small_models):
        n = int(rng.integers(sizes.small_n[0], sizes.small_n[1] + 1))
        n_up = int(rng.integers(2, n - 2))
        model = random_model(rng, n, n_up, 0.4, min(n_up, 3),
                             float(rng.uniform(0.3, 0.7)), min_effect=0.05)
        info = _write_model(model, out / f"model{k}.json")
        _write_covariance(model, out / f"cov{k}.json")
        # feedback gain on the response with loop gain |a g| in [0.2, 0.6]
        loop = float(rng.uniform(0.2, 0.6) * rng.choice([-1.0, 1.0]))
        gain = loop / model.response_effect()
        plan = {"x": float(rng.normal(0.0, 2.0)), "a": {"Y": gain},
                "b": {w: float(rng.normal()) for w in model.covariates},
                "sigma_eps_star": float(rng.uniform(0.0, 1.0))}
        _write_json(out / f"plan{k}.json", plan)
        info.update(covariates=list(model.covariates), gain=gain,
                    set_point=float(rng.normal(0.0, 2.0)))
        models.append(info)
    return models


def _large_model(rng, out: Path, sizes: Sizes) -> list[dict]:
    n = sizes.large_n
    model = random_model(rng, n, n // 4, sizes.large_density, 4, 0.5)
    info = _write_model(model, out / "large.json")
    info["covariates"] = list(model.covariates)
    return [info]


def generate(workload: str, seed: int, out: Path, sizes: Sizes = FULL) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out``; returns the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    models = [_copy_iverson(out)]
    extra = {}
    if workload == "small_cmds":
        models += _small_cmds(rng, out, sizes)
        # Iverson g_y is about 0.05, so a in [-15, -2] keeps |a g_y| below 0.75
        extra["iverson_plan"] = {"x": float(rng.normal(0.0, 2.0)),
                                 "a": float(rng.uniform(-15.0, -2.0)),
                                 "sigma": float(rng.uniform(0.0, 1.0))}
    elif workload == "large_model":
        models += _large_model(rng, out, sizes)
    manifest = {"workload": workload, "seed": seed, "sizes": sizes.__dict__, "models": models,
                "rows": {"small_cmds": sizes.small_rows, "large_model": sizes.large_rows,
                         "draws_io": sizes.draws_rows}[workload],
                "sim_seed_base": int(rng.integers(0, 2**32)), **extra}
    _write_json(out / "manifest.json", manifest)
    return manifest


def record_hashes(manifest: dict, out: Path) -> None:
    """Add the program's ``model_hash`` of each generated model to the manifest."""
    from semcontrol.model import load_model, model_hash

    for info in manifest["models"]:
        info["model_hash"] = model_hash(load_model(out / info["file"]))
    _write_json(out / "manifest.json", manifest)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    manifest = generate(args.workload, args.seed, args.out, TINY if args.tiny else FULL)
    sys.path.insert(0, str(ROOT / "src"))
    record_hashes(manifest, args.out)
    print(json.dumps(manifest, indent=2))


if __name__ == "__main__":
    main()
