"""Independent output checks for every benchmarked command.

Each check takes a command's parsed JSON report and returns the list of
problems found; an empty list means the output is correct.  The expected
values come from the benchmark's own linear algebra on the input files
(full-system surgery, direct solves, covariance ratios), not from the
program's closed forms.  The simulate check compares CSV rows with
``draw_equilibrium(row_range=...)``, which must hold bit for bit whatever
text format the writer uses, as long as it round-trips.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np

#: Exact ratio of the published Iverson covariances cov(Y, Z3) / cov(X, Z3).
IVERSON_GAMMA = 0.003 / 0.061

PLAN_RTOL = 1e-8
EFFECT_RTOL = 1e-8
RADIUS_RTOL = 1e-9
ESTIMATE_RTOL = 1e-9


class SEM:
    """A model file as dense arrays, parsed without the program's loader."""

    def __init__(self, path: str | Path):
        payload = json.loads(Path(path).read_text())
        self.names = list(payload["variables"])
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.coeff = np.zeros((n, n))
        for edge in payload["edges"]:
            self.coeff[self.index[edge["to"]], self.index[edge["from"]]] = edge["coeff"]
        self.intercepts = np.array([payload.get("intercepts", {}).get(v, 0.0) for v in self.names])
        self.dvar = np.array(
            [payload.get("disturbance_variances", {}).get(v, 1.0) for v in self.names]
        )

    def descendants(self, treatment: str) -> list[str]:
        """Vertices reachable from ``treatment``, in model order."""
        adjacency = self.coeff.T != 0.0  # adjacency[j, i]: edge j -> i
        seen = np.zeros(len(self.names), dtype=bool)
        frontier = adjacency[self.index[treatment]].copy()
        while frontier.any():
            seen |= frontier
            frontier = adjacency[frontier].any(axis=0) & ~seen
        seen[self.index[treatment]] = False
        return [v for v, s in zip(self.names, seen) if s]

    def surgery(self, treatment: str, set_point: float, gains: dict[str, float],
                noise: float) -> tuple[np.ndarray, np.ndarray]:
        """Equilibrium mean and covariance after replacing the treatment's equation."""
        xi = self.index[treatment]
        coeff = self.coeff.copy()
        coeff[xi, :] = 0.0
        for name, gain in gains.items():
            coeff[xi, self.index[name]] = gain
        mu = self.intercepts.copy()
        mu[xi] = set_point
        dvar = self.dvar.copy()
        dvar[xi] = noise
        inv = np.linalg.inv(np.eye(len(self.names)) - coeff)
        return inv @ mu, (inv * dvar) @ inv.T


@lru_cache(maxsize=32)
def sem(path: str) -> SEM:
    return SEM(path)


def _close(got, want, rtol: float, scale: float | None = None) -> bool:
    scale = abs(want) if scale is None else scale
    return abs(float(got) - float(want)) <= rtol * scale


def _radius(matrix: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(matrix)).max()) if matrix.size else 0.0


def check_reproduce_iverson(report: dict) -> list[str]:
    gamma = report["results"]["gamma_hat_iv_z3"]
    if abs(gamma - IVERSON_GAMMA) > 1e-15:
        return [f"gamma_hat_iv_z3 {gamma!r} != 0.003/0.061"]
    return []


def check_validate(report: dict) -> list[str]:
    res = report["results"]
    if res["valid"] is not True or res["violations"]:
        return [f"generated model reported invalid: {res['violations'][:3]}"]
    return []


@lru_cache(maxsize=32)
def _stability_expected(model: str, treatment: str) -> tuple[float, float]:
    m = sem(model)
    fb = [m.index[v] for v in m.descendants(treatment)] + [m.index[treatment]]
    nd = [i for i in range(len(m.names)) if i not in set(fb)]
    return _radius(m.coeff[np.ix_(nd, nd)]), _radius(m.coeff[np.ix_(fb, fb)])


def check_stability(report: dict, model: str, treatment: str) -> list[str]:
    res = report["results"]
    rho_t, rho_fb = _stability_expected(model, treatment)
    problems = []
    if res["stable"] is not True:
        problems.append("stable model reported unstable")
    for key, want in (("spectral_radius_nondescendant_block", rho_t),
                      ("spectral_radius_feedback_block", rho_fb)):
        if not _close(res[key], want, RADIUS_RTOL, max(want, 1e-300)):
            problems.append(f"{key} {res[key]!r} != {want!r}")
    return problems


@lru_cache(maxsize=32)
def _effects_expected(model: str, treatment: str) -> dict[str, float]:
    m = sem(model)
    xi = m.index[treatment]
    cut = m.coeff.copy()
    cut[xi, :] = 0.0
    unit = np.zeros(len(m.names))
    unit[xi] = 1.0
    column = np.linalg.solve(np.eye(len(m.names)) - cut, unit)
    return {v: float(column[m.index[v]]) for v in m.descendants(treatment)}


def check_effects(report: dict, model: str, treatment: str, response: str) -> list[str]:
    res = report["results"]
    want = _effects_expected(model, treatment)
    got = res["total_effects_on_descendants"]
    if set(got) != set(want):
        return ["descendant set differs from graph reachability"]
    scale = max(abs(v) for v in want.values())
    problems = [f"effect on {v} {got[v]!r} != {want[v]!r}"
                for v in want if not _close(got[v], want[v], EFFECT_RTOL, scale)]
    if not _close(res["total_effect_on_response"], want[response], EFFECT_RTOL, scale):
        problems.append("total_effect_on_response differs from a direct solve")
    return problems[:3]


def check_plan(report: dict, model: str, treatment: str, response: str, set_point: float,
               feedback: dict[str, float], gains: dict[str, float] | None, noise: float
               ) -> list[str]:
    """Compare mean_y and var_y with surgery on the full system.

    ``gains=None`` means the optimal covariate gains were requested: the
    report's gains are used for the surgery, and the post-plan covariance of
    the response with every covariate must then vanish (single control).
    """
    res = report["results"]
    reported = res["b_star"] if "b_star" in res else res["covariate_gains"]
    optimal = gains is None
    if optimal:
        gains = reported
    elif {k: float(v) for k, v in reported.items()} != gains:
        return [f"reported covariate gains {reported} differ from the plan {gains}"]
    m = sem(model)
    mean, cov = m.surgery(treatment, set_point, {**feedback, **gains}, noise)
    yi = m.index[response]
    want_mean, want_var = float(mean[yi]), float(cov[yi, yi])
    problems = []
    if not _close(res["var_y"], want_var, PLAN_RTOL):
        problems.append(f"var_y {res['var_y']!r} != surgery {want_var!r}")
    if not _close(res["mean_y"], want_mean, PLAN_RTOL, max(abs(want_mean), want_var ** 0.5)):
        problems.append(f"mean_y {res['mean_y']!r} != surgery {want_mean!r}")
    if optimal:
        for w in gains:
            wi = m.index[w]
            if abs(cov[yi, wi]) > PLAN_RTOL * (cov[yi, yi] * cov[wi, wi]) ** 0.5:
                problems.append(f"optimal gains leave cov(Y, {w}) = {cov[yi, wi]:.3g}")
    return problems


def check_estimate_cov(report: dict, cov_path: str, treatment: str, response: str,
                       instruments: list[str]) -> list[str]:
    payload = json.loads(Path(cov_path).read_text())
    index = {v: i for i, v in enumerate(payload["variables"])}
    sigma = np.array(payload["matrix"])
    z = [index[v] for v in instruments]
    szz = sigma[np.ix_(z, z)]
    first = np.linalg.solve(szz, sigma[z, index[treatment]])
    want = float(first @ sigma[z, index[response]]) / float(first @ sigma[z, index[treatment]])
    got = report["results"]["gamma_hat"]
    if not _close(got, want, ESTIMATE_RTOL):
        return [f"gamma_hat {got!r} != covariance ratio {want!r}"]
    return []


class Draws:
    """The equilibrium draws a ``simulate`` run must have written, from the library."""

    def __init__(self, model_path: str, n: int, seed: int):
        from semcontrol.model import load_model
        from semcontrol.simulate import SimulationConfig

        self.model = load_model(model_path)
        self.config = SimulationConfig(n_draws=n, seed=seed)
        self._rows = None

    def rows(self, row_range: tuple[int, int] | None = None) -> np.ndarray:
        from semcontrol.simulate import draw_equilibrium

        if row_range is not None:
            return draw_equilibrium(self.model, self.config, row_range=row_range).rows
        if self._rows is None:
            self._rows = draw_equilibrium(self.model, self.config).rows
        return self._rows


def check_simulate(report: dict, csv_path: str, draws: Draws,
                   window: tuple[int, int]) -> list[str]:
    """Header, row count, and a seeded row window bit-identical to the library draws."""
    res = report["results"]
    n = draws.config.n_draws
    if res["rows"] != n or res["regime"] != "observational":
        return [f"simulate reported {res['rows']} {res['regime']} rows, expected {n}"]
    start, stop = window
    found = []
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        count = 0
        for count, line in enumerate(fh, start=1):
            if start < count <= stop:
                found.append([float(v) for v in line.split(",")])
    problems = []
    if header != list(draws.model.variables):
        problems.append(f"CSV header {header} != model variables")
    if count != n:
        problems.append(f"CSV has {count} data rows, expected {n}")
    if np.array(found).tobytes() != draws.rows(window).tobytes():
        problems.append(f"CSV rows [{start}, {stop}) differ from "
                        f"draw_equilibrium(row_range=({start}, {stop}))")
    return problems


def check_estimate_data(report: dict, draws: Draws, treatment: str, response: str,
                        instrument: str) -> list[str]:
    res = report["results"]
    names = list(draws.model.variables)
    cols = [names.index(v) for v in (treatment, response, instrument)]
    c = np.cov(draws.rows()[:, cols], rowvar=False)
    want = c[1, 2] / c[0, 2]
    problems = []
    if res.get("n") != draws.config.n_draws:
        problems.append(f"estimate read {res.get('n')} rows, expected {draws.config.n_draws}")
    if not _close(res["gamma_hat"], want, ESTIMATE_RTOL):
        problems.append(f"gamma_hat {res['gamma_hat']!r} != numpy covariance ratio {want!r}")
    return problems
