"""Shared test utilities: random model families and independent oracles."""

from __future__ import annotations

import cmath

import numpy as np

import semcontrol as sc


def _has_cycle(adjacency: np.ndarray) -> bool:
    """Whether some vertex reaches itself: the paths of up to ``2^k`` edges after ``k``
    squarings of the reachability matrix, until it stops growing."""
    reach, closure = None, adjacency.astype(bool)
    while not np.array_equal(reach, closure):
        reach = closure
        closure = reach | (reach.astype(np.float32) @ reach.astype(np.float32) > 0.0)
    return bool(np.diag(closure).any())


def random_cyclic_model(seed: int, n_min: int = 3, n_max: int = 8):
    """A random stable model with at least one cycle and a reachable response.

    Returns (model, treatment, response).  Vertices are laid out in three
    blocks (upstream, treatment, downstream) so that nondescendants exist in
    most draws, the coefficient matrix is scaled until the full spectral
    radius lands in [0.3, 0.8], and candidates whose descendant subsystem is
    too close to singular are resampled.
    """
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(n_min, n_max + 1))
        n_up = int(rng.integers(1, n - 1)) if n > 3 else int(rng.integers(0, n - 1))
        xi = n_up
        down = list(range(n_up + 1, n))
        if not down:
            continue
        yi = int(rng.choice(down))

        mask = np.zeros((n, n), dtype=bool)
        density = 0.4
        for t in range(n_up):                      # upstream rows: upstream parents only
            for t2 in range(n_up):
                if t != t2 and rng.random() < density:
                    mask[t, t2] = True
        for j in range(n):                         # treatment row: any non-self parent
            if j != xi and rng.random() < density:
                mask[xi, j] = True
        for s in down:                             # downstream rows: any non-self parent
            for j in range(n):
                if j != s and rng.random() < density:
                    mask[s, j] = True
        mask[yi, xi] = True
        if not _has_cycle(mask):
            mask[xi, yi] = True

        magnitude = rng.uniform(0.1, 1.0, (n, n))
        sign = rng.choice([-1.0, 1.0], (n, n))
        coeff = np.where(mask, magnitude * sign, 0.0)
        rho = sc.spectral_radius(coeff)
        if rho == 0.0:
            continue
        coeff *= rng.uniform(0.3, 0.8) / rho

        order = rng.permutation(n)                 # break any layout-order dependence
        coeff = coeff[np.ix_(order, order)]
        positions = {int(old): new for new, old in enumerate(order)}
        names = tuple(f"V{i}" for i in range(n))
        edges = tuple(
            (names[j], names[i]) for i in range(n) for j in range(n) if coeff[i, j] != 0.0
        )
        diagram = sc.PathDiagram(names, edges)
        model = sc.StructuralModel(
            diagram,
            coeff,
            rng.normal(0.0, 1.0, n),
            rng.uniform(0.3, 2.0, n),
        )
        treatment, response = names[positions[xi]], names[positions[yi]]
        part = sc.partition_vertices(model, treatment, response)
        a_ss = part.submatrix(coeff, part.descendants, part.descendants)
        if sc.spectral_radius(a_ss) > 0.95:
            continue
        return model, treatment, response
    raise RuntimeError(f"could not build a model for seed {seed}")


def random_partition(rng: np.random.Generator, model, treatment, response, n_f_max=1):
    """Partition with F = {response} (plus extras when allowed) and a random W."""
    base = sc.partition_vertices(model, treatment, response)
    controls = [response]
    extras = [v for v in base.descendants if v != response]
    if n_f_max > 1 and extras and rng.random() < 0.5:
        k = int(rng.integers(1, min(n_f_max - 1, len(extras)) + 1))
        controls += list(rng.choice(extras, size=k, replace=False))
    nondesc = list(base.nondescendants)
    n_w = int(rng.integers(0, min(2, len(nondesc)) + 1))
    covariates = list(rng.choice(nondesc, size=n_w, replace=False)) if n_w else []
    return sc.partition_vertices(model, treatment, response, controls, covariates)


def random_stable_plan(rng: np.random.Generator, model, partition, effects):
    """A plan with |a'g| <= 0.9 whose surgered system is spectrally stable."""
    gamma = effects.to_controls
    n_f = len(partition.controls)
    n_w = len(partition.covariates)
    for _ in range(100):
        a = np.zeros(n_f)
        if rng.random() < 0.7:
            direction = rng.normal(size=n_f)
            loop = abs(float(direction @ gamma))
            if loop > 1e-9:
                a = direction * (rng.uniform(0.1, 0.9) / loop) * rng.choice([-1.0, 1.0])
        b = rng.normal(0.0, 1.0, n_w)
        sigma = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 1.5))
        plan = sc.ControlPlan(float(rng.normal(0.0, 2.0)), a, b, sigma)
        post = sc.apply_plan(model, partition, plan)
        if sc.spectral_radius(post.coefficients) < 0.98:
            return plan
    raise RuntimeError("could not draw a stable plan")


def family_member(seed: int, n_f_max: int = 1):
    """One fully assembled member of the seeded random model family."""
    model, treatment, response = random_cyclic_model(seed)
    rng = np.random.default_rng(seed + 10_000)
    partition = random_partition(rng, model, treatment, response, n_f_max=n_f_max)
    effects = sc.total_effects(model, partition)
    plan = random_stable_plan(rng, model, partition, effects)
    return model, partition, effects, plan


# ---------------------------------------------------------------------------
# Independent oracles


def reachable_floyd_warshall(names, edges, start) -> set[str]:
    """Transitive-closure reachability, start excluded."""
    index = {v: i for i, v in enumerate(names)}
    n = len(names)
    reach = np.zeros((n, n), dtype=bool)
    for s, t in edges:
        reach[index[s], index[t]] = True
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    return {v for v in names if reach[index[start], index[v]] and v != start}


def cubic_roots(c2: float, c1: float, c0: float):
    """Roots of x^3 + c2 x^2 + c1 x + c0 by Cardano's formula."""
    shift = c2 / 3.0
    p = c1 - c2**2 / 3.0
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    disc = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3 = -q / 2.0 + disc
    if abs(u3) < 1e-30:
        u3 = -q / 2.0 - disc
    u = u3 ** (1.0 / 3.0)
    omega = cmath.exp(2j * cmath.pi / 3.0)
    roots = []
    for k in range(3):
        w = u * omega**k
        t = w if abs(w) < 1e-30 else w - p / (3.0 * w)
        roots.append(t - shift)
    return roots


def mean_stderr(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / np.sqrt(len(x)))


def var_stderr(x: np.ndarray) -> float:
    """Law-free standard error of the sample variance via the fourth moment."""
    centered = x - x.mean()
    m2 = float((centered**2).mean())
    m4 = float((centered**4).mean())
    return float(np.sqrt(max(m4 - m2**2, 0.0) / len(x)))
