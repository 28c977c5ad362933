import os

import numpy as np
import pytest

import semcontrol as sc
from semcontrol import simulate


@pytest.fixture(scope="session")
def iverson_moments():
    return sc.iverson_moments()


@pytest.fixture(scope="session")
def iverson_model():
    return sc.iverson_model()


@pytest.fixture(scope="session")
def iverson_partition(iverson_model):
    return sc.partition_vertices(iverson_model, "X", "Y")


@pytest.fixture(scope="session")
def iverson_effects(iverson_model, iverson_partition):
    return sc.total_effects(iverson_model, iverson_partition)


@pytest.fixture
def two_cycle_model():
    """X <-> Y loop with coefficients 0.3 (X->Y) and 0.4 (Y->X), unit noise."""
    return sc.StructuralModel.from_edges(
        [("X", "Y", 0.3), ("Y", "X", 0.4)],
        variables=["Y", "X"],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def pools(monkeypatch):
    """Two usable CPUs on any machine; the worker counts of the pools that start."""
    if not hasattr(os, "fork"):
        pytest.skip("the worker pool forks")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    in_workers = simulate._in_workers

    def spy(work, items, workers):
        started.append(workers)
        return in_workers(work, items, workers)

    monkeypatch.setattr(simulate, "_in_workers", spy)
    return started
