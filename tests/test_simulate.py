"""Equilibrium sampler determinism, chunking, iteration, and plan simulation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semcontrol as sc


@pytest.fixture
def disconnected_model():
    return sc.StructuralModel.from_edges(
        [],
        variables=["A", "B"],
        intercepts={"A": 2.0, "B": -1.0},
        disturbance_variances={"A": 1.5, "B": 0.25},
    )


class TestSimulationConfig:
    def test_draw_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sc.SimulationConfig(0)

    def test_law_must_be_known(self):
        with pytest.raises(ValueError, match="law"):
            sc.SimulationConfig(10, law="cauchy")

    def test_seed_range(self):
        with pytest.raises(ValueError):
            sc.SimulationConfig(10, seed=-1)
        with pytest.raises(ValueError):
            sc.SimulationConfig(10, seed=2**64)


class TestDrawEquilibrium:
    def test_no_edges_reduces_to_shifted_disturbances(self, disconnected_model):
        n = 200_000
        data = sc.draw_equilibrium(disconnected_model, sc.SimulationConfig(n, seed=1))
        assert abs(data.column("A").mean() - 2.0) < 4 * np.sqrt(1.5 / n)
        assert abs(data.column("B").mean() + 1.0) < 4 * np.sqrt(0.25 / n)
        emp = np.cov(data.rows, rowvar=False, ddof=1)
        assert emp[0, 0] == pytest.approx(1.5, rel=0.02)
        assert emp[1, 1] == pytest.approx(0.25, rel=0.02)
        assert abs(emp[0, 1]) < 4 * np.sqrt(1.5 * 0.25 / n)

    def test_two_cycle_matches_implied_moments(self, two_cycle_model):
        implied = sc.implied_moments(two_cycle_model)
        n = 1_000_000
        data = sc.draw_equilibrium(two_cycle_model, sc.SimulationConfig(n, seed=6))
        emp = np.cov(data.rows, rowvar=False, ddof=1)
        for i in range(2):
            for j in range(2):
                se = np.sqrt(
                    (implied.covariance[i, i] * implied.covariance[j, j]
                     + implied.covariance[i, j] ** 2) / (n - 1)
                )
                assert abs(emp[i, j] - implied.covariance[i, j]) < 3 * se

    def test_same_seed_is_bit_identical(self, two_cycle_model):
        config = sc.SimulationConfig(500, seed=123)
        a = sc.draw_equilibrium(two_cycle_model, config)
        b = sc.draw_equilibrium(two_cycle_model, config)
        assert np.array_equal(a.rows, b.rows)

    def test_different_seeds_differ(self, two_cycle_model):
        a = sc.draw_equilibrium(two_cycle_model, sc.SimulationConfig(500, seed=1))
        b = sc.draw_equilibrium(two_cycle_model, sc.SimulationConfig(500, seed=2))
        assert not np.array_equal(a.rows, b.rows)

    @pytest.mark.parametrize("splits", [[0, 100], [0, 37, 100], [0, 1, 50, 99, 100]])
    def test_chunked_generation_reproduces_single_pass(self, two_cycle_model, splits):
        config = sc.SimulationConfig(100, seed=77)
        whole = sc.draw_equilibrium(two_cycle_model, config)
        parts = [
            sc.draw_equilibrium(two_cycle_model, config, row_range=(a, b))
            for a, b in zip(splits, splits[1:])
        ]
        stacked = np.vstack([p.rows for p in parts])
        assert np.array_equal(stacked, whole.rows)

    def test_uniform_law_matches_closed_forms(self, two_cycle_model):
        # every closed form involves first and second moments only
        implied = sc.implied_moments(two_cycle_model)
        n = 500_000
        data = sc.draw_equilibrium(
            two_cycle_model, sc.SimulationConfig(n, seed=13, law="uniform")
        )
        emp = np.cov(data.rows, rowvar=False, ddof=1)
        assert np.allclose(emp, implied.covariance, atol=0.02)

    def test_singular_system_rejected(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 1.0), ("Y", "X", 1.0)], variables=["Y", "X"]
        )
        with pytest.raises(sc.SingularSystem):
            sc.draw_equilibrium(model, sc.SimulationConfig(10, seed=0))

    def test_unstable_model_warns_but_draws(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 1.5), ("Y", "X", 0.8)], variables=["Y", "X"]
        )
        with pytest.warns(sc.UnstableModelWarning) as record:
            data = sc.draw_equilibrium(model, sc.SimulationConfig(10, seed=0))
        assert data.n == 10
        assert record[0].filename == __file__  # attributed to the caller

    def test_bad_row_range_rejected(self, two_cycle_model):
        with pytest.raises(ValueError):
            sc.draw_equilibrium(
                two_cycle_model, sc.SimulationConfig(10, seed=0), row_range=(5, 20)
            )


class TestIterateEquilibrium:
    def test_converges_to_direct_solve(self, two_cycle_model):
        rng = np.random.default_rng(0)
        eps = rng.normal(size=2)
        target = np.linalg.solve(
            np.eye(2) - two_cycle_model.coefficients,
            two_cycle_model.intercepts + eps,
        )
        traj = sc.iterate_equilibrium(two_cycle_model, np.zeros(2), eps, 200)
        assert np.allclose(traj[-1], target, atol=1e-12)

    def test_matches_partial_sum_formula(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 0.4), ("Y", "X", 0.6), ("X", "U", 0.3)],
            variables=["Y", "U", "X"],
            intercepts={"Y": 0.5, "X": -0.25},
        )
        rng = np.random.default_rng(42)
        eps = rng.normal(size=3)
        v0 = rng.normal(size=3)
        forcing = model.intercepts + eps
        a = model.coefficients
        traj = sc.iterate_equilibrium(model, v0, eps, 20)
        power = np.eye(3)
        partial = np.zeros(3)
        for k in range(1, 21):
            partial = partial + power @ forcing
            power = power @ a
            expected = partial + power @ v0
            assert np.abs(traj[k] - expected).max() < 1e-10

    def test_diverges_beyond_unit_radius(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 1.5), ("Y", "X", 0.8)], variables=["Y", "X"]
        )
        rng = np.random.default_rng(1)
        traj = sc.iterate_equilibrium(model, rng.normal(size=2), rng.normal(size=2), 120)
        norms = np.linalg.norm(traj, axis=1)
        assert norms[-1] > 1e3 * max(norms[0], 1.0)

    def test_trajectory_shape_and_start(self, two_cycle_model):
        traj = sc.iterate_equilibrium(two_cycle_model, np.array([1.0, 2.0]), np.zeros(2), 5)
        assert traj.shape == (6, 2)
        assert np.array_equal(traj[0], [1.0, 2.0])


class TestSimulatePlan:
    def test_equals_sampling_the_surgered_model(self, iverson_model):
        part = sc.partition_vertices(iverson_model, "X", "Y")
        plan = sc.ControlPlan(1.5, np.array([0.2]), np.zeros(0), 0.5)
        config = sc.SimulationConfig(400, seed=21)
        via_plan = sc.simulate_plan(iverson_model, part, plan, config)
        via_surgery = sc.draw_equilibrium(
            sc.apply_plan(iverson_model, part, plan), config
        )
        assert np.array_equal(via_plan.rows, via_surgery.rows)

    def test_unconditional_plan_mean_on_the_study_model(self, iverson_model):
        part = sc.partition_vertices(iverson_model, "X", "Y")
        x = 10.0
        plan = sc.ControlPlan(x, np.zeros(1), np.zeros(0))
        n = 400_000
        data = sc.simulate_plan(iverson_model, part, plan, sc.SimulationConfig(n, seed=17))
        y = data.column("Y")
        gamma = sc.total_effects(iverson_model, part).to_response
        assert abs(y.mean() - gamma * x) < 4 * y.std(ddof=1) / np.sqrt(n)
        # a perfect unconditional plan pins the treatment to the set point
        assert np.allclose(data.column("X"), x, atol=1e-12)

    def test_unstable_plan_rejected_without_override(self, iverson_model):
        part = sc.partition_vertices(iverson_model, "X", "Y")
        gamma = sc.total_effects(iverson_model, part).to_response
        plan = sc.ControlPlan(0.0, np.array([1.5 / gamma]), np.zeros(0))
        with pytest.raises(sc.UnstablePlan):
            sc.simulate_plan(iverson_model, part, plan, sc.SimulationConfig(10, seed=0))


    @pytest.mark.parametrize("gap", [1e-10, 1e-8])
    @pytest.mark.parametrize("block", ["feedback", "nondescendant"])
    def test_gate_agrees_with_the_whole_post_plan_radius(self, gap, block):
        # a radius of 1 - gap in either block straddles 1 - STABILITY_TOL: the plan
        # X = rho Y closes a loop with X -> Y at rho, or a Z1 <-> Z2 loop carries it
        rho = 1.0 - gap
        loop = rho if block == "feedback" else 0.5
        edges = [("X", "Y", loop), ("Z1", "X", 0.3)]
        if block == "nondescendant":
            edges += [("Z1", "Z2", rho), ("Z2", "Z1", rho)]
        model = sc.StructuralModel.from_edges(edges)
        part = sc.partition_vertices(model, "X", "Y", covariates=["Z1"])
        plan = sc.ControlPlan(1.0, [loop], [0.2])
        post = sc.apply_plan(model, part, plan)
        stable = sc.model.is_stable(sc.spectral_radius(post.coefficients))
        assert stable == (gap > sc.model.STABILITY_TOL)
        config = sc.SimulationConfig(10)
        if stable:
            drawn = sc.simulate_plan(model, part, plan, config)
            assert np.array_equal(drawn.rows, sc.draw_equilibrium(post, config).rows)
        else:
            with pytest.raises(sc.UnstablePlan, match="post-plan spectral radius 1 "):
                sc.simulate_plan(model, part, plan, config)


class TestSaveRun:
    def test_csv_and_sidecar(self, tmp_path, two_cycle_model):
        config = sc.SimulationConfig(25, seed=5, law="uniform")
        data = sc.draw_equilibrium(two_cycle_model, config)
        out = tmp_path / "draws.csv"
        sidecar = sc.save_run(data, out, sc.model_hash(two_cycle_model), config)
        loaded = sc.Dataset.from_csv(out)
        assert np.array_equal(loaded.rows, data.rows)
        meta = json.loads(sidecar.read_text())
        assert meta == {
            "seed": 5,
            "n": 25,
            "model_hash": sc.model_hash(two_cycle_model),
            "rng": sc.RNG_ALGORITHM,
            "law": "uniform",
        }


class TestSeededBits:
    #: First two rows of the seed-0 Iverson draw, as float.hex, per law.
    GOLDEN = {
        "gaussian": [
            ["-0x1.1e5ad95148c45p+1", "-0x1.0d6f5a911e00ap+0", "-0x1.380f15f728ce0p+0",
             "0x1.4c209a0cbd7d0p-3", "0x1.86e90d5955b0bp-8"],
            ["-0x1.8b08ad0bc0083p-1", "-0x1.2f96aadb01ec8p+0", "0x1.1de4e4d3212bap-1",
             "-0x1.1ed4b0cf7fed6p+0", "0x1.760561ab129fep-3"],
        ],
        "uniform": [
            ["-0x1.a58faaa184f84p+0", "-0x1.096ee66db32c0p+0", "-0x1.589768c355c43p+0",
             "0x1.c8fcfe0f48ab2p-3", "0x1.0e1ce5e537fdfp-7"],
            ["-0x1.fb26888ff5b9ep-1", "-0x1.7c46993108dedp+0", "0x1.777e30cef3c10p-1",
             "-0x1.46ff89308d4e3p+0", "0x1.0103c163d0754p-2"],
        ],
    }

    @pytest.mark.parametrize("law", sorted(GOLDEN))
    def test_seed_zero_draw_is_pinned(self, iverson_model, law):
        data = sc.draw_equilibrium(iverson_model, sc.SimulationConfig(5, seed=0, law=law))
        assert data.columns == ("Y", "X", "Z1", "Z2", "Z3")
        assert [[float(v).hex() for v in row] for row in data.rows[:2]] == self.GOLDEN[law]


def test_small_commands_never_load_the_worker_pool(tmp_path):
    """Start-up and a CSV of one block and one segment leave multiprocessing unloaded.

    The draws are uniform because ``scipy.special``, which Gaussian draws import,
    loads ``concurrent.futures`` itself."""
    model = tmp_path / "model.json"
    sc.save_model(sc.iverson_model(), model)
    script = (
        "import os, sys; sys.path.insert(0, sys.argv[1])\n"
        "import semcontrol.cli as cli\n"
        "from semcontrol import simulate\n"
        "def pool(): return {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
        "assert not pool(), 'import'\n"
        "draw = ['simulate', '--model', sys.argv[2], '--n', '2000', '--law', 'uniform',\n"
        "        '--out', sys.argv[3]]\n"
        "assert cli.run_command(draw) == 0\n"
        "assert cli.run_command(['estimate', '--data', sys.argv[3], '--treatment', 'X',\n"
        "                        '--response', 'Y', '--instruments', 'Z3']) == 0\n"
        "assert not pool(), 'simulate and estimate'\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "simulate._CSV_BLOCK_CELLS = 1000\n"
        "assert cli.run_command(draw) == 0\n"
        "assert pool(), 'a CSV of several blocks'\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-c", script, str(Path(sc.__file__).parent.parent), str(model),
         str(tmp_path / "draws.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_only_gaussian_draws_import_scipy(tmp_path):
    """Start-up and the commands that draw nothing leave scipy unloaded."""
    model = tmp_path / "model.json"
    sc.save_model(sc.iverson_model(), model)
    mom = sc.iverson_moments()
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"variables": list(mom.variables),
                               "matrix": mom.covariance.tolist()}))
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import semcontrol.cli as cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert cli.run_command(['validate', '--model', sys.argv[2]]) == 0\n"
        "assert 'scipy' not in sys.modules, 'validate'\n"
        "assert cli.run_command(['estimate', '--cov', sys.argv[3], '--treatment', 'X',\n"
        "                        '--response', 'Y', '--instruments', 'Z3']) == 0\n"
        "assert 'scipy' not in sys.modules, 'estimate'\n"
        "assert cli.run_command(['simulate', '--model', sys.argv[2], '--n', '5',\n"
        "                        '--out', sys.argv[4]]) == 0\n"
        "assert 'scipy' in sys.modules, 'simulate'\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-c", script, str(Path(sc.__file__).parent.parent), str(model),
         str(cov), str(tmp_path / "draws.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _run_script(tmp_path, script: str, *args) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this package's source tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-c", script, str(Path(sc.__file__).parent.parent), *map(str, args)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result


def test_gaussian_draws_never_load_the_worker_pool(tmp_path):
    """A Gaussian ``simulate`` and an ``estimate`` of its CSV leave multiprocessing unloaded,
    as the draw loads scipy's ``ndtri`` ufunc module and not the ``scipy.special`` package."""
    model = tmp_path / "model.json"
    sc.save_model(sc.iverson_model(), model)
    _run_script(tmp_path, (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import semcontrol.cli as cli\n"
        "assert cli.run_command(['simulate', '--model', sys.argv[2], '--n', '2000',\n"
        "                        '--out', sys.argv[3]]) == 0\n"
        "assert cli.run_command(['estimate', '--data', sys.argv[3], '--treatment', 'X',\n"
        "                        '--response', 'Y', '--instruments', 'Z3']) == 0\n"
        "assert not {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
    ), model, tmp_path / "draws.csv")


class TestNdtriLoader:
    """Gaussian draws load only ``scipy.special._ufuncs``, and get the public ``ndtri``."""

    def test_is_the_public_ufunc_before_and_after_importing_scipy_special(self, tmp_path):
        _run_script(tmp_path, (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from semcontrol.simulate import _ndtri\n"
            "ndtri = _ndtri()\n"
            "assert 'scipy.special' not in sys.modules\n"
            "import scipy.special\n"
            "assert ndtri is scipy.special.ndtri is _ndtri()\n"
        ))

    def test_gaussian_simulate_leaves_the_package_unloaded(self, tmp_path):
        model = tmp_path / "model.json"
        sc.save_model(sc.iverson_model(), model)
        _run_script(tmp_path, (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import semcontrol.cli as cli\n"
            "assert cli.run_command(['simulate', '--model', sys.argv[2], '--n', '5',\n"
            "                        '--out', sys.argv[3]]) == 0\n"
            "assert 'scipy' in sys.modules\n"
            "assert not {'scipy.special', 'scipy._lib._array_api'} & set(sys.modules)\n"
        ), model, tmp_path / "draws.csv")

    def test_a_failed_fast_path_falls_back_to_the_public_import(self, tmp_path):
        """A ``_ufuncs`` that cannot load under the stand-in leaves the same bits, and the
        real package, not the stand-in, in ``sys.modules``."""
        result = _run_script(tmp_path, (
            "import json, sys; sys.path.insert(0, sys.argv[1])\n"
            "import semcontrol as sc\n"
            "refused = []\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        package = sys.modules.get('scipy.special')\n"
            "        if name == 'scipy.special._ufuncs' and not hasattr(package, '__file__'):\n"
            "            refused.append(name)\n"
            "            raise ImportError(name)\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "data = sc.draw_equilibrium(sc.iverson_model(), sc.SimulationConfig(5, seed=0))\n"
            "assert refused\n"
            "assert sys.modules['scipy.special'].__file__.endswith('__init__.py')\n"
            "print(json.dumps([[float(v).hex() for v in row] for row in data.rows[:2]]))\n"
        ))
        assert json.loads(result.stdout) == TestSeededBits.GOLDEN["gaussian"]
