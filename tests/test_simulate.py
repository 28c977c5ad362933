"""Equilibrium sampler determinism, chunking, iteration, and plan simulation."""

import io
import json
import mmap
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import semcontrol as sc
from semcontrol import simulate
from semcontrol.cli import run_command


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


class TestDrawInWorkers:
    """A ``simulate`` of several blocks draws each block in the worker that formats it,
    with the files and report of ``draw_equilibrium`` followed by ``save_run``; a draw
    that overflows is refused with its error."""

    UNSTABLE = sc.StructuralModel.from_edges([("X", "Y", 1.5), ("Y", "X", 0.8)],
                                             variables=["Y", "X"])

    @staticmethod
    def _simulate(tmp_path, capsys, model, *flags):
        path = tmp_path / "model.json"
        sc.save_model(model, path)
        out = tmp_path / "draws.csv"
        code = run_command(["simulate", "--model", str(path), "--n", "301", "--seed", "5",
                            *flags, "--out", str(out), "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        return out, json.loads(captured.out)

    @pytest.mark.parametrize("cpus", ["one-cpu", "two-cpus", "four-cpus"])
    @pytest.mark.parametrize("branch", ["observational", "plan"])
    @pytest.mark.parametrize("law", ["gaussian", "uniform"])
    def test_the_library_bits(self, tmp_path, capsys, pools, monkeypatch, iverson_model,
                              cpus, branch, law):
        monkeypatch.setattr(simulate, "_CSV_BLOCK_CELLS", 40)  # 38 blocks of 8 rows
        if cpus == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif cpus == "four-cpus":  # more workers than most machines have cores
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        plan = ["--treatment", "X", "--response", "Y", "--x", "1.5", "--a", "0.2",
                "--sigma-eps", "0.5"] if branch == "plan" else []
        out, report = self._simulate(tmp_path, capsys, iverson_model, "--law", law, *plan)
        assert pools == {"one-cpu": [], "four-cpus": [4]}.get(cpus, [2])
        config = sc.SimulationConfig(301, seed=5, law=law)
        data = (sc.simulate_plan(iverson_model, sc.partition_vertices(iverson_model, "X", "Y"),
                                 sc.ControlPlan(1.5, [0.2], [], 0.5), config)
                if plan else sc.draw_equilibrium(iverson_model, config))
        expected = tmp_path / "expected.csv"
        sc.save_run(data, expected, report["inputs"]["model_hash"], config)
        assert out.read_bytes() == expected.read_bytes()
        assert (Path(f"{out}.meta.json").read_bytes()
                == Path(f"{expected}.meta.json").read_bytes())
        results = report["results"]
        assert results["rows"] == 301
        for key, moments in [("empirical_mean", data.rows.mean(axis=0)),
                             ("empirical_variance", data.rows.var(axis=0, ddof=1))]:
            assert ([float(v).hex() for v in results[key].values()]
                    == [float(v).hex() for v in moments])

    def test_an_unstable_model_warns_once(self, tmp_path, capsys, pools, monkeypatch):
        monkeypatch.setattr(simulate, "_CSV_BLOCK_CELLS", 40)
        _, report = self._simulate(tmp_path, capsys, self.UNSTABLE)
        assert pools == [2]
        assert report["warnings"] == [
            "model is not stable: equilibrium draws exist but are not reachable by iteration "
            "from any starting point"]

    def test_an_overflowing_draw_writes_nothing(self, tmp_path):
        if not hasattr(os, "fork"):
            pytest.skip("the worker pool forks")
        model = tmp_path / "model.json"
        sc.save_model(sc.StructuralModel.from_edges(
            [("X", "Y", 0.9)], intercepts={"X": 1e308, "Y": 1e308}), model)
        result = subprocess.run([sys.executable, "-c", (
            "import os, sys; sys.path.insert(0, sys.argv[1])\n"
            "from semcontrol import cli, simulate\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "simulate._CSV_BLOCK_CELLS = 40\n"
            "started, in_workers = [], simulate._in_workers\n"
            "def spy(work, items, workers):\n"
            "    started.append(workers)\n"
            "    return in_workers(work, items, workers)\n"
            "simulate._in_workers = spy\n"
            "code = cli.run_command(['simulate', '--model', sys.argv[2], '--n', '300',\n"
            "                        '--out', 'draws.csv'])\n"
            "print(started)\n"
            "sys.exit(code)\n"), str(Path(sc.__file__).parent.parent), str(model)],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert result.returncode == 2
        assert result.stdout == "[2]\n"  # 15 blocks, drawn on two workers
        assert result.stderr == "error: dataset contains missing or non-finite values\n"
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


class TestTextBuffer:
    """The workers format each block into a slot of one shared buffer and send back only
    its length; a slot is filled again only after the parent has written its text.  The
    rows and the text are mapped, refused and closed by one rule (``simulate._mapped``)."""

    #: The bytes of each buffer of a 301-row Iverson ``simulate`` in 38 blocks of 8 rows: the
    #: rows, and 5 text slots, for 2 workers, of 8 rows of 5 cells, 25 bytes a cell and 1 a row.
    SIZES = {"rows": 301 * 5 * 8, "CSV text": 5 * 8 * (25 * 5 + 1)}

    def _simulate(self, tmp_path, capsys, monkeypatch, iverson_model):
        monkeypatch.setattr(simulate, "_CSV_BLOCK_CELLS", 40)  # 38 blocks of 8 rows
        model, out = tmp_path / "model.json", tmp_path / "draws.csv"
        sc.save_model(iverson_model, model)
        code = run_command(["simulate", "--model", str(model), "--n", "301", "--out", str(out)])
        return code, capsys.readouterr().err

    @pytest.fixture
    def texts(self, monkeypatch):
        """The text buffers that the test maps."""
        real, texts = mmap.mmap, []

        def spy(fileno, length):
            buffer = real(fileno, length)
            if length == self.SIZES["CSV text"]:
                texts.append(buffer)
            return buffer

        monkeypatch.setattr(mmap, "mmap", spy)
        return texts

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_no_slot_is_refilled_before_the_parent_writes_it(self, pools, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(simulate, "_CSV_BLOCK_CELLS", 40)  # 61 blocks of 8 rows
        rows = np.arange(488 * 5, dtype=float).reshape(488, 5)
        written = []  # what each write found in its slot, after the time to refill it

        class SlowFile(io.BytesIO):
            def write(self, data):
                time.sleep(0.01)  # a worker refills the slot meanwhile, were it free
                written.append(bytes(data))
                return super().write(data)

        raw = SlowFile()
        fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        simulate._write_csv_rows(fh, tuple("ABCDE"), 488, lambda start, stop: rows[start:stop])
        fh.flush()
        assert pools == [cpus]
        # after the header, the block of each text: its first cell is 40 times the block
        assert [int(float(text.split(b",")[0])) // 40 for text in written[1:]] == [*range(61)]
        assert raw.getvalue() == ("A,B,C,D,E\r\n" + "%r,%r,%r,%r,%r\r\n" * 488
                                  % tuple(rows.ravel().tolist())).encode()

    @pytest.mark.parametrize("what", ["rows", "CSV text"], ids=["rows", "text"])
    def test_a_buffer_that_cannot_be_mapped_writes_nothing(self, tmp_path, capsys, pools,
                                                           monkeypatch, iverson_model, what):
        """Either buffer is refused as memory, in one line, before any worker or thread."""
        real = mmap.mmap

        def refuse(fileno, length):
            if length == self.SIZES[what]:
                raise OSError(12, "Cannot allocate memory")
            return real(fileno, length)

        monkeypatch.setattr(mmap, "mmap", refuse)
        threads = threading.active_count()
        assert self._simulate(tmp_path, capsys, monkeypatch, iverson_model) == (
            2, f"error: Unable to map {self.SIZES[what]} bytes for the {what}\n")
        assert pools == []
        assert threading.active_count() == threads
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_a_failed_worker_leaves_the_text_buffer_closed(self, tmp_path, capsys, pools,
                                                           monkeypatch, iverson_model, texts):
        # raised in each worker
        monkeypatch.setattr(simulate, "_format_cells", lambda x, width, masks: 1 / 0)
        assert self._simulate(tmp_path, capsys, monkeypatch, iverson_model) == (
            2, "error: a CSV worker process failed: ZeroDivisionError: division by zero\n")
        assert pools == [2]
        assert [text.closed for text in texts] == [True]
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_a_failed_write_raises_its_error_and_closes_the_buffer(self, pools, monkeypatch,
                                                                    texts):
        monkeypatch.setattr(simulate, "_CSV_BLOCK_CELLS", 40)  # 38 blocks of 8 rows
        rows = np.zeros((301, 5))

        class FullFile(io.BytesIO):
            def write(self, data):  # the header, then no block
                if self.tell():
                    raise OSError(28, "No space left on device")
                return super().write(data)

        fh = io.TextIOWrapper(FullFile(), encoding="utf-8", newline="")
        with pytest.raises(OSError, match="No space left on device"):
            simulate._write_csv_rows(fh, tuple("ABCDE"), 301, lambda start, stop: rows[start:stop])
        assert pools == [2]
        assert [text.closed for text in texts] == [True]


class TestReportMoments:
    """A ``simulate`` report's mean and variance, computed on a thread of their own while
    the files are closed and renamed, with the bits of ``rows.mean`` and ``rows.var``."""

    @pytest.mark.parametrize("width", [1, 45])
    def test_the_bits_of_mean_and_var(self, tmp_path, capsys, width):
        names = [f"V{j}" for j in range(width)]
        model = sc.StructuralModel.from_edges(
            [(a, b, 0.5) for a, b in zip(names, names[1:])], variables=names,
            intercepts={name: 0.25 * j for j, name in enumerate(names)})
        path = tmp_path / "model.json"
        sc.save_model(model, path)
        code = run_command(["simulate", "--model", str(path), "--n", "3001", "--seed", "2",
                            "--out", str(tmp_path / "draws.csv"), "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        results = json.loads(captured.out)["results"]
        rows = sc.draw_equilibrium(model, sc.SimulationConfig(3001, seed=2)).rows
        for key, moments in [("empirical_mean", rows.mean(axis=0)),
                             ("empirical_variance", rows.var(axis=0, ddof=1))]:
            assert ([float(v).hex() for v in results[key].values()]
                    == [float(v).hex() for v in moments])

    def test_an_overflowing_mean_is_reported_in_the_callers_error_state(self, tmp_path, capsys):
        """The thread keeps the command's ``np.errstate``: under warnings as errors, numpy's
        own state would raise the overflow's warning there instead.  The report is checked
        after the files are replaced, so the new CSV and sidecar stay (see the README)."""
        model = tmp_path / "model.json"
        sc.save_model(sc.StructuralModel.from_edges(
            [("X", "Y", 0.5)], intercepts={"X": 1e306, "Y": 1e306}), model)
        out, sidecar = tmp_path / "draws.csv", tmp_path / "draws.csv.meta.json"
        out.write_bytes(b"old\r\n")
        sidecar.write_bytes(b"old\n")
        code = run_command(["simulate", "--model", str(model), "--n", "2000",
                            "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: result 'empirical_mean.X' is not finite\n"
        assert sc.Dataset.from_csv(out).rows.shape == (2000, 2)
        assert json.loads(sidecar.read_text())["n"] == 2000

    def test_an_error_of_the_thread_is_raised_in_the_caller(self, tmp_path):
        model = sc.StructuralModel.from_edges([("X", "Y", 0.5)],
                                              intercepts={"X": 1e306, "Y": 1e306})
        before = set(threading.enumerate())
        with pytest.raises(FloatingPointError, match="overflow encountered in reduce"), \
                np.errstate(over="raise"):
            simulate.draw_and_save(model, sc.SimulationConfig(2000), tmp_path / "draws.csv",
                                   "digest")
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("failure", ["overflowing-draw", "missing-directory",
                                         "refused-rename"])
    def test_no_thread_outlives_a_failed_draw(self, tmp_path, monkeypatch, failure):
        moments = simulate._moments

        def slow(rows):  # still running when the files fail, unless it is waited for
            time.sleep(0.2)
            return moments(rows)

        monkeypatch.setattr(simulate, "_moments", slow)
        intercept = 1e308 if failure == "overflowing-draw" else 1.0
        model = sc.StructuralModel.from_edges([("X", "Y", 0.9)],
                                              intercepts={"X": intercept, "Y": intercept})
        out = tmp_path / ("missing" if failure == "missing-directory" else "") / "draws.csv"
        if failure == "refused-rename":

            def refuse(src, dst):
                raise PermissionError(13, "Permission denied")

            monkeypatch.setattr(os, "replace", refuse)
        before = set(threading.enumerate())
        with pytest.raises((ValueError, OSError)), np.errstate(all="ignore"):
            simulate.draw_and_save(model, sc.SimulationConfig(300), out, "digest")
        assert set(threading.enumerate()) <= before
        assert list(tmp_path.iterdir()) == []


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
