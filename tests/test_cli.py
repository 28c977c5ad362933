"""CLI surface: grammar, exit codes, report formats, pipeline consistency."""

import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import semcontrol as sc
from semcontrol import cli
from semcontrol.cli import run_command
from semcontrol.model import model_to_dict


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    sc.save_model(sc.iverson_model(), path)
    return str(path)


@pytest.fixture
def cov_file(tmp_path):
    path = tmp_path / "cov.json"
    mom = sc.iverson_moments()
    path.write_text(json.dumps({
        "variables": list(mom.variables),
        "matrix": mom.covariance.tolist(),
        "means": mom.mean.tolist(),
        "n": mom.n_obs,
    }))
    return str(path)


@pytest.fixture
def unstable_model_file(tmp_path):
    """A two-cycle whose feedback block has spectral radius sqrt(1.2) > 1."""
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({
        "variables": ["Y", "X"],
        "edges": [
            {"from": "X", "to": "Y", "coeff": 1.5},
            {"from": "Y", "to": "X", "coeff": 0.8},
        ],
    }))
    return str(path)


#: For tests on ``/dev/full``, a device on which every write fails with ENOSPC.
needs_full_device = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


def full_device_link(tmp_path):
    """A link to ``/dev/full`` in ``tmp_path``, so that a sidecar beside it can be made."""
    link = tmp_path / "link"
    link.symlink_to("/dev/full")
    return link


def cli_process(argv, **kwargs):
    """A ``semcontrol`` process running ``argv`` from this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(sc.__file__).parent.parent)}
    return subprocess.Popen([sys.executable, "-c", "from semcontrol.cli import main; main()",
                             *argv], env=env, text=True, **kwargs)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def run_json(capsys, argv):
    """Exit code and JSON report of a command; a NaN or Infinity token fails the parse."""
    code = run_command([*argv, "--format", "json"])
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    return code, payload


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run_command(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_command(["validate"]) == 1

    def test_valid_model_exits_zero(self, model_file, capsys):
        assert run_command(["validate", "--model", model_file]) == 0

    def test_invalid_model_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "variables": ["A", "B"],
            "edges": [{"from": "A", "to": "B", "coeff": 0.0}],
        }))
        code, payload = run_json(capsys, ["validate", "--model", str(bad)])
        assert code == 2
        assert not payload["results"]["valid"]
        assert any("zero coefficient" in v for v in payload["results"]["violations"])

    @pytest.mark.parametrize("argv", [
        ["validate", "--model", "{model}"],
        ["stability", "--model", "{model}"],
        ["effects", "--model", "{model}", "--treatment", "X", "--response", "Y"],
        ["plan-eval", "--model", "{model}", "--treatment", "X", "--response", "Y"],
        ["plan-optimize", "--model", "{model}", "--treatment", "X", "--response", "Y",
         "--W", "Z1"],
        ["estimate", "--cov", "{cov}", "--treatment", "X", "--response", "Y",
         "--instruments", "Z3"],
        ["simulate", "--model", "{model}", "--out", "{out}"],
        ["reproduce-iverson"],
    ])
    def test_tolerance_flag_is_usage_error(self, model_file, cov_file, tmp_path, capsys, argv):
        paths = {"model": model_file, "cov": cov_file, "out": str(tmp_path / "out.csv")}
        code = run_command([arg.format(**paths) for arg in argv] + ["--tol", "0.5"])
        assert code == 1
        assert "unrecognized arguments: --tol 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["plan-eval", "--model", "{model}", "--treatment", "X", "--response", "Y",
          "--a", "abc"], "--a expects a comma-separated list of numbers"),
        (["plan-eval", "--model", "{model}", "--response", "Y"],
         "plan-eval requires --treatment"),
        (["estimate", "--cov", "{cov}", "--treatment", "X", "--response", "Y",
          "--instruments", ","], "--instruments expects at least one variable name"),
        (["plan-eval", "--model", "{model}", "--treatment", "X", "--response", "Y",
          "--W", "Z1,Z1", "--b", "1,1"], "--W names Z1 more than once"),
        (["plan-eval", "--model", "{model}", "--treatment", "X", "--response", "Y",
          "--F", "Y, Y", "--a", "1,1"], "--F names Y more than once"),
        (["estimate", "--cov", "{cov}", "--treatment", "X", "--response", "Y",
          "--instruments", "Z1,Z3,Z3"], "--instruments names Z3 more than once"),
        (["simulate", "--model", "{model}", "--out", ""], "--out expects a file name"),
        (["plan-optimize", "--model", "{model}", "--treatment", "X", "--response", "Y",
          "--W", ""], "--W expects at least one variable name"),
        (["plan-optimize", "--model", "{model}", "--treatment", "X", "--response", "Y",
          "--W", " , "], "--W expects at least one variable name"),
        # an empty path names no file, and is refused before any file is read
        (["plan-eval", "--model", "/nonexistent/model.json", "--treatment", "X",
          "--response", "Y", "--plan", ""], "--plan expects a file name"),
        (["plan-eval", "--model", "{model}", "--treatment", "X", "--response", "Y",
          "--data", ""], "--data expects a file name"),
        (["plan-eval", "--model", "{model}", "--treatment", "X", "--response", "Y",
          "--cov", ""], "--cov expects a file name"),
        (["stability", "--model", "{model}", "--out", ""], "--out expects a file name"),
        (["validate", "--model", ""], "--model expects a file name"),
        (["estimate", "--cov", ""], "--cov expects a file name"),
    ], ids=["unparsable-gain", "missing-treatment", "no-instrument", "repeated-covariate",
            "repeated-control", "repeated-instrument", "empty-out", "empty-covariates",
            "blank-covariates", "empty-plan", "empty-data", "empty-cov", "empty-report-out",
            "empty-model", "empty-estimate-cov"])
    def test_usage_error_is_named(self, model_file, cov_file, capsys, argv, message):
        code = run_command([arg.format(model=model_file, cov=cov_file) for arg in argv])
        assert (code, capsys.readouterr().err) == (1, f"usage error: {message}\n")

    def test_missing_file_exits_two(self, capsys):
        assert run_command(["validate", "--model", "/nonexistent/model.json"]) == 2

    def test_unknown_vertex_exits_two(self, model_file, capsys):
        code = run_command([
            "stability", "--model", model_file, "--treatment", "NOPE", "--response", "Y",
        ])
        assert code == 2
        assert "unknown vertex" in capsys.readouterr().err

    def test_unstable_plan_exit_and_diagnostic(self, model_file, capsys):
        code = run_command([
            "plan-eval", "--model", model_file,
            "--treatment", "X", "--response", "Y", "--a", "20.34",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "|a'g_fx| < 1" in captured.err


class TestStability:
    def test_block_radii_reported(self, model_file, capsys):
        code, payload = run_json(capsys, [
            "stability", "--model", model_file, "--treatment", "X", "--response", "Y",
        ])
        assert code == 0
        results = payload["results"]
        assert results["stable"] is True
        assert results["spectral_radius_nondescendant_block"] == pytest.approx(0.0)
        expected = np.sqrt(0.04918032786885246 * 0.3009773790013678)
        assert results["spectral_radius_feedback_block"] == pytest.approx(expected, rel=1e-9)

    def test_whole_matrix_radius_without_partition(self, model_file, capsys):
        code, payload = run_json(capsys, ["stability", "--model", model_file])
        assert code == 0
        assert "spectral_radius" in payload["results"]

    @pytest.mark.parametrize("gap, stable", [(1e-10, False), (1e-8, True)])
    def test_every_model_gate_agrees_at_the_tolerance_band(self, tmp_path, capsys, gap, stable):
        # the two-cycle's eigenvalues are +-rho, straddling 1 - STABILITY_TOL
        rho = 1.0 - gap
        model = sc.StructuralModel.from_edges(
            [("X", "Y", rho), ("Y", "X", rho)], variables=["Y", "X"]
        )
        path = tmp_path / "model.json"
        sc.save_model(model, path)
        part = ["--treatment", "X", "--response", "Y"]
        for argv in (["stability"], ["stability", *part], ["effects", *part],
                     ["plan-eval", *part]):
            assert run_command([*argv, "--model", str(path)]) == (0 if stable else 2), argv
        config = sc.SimulationConfig(10)
        if stable:
            sc.implied_moments(model)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sc.draw_equilibrium(model, config)
        else:
            with pytest.raises(sc.UnstableModel):
                sc.implied_moments(model)
            with pytest.warns(sc.UnstableModelWarning):
                sc.draw_equilibrium(model, config)

    def test_unstable_model_exits_two(self, unstable_model_file, capsys):
        code, payload = run_json(capsys, [
            "stability", "--model", unstable_model_file, "--treatment", "X", "--response", "Y",
        ])
        assert code == 2
        assert payload["results"]["stable"] is False


class TestPlanCommands:
    def test_plan_eval_matches_library(self, model_file, capsys):
        code, payload = run_json(capsys, [
            "plan-eval", "--model", model_file,
            "--treatment", "X", "--response", "Y", "--x", "1",
        ])
        assert code == 0
        model = sc.iverson_model()
        part = sc.partition_vertices(model, "X", "Y")
        mom = sc.implied_moments(model)
        eff = sc.total_effects(model, part)
        blocks = sc.RegressionBlocks.from_moments(mom, part)
        effect = sc.plan_variance(mom, eff, blocks, sc.ControlPlan(1.0, [0.0], []))
        assert payload["results"]["mean_y"] == effect.response_mean
        assert payload["results"]["var_y"] == effect.response_variance

    def test_plan_file_round_trip(self, model_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "x": 2.0, "a": {"Y": -5.0}, "b": {}, "sigma_eps_star": 0.25,
        }))
        code, payload = run_json(capsys, [
            "plan-eval", "--model", model_file, "--plan", str(plan_path),
            "--treatment", "X", "--response", "Y",
        ])
        assert code == 0
        assert payload["results"]["feedback"]["Y"] == -5.0
        assert payload["results"]["noise_variance"] == 0.25
        assert payload["results"]["nonrecursive"] is True
        assert payload["results"]["perfect"] is False

    @pytest.mark.parametrize("plan, flags", [
        ({"x": 2.0, "a": {"Y": -5.0}, "b": {}, "sigma_eps_star": 0.25},
         ["--x", "2", "--a", "-5", "--sigma-eps", "0.25"]),
        ({"x": 1.0, "a": {"Y": -5.0}, "b": "optimal"},
         ["--x", "1", "--a", "-5", "--b", "optimal"]),
        ({"b": {"Z1": 0.5}}, ["--b", "0.5"]),
    ])
    def test_plan_file_equals_flags(self, model_file, cov_file, tmp_path, capsys, plan, flags):
        base = ["plan-eval", "--model", model_file, "--cov", cov_file,
                "--treatment", "X", "--response", "Y", "--W", "Z1"]
        plan_path = write_json(tmp_path / "plan.json", plan)
        code, via_file = run_json(capsys, [*base, "--plan", plan_path])
        assert code == 0
        code, via_flags = run_json(capsys, [*base, *flags])
        assert code == 0
        assert via_file["results"] == via_flags["results"]
        assert via_file["inputs"]["plan"] == plan_path
        results = via_file["results"]
        gamma = 0.003 / 0.061  # Iverson total effect of X on Y
        assert results["stability_margin"] == pytest.approx(
            1.0 - abs(plan.get("a", {}).get("Y", 0.0) * gamma), abs=1e-12)
        assert ("optimal_gain_residual_max" in results) is (plan.get("b") == "optimal")

    @pytest.mark.parametrize("margin, warned", [(0.09, True), (0.11, False)])
    def test_small_stability_margin_warns(self, model_file, capsys, margin, warned):
        gamma = 0.003 / 0.061
        code, payload = run_json(capsys, [
            "plan-eval", "--model", model_file, "--treatment", "X", "--response", "Y",
            "--a", repr((1.0 - margin) / gamma),
        ])
        assert code == 0
        assert payload["results"]["stability_margin"] == pytest.approx(margin, abs=1e-9)
        assert any("stability margin" in w for w in payload["warnings"]) is warned

    @pytest.mark.parametrize("command, flags, message", [
        ("plan-eval", ["--a", "1,2"], "--a supplies 2 gains for 1 controls"),
        ("plan-eval", ["--W", "Z1", "--b", "1,2"], "--b supplies 2 gains for 1 covariates"),
        ("plan-optimize", ["--W", "Z1", "--a", "1,2"], "--a supplies 2 gains for 1 controls"),
        ("simulate", ["--a", "1,2"], "--a supplies 2 gains for 1 controls"),
        ("simulate", ["--W", "Z1", "--b", "1,2"], "--b supplies 2 gains for 1 covariates"),
    ])
    def test_wrong_gain_count_is_usage_error(
        self, model_file, tmp_path, capsys, command, flags, message
    ):
        code = run_command([
            command, "--model", model_file, "--treatment", "X", "--response", "Y",
            *flags, "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("command", ["plan-eval", "simulate"])
    @pytest.mark.parametrize("plan, message", [
        ({"a": {"Z1": 1.0}}, "plan feedback names non-controls: ['Z1']"),
        ({"b": {"Y": 1.0}}, "plan gains name non-covariates: ['Y']"),
    ])
    def test_plan_file_naming_wrong_roles_exits_two(
        self, model_file, tmp_path, capsys, command, plan, message
    ):
        code = run_command([
            command, "--model", model_file, "--treatment", "X", "--response", "Y",
            "--W", "Z1", "--plan", write_json(tmp_path / "plan.json", plan),
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["plan-eval", "simulate"])
    @pytest.mark.parametrize("flags, named", [
        (["--x", "99"], "--x"),
        (["--a", "7"], "--a"),
        (["--b", "optimal"], "--b"),
        (["--sigma-eps", "0"], "--sigma-eps"),
        (["--x", "99", "--a", "7"], "--x, --a"),
    ])
    def test_plan_file_with_plan_flags_is_usage_error(
        self, model_file, tmp_path, capsys, command, flags, named
    ):
        out = tmp_path / "out.csv"
        code = run_command([
            command, "--model", model_file, "--treatment", "X", "--response", "Y",
            "--W", "Z1", "--plan", write_json(tmp_path / "plan.json", {"x": 2.0}),
            *flags, "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: --plan cannot be combined with {named}\n"
        assert not out.exists()

    def test_optimize_reports_gain_mean_and_variance(self, model_file, cov_file, capsys):
        code, payload = run_json(capsys, [
            "plan-optimize", "--model", model_file, "--cov", cov_file,
            "--treatment", "X", "--response", "Y", "--W", "Z1", "--a", "0",
        ])
        assert code == 0
        results = payload["results"]
        assert results["b_star"]["Z1"] == pytest.approx(1.4333333333333333, abs=1e-12)
        assert "mean_y" in results and "var_y" in results
        assert results["residual_max"] < 1e-12

    def test_optimal_flag_equals_optimize_then_eval(self, model_file, capsys):
        # pipeline consistency: --b optimal == plan-optimize followed by --b b*
        base = [
            "--model", model_file,
            "--treatment", "X", "--response", "Y", "--W", "Z1", "--x", "1",
        ]
        code, via_flag = run_json(capsys, ["plan-eval", *base, "--b", "optimal"])
        assert code == 0
        code, optimized = run_json(capsys, ["plan-optimize", *base, "--a", "0"])
        assert code == 0
        b_star = optimized["results"]["b_star"]["Z1"]
        code, via_value = run_json(capsys, ["plan-eval", *base, "--b", repr(b_star)])
        assert code == 0
        for key in ("mean_y", "var_y"):
            assert abs(via_flag["results"][key] - via_value["results"][key]) < 1e-12


    def test_plan_commands_share_one_residual_warning(self, tmp_path, capsys):
        # two controls with one covariate: g b' = g B_xw - B_fw has no exact solution
        edges = [("Z", "X", 0.5), ("X", "Y", 1.0), ("X", "V", 0.5), ("Y", "V", 0.3),
                 ("Z", "Y", 0.4), ("Z", "V", 0.7)]
        path = write_json(tmp_path / "two_controls.json", {
            "variables": ["Y", "V", "X", "Z"],
            "edges": [{"from": s, "to": t, "coeff": c} for s, t, c in edges],
        })
        base = ["--model", path, "--treatment", "X", "--response", "Y", "--F", "Y,V", "--W", "Z"]
        code, evaluated = run_json(capsys, ["plan-eval", *base, "--b", "optimal"])
        assert code == 0
        code, optimized = run_json(capsys, ["plan-optimize", *base])
        assert code == 0
        worst = evaluated["results"]["optimal_gain_residual_max"]
        assert worst == optimized["results"]["residual_max"] == pytest.approx(0.3049, abs=5e-5)
        assert evaluated["warnings"] == optimized["warnings"] == [
            "optimal covariate gains do not solve the zero-covariance equation exactly "
            "(max residual 0.3049); they are its least-squares solution"
        ]

    def test_each_command_keeps_its_own_plan_gate(self, tmp_path, capsys):
        # a stable model (feedback block radius 0.9) on which a = 2 passes |a'g| < 1
        # while the post-plan coefficient matrix has spectral radius 1.36
        edges = [("X", "Y", 1.0), ("Y", "V", 0.9), ("V", "Y", -0.9), ("X", "V", 0.5)]
        path = write_json(tmp_path / "loop.json", {
            "variables": ["Y", "V", "X"],
            "edges": [{"from": s, "to": t, "coeff": c} for s, t, c in edges],
        })
        plan = ["--model", path, "--treatment", "X", "--response", "Y", "--x", "1", "--a", "2"]
        code, payload = run_json(capsys, ["plan-eval", *plan])
        assert code == 0
        assert payload["results"]["stability_margin"] == pytest.approx(0.3923, abs=5e-5)
        out = tmp_path / "post.csv"
        assert run_command(["simulate", *plan, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: post-plan spectral radius 1.36067 is not below 1; "
            "the controlled equilibrium is not reachable\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_overflowing_result_exits_two_naming_its_key(self, model_file, capsys, fmt):
        code = run_command(["plan-eval", "--model", model_file, "--treatment", "X",
                            "--response", "Y", "--a", "20", "--sigma-eps", "1e308",
                            "--format", fmt])
        assert (code, capsys.readouterr()) == (2, ("", "error: result 'var_y' is not finite\n"))


class TestEstimate:
    def test_from_covariance_file(self, cov_file, capsys):
        code, payload = run_json(capsys, [
            "estimate", "--cov", cov_file,
            "--treatment", "X", "--response", "Y", "--instruments", "Z3",
        ])
        assert code == 0
        assert payload["results"]["gamma_hat"] == pytest.approx(0.003 / 0.061, abs=1e-15)
        assert payload["results"]["method"] == "iv"
        assert payload["results"]["n"] == 213

    def test_from_csv_data(self, tmp_path, capsys):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 0.5), ("Y", "X", 0.3), ("Z", "X", 0.8)],
            variables=["Y", "X", "Z"],
        )
        data = sc.draw_equilibrium(model, sc.SimulationConfig(50_000, seed=12))
        csv_path = tmp_path / "obs.csv"
        data.to_csv(csv_path)
        code, payload = run_json(capsys, [
            "estimate", "--data", str(csv_path),
            "--treatment", "X", "--response", "Y", "--instruments", "Z",
        ])
        assert code == 0
        assert payload["results"]["gamma_hat"] == pytest.approx(0.5, abs=0.05)

    def test_two_instruments_use_tsls(self, cov_file, capsys):
        code, payload = run_json(capsys, [
            "estimate", "--cov", cov_file,
            "--treatment", "X", "--response", "Y", "--instruments", "Z3,Z1",
        ])
        assert code == 0
        assert payload["results"]["method"] == "tsls"

    @pytest.mark.parametrize("flag", ["--cov", "--data"])
    def test_zero_variance_instrument_is_weak(self, tmp_path, capsys, flag):
        if flag == "--cov":
            path = write_json(tmp_path / "cov.json", {
                "variables": ["Y", "X", "Z"],
                "matrix": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]],
            })
        else:
            path = tmp_path / "obs.csv"
            path.write_text("Y,X,Z\n1.0,2.0,3.0\n0.5,1.0,3.0\n2.0,0.0,3.0\n")
        code = run_command([
            "estimate", flag, str(path),
            "--treatment", "X", "--response", "Y", "--instruments", "Z",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: X or Z has zero variance\n"

    @pytest.mark.parametrize("flag", ["--cov", "--data"])
    def test_zero_variance_treatment_with_two_instruments_is_weak(self, tmp_path, capsys, flag):
        if flag == "--cov":
            path = write_json(tmp_path / "cov.json", {
                "variables": ["X", "Y", "Z1", "Z2"],
                "matrix": [[0, 0, 0, 0], [0, 1, 0.2, 0.1], [0, 0.2, 1, 0.3], [0, 0.1, 0.3, 1]],
            })
        else:
            path = tmp_path / "obs.csv"
            path.write_text("X,Y,Z1,Z2\n1,0.5,1,2\n1,2,0,1\n1,1,3,0\n1,0,2,2\n")
        code = run_command(["estimate", flag, str(path), "--treatment", "X",
                            "--response", "Y", "--instruments", "Z1,Z2"])
        assert (code, capsys.readouterr().err) == (2, "error: X has zero variance\n")

    @pytest.mark.parametrize("roles, message", [
        (["--response", "X", "--instruments", "Z3"],
         "treatment and response must be distinct vertices"),
        (["--response", "Y", "--instruments", "X"], "instrument 'X' is also the treatment"),
        (["--response", "Y", "--instruments", "Z3,Y"], "instrument 'Y' is also the response"),
    ])
    def test_variable_in_two_roles_exits_two(self, cov_file, capsys, roles, message):
        code = run_command(["estimate", "--cov", cov_file, "--treatment", "X", *roles])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")

    def test_requires_a_moment_source(self, capsys):
        assert run_command([
            "estimate", "--treatment", "X", "--response", "Y", "--instruments", "Z3",
        ]) == 1


class TestSimulateCommand:
    @pytest.mark.parametrize("case, n, message", [
        ("no-variables", "3", "model has no variables to draw"),
        ("one-row", "1", "simulate needs --n of at least 2, got 1"),
        ("no-rows", "0", "simulate needs --n of at least 2, got 0"),
        # 10^14 rows of 5 doubles: no buffer that size can be mapped; past 2^63 bytes, or
        # rows, mmap cannot take the size at all, and the refusal is the same
        ("unallocatable", "100000000000000", "Unable to map 4000000000000000 bytes for the rows"),
        ("bytes-past-int64", "1000000000000000000",
         "Unable to map 40000000000000000000 bytes for the rows"),
        ("rows-past-int64", "10000000000000000000",
         "Unable to map 400000000000000000000 bytes for the rows"),
    ])
    def test_refused_draw_writes_nothing(self, model_file, tmp_path, capsys, case, n, message):
        if case == "no-variables":
            model_file = write_json(tmp_path / "empty.json", {"variables": [], "edges": []})
        out = tmp_path / "draws.csv"
        code = run_command(["simulate", "--model", model_file, "--n", n, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert list(tmp_path.glob("draws.csv*")) == []

    def test_writes_dataset_and_sidecar(self, model_file, tmp_path, capsys):
        out = tmp_path / "draws.csv"
        code, payload = run_json(capsys, [
            "simulate", "--model", model_file, "--n", "200", "--seed", "9",
            "--out", str(out),
        ])
        assert code == 0
        data = sc.Dataset.from_csv(out)
        assert data.n == 200
        meta = json.loads((tmp_path / "draws.csv.meta.json").read_text())
        assert meta["seed"] == 9
        assert meta["rng"] == sc.RNG_ALGORITHM
        assert meta["model_hash"] == payload["inputs"]["model_hash"]

    def test_deterministic_given_seed(self, model_file, tmp_path, capsys):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_command([
                "simulate", "--model", model_file, "--n", "100", "--seed", "3",
                "--out", str(out),
            ])
            outputs.append(out.read_text())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_post_plan_regime(self, model_file, tmp_path, capsys):
        out = tmp_path / "post.csv"
        code, payload = run_json(capsys, [
            "simulate", "--model", model_file, "--n", "500", "--seed", "2",
            "--treatment", "X", "--response", "Y", "--x", "3", "--out", str(out),
        ])
        assert code == 0
        assert payload["results"]["regime"] == "post-plan"
        data = sc.Dataset.from_csv(out)
        assert np.allclose(data.column("X"), 3.0)

    @pytest.mark.parametrize("plan_flags", [["--x", "1"], ["--plan", "plan.json"]])
    def test_plan_branch_applies_model_stability_gate(
        self, unstable_model_file, tmp_path, capsys, plan_flags
    ):
        write_json(tmp_path / "plan.json", {"x": 1.0})
        cov = write_json(tmp_path / "cov.json", {
            "variables": ["Y", "X"], "matrix": [[1.0, 0.0], [0.0, 1.0]],
        })
        plan_flags = [str(tmp_path / f) if f.endswith(".json") else f for f in plan_flags]
        code = run_command([
            "simulate", "--model", unstable_model_file, "--cov", cov, "--n", "10",
            "--treatment", "X", "--response", "Y", *plan_flags,
            "--out", str(tmp_path / "post.csv"),
        ])
        assert code == 2
        assert "model is not stable" in capsys.readouterr().err
        assert not (tmp_path / "post.csv").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--x", "99"], "--x"),
        (["--a", "7", "--b", "optimal", "--sigma-eps", "0"], "--a, --b, --sigma-eps"),
        (["--response", "Y"], "--response"),
        (["--F", "Y", "--W", "Z1"], "--F, --W"),
        (["--cov", "cov.json"], "--cov"),
        (["--data", "obs.csv"], "--data"),
    ], ids=["set-point", "gains", "response", "blocks", "cov", "data"])
    def test_observational_run_rejects_flags_it_would_ignore(
        self, model_file, tmp_path, capsys, flags, named
    ):
        out = tmp_path / "draws.csv"
        code = run_command(["simulate", "--model", model_file, *flags, "--n", "10",
                            "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: simulate without --plan or --treatment draws observational "
            f"data and cannot take {named}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("plan", [["--x", "1"], ["--plan", {"x": 1.0, "b": {"Z1": 0.5}}]],
                             ids=["flags", "file"])
    @pytest.mark.parametrize("flag", ["--cov", "--data"])
    def test_fixed_gain_plan_rejects_moment_flags(self, model_file, tmp_path, capsys, plan, flag):
        if plan[0] == "--plan":
            plan = ["--plan", write_json(tmp_path / "plan.json", plan[1])]
        out = tmp_path / "post.csv"
        code = run_command(["simulate", "--model", model_file, "--treatment", "X",
                            "--response", "Y", "--W", "Z1", *plan, flag, "unread.json",
                            "--n", "10", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: simulate with fixed covariate gains reads no moments "
            f"and cannot take {flag}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("plan", [["--b", "optimal"], ["--plan", {"b": "optimal"}]],
                             ids=["flags", "file"])
    def test_optimal_gain_plan_reads_moment_flags(self, model_file, cov_file, tmp_path, capsys,
                                                  plan):
        if plan[0] == "--plan":
            plan = ["--plan", write_json(tmp_path / "plan.json", plan[1])]
        argv = ["simulate", "--model", model_file, "--treatment", "X", "--response", "Y",
                "--W", "Z1", *plan, "--n", "10", "--out", str(tmp_path / "post.csv")]
        assert run_command([*argv, "--cov", cov_file]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_command([*argv, "--cov", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {bad}")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_unstable_model_warning_goes_into_the_report(
        self, unstable_model_file, tmp_path, capsys, fmt
    ):
        code = run_command(["simulate", "--model", unstable_model_file, "--n", "10",
                            "--out", str(tmp_path / "draws.csv"), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        message = ("model is not stable: equilibrium draws exist but are not reachable "
                   "by iteration from any starting point")
        if fmt == "json":
            assert json.loads(captured.out)["warnings"] == [message]
        else:
            assert captured.out.endswith(f"\nwarnings:\n  - {message}\n")


@pytest.fixture
def band_model_file(tmp_path):
    """The two-cycle X <-> Y with eigenvalues +-(1 - 1e-8): stable, but too close to 1
    for the certificate, so every gate falls back to the eigen-solve."""
    path = tmp_path / "band.json"
    sc.save_model(sc.StructuralModel.from_edges(
        [("X", "Y", 1.0 - 1e-8), ("Y", "X", 1.0 - 1e-8)], variables=["Y", "X"]), path)
    return str(path)


#: (model file fixture, the flags naming its covariates, ``check_stability`` calls of a
#: gate-only command): the certificate covers the Iverson model, and not the
#: tolerance-band two-cycle; a gate calls ``check_stability`` only to word a refusal.
_GATE_MODELS = {"certified": ("model_file", ["--W", "Z1"], 0),
                "eigen-gate": ("band_model_file", [], 0)}


class TestComputeOnce:
    """Each command computes a quantity at most once, and only the ones it reads."""

    @staticmethod
    def count(monkeypatch, target, *names) -> dict:
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _fn=getattr(target, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(target, name, counted)
        return calls

    @pytest.mark.parametrize("kind", _GATE_MODELS)
    def test_plan_eval_with_optimal_gains(self, request, monkeypatch, capsys, kind):
        fixture, covariates, checks = _GATE_MODELS[kind]
        calls = self.count(monkeypatch, cli, "check_stability", "total_effects", "optimal_b",
                           "implied_moments")
        assert run_command(["plan-eval", "--model", request.getfixturevalue(fixture),
                            "--treatment", "X", "--response", "Y", *covariates,
                            "--a", "-1", "--b", "optimal"]) == 0
        assert calls == {"check_stability": checks, "total_effects": 1, "optimal_b": 1,
                         "implied_moments": 1}

    @pytest.mark.parametrize("kind", _GATE_MODELS)
    def test_fixed_gain_simulate_reads_no_moments(self, request, tmp_path, monkeypatch,
                                                  capsys, kind):
        fixture, _, checks = _GATE_MODELS[kind]
        calls = self.count(monkeypatch, cli, "check_stability", "implied_moments",
                           "total_effects")
        calls.update(self.count(monkeypatch, cli.RegressionBlocks, "from_moments"))
        assert run_command(["simulate", "--model", request.getfixturevalue(fixture),
                            "--treatment", "X", "--response", "Y", "--x", "1", "--n", "10",
                            "--out", str(tmp_path / "post.csv")]) == 0
        assert calls == {"check_stability": checks, "implied_moments": 0, "total_effects": 0,
                         "from_moments": 0}


class TestComponentSearch:
    """A model's strongly connected components are searched at most once per model
    object, and only where the certificate does not prove stability or a radius is
    reported; every spectral radius a command reads comes from them."""

    @pytest.mark.parametrize("kind, argv, searches", [
        ("certified", ["effects"], 0),
        ("certified", ["plan-eval", "--W", "Z1", "--a", "-1", "--b", "optimal"], 0),
        ("certified", ["stability", "--F", "Y"], 1),
        ("certified", ["simulate", "--x", "1", "--a", "-1"], 0),
        ("eigen-gate", ["effects"], 1),
        ("eigen-gate", ["plan-eval", "--a", "-1", "--b", "optimal"], 1),
        ("eigen-gate", ["stability", "--F", "Y"], 1),
        # the model, then the post-plan model
        ("eigen-gate", ["simulate", "--x", "1", "--a", "-1"], 2),
    ], ids=["effects", "plan-eval-optimal", "stability", "plan-simulate", "effects-band",
            "plan-eval-optimal-band", "stability-band", "plan-simulate-band"])
    def test_searched_once_per_model(self, request, tmp_path, monkeypatch, capsys, kind, argv,
                                     searches):
        calls = TestComputeOnce.count(monkeypatch, sc.model, "_scc_radii")
        out = ["--n", "10", "--out", str(tmp_path / "d.csv")] if argv[0] == "simulate" else []
        model = request.getfixturevalue(_GATE_MODELS[kind][0])
        assert run_command([*argv, "--model", model, "--treatment", "X",
                            "--response", "Y", *out]) == 0
        assert calls == {"_scc_radii": searches}

    @pytest.mark.parametrize("kind, argv, searches", [
        ("certified", ["stability"], 1),
        ("certified", ["simulate", "--n", "10"], 0),
        ("eigen-gate", ["stability"], 1),
        ("eigen-gate", ["simulate", "--n", "10"], 1),
    ], ids=["stability", "observational-simulate", "stability-band",
            "observational-simulate-band"])
    def test_partition_free_commands_search_once(self, request, tmp_path, monkeypatch,
                                                 capsys, kind, argv, searches):
        calls = TestComputeOnce.count(monkeypatch, sc.model, "_scc_radii")
        out = ["--out", str(tmp_path / "d.csv")] if argv[0] == "simulate" else []
        model = request.getfixturevalue(_GATE_MODELS[kind][0])
        assert run_command([*argv, "--model", model, *out]) == 0
        assert calls == {"_scc_radii": searches}


@pytest.fixture(scope="module")
def large_model_file(tmp_path_factory):
    """A dense n=256 model of spectral radius 0.5 with two strongly connected components:
    64 upstream variables U0.. (the covariates' block) feeding 192 others, X and Y among them."""
    rng = np.random.default_rng(13)
    up, n = 64, 256
    mask = rng.random((n, n)) < 0.3
    mask[:up, up:] = False  # nothing downstream feeds the upstream block
    np.fill_diagonal(mask, False)
    coeff = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    coeff *= 0.5 / sc.spectral_radius(coeff)
    names = [f"U{i}" for i in range(up)] + ["X", "Y"] + [f"D{i}" for i in range(n - up - 2)]
    rows, cols = np.nonzero(coeff)
    model = sc.StructuralModel.from_edges(
        [(names[j], names[i], coeff[i, j]) for i, j in zip(rows, cols)], variables=names)
    path = tmp_path_factory.mktemp("large") / "large.json"
    sc.save_model(model, path)
    return str(path)


class TestLargeCertifiedModel:
    """On a large stable model the gate-only commands prove stability without an
    eigen-solve; a command that reports radii solves each nontrivial component once."""

    @pytest.mark.parametrize("argv, solves", [
        (["effects"], 0),
        (["plan-eval", "--W", "U0,U1", "--a", "-0.5", "--b", "optimal"], 0),
        (["plan-optimize", "--W", "U0,U1"], 0),
        (["simulate", "--n", "10"], 0),
        (["stability"], 2),
    ], ids=["effects", "plan-eval-optimal", "plan-optimize", "observational-simulate",
            "stability"])
    def test_eigen_solves(self, large_model_file, tmp_path, monkeypatch, capsys, argv, solves):
        calls = TestComputeOnce.count(monkeypatch, np.linalg, "eigvals")
        if argv[0] == "simulate":
            argv = [*argv, "--out", str(tmp_path / "d.csv")]
        else:
            argv = [*argv, "--treatment", "X", "--response", "Y"]
        assert run_command([*argv, "--model", large_model_file]) == 0
        assert calls == {"eigvals": solves}

    def test_stability_runs_no_certificate(self, large_model_file, monkeypatch, capsys):
        """``stability`` searches the components before it reads ``stable``, so it never
        pays for the certificate; ``effects`` still proves stability with no eigen-solve."""
        proofs = []
        certificate = sc.StructuralModel.certified_stable.func
        monkeypatch.setattr(sc.StructuralModel, "certified_stable",
                            property(lambda self: proofs.append(1) or certificate(self)))
        argv = ["--model", large_model_file, "--treatment", "X", "--response", "Y"]
        assert run_command(["stability", *argv]) == 0
        assert proofs == []
        calls = TestComputeOnce.count(monkeypatch, np.linalg, "eigvals")
        assert run_command(["effects", *argv]) == 0
        assert calls == {"eigvals": 0} and proofs

    @pytest.mark.parametrize("partition", [[], ["--treatment", "X", "--response", "Y"]],
                             ids=["whole-matrix", "blocks"])
    def test_stability_refusal_runs_no_certificate(self, unstable_model_file, monkeypatch,
                                                    capsys, partition):
        """``stability`` decides from the radius it reports, so an unstable model is refused
        without the certificate; a gated command on the same model still runs it once."""
        proofs = []
        certificate = sc.StructuralModel.certified_stable.func
        monkeypatch.setattr(sc.StructuralModel, "certified_stable",
                            property(lambda self: proofs.append(1) or certificate(self)))
        assert run_command(["stability", "--model", unstable_model_file, *partition]) == 2
        assert proofs == []
        assert run_command(["effects", "--model", unstable_model_file,
                            "--treatment", "X", "--response", "Y"]) == 2
        assert proofs == [1]


class TestReports:
    def test_json_report_round_trips(self, model_file, capsys):
        code, payload = run_json(capsys, ["stability", "--model", model_file])
        assert json.loads(json.dumps(payload)) == payload

    def test_json_carries_full_precision(self, cov_file, capsys):
        _, payload = run_json(capsys, [
            "estimate", "--cov", cov_file,
            "--treatment", "X", "--response", "Y", "--instruments", "Z3",
        ])
        assert payload["results"]["gamma_hat"] == 0.003 / 0.061

    def test_text_report_uses_four_significant_digits(self, cov_file, capsys):
        code = run_command([
            "estimate", "--cov", cov_file,
            "--treatment", "X", "--response", "Y", "--instruments", "Z3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma_hat: 0.04918" in out

    def test_out_writes_json_file(self, model_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_command([
            "stability", "--model", model_file, "--out", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["command"] == "stability"

    @pytest.mark.parametrize("target", ["missing-directory", "directory",
                                        pytest.param("full-device", marks=needs_full_device)])
    def test_unwritable_report_exits_two_naming_it(self, model_file, tmp_path, capsys, target):
        out = (tmp_path / "missing" / "r.json" if target == "missing-directory"
               else full_device_link(tmp_path) if target == "full-device" else tmp_path)
        code = run_command(["effects", "--model", model_file, "--treatment", "X",
                            "--response", "Y", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: [Errno ") and err.endswith(f": '{out}'\n")
        assert err.count("\n") == 1

    def test_report_replaces_a_file_whole(self, model_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        out.write_text("old\n" * 1000)
        assert run_command(["stability", "--model", model_file, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == "stability"
        fresh = tmp_path / "fresh"
        fresh.write_text("")  # the mode that a new file gets
        assert out.stat().st_mode == fresh.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "model.json",
                                                              "report.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_report_into_a_named_pipe_is_written_in_place(self, model_file, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so that the writer's open returns
        try:
            assert run_command(["stability", "--model", model_file, "--out", str(fifo)]) == 0
            assert json.loads(os.read(reader, 1 << 16))["command"] == "stability"
        finally:
            os.close(reader)
        assert fifo.is_fifo()

    @pytest.mark.parametrize("blocked", ["draws.csv", "draws.csv.meta.json"])
    def test_simulate_writes_both_files_or_neither(self, model_file, tmp_path, capsys, blocked):
        out = tmp_path / "draws.csv"
        other = ({out, tmp_path / "draws.csv.meta.json"} - {tmp_path / blocked}).pop()
        (tmp_path / blocked).mkdir()
        other.write_text("old\n")
        code = run_command(["simulate", "--model", model_file, "--n", "50", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path / blocked}'\n")
        assert other.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["model.json", "draws.csv", "draws.csv.meta.json"])

    @needs_full_device
    def test_simulate_into_a_full_device_names_it(self, model_file, tmp_path, capsys):
        link = full_device_link(tmp_path)
        code = run_command(["simulate", "--model", model_file, "--n", "301", "--out", str(link)])
        assert (code, capsys.readouterr().err) == (
            2, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{link}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "model.json"]

    @pytest.mark.parametrize("stdout", ["closed-pipe",
                                        pytest.param("full-device", marks=needs_full_device)])
    def test_closed_stdout_pipe_exits_two_without_a_traceback(self, model_file, tmp_path,
                                                              stdout):
        full = stdout == "full-device"
        argv = ["validate", "--model", model_file] if full else ["reproduce-iverson"]
        with open(full_device_link(tmp_path) if full else os.devnull, "w") as device, \
                cli_process(argv, stdout=device if full else subprocess.PIPE,
                            stderr=subprocess.PIPE) as proc:
            if not full:
                proc.stdout.close()  # before the report: the command takes longer to start
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 2
        fault = errno.ENOSPC if full else errno.EPIPE
        assert err == f"error: [Errno {fault}] {os.strerror(fault)}: '<stdout>'\n"

    @needs_full_device
    @pytest.mark.parametrize("argv, code", [(["validate", "--model", "/nonexistent"], 2),
                                            (["validate"], 1)])
    def test_an_error_line_that_cannot_be_printed_keeps_its_exit_code(self, argv, code):
        with open("/dev/full", "w") as full, cli_process(argv, stdout=subprocess.PIPE,
                                                         stderr=full) as proc:
            assert (proc.stdout.read(), proc.wait(timeout=120)) == ("", code)

    def test_identical_invocations_identical_reports(self, model_file, capsys):
        argv = ["effects", "--model", model_file, "--treatment", "X", "--response", "Y",
                "--format", "json"]
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        assert first == second


class TestMalformedInput:
    PART = ["--treatment", "X", "--response", "Y"]

    MODEL = {
        "variables": ["Y", "X"],
        "edges": [{"from": "X", "to": "Y", "coeff": 0.5}],
        "intercepts": {"Y": 0.0},
        "disturbance_variances": {"X": 1.0},
    }

    @pytest.mark.parametrize("field, value, named", [
        ("edges", 5, "'edges'"),
        ("edges", [{"from": "X", "to": "Y", "coeff": None}], "'coeff'"),
        ("edges", [{"from": "X", "to": "Y", "coeff": [0.5]}], "'coeff'"),
        ("edges", [{"from": 1, "to": "Y", "coeff": 0.5}], "'from'"),
        ("intercepts", {"Y": None}, "'intercepts'"),
        ("intercepts", {"Y": [1.0]}, "'intercepts'"),
        ("disturbance_variances", {"X": None}, "'disturbance_variances'"),
        ("disturbance_variances", {"X": {}}, "'disturbance_variances'"),
    ])
    def test_wrong_typed_model_value_exits_two(self, tmp_path, capsys, field, value, named):
        path = write_json(tmp_path / "model.json", {**self.MODEL, field: value})
        assert run_command(["validate", "--model", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("plan, named", [
        ({"a": {"Y": None}}, "'a'"),
        ({"b": {"Z1": None}}, "'b'"),
        ({"b": {"Z1": [1.0]}}, "'b'"),
    ])
    def test_wrong_typed_plan_gain_exits_two(self, model_file, tmp_path, capsys, plan, named):
        code = run_command([
            "plan-eval", "--model", model_file, "--treatment", "X", "--response", "Y",
            "--W", "Z1", "--plan", write_json(tmp_path / "plan.json", plan),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("payload, named", [
        ({"variables": "YX", "matrix": [[1.0]]}, "'variables'"),
        ({"variables": ["Y"], "matrix": [[None]]}, "finite"),
        ({"variables": ["Y"], "matrix": [[1.0, 2.0], [1.0]]}, "'matrix'"),
        ({"variables": ["Y"], "matrix": [[1.0]], "means": ["a"]}, "'means'"),
        ({"variables": ["Y"], "matrix": [[1.0]], "n": [3]}, "'n'"),
    ])
    def test_wrong_typed_covariance_value_exits_two(self, tmp_path, capsys, payload, named):
        code = run_command([
            "estimate", "--cov", write_json(tmp_path / "cov.json", payload),
            "--treatment", "X", "--response", "Y", "--instruments", "Z",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("command", ["plan-eval", "simulate"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_non_finite_plan_noise_exits_two(self, model_file, tmp_path, capsys, command, value,
                                             source):
        if source == "flag":
            plan, named = ["--x", "1", "--sigma-eps", value], "noise variance"
        else:  # Python's json writes NaN and Infinity, and reads them back
            path = write_json(tmp_path / "plan.json", {"x": 1.0, "sigma_eps_star": float(value)})
            plan, named = ["--plan", path], "'sigma_eps_star'"
        out = ["--out", str(tmp_path / "post.csv")] if command == "simulate" else []
        code = run_command([command, "--model", model_file, "--treatment", "X",
                            "--response", "Y", *plan, *out])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {named} must be finite and nonnegative, got {float(value)!r}\n"
        assert not (tmp_path / "post.csv").exists()

    @pytest.mark.parametrize("kind, payload, message", [
        ("model", [], "model file must contain a JSON object"),
        ("model", {"variables": ["X"], "edges": [], "w": 1}, "unknown model keys: ['w']"),
        ("model", {"variables": ["X"]}, "model file requires 'variables' and 'edges'"),
        ("model", {"variables": "X", "edges": []}, "'variables' must be a list of names"),
        ("model", {"variables": ["X"], "edges": [], "intercepts": [1]},
         "'intercepts' must be an object of name: value"),
        ("cov", [], "covariance file must contain a JSON object"),
        ("cov", {"variables": ["X"], "matrix": [[1]], "w": 1}, "unknown covariance keys: ['w']"),
        ("cov", {"variables": ["X"]}, "covariance file requires 'variables' and 'matrix'"),
        ("cov", {"variables": [1], "matrix": [[1]]}, "'variables' must be a list of names"),
        ("plan", [1], "plan file must contain a JSON object"),
        ("plan", {"y": 1}, "unknown plan keys: ['y']"),
        ("plan", {"a": [1]}, "'a' must be an object of control name: gain"),
        ("plan", {"b": "best"}, "'b' must be an object of covariate name: gain or \"optimal\""),
        pytest.param("model", b"[" * 100000, "invalid JSON in {path}: maximum recursion depth"
                     " exceeded while decoding a JSON array from a unicode string",
                     id="model-deep-nesting"),
        pytest.param("model", b'{"variables": ["X\xe9"], "edges": []}', "invalid JSON in"
                     " {path}: 'utf-8' codec can't decode byte 0xe9 in position 17: invalid"
                     " continuation byte", id="model-latin-1-byte"),
        pytest.param("plan", b"\xff", "invalid JSON in {path}: 'utf-8' codec can't decode byte"
                     " 0xff in position 0: invalid start byte", id="plan-not-utf-8"),
    ])
    def test_file_envelope_fault_is_named(self, model_file, tmp_path, capsys, kind, payload,
                                          message):
        """A JSON value of the wrong shape, or raw bytes that do not decode as JSON."""
        path = tmp_path / f"{kind}.json"
        path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        path = str(path)
        argv = {
            "model": ["validate", "--model", path],
            "cov": ["estimate", "--cov", path, *self.PART, "--instruments", "Z3"],
            "plan": ["plan-eval", "--model", model_file, *self.PART, "--plan", path],
        }[kind]
        assert run_command(argv) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    def test_byte_order_mark_is_ignored(self, model_file, tmp_path, capsys):
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(model_file).read_bytes())
        reports = []
        for path in (model_file, str(marked)):
            assert run_command(["validate", "--model", path, "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            reports.append((report["inputs"]["model_hash"], report["results"]))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["plan-eval", "simulate"])
    @pytest.mark.parametrize("plan, message", [
        (["--x", "inf"], "set point must be finite"),
        (["--a", "nan"], "plan gains must be finite"),
        (["--b", "inf"], "plan gains must be finite"),
        ('{"x": NaN}', "'x' must be finite, got nan"),
        ('{"x": 1e400}', "'x' must be finite, got inf"),
        ('{"a": {"Y": Infinity}}', "'a' gain for 'Y' must be finite, got inf"),
        ('{"b": {"Z1": -Infinity}}', "'b' gain for 'Z1' must be finite, got -inf"),
        ('{"b": {"Z1": NaN}}', "'b' gain for 'Z1' must be finite, got nan"),
    ], ids=["x-flag", "a-flag", "b-flag", "x-nan", "x-overflow", "a-inf", "b-minus-inf",
            "b-nan"])
    def test_non_finite_plan_value_exits_two(self, model_file, tmp_path, capsys, command, plan,
                                             message):
        if isinstance(plan, str):  # a plan file; Python's json reads NaN and Infinity
            path = tmp_path / "plan.json"
            path.write_text(plan)
            plan = ["--plan", str(path)]
        out = ["--out", str(tmp_path / "post.csv")] if command == "simulate" else []
        code = run_command([command, "--model", model_file, *self.PART, "--W", "Z1", *plan, *out])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
        assert not (tmp_path / "post.csv").exists()

    COV_WITH_N = ('{"variables": ["X", "Y", "Z"], "n": %s,'
                  ' "matrix": [[1, 0.5, 0.5], [0.5, 1, 0.3], [0.5, 0.3, 1]]}')

    @pytest.mark.parametrize("text", ["1e400", "-7.9", "2.5", "-7", "NaN", "true", '"12"'])
    def test_covariance_n_must_be_a_whole_number(self, tmp_path, capsys, text):
        path = tmp_path / "cov.json"
        path.write_text(self.COV_WITH_N % text)
        code = run_command(["estimate", "--cov", str(path), "--treatment", "X",
                            "--response", "Y", "--instruments", "Z"])
        value = json.loads(text)
        assert (code, capsys.readouterr().err) == (
            2, f"error: 'n' must be a nonnegative integer, got {value!r}\n")

    @pytest.mark.parametrize("field, entries", [
        ("means", '"means": [0, %s, 0], "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]'),
        ("matrix", '"matrix": [[1, 0, 0], [0, %s, 0], [0, 0, 1]]'),
    ], ids=["means", "matrix"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_covariance_entry_names_its_field(self, tmp_path, capsys, field, entries,
                                                         token):
        path = tmp_path / "cov.json"
        path.write_text('{"variables": ["X", "Y", "Z"], %s}' % (entries % token))
        code = run_command(["estimate", "--cov", str(path), "--treatment", "X",
                            "--response", "Y", "--instruments", "Z"])
        assert (code, capsys.readouterr().err) == (2, f"error: '{field}' must be finite\n")

    @pytest.mark.parametrize("text, n", [("0", 0), ("40", 40), ("40.0", 40), ("1e3", 1000)])
    def test_covariance_n_accepts_whole_numbers(self, tmp_path, capsys, text, n):
        path = tmp_path / "cov.json"
        path.write_text(self.COV_WITH_N % text)
        code, payload = run_json(capsys, ["estimate", "--cov", str(path), "--treatment", "X",
                                          "--response", "Y", "--instruments", "Z"])
        assert code == 0 and payload["results"]["n"] == n and type(payload["results"]["n"]) is int

    def test_duplicate_covariance_variables_exit_two(self, tmp_path, capsys):
        mom = sc.iverson_moments()
        cov = np.pad(mom.covariance, ((0, 1), (0, 1)))
        cov[-1, :-1] = cov[:-1, 0]
        cov[:-1, -1] = cov[0, :-1]
        cov[-1, -1] = cov[0, 0]
        path = write_json(tmp_path / "cov.json", {
            "variables": [*mom.variables, "Y"], "matrix": cov.tolist(),
        })
        code = run_command([
            "estimate", "--cov", path,
            "--treatment", "X", "--response", "Y", "--instruments", "Z1",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: duplicate variable names: ['Y']\n"

    def test_non_psd_covariance_exits_two(self, model_file, tmp_path, capsys):
        mom = sc.iverson_moments()
        cov = mom.covariance.copy()
        x, y = mom.index("X"), mom.index("Y")
        cov[x, y] = cov[y, x] = 2.0 * np.sqrt(cov[x, x] * cov[y, y])  # corr(X, Y) = 2
        path = write_json(tmp_path / "cov.json", {
            "variables": list(mom.variables), "matrix": cov.tolist(),
        })
        code = run_command([
            "plan-eval", "--model", model_file, "--cov", path,
            "--treatment", "X", "--response", "Y", "--W", "Z1", "--b", "optimal",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 'matrix' is not positive semidefinite")


class TestMomentSources:
    """A command takes its moments from --cov or --data, never both, and the
    file must hold every variable the command reads."""

    PART = ["--treatment", "X", "--response", "Y"]
    COMMANDS = {
        "plan-eval": ["plan-eval", "--model", "{model}", *PART, "--W", "Z1,Z2"],
        "plan-optimize": ["plan-optimize", "--model", "{model}", *PART, "--W", "Z1,Z2"],
        "simulate": ["simulate", "--model", "{model}", *PART, "--W", "Z1,Z2", "--b", "optimal",
                     "--n", "10", "--out", "{out}"],
        "estimate": ["estimate", *PART, "--instruments", "Z3,Z2"],
    }

    @staticmethod
    def sources(tmp_path, drop=()):
        """A covariance file and a CSV of Iverson-model draws, without the ``drop`` columns."""
        moments = sc.iverson_moments()
        keep = [v for v in moments.variables if v not in drop]
        cov = write_json(tmp_path / "cov.json", {
            "variables": keep, "matrix": moments.cov_block(keep, keep).tolist(),
            "means": moments.mean_of(keep).tolist(), "n": moments.n_obs,
        })
        draws = sc.draw_equilibrium(sc.iverson_model(), sc.SimulationConfig(50, seed=3))
        data = tmp_path / "obs.csv"
        columns = [draws.columns.index(v) for v in keep]
        sc.Dataset(keep, draws.rows[:, columns]).to_csv(data)
        return {"cov": cov, "data": str(data)}

    def argv(self, command, model_file, tmp_path, *extra):
        paths = {"model": model_file, "out": str(tmp_path / "out.csv")}
        return [arg.format(**paths) for arg in self.COMMANDS[command]] + list(extra)

    @pytest.mark.parametrize("source", ["cov", "data"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_variable_names_the_file(self, model_file, tmp_path, capsys, command,
                                             source):
        path = self.sources(tmp_path, drop=("Z2",))[source]
        assert run_command(self.argv(command, model_file, tmp_path, f"--{source}", path)) == 2
        assert capsys.readouterr().err == (
            f"error: {path} lacks variables the command reads: Z2\n")

    @pytest.mark.parametrize("source", ["cov", "data"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_complete_file_is_read(self, model_file, tmp_path, capsys, command, source):
        path = self.sources(tmp_path)[source]
        assert run_command(self.argv(command, model_file, tmp_path, f"--{source}", path)) == 0

    @pytest.mark.parametrize("command", COMMANDS)
    def test_cov_with_data_is_usage_error(self, model_file, tmp_path, capsys, command):
        paths = self.sources(tmp_path)
        argv = self.argv(command, model_file, tmp_path, "--cov", paths["cov"],
                         "--data", paths["data"])
        assert run_command(argv) == 1
        assert capsys.readouterr().err == (
            "usage error: argument --data: not allowed with argument --cov\n")


def iverson_payload():
    return model_to_dict(sc.iverson_model())


def _self_loop(payload):
    payload["edges"].append({"from": "Y", "to": "Y", "coeff": 0.2})


def _duplicate_edge(payload):
    payload["edges"].append({**payload["edges"][0], "coeff": 0.5})


def _zero_coefficient(payload):
    payload["edges"][1]["coeff"] = 0.0


def _negative_variance(payload):
    payload["disturbance_variances"]["Y"] = -1.0


class TestValidationGate:
    """Every analysis command refuses a model that ``validate`` rejects."""

    FAULTS = {
        "self-loop": (_self_loop, "self-loop at vertex Y; self-loop edge Y -> Y"),
        "duplicate-edge": (_duplicate_edge, "duplicate edge X -> Y"),
        "zero-coefficient": (_zero_coefficient, "edge Z1 -> Y has zero coefficient"),
        "negative-variance": (_negative_variance, "negative disturbance variance at Y"),
    }
    PART = ["--treatment", "X", "--response", "Y"]

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("argv", [
        ["stability"],
        ["stability", *PART],
        ["effects", *PART],
        ["plan-eval", *PART, "--a", "-5"],
        ["plan-optimize", *PART, "--W", "Z1"],
        ["simulate", "--n", "10"],
        ["simulate", "--n", "10", *PART, "--x", "1"],
    ], ids=["stability", "stability-partition", "effects", "plan-eval", "plan-optimize",
            "simulate", "simulate-plan"])
    def test_invalid_model_exits_two(self, tmp_path, capsys, fault, argv):
        corrupt, violations = self.FAULTS[fault]
        payload = iverson_payload()
        corrupt(payload)
        path = write_json(tmp_path / "model.json", payload)
        out = tmp_path / "draws.csv"
        code = run_command([*argv, "--model", path, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path} is not a valid model: {violations}\n"
        assert not out.exists()
        code, payload = run_json(capsys, ["validate", "--model", path])
        assert code == 2
        assert "; ".join(payload["results"]["violations"]) == violations

    def test_valid_model_passes_the_gate(self, model_file, tmp_path, capsys):
        for argv in (["stability"], ["effects", *self.PART], ["plan-eval", *self.PART],
                     ["plan-optimize", *self.PART, "--W", "Z1"],
                     ["simulate", "--n", "10", "--out", str(tmp_path / "draws.csv")]):
            assert run_command([*argv, "--model", model_file]) == 0, argv


class TestModelFileFaults:
    """Malformed model files: each exits with the loader's message and code."""

    @pytest.mark.parametrize("edges, message", [
        ([{"from": "X", "to": "Y", "coeff": "half"}],
         "edge X -> Y 'coeff' must be a number, got 'half'"),
        ([{"from": "X", "to": "Y", "coeff": 0.5},
          {"from": "Y", "to": "X", "coeff": 0.1, "w": 1}], "unknown edge keys: ['w']"),
        ([{"from": "X", "to": "Y"}], "edge missing key 'coeff'"),
        ([{"from": "X", "to": "Y", "coeff": 0.5},
          {"from": "Y", "to": 3, "coeff": 0.1}], "edge 'from' and 'to' must be variable names"),
        ([{"from": "X", "to": "Y", "coeff": 0.5},
          {"from": "Y", "to": "Q", "coeff": 0.1}], "edge ('Y', 'Q') references an unknown vertex"),
    ], ids=["text-coeff", "extra-key", "missing-key", "non-string-end", "unknown-vertex"])
    @pytest.mark.parametrize("command", [
        ["validate"],
        ["plan-eval", "--treatment", "X", "--response", "Y"],
    ], ids=["validate", "plan-eval"])
    def test_fault_is_named(self, tmp_path, capsys, command, edges, message):
        path = write_json(tmp_path / "model.json", {"variables": ["Y", "X"], "edges": edges})
        assert run_command([*command, "--model", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_duplicate_variable_names(self, tmp_path, capsys):
        path = write_json(tmp_path / "model.json", {"variables": ["Y", "X", "Y"], "edges": []})
        assert run_command(["validate", "--model", path]) == 2
        assert capsys.readouterr().err == "error: duplicate vertex names\n"

    @pytest.mark.parametrize("coeff", [True, 1, "0.5"], ids=["bool", "int", "numeric-string"])
    def test_coefficient_that_float_reads_is_accepted(self, tmp_path, capsys, coeff):
        path = write_json(tmp_path / "model.json", {
            "variables": ["Y", "X"], "edges": [{"from": "X", "to": "Y", "coeff": coeff}],
        })
        code, payload = run_json(capsys, ["plan-eval", "--model", path,
                                          "--treatment", "X", "--response", "Y", "--x", "2"])
        assert code == 0
        assert payload["results"]["mean_y"] == 2.0 * float(coeff)


class TestFileEncoding:
    """Every file is read and written as UTF-8, whatever the locale says."""

    ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    @staticmethod
    def python(cwd, env, *args) -> subprocess.CompletedProcess:
        """Run this interpreter on ``args`` in ``cwd``, with ``env`` over the environment."""
        env = {**os.environ, "PYTHONPATH": str(Path(sc.__file__).parent.parent), **env}
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                              timeout=120)

    def test_non_ascii_names_under_an_ascii_locale(self, tmp_path):
        # reports and error lines are UTF-8 too, in text form as in JSON
        name = "Gr\u00f6\u00dfe"
        model = json.dumps({"variables": ["Y", "X", name], "edges": [
            {"from": "X", "to": "Y", "coeff": 0.5},
            {"from": name, "to": "X", "coeff": 0.8},
        ]}, ensure_ascii=False).encode()
        self_loop = json.dumps({"variables": ["Y", "X", name], "edges": [
            {"from": name, "to": name, "coeff": 0.5},
        ]}, ensure_ascii=False).encode()
        outcomes = []
        for locale, env in (("utf-8", {"PYTHONUTF8": "1"}), ("ascii", self.ASCII_LOCALE)):
            cwd = tmp_path / locale
            cwd.mkdir()
            (cwd / "model.json").write_bytes(model)
            (cwd / "loop.json").write_bytes(self_loop)
            runs = [self.python(cwd, env, "-m", "semcontrol.cli", *argv)
                    for argv in (["validate", "--model", "model.json", "--format", "json"],
                                 ["simulate", "--model", "model.json", "--n", "20",
                                  "--out", "draws.csv", "--format", "json"],
                                 ["simulate", "--model", "model.json", "--n", "20",
                                  "--out", "text.csv"],
                                 ["effects", "--model", "loop.json", "--treatment", "X",
                                  "--response", "Y"])]
            assert [(run.returncode, run.stderr) for run in runs[:3]] == [(0, b"")] * 3
            assert runs[3].returncode == 2 and name.encode() in runs[3].stderr
            assert name.encode() in runs[2].stdout
            written = [(cwd / f).read_bytes() for f in ("draws.csv", "draws.csv.meta.json")]
            outcomes.append([(run.returncode, run.stdout, run.stderr) for run in runs] + written)
        assert outcomes[0] == outcomes[1]
        assert outcomes[1][4].startswith(f"Y,X,{name}\r\n".encode())

    def test_no_file_is_read_or_written_in_the_locale_encoding(self, tmp_path, cov_file):
        sc.save_model(sc.iverson_model(), tmp_path / "model.json")
        write_json(tmp_path / "plan.json", {"x": 1.0, "b": "optimal"})
        part = ["--treatment", "X", "--response", "Y"]
        commands = [
            ["validate", "--model", "model.json", "--out", "report.json"],
            ["plan-eval", "--model", "model.json", "--cov", cov_file, "--plan", "plan.json",
             *part, "--W", "Z1"],
            ["simulate", "--model", "model.json", "--n", "50", "--out", "draws.csv"],
            ["estimate", "--data", "draws.csv", *part, "--instruments", "Z3"],
            ["reproduce-iverson"],
        ]
        script = ("import json, sys\n"
                  "from semcontrol.cli import run_command\n"
                  "sys.exit(max(run_command(argv) for argv in json.loads(sys.argv[1])))\n")
        run = self.python(tmp_path, {}, "-X", "warn_default_encoding",
                          "-W", "error::EncodingWarning", "-c", script, json.dumps(commands))
        assert (run.returncode, run.stderr) == (0, b"")


class TestReproduceIverson:
    def test_report_contents(self, capsys):
        code, payload = run_json(capsys, ["reproduce-iverson"])
        assert code == 0
        results = payload["results"]
        assert results["gamma_hat_iv_z3"] == pytest.approx(0.049, abs=1e-3)
        assert results["unconditional_plan"]["mean_coefficient"] == pytest.approx(
            0.0492, abs=1e-4
        )
        assert results["unconditional_plan"]["var_y_closed_form"] == pytest.approx(
            1.006, abs=5e-4
        )
        assert results["unconditional_plan"]["var_y_published"] == 0.998
        assert results["feedback_limit"]["mean_coefficient"] == pytest.approx(
            0.0246, abs=1e-4
        )
        assert results["feedback_limit"]["variance_factor"] == 0.25
        assert results["feedback_limit"]["var_y_published"] == pytest.approx(0.2495)
        for a, factor in ((-5, 0.8026), (-10, 0.6703), (-20, 0.5041)):
            entry = results["conditional_plan"][f"a={a}"]
            assert entry["mean_factor"] == pytest.approx(factor, abs=1e-4)
            assert entry["variance_factor"] == pytest.approx(factor**2, abs=1e-4)
        assert any("0.998" in w for w in payload["warnings"])
        assert payload["inputs"] == {"fixture": "iverson_covariance.json",
                                     "model_fixture": "iverson_model.json", "n": 213}

    def test_values_are_plan_variance_fields(self, capsys):
        code, payload = run_json(capsys, ["reproduce-iverson"])
        assert code == 0
        results = payload["results"]
        moments = sc.iverson_moments()
        gamma = sc.iv_estimate(moments, "X", "Y", "Z3").gamma_hat
        part = sc.partition_vertices(sc.iverson_model(), "X", "Y")
        effects = sc.EffectSummary(part, [gamma])
        blocks = sc.RegressionBlocks.from_moments(moments, part)
        # the unconditional variance var(Y) + g^2 var(X) - 2 g cov(X, Y), by hand
        base_var = (moments.var("Y") + gamma**2 * moments.var("X")
                    - 2.0 * gamma * moments.cov("X", "Y"))

        def close(value, want):
            return value == pytest.approx(want, rel=1e-14, abs=0.0)

        unconditional = results["unconditional_plan"]
        effect = sc.plan_variance(moments, effects, blocks, sc.ControlPlan(1.0, [0.0], []))
        assert unconditional["mean_coefficient"] == effect.response_mean
        assert unconditional["var_y_closed_form"] == effect.response_variance
        assert close(effect.response_mean, gamma) and close(effect.response_variance, base_var)
        for a in (-5.0, -10.0, -20.0):
            effect = sc.plan_variance(moments, effects, blocks, sc.ControlPlan(1.0, [a], []))
            factor = effect.feedback_factor
            assert results["conditional_plan"][f"a={a:g}"] == {
                "mean_coefficient": effect.response_mean,
                "mean_factor": factor,
                "variance_factor": factor**2,
                "variance": effect.response_variance,
            }
            assert close(factor, 1.0 / (1.0 - gamma * a))
            assert close(effect.response_mean, gamma * factor)
            assert close(effect.response_variance, base_var * factor**2)
