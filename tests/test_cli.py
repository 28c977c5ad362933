"""CLI surface: grammar, exit codes, report formats, pipeline consistency."""

import json
import warnings

import numpy as np
import pytest

import semcontrol as sc
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


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = run_command([*argv, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
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

    def test_requires_a_moment_source(self, capsys):
        assert run_command([
            "estimate", "--treatment", "X", "--response", "Y", "--instruments", "Z3",
        ]) == 1


class TestSimulateCommand:
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

    def test_identical_invocations_identical_reports(self, model_file, capsys):
        argv = ["effects", "--model", model_file, "--treatment", "X", "--response", "Y",
                "--format", "json"]
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        assert first == second


class TestMalformedInput:
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
