"""Sample moments and instrumental-variable estimation."""

import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import semcontrol as sc


def _iv_stderr(data, treatment, response, instrument, gamma_hat):
    """Influence-function standard error of the covariance-ratio estimator."""
    x = data.column(treatment) - data.column(treatment).mean()
    y = data.column(response) - data.column(response).mean()
    z = data.column(instrument) - data.column(instrument).mean()
    c_xz = (x * z).mean()
    psi = z * (y - gamma_hat * x) / c_xz
    return psi.std(ddof=1) / np.sqrt(len(psi))


@pytest.fixture
def loop_with_instrument():
    """X <-> Y loop with direct effect 0.5 and one valid instrument Z."""
    return sc.StructuralModel.from_edges(
        [("X", "Y", 0.5), ("Y", "X", 0.3), ("Z", "X", 0.8)],
        variables=["Y", "X", "Z"],
    )


class TestSampleMoments:
    def test_constant_column_has_zero_variance(self):
        data = sc.Dataset(("A", "B"), np.array([[1.0, 0.0], [1.0, 1.5], [1.0, 3.0]]))
        mom = sc.sample_moments(data)
        assert mom.var("A") == 0.0
        assert mom.n_obs == 3

    def test_two_point_covariance_with_bessel_divisor(self):
        data = sc.Dataset(("A", "B"), np.array([[0.0, 0.0], [2.0, 2.0]]))
        mom = sc.sample_moments(data)
        assert np.allclose(mom.covariance, [[2.0, 2.0], [2.0, 2.0]])

    def test_matches_implied_moments_on_draws(self, loop_with_instrument):
        model = loop_with_instrument
        implied = sc.implied_moments(model)
        n = 100_000
        data = sc.draw_equilibrium(model, sc.SimulationConfig(n, seed=2))
        mom = sc.sample_moments(data)
        sd = np.sqrt(np.diag(implied.covariance))
        assert np.all(np.abs(mom.mean - implied.mean) < 3 * sd / np.sqrt(n))
        for i in range(3):
            for j in range(3):
                se = np.sqrt(
                    (implied.covariance[i, i] * implied.covariance[j, j]
                     + implied.covariance[i, j] ** 2) / (n - 1)
                )
                assert abs(mom.covariance[i, j] - implied.covariance[i, j]) < 3 * se

    def test_too_few_rows(self):
        with pytest.raises(sc.TooFewRows):
            sc.sample_moments(sc.Dataset(("A",), np.array([[1.0]])))

    def test_standardized_data_has_zero_mean(self, loop_with_instrument):
        data = sc.draw_equilibrium(loop_with_instrument, sc.SimulationConfig(5000, seed=4))
        centered = sc.Dataset(data.columns, data.rows - data.rows.mean(axis=0))
        mom = sc.sample_moments(centered)
        assert np.linalg.norm(mom.mean) < 1e-12


class TestDataset:
    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            sc.Dataset(("A",), np.array([[np.nan]]))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            sc.Dataset(("A", "A"), np.zeros((2, 2)))

    def test_csv_round_trip(self, tmp_path, loop_with_instrument):
        data = sc.draw_equilibrium(loop_with_instrument, sc.SimulationConfig(50, seed=9))
        path = tmp_path / "draws.csv"
        data.to_csv(path)
        loaded = sc.Dataset.from_csv(path)
        assert loaded.columns == data.columns
        assert np.array_equal(loaded.rows, data.rows)

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1.0,\n")
        with pytest.raises(sc.InputFormatError, match="missing"):
            sc.Dataset.from_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1.0,2.0,3.0\n")
        with pytest.raises(sc.InputFormatError, match="ragged"):
            sc.Dataset.from_csv(path)


class TestIVEstimate:
    def test_study_ratio(self, iverson_moments):
        est = sc.iv_estimate(iverson_moments, "X", "Y", "Z3")
        assert est.gamma_hat == pytest.approx(0.003 / 0.061, abs=1e-15)
        assert est.gamma_hat == pytest.approx(0.0492, abs=5e-5)
        # the study's own rounding keeps three decimals
        assert round(est.gamma_hat, 3) == 0.049
        assert est.denominator == pytest.approx(0.061)

    def test_equal_covariances_give_unit_effect(self):
        cov = np.array([
            [1.0, 0.5, 0.3],
            [0.5, 1.0, 0.3],
            [0.3, 0.3, 1.0],
        ])
        mom = sc.MomentSummary(("Y", "X", "Z"), np.zeros(3), cov)
        assert sc.iv_estimate(mom, "X", "Y", "Z").gamma_hat == 1.0

    def test_recovers_known_effect_from_draws(self, loop_with_instrument):
        data = sc.draw_equilibrium(loop_with_instrument, sc.SimulationConfig(200_000, seed=3))
        mom = sc.sample_moments(data)
        est = sc.iv_estimate(mom, "X", "Y", "Z")
        se = _iv_stderr(data, "X", "Y", "Z", est.gamma_hat)
        assert abs(est.gamma_hat - 0.5) < 5 * se

    def test_weak_instrument_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = cov[1, 0] = 0.4
        mom = sc.MomentSummary(("Y", "X", "Z"), np.zeros(3), cov)
        with pytest.raises(sc.WeakInstrument):
            sc.iv_estimate(mom, "X", "Y", "Z")

    def test_consistency_across_seeds(self, loop_with_instrument):
        estimates = []
        for seed in range(20):
            data = sc.draw_equilibrium(
                loop_with_instrument, sc.SimulationConfig(100_000, seed=seed)
            )
            mom = sc.sample_moments(data)
            estimates.append(sc.iv_estimate(mom, "X", "Y", "Z").gamma_hat)
        estimates = np.array(estimates)
        spread = estimates.std(ddof=1)
        assert abs(estimates.mean() - 0.5) < 5 * spread / np.sqrt(len(estimates))
        assert np.all(np.abs(estimates - 0.5) < 5 * spread)


class TestTSLSEstimate:
    def test_single_instrument_equals_iv(self, iverson_moments):
        iv = sc.iv_estimate(iverson_moments, "X", "Y", "Z3")
        tsls = sc.tsls_estimate(iverson_moments, "X", "Y", ("Z3",))
        assert tsls.gamma_hat == pytest.approx(iv.gamma_hat, abs=1e-12)

    def test_two_instruments_recover_known_effect(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 0.5), ("Y", "X", 0.3), ("Z1", "X", 0.8), ("Z2", "X", -0.6)],
            variables=["Y", "X", "Z1", "Z2"],
        )
        data = sc.draw_equilibrium(model, sc.SimulationConfig(200_000, seed=8))
        mom = sc.sample_moments(data)
        est = sc.tsls_estimate(mom, "X", "Y", ("Z1", "Z2"))
        se1 = _iv_stderr(data, "X", "Y", "Z1", est.gamma_hat)
        assert abs(est.gamma_hat - 0.5) < 5 * se1
        assert est.denominator > 0.0

    def test_duplicated_instrument_is_rank_deficient(self, iverson_moments):
        with pytest.raises(sc.SingularInstrumentBlock):
            sc.tsls_estimate(iverson_moments, "X", "Y", ("Z3", "Z3"))

    def test_weak_projected_variance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = cov[1, 0] = 0.4
        mom = sc.MomentSummary(("Y", "X", "Z"), np.zeros(3), cov)
        with pytest.raises(sc.WeakInstrument):
            sc.tsls_estimate(mom, "X", "Y", ("Z",))

    def test_no_instruments_rejected(self, iverson_moments):
        with pytest.raises(ValueError):
            sc.tsls_estimate(iverson_moments, "X", "Y", ())


class TestCovarianceFiles:
    def test_load_covariance(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text(
            '{"variables": ["A", "B"], "matrix": [[1.0, 0.2], [0.2, 2.0]], "n": 10}'
        )
        mom = sc.load_covariance(path)
        assert mom.n_obs == 10
        assert np.allclose(mom.mean, 0.0)
        assert mom.cov("A", "B") == 0.2

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text('{"variables": ["A"], "matrix": [[1.0]], "junk": 0}')
        with pytest.raises(sc.InputFormatError, match="unknown covariance keys"):
            sc.load_covariance(path)

    def test_asymmetric_matrix_rejected(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text('{"variables": ["A", "B"], "matrix": [[1.0, 0.5], [0.2, 1.0]]}')
        with pytest.raises(sc.InputFormatError, match="symmetric"):
            sc.load_covariance(path)


class TestBundledFixtures:
    def test_fixtures_load_from_a_zipped_package(self, tmp_path):
        package = Path(sc.__file__).parent
        archive = tmp_path / "semcontrol.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in package.rglob("*"):
                if path.is_file() and "__pycache__" not in path.parts:
                    zf.write(path, path.relative_to(package.parent))
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); import semcontrol as sc; "
            "assert sc.__file__.startswith(sys.argv[1]), sc.__file__; "
            "print(sc.iverson_moments().n_obs, sc.iverson_model().n_variables)"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        result = subprocess.run(
            [sys.executable, "-c", script, str(archive)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["213", "5"]

    def test_published_covariance_values(self, iverson_moments):
        assert iverson_moments.variables == ("Y", "X", "Z1", "Z2", "Z3")
        assert iverson_moments.var("Y") == 1.041
        assert iverson_moments.cov("X", "Z3") == 0.061
        assert iverson_moments.n_obs == 213

    def test_fitted_model_reproduces_the_published_covariance(
        self, iverson_model, iverson_moments
    ):
        implied = sc.implied_moments(iverson_model)
        assert np.abs(implied.covariance - iverson_moments.covariance).max() < 1e-12
        assert np.abs(implied.mean).max() < 1e-12

    def test_instrument_exclusion_in_fitted_model(self, iverson_model):
        # Z3 reaches Y only through X, which is what makes it an instrument
        assert not iverson_model.diagram.has_edge("Z3", "Y")
        assert iverson_model.diagram.has_edge("Z3", "X")
