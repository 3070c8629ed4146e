import dataclasses
import tracemalloc

import numpy as np
import pytest

from mvgdp import (
    ConfigError,
    ContractViolationError,
    DataBounds,
    EvalReport,
    Experiment,
    ExperimentConfig,
    FormatError,
    MechanismKind,
    PrecisionAllocation,
    PrivacyParams,
    QueryKind,
    QuerySpec,
    RandomStream,
    ReportFormat,
    ShapeError,
    covariance_sensitivity,
    covariance_sensitivity_l1,
    delta_rho,
    derive_directions_dp,
    emit_report,
    format_significant,
    gamma_covariance,
    gaussian_iid_baseline,
    identity_sensitivity_l1,
    laplace_iid_baseline,
    load_csv_matrix,
    load_dense_csv,
    mean_ci95,
    mvg_equimodal,
    mvg_unimodal,
    parse_directions_source,
    parse_theta_spec,
    ridge_regression_rmse,
    rss,
    run_experiment,
)
from mvgdp import harness, mechanisms
from mvgdp.mechanisms import trials_per_chunk


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsvMatrix:
    def test_header_and_transpose(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
        matrix, names = load_csv_matrix(path, has_header=True)
        assert names == ["a", "b"]
        assert np.array_equal(matrix, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "e.csv", "")
        with pytest.raises(FormatError, match="no data rows"):
            load_csv_matrix(path)

    def test_single_row_becomes_column(self, tmp_path):
        path = write(tmp_path, "r.csv", "1,2,3\n")
        matrix, names = load_csv_matrix(path, has_header=False)
        assert names is None
        assert matrix.shape == (3, 1)

    def test_ragged_rows_report_line(self, tmp_path):
        path = write(tmp_path, "bad.csv", "1,2\n3,4,5\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv_matrix(path)

    def test_non_numeric_reports_cell(self, tmp_path):
        path = write(tmp_path, "bad.csv", "1,2\n3,oops\n")
        with pytest.raises(FormatError, match="line 2, column 2"):
            load_csv_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="not found"):
            load_csv_matrix(tmp_path / "nope.csv")

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "d.csv", "1,2\n\n3,4\n")
        matrix, _ = load_csv_matrix(path)
        assert matrix.shape == (2, 2)


class TestLoaderParity:
    """The vectorized loader against ``float()`` and the file's own lines."""

    def test_values_bit_identical_to_float(self, tmp_path):
        cells = [["4.9e-324", "1e-320", "0.12345678901234567"],
                 ["-0.0", "1.7976931348623157e308", "2.2250738585072014e-308"],
                 [" 0.30000000000000004 ", '"3.25"', '" -7.5e-5 "']]
        text = "".join(",".join(row) + "\r\n" for row in cells)
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        matrix, _ = load_csv_matrix(path)
        expected = np.array([[float(cell.strip().strip('"')) for cell in row]
                             for row in cells])
        assert matrix.T.tobytes() == expected.tobytes()
        assert np.signbit(matrix[0, 1])  # -0.0 keeps its sign

    def test_result_is_transpose_of_c_ordered_records(self, tmp_path):
        path = write(tmp_path, "d.csv", "1,2,3\n4,5,6\n")
        matrix, _ = load_csv_matrix(path)
        assert matrix.T.flags.c_contiguous
        assert np.array_equal(load_dense_csv(path), matrix.T)

    def test_hash_cell_is_data_not_comment(self, tmp_path):
        path = write(tmp_path, "h.csv", "1,2\n#3,4\n")
        with pytest.raises(FormatError, match="line 2, column 1: '#3'"):
            load_csv_matrix(path)

    def test_underscore_digits_rejected(self, tmp_path):
        path = write(tmp_path, "u.csv", "1,1_000\n")
        with pytest.raises(FormatError, match="line 1, column 2"):
            load_csv_matrix(path)

    def test_bad_cell_after_header_and_blank_lines(self, tmp_path):
        path = write(tmp_path, "b.csv", "\na,b\n\n1,2\n  \n\n3,x\n4,5\n")
        with pytest.raises(FormatError, match="line 7, column 2: 'x'"):
            load_csv_matrix(path, has_header=True)

    def test_ragged_row_after_blank_lines(self, tmp_path):
        path = write(tmp_path, "r.csv", "1,2\n\n \t\n3,4,5\n")
        with pytest.raises(FormatError, match="line 4 has 3 cells, expected 2"):
            load_csv_matrix(path)

    def test_bad_cell_deep_in_file(self, tmp_path):
        good = "".join(f"{i},{i / 7}\n" for i in range(5000))
        path = write(tmp_path, "deep.csv", good + "1,nope\n" + good)
        with pytest.raises(FormatError, match="line 5001, column 2"):
            load_csv_matrix(path)

    def test_header_width_mismatch(self, tmp_path):
        path = write(tmp_path, "w.csv", "a,b,c\n\n1,2\n")
        with pytest.raises(FormatError, match="line 3 has 2 cells, expected 3"):
            load_csv_matrix(path, has_header=True)

    def test_whitespace_and_empty_cell_lines_skipped(self, tmp_path):
        path = write(tmp_path, "s.csv", '  \n1,2\n \t \n,\n"", \n3,4\n\n')
        matrix, _ = load_csv_matrix(path)
        assert np.array_equal(matrix, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_header_only_has_no_data(self, tmp_path):
        path = write(tmp_path, "ho.csv", "a,b\n\n")
        with pytest.raises(FormatError, match="no data rows"):
            load_csv_matrix(path, has_header=True)


class TestLoadDenseCsv:
    def test_no_transpose(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3,4\n")
        assert np.array_equal(load_dense_csv(path),
                              np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestThetaSpecParsing:
    def test_uniform(self):
        theta = parse_theta_spec("uniform", 3)
        assert np.allclose(theta.theta, 1 / 3)

    def test_binary(self):
        theta = parse_theta_spec("binary:0.8:0,1", 4)
        assert np.allclose(theta.theta, [0.4, 0.4, 0.1, 0.1])

    def test_explicit(self):
        theta = parse_theta_spec("0.4,0.4,0.1,0.1", 4)
        assert np.allclose(theta.theta, [0.4, 0.4, 0.1, 0.1])

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_theta_spec("binary:0.8", 4)
        with pytest.raises(ConfigError):
            parse_theta_spec("binary:x:0", 4)
        with pytest.raises(ConfigError):
            parse_theta_spec("0.5,0.5", 3)
        with pytest.raises(ConfigError):
            parse_theta_spec("a,b,c", 3)


class TestDirectionsParsing:
    def test_forms(self):
        assert parse_directions_source("standard") == ("standard", None)
        assert parse_directions_source("dp:0.2") == ("dp", 0.2)
        assert parse_directions_source("w.csv") == ("file", "w.csv")

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            parse_directions_source("dp:1.5")
        with pytest.raises(ConfigError):
            parse_directions_source("dp:abc")


class TestFormatting:
    def test_six_significant_digits(self):
        assert format_significant(0.01624) == "0.0162400"
        assert format_significant(0.00026) == "0.000260000"
        assert format_significant(0.0) == "0"
        assert format_significant(123456.7) == "123457"
        assert format_significant(1000.0) == "1000.00"
        assert format_significant(-0.01624) == "-0.0162400"

    @pytest.mark.parametrize("x, text", [
        (9.9999996, "10.0000"),
        (99999.96, "100000"),
        (-9.9999996, "-10.0000"),
        (0.099999996, "0.100000"),
    ])
    def test_rounding_carry_keeps_six_digits(self, x, text):
        assert format_significant(x) == text

    def test_text_report_layout(self):
        report = EvalReport("RMSE", 0.01624, 0.00026, 100)
        out = emit_report(report, ReportFormat.TEXT)
        assert out == "metric=RMSE mean=0.0162400 ci95=±0.000260000 trials=100\n".encode()

    def test_single_trial_zero_width(self):
        report = EvalReport("RMSE", 0.5, 0.0, 1)
        out = emit_report(report, ReportFormat.TEXT).decode()
        assert "ci95=±0 " in out

    def test_csv_round_trip(self):
        report = EvalReport("RSS", 0.0666123, 0.0019312, 100)
        out = emit_report(report, ReportFormat.CSV).decode()
        header, row = out.strip().split("\n")
        assert header == "metric,mean,ci95,trials"
        name, mean, ci, trials = row.split(",")
        assert name == "RSS"
        assert float(mean) == pytest.approx(report.mean, rel=1e-5)
        assert float(ci) == pytest.approx(report.ci95_half_width, rel=1e-5)
        assert int(trials) == 100

    def test_multiple_reports(self):
        reports = [EvalReport("a", 1.0, 0.1, 2), EvalReport("b", 2.0, 0.2, 2)]
        text = emit_report(reports, ReportFormat.TEXT).decode()
        assert text.count("\n") == 2
        csv_out = emit_report(reports, ReportFormat.CSV).decode()
        assert csv_out.count("\n") == 3


def regression_dataset(tmp_path, n_records=50, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0.0, 1.0, (n_records, 3))
    target = np.clip(0.6 * feats[:, 0] + 0.3 * feats[:, 2]
                     + 0.05 * rng.standard_normal(n_records), 0.0, 1.0)
    rows = np.column_stack([feats, target])
    path = tmp_path / "reg.csv"
    np.savetxt(path, rows, delimiter=",")
    return path, rows.T  # in-memory convention: rows are features


def covariance_dataset(tmp_path, n_records=400, seed=1):
    rng = np.random.default_rng(seed)
    scale = np.array([1.0, 0.7, 0.2])
    data = scale[:, None] * rng.choice([-1.0, 1.0], size=(3, n_records))
    path = tmp_path / "cov.csv"
    np.savetxt(path, data.T, delimiter=",")
    return path, data


def base_config(path, bounds, mechanism, experiment, **kw):
    defaults = dict(
        experiment=experiment,
        dataset_path=path,
        bounds=bounds,
        privacy=PrivacyParams(1.0, 0.01),
        mechanism=mechanism,
        trials=3,
        seed=11,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_regression_vanishing_noise_matches_baseline(self, tmp_path):
        path, x = regression_dataset(tmp_path)
        n = x.shape[1]
        bounds = DataBounds(4, n, 0.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.GAUSSIAN_IID,
                          Experiment.REGRESSION, trials=1,
                          privacy=PrivacyParams(1e6, 0.01))
        with pytest.warns(UserWarning):
            report = run_experiment(cfg)
        n_train = int(round(0.72 * n))
        train, test = x[:, :n_train], x[:, n_train:]
        clean = ridge_regression_rmse((train[:-1], train[-1]),
                                      (test[:-1], test[-1]), reg=1.0)
        assert report.mean == pytest.approx(clean, abs=1e-3)

    def test_regression_split_matches_paper_proportions(self):
        assert int(round(0.72 * 345)) == 248

    def test_regression_with_mvg_runs(self, tmp_path):
        path, x = regression_dataset(tmp_path)
        bounds = DataBounds(4, x.shape[1], 0.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_UNIMODAL,
                          Experiment.REGRESSION, theta_spec="binary:0.9:0,3")
        report = run_experiment(cfg)
        assert report.metric_name == "RMSE"
        assert report.trials == 3
        assert np.isfinite(report.mean)

    def test_firstpc_runs_with_equimodal(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC, theta_spec="uniform")
        report = run_experiment(cfg)
        assert report.metric_name == "delta_rho"
        assert report.mean >= 0.0

    def test_firstpc_near_noiseless(self, tmp_path):
        path, data = covariance_dataset(tmp_path, n_records=200)
        bounds = DataBounds(3, 200, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.GAUSSIAN_IID,
                          Experiment.FIRST_PC, trials=1,
                          privacy=PrivacyParams(1e8, 0.01))
        with pytest.warns(UserWarning):
            report = run_experiment(cfg)
        assert report.mean == pytest.approx(0.0, abs=1e-10)

    def test_covest_near_noiseless(self, tmp_path):
        path, data = covariance_dataset(tmp_path, n_records=60)
        bounds = DataBounds(3, 60, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.GAUSSIAN_IID,
                          Experiment.COVARIANCE_ESTIMATION, trials=1,
                          privacy=PrivacyParams(1e8, 0.01))
        with pytest.warns(UserWarning):
            report = run_experiment(cfg)
        assert report.metric_name == "RSS"
        assert report.mean < 1e-8

    def test_laplace_mechanism_runs(self, tmp_path):
        path, data = covariance_dataset(tmp_path, n_records=100)
        bounds = DataBounds(3, 100, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.LAPLACE_IID,
                          Experiment.FIRST_PC)
        report = run_experiment(cfg)
        assert np.isfinite(report.mean)

    def test_dp_derived_directions_path(self, tmp_path):
        path, data = covariance_dataset(tmp_path, n_records=100)
        bounds = DataBounds(3, 100, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC, directions_source="dp:0.2",
                          theta_spec="binary:0.9:0", trials=2)
        report = run_experiment(cfg)
        assert np.isfinite(report.mean)

    def test_determinism(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC)
        a = emit_report(run_experiment(cfg), ReportFormat.TEXT)
        b = emit_report(run_experiment(cfg), ReportFormat.TEXT)
        assert a == b

    def test_trial_values_pair_by_seed(self, tmp_path):
        # trial t replays RandomStream(seed + t) whatever the trial count, so
        # a longer run reproduces the shorter run's trials as its prefix;
        # seed + t wraps through 2^64 - 1 to 0 and 1, using both seed words
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        seed = 2 ** 64 - 2
        x, _ = load_csv_matrix(path)
        s_bar = x @ x.T / x.shape[1]
        q = harness.covariance_query(bounds)
        theta = parse_theta_spec("uniform", 3)
        values = []
        for t in range(4):
            stream = RandomStream((seed + t) % 2 ** 64)
            noisy = mvg_equimodal(s_bar, q, PrivacyParams(1.0, 0.01), theta,
                                  np.eye(3), stream).output
            _, vecs = np.linalg.eigh((noisy + noisy.T) / 2.0)
            values.append(delta_rho(vecs[:, -1], s_bar))
        for trials in (2, 4):
            cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                              Experiment.FIRST_PC, trials=trials, seed=seed)
            assert run_experiment(cfg) == mean_ci95(values[:trials], "delta_rho")

    def test_dp_directions_replay_bit_for_bit(self, tmp_path):
        # the harness plans the directions once per run; each trial must
        # still equal a fresh derive_directions_dp on the trial's stream
        path, _ = covariance_dataset(tmp_path, n_records=300)
        bounds = DataBounds(3, 300, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC, directions_source="dp:0.2",
                          theta_spec="binary:0.9:0", trials=4)
        report = run_experiment(cfg)
        x, _ = load_csv_matrix(path)
        s_bar = x @ x.T / 300
        q = QuerySpec(3, 3, sensitivity=covariance_sensitivity(bounds),
                      gamma=gamma_covariance(bounds), kind=QueryKind.COVARIANCE)
        p_dir = PrivacyParams(1.0 * 0.2, 0.01 * 0.2)
        p_mech = PrivacyParams(1.0 * (1.0 - 0.2), 0.01 * (1.0 - 0.2))
        theta = parse_theta_spec("binary:0.9:0", 3)
        values = []
        for t in range(cfg.trials):
            stream = RandomStream(cfg.seed + t)
            w = derive_directions_dp(x, p_dir, 3, stream, bounds=bounds)
            noisy = mvg_equimodal(s_bar, q, p_mech, theta, w, stream).output
            _, vecs = np.linalg.eigh((noisy + noisy.T) / 2.0)
            values.append(delta_rho(vecs[:, -1], s_bar))
        assert report == mean_ci95(values, "delta_rho")

    def test_supplied_data_skips_the_load(self, tmp_path, monkeypatch):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC)
        x, _ = load_csv_matrix(path)
        expected = run_experiment(cfg)

        def no_load(*args, **kwargs):
            raise AssertionError("the dataset was loaded again")

        monkeypatch.setattr(harness, "load_csv_matrix", no_load)
        assert run_experiment(cfg, data=x) == expected

    def test_nan_cell_fails_the_bounds_audit(self, tmp_path):
        path = write(tmp_path, "nan.csv", "0.5,0.1\nnan,0.2\n0.3,0.4\n")
        cfg = base_config(path, DataBounds(2, 3, 0.0, 1.0),
                          MechanismKind.GAUSSIAN_IID, Experiment.FIRST_PC)
        with pytest.raises(ContractViolationError, match="nan"):
            run_experiment(cfg)

    def test_bounds_audit_aborts(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -0.5, 0.5)  # data escapes this box
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC)
        with pytest.raises(ContractViolationError):
            run_experiment(cfg)

    def test_shape_mismatch_is_config_error(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(5, 17, -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.FIRST_PC)
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_equimodal_on_rectangular_query_rejected(self, tmp_path):
        path, x = regression_dataset(tmp_path)
        bounds = DataBounds(4, x.shape[1], 0.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.REGRESSION)
        with pytest.raises(ConfigError, match="square"):
            run_experiment(cfg)

    def test_directions_with_baseline_rejected(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.GAUSSIAN_IID,
                          Experiment.FIRST_PC, directions_source="dp:0.2")
        with pytest.raises(ConfigError, match="MVG"):
            run_experiment(cfg)

    def test_trials_validation(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        with pytest.raises(ConfigError):
            base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                        MechanismKind.MVG_EQUIMODAL, Experiment.FIRST_PC,
                        trials=0)


@pytest.mark.parametrize("kind", list(MechanismKind), ids=lambda kind: kind.value)
def test_every_mechanism_rejects_a_wrong_shaped_value(kind):
    # a kind added without a library entry here fails on the lookup
    bounds = DataBounds(3, 100, -1.0, 1.0)
    q = harness.covariance_query(bounds)
    p = PrivacyParams(1.0, 0.01)
    theta = PrecisionAllocation.uniform(3)
    bad = np.zeros((3, 4))
    library = {
        MechanismKind.MVG_UNIMODAL: lambda: mvg_unimodal(bad, q, p, theta, np.eye(3),
                                                         RandomStream(0)),
        MechanismKind.MVG_EQUIMODAL: lambda: mvg_equimodal(bad, q, p, theta, np.eye(3),
                                                           RandomStream(0)),
        MechanismKind.GAUSSIAN_IID: lambda: gaussian_iid_baseline(bad, q, p,
                                                                  RandomStream(0)),
        MechanismKind.LAPLACE_IID: lambda: laplace_iid_baseline(bad, q, 1.0, 1.0,
                                                                RandomStream(0)),
    }[kind]
    message = r"query value has shape \(3, 4\), expected \(3, 3\)"
    with pytest.raises(ShapeError, match=message):
        library()
    with pytest.raises(ShapeError, match=message):
        harness.plan_release(kind, q, bad, p, "uniform", "standard", bounds,
                             np.zeros((3, 100)))


class TestAblation:
    def test_ordering_in_low_noise_regime(self, tmp_path):
        # With noise small against the spectral gaps, favoring the truly
        # informative directions must beat both a uniform allocation and the
        # inverted one. (At tight budgets the noise dominates the spectrum
        # and the top eigenvector of the estimate chases the most-noised
        # directions instead, so criterion 7 of the acceptance suite checks
        # the informative-block error at eps = 1 rather than this ordering.)
        rng = np.random.default_rng(20257)
        scale = np.array([2.0, np.sqrt(3.0), np.sqrt(0.1), np.sqrt(0.1)])
        data = scale[:, None] * rng.choice([-1.0, 1.0], size=(4, 2000))
        path = tmp_path / "synthetic.csv"
        np.savetxt(path, data.T, delimiter=",")
        cfg = ExperimentConfig(
            experiment=Experiment.DIRECTION_ABLATION,
            dataset_path=path,
            bounds=DataBounds(4, 2000, -2.0, 2.0),
            privacy=PrivacyParams(30_000.0, 1.0 / 2000),
            mechanism=MechanismKind.MVG_EQUIMODAL,
            theta_spec="binary:0.9:0,1",
            trials=200,
            seed=7,
        )
        favored, complement, uniform = run_experiment(cfg)
        assert favored.mean < uniform.mean
        assert favored.mean < complement.mean

    def test_three_arms(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.DIRECTION_ABLATION,
                          theta_spec="binary:0.9:0", trials=2)
        reports = run_experiment(cfg)
        names = [r.metric_name for r in reports]
        assert names == ["delta_rho[favored=0]", "delta_rho[complement=1+2]",
                         "delta_rho[uniform]"]

    def test_requires_binary_spec(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.DIRECTION_ABLATION, theta_spec="uniform")
        with pytest.raises(ConfigError, match="needs a binary allocation"):
            run_experiment(cfg)

    def test_malformed_binary_spec(self, tmp_path):
        path, data = covariance_dataset(tmp_path)
        bounds = DataBounds(3, data.shape[1], -1.0, 1.0)
        cfg = base_config(path, bounds, MechanismKind.MVG_EQUIMODAL,
                          Experiment.DIRECTION_ABLATION, theta_spec="binary:0.9")
        with pytest.raises(ConfigError, match="binary:TAU:I,J"):
            run_experiment(cfg)


def spread_dataset(tmp_path, m=16, n_records=300, seed=3):
    # a decaying spectrum in [-1, 1], so the top direction is well defined
    rng = np.random.default_rng(seed)
    data = np.linspace(1.0, 0.2, m)[:, None] * rng.uniform(-1.0, 1.0, (m, n_records))
    path = tmp_path / "spread.csv"
    np.savetxt(path, data.T, delimiter=",")
    x, _ = load_csv_matrix(path)
    return path, x


class TestBatchedTrials:
    """Runs draw their trials in chunks of stacked releases; every report
    must equal a per-trial replay through the single-release library calls,
    across chunk boundaries."""

    P = PrivacyParams(1.0, 0.01)

    def firstpc_replay(self, x, bounds, release):
        s_bar = x @ x.T / x.shape[1]
        values = []
        for t in range(40):
            noisy = release(s_bar, RandomStream(11 + t))
            _, vecs = np.linalg.eigh((noisy + noisy.T) / 2.0)
            values.append(delta_rho(vecs[:, -1], s_bar))
        return mean_ci95(values, "delta_rho")

    @pytest.mark.parametrize("source", ["standard", "file", "dp:0.2", "gauss",
                                        "laplace"])
    def test_firstpc_equals_per_trial_replay(self, tmp_path, source):
        path, x = spread_dataset(tmp_path)
        bounds = DataBounds(16, 300, -1.0, 1.0)
        q = harness.covariance_query(bounds)
        theta = parse_theta_spec("binary:0.9:0,1", 16)
        # 40 trials of 16 x 16 stacks span three chunks: 16, 16 and 8
        assert trials_per_chunk(16, 16) == 16
        mechanism = MechanismKind.MVG_EQUIMODAL
        directions = "standard"
        if source == "standard":
            def release(s_bar, stream):
                return mvg_equimodal(s_bar, q, self.P, theta, np.eye(16), stream).output
        elif source == "file":
            basis = np.linalg.qr(np.random.default_rng(8).standard_normal((16, 16)))[0]
            directions = str(tmp_path / "w.csv")
            np.savetxt(directions, basis, delimiter=",")
            w = load_dense_csv(directions)

            def release(s_bar, stream):
                return mvg_equimodal(s_bar, q, self.P, theta, w, stream).output
        elif source == "dp:0.2":
            directions = source
            p_dir = PrivacyParams(0.2, 0.01 * 0.2)
            p_mech = PrivacyParams(1.0 * (1.0 - 0.2), 0.01 * (1.0 - 0.2))

            def release(s_bar, stream):
                w = derive_directions_dp(x, p_dir, 16, stream, bounds=bounds)
                return mvg_equimodal(s_bar, q, p_mech, theta, w, stream).output
        elif source == "gauss":
            mechanism = MechanismKind.GAUSSIAN_IID

            def release(s_bar, stream):
                return gaussian_iid_baseline(s_bar, q, self.P, stream)
        else:
            mechanism = MechanismKind.LAPLACE_IID
            l1 = covariance_sensitivity_l1(bounds)

            def release(s_bar, stream):
                return laplace_iid_baseline(s_bar, q, 1.0, l1, stream)
        cfg = base_config(path, bounds, mechanism, Experiment.FIRST_PC,
                          theta_spec="binary:0.9:0,1", directions_source=directions,
                          trials=40)
        assert run_experiment(cfg) == self.firstpc_replay(x, bounds, release)

    @pytest.mark.parametrize("mechanism", ["mvg-uni", "gauss", "laplace"])
    def test_covest_equals_per_trial_replay(self, tmp_path, mechanism):
        path, x = spread_dataset(tmp_path, m=3, n_records=100)
        bounds = DataBounds(3, 100, -1.0, 1.0)
        assert trials_per_chunk(3, 100) == 13  # 30 trials span three chunks
        cfg = base_config(path, bounds, MechanismKind(mechanism),
                          Experiment.COVARIANCE_ESTIMATION,
                          theta_spec="binary:0.9:0", trials=30)
        q = harness.identity_query(bounds)
        theta = parse_theta_spec("binary:0.9:0", 3)
        l1 = identity_sensitivity_l1(bounds)
        release = {
            "mvg-uni": lambda stream: mvg_unimodal(x, q, self.P, theta, np.eye(3),
                                                   stream).output,
            "gauss": lambda stream: gaussian_iid_baseline(x, q, self.P, stream),
            "laplace": lambda stream: laplace_iid_baseline(x, q, 1.0, l1, stream),
        }[mechanism]
        s_bar = x @ x.T / 100
        values = []
        for t in range(30):
            out = release(RandomStream(11 + t))
            values.append(rss(out @ out.T / 100, s_bar))
        assert run_experiment(cfg) == mean_ci95(values, "RSS")

    def test_regression_equals_per_trial_replay(self, tmp_path):
        path, x = regression_dataset(tmp_path)
        n_train = int(round(0.72 * x.shape[1]))
        train, test = x[:, :n_train], x[:, n_train:]
        train_bounds = DataBounds(4, n_train, 0.0, 1.0)
        assert trials_per_chunk(4, n_train) == 28  # 60 trials span three chunks
        cfg = base_config(path, DataBounds(4, x.shape[1], 0.0, 1.0),
                          MechanismKind.MVG_UNIMODAL, Experiment.REGRESSION,
                          theta_spec="binary:0.9:0,3", directions_source="dp:0.2",
                          trials=60)
        q = harness.identity_query(train_bounds)
        theta = parse_theta_spec("binary:0.9:0,3", 4)
        p_dir = PrivacyParams(0.2, 0.01 * 0.2)
        p_mech = PrivacyParams(1.0 * (1.0 - 0.2), 0.01 * (1.0 - 0.2))
        values = []
        for t in range(60):
            stream = RandomStream(11 + t)
            w = derive_directions_dp(train, p_dir, 4, stream, bounds=train_bounds)
            out = mvg_unimodal(train, q, p_mech, theta, w, stream).output
            values.append(ridge_regression_rmse((out[:-1], out[-1]),
                                                (test[:-1], test[-1]), 1.0))
        assert run_experiment(cfg) == mean_ci95(values, "RMSE")

    def test_ablation_plans_once_per_arm(self, tmp_path, monkeypatch):
        path, data = covariance_dataset(tmp_path)
        calls = {"check": 0, "budget": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mechanisms, "check_condition",
                            counted("check", mechanisms.check_condition))
        monkeypatch.setattr(mechanisms, "precision_budget_equimodal",
                            counted("budget", mechanisms.precision_budget_equimodal))
        # 1000 trials of 3 x 3 stacks span three chunks per arm
        assert trials_per_chunk(3, 3) == 455
        cfg = base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.DIRECTION_ABLATION,
                          theta_spec="binary:0.9:0", trials=1000)
        assert len(run_experiment(cfg)) == 3
        assert calls == {"check": 3, "budget": 3}

    @pytest.mark.parametrize("directions, roles", [("standard", 1), ("dp:0.2", 2)])
    def test_each_stream_draws_once_per_role(self, tmp_path, monkeypatch,
                                             directions, roles):
        path, data = covariance_dataset(tmp_path)
        seeds = []
        original = mechanisms.sample_standard_matrix

        def counted(stream, m, n):
            seeds.append(stream.seed)
            return original(stream, m, n)

        monkeypatch.setattr(mechanisms, "sample_standard_matrix", counted)
        cfg = base_config(path, DataBounds(3, data.shape[1], -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.FIRST_PC,
                          directions_source=directions, trials=700)
        run_experiment(cfg)
        assert len(seeds) == roles * 700
        assert sorted(seeds) == sorted(list(range(11, 711)) * roles)

    def test_dp_run_memory_stays_within_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        x = np.linspace(1.0, 0.25, 16)[:, None] * rng.uniform(-1.0, 1.0, (16, 2000))
        cfg = base_config(tmp_path / "unused.csv", DataBounds(16, 2000, -1.0, 1.0),
                          MechanismKind.MVG_EQUIMODAL, Experiment.FIRST_PC,
                          theta_spec="binary:0.9:0,1", directions_source="dp:0.2",
                          trials=250)
        run_experiment(dataclasses.replace(cfg, trials=2), data=x)  # warm caches
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            report = run_experiment(cfg, data=x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.trials == 250
        # one stack of 250 trials would hold 500 KiB per temporary
        assert peak - before <= 256 * 1024
