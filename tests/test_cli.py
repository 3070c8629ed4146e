import argparse
import json
import math

import numpy as np
import pytest

from mvgdp import (
    ConfigError,
    DataBounds,
    Experiment,
    ExperimentConfig,
    MechanismKind,
    NoiseDesign,
    PrivacyParams,
    QueryKind,
    QuerySpec,
    RandomStream,
    cli,
    covariance_sensitivity,
    derive_directions_dp,
    gamma_covariance,
    gamma_identity,
    harness,
    identity_sensitivity,
    load_csv_matrix,
    load_dense_csv,
    mvg_equimodal,
    mvg_unimodal,
    parse_theta_spec,
    sample_mvg,
    sensitivity,
)
from mvgdp import mechanisms
from mvgdp.budget import ConditionCheck
from mvgdp.cli import main
from mvgdp.sensitivity import clamp


def write_dataset(tmp_path, data, name="data.csv"):
    # data arrives feature-major; files carry records as rows
    path = tmp_path / name
    np.savetxt(path, np.asarray(data).T, delimiter=",")
    return str(path)


def write_matrix(tmp_path, matrix, name):
    path = tmp_path / name
    np.savetxt(path, np.asarray(matrix), delimiter=",")
    return str(path)


# one run of each command that reads a dataset, with dp:F directions so
# every records run builds a Gram matrix too
DATASET_RUNS = {
    "firstpc": ["bench", "--experiment", "firstpc", "--mechanism", "mvg-equi",
                "--trials", "3", "--directions", "dp:0.2"],
    "ablation": ["bench", "--experiment", "ablation", "--mechanism", "mvg-equi",
                 "--trials", "3", "--directions", "dp:0.2", "--favored", "0"],
    "covest": ["bench", "--experiment", "covest", "--mechanism", "mvg-uni",
               "--trials", "3", "--directions", "dp:0.2"],
    "regression": ["bench", "--experiment", "regression", "--mechanism", "mvg-uni",
                   "--trials", "3", "--directions", "dp:0.2"],
    "perturb": ["perturb", "--query", "covariance", "--directions", "dp:0.2",
                "--theta", "binary:0.9:0"],
    "perturb-identity": ["perturb", "--query", "identity", "--directions", "dp:0.2",
                         "--theta", "binary:0.9:0"],
}


def run_on_dataset(tmp_path, capfdbinary, run, data, name="data"):
    """``DATASET_RUNS[run]`` on ``data`` in the box [-1, 1]: its exit code,
    its output (bench's stdout, or perturb's output file if it wrote one)
    and its stderr."""
    args = DATASET_RUNS[run] + ["--input", write_dataset(tmp_path, data, f"{name}.csv"),
                                "--epsilon", "1", "--lo", "-1", "--hi", "1"]
    out = tmp_path / f"{name}.out.csv"
    if args[0] == "perturb":
        args += ["--out", str(out)]
    code = main(args)
    captured = capfdbinary.readouterr()
    output = out.read_bytes() if out.exists() else captured.out
    return code, output, captured.err


@pytest.fixture
def sign_data():
    rng = np.random.default_rng(0)
    scale = np.array([1.0, 0.6, 0.2])
    return scale[:, None] * rng.choice([-1.0, 1.0], size=(3, 200))


class TestBudgetCommand:
    def test_prints_all_fields(self, capsys):
        # with m = n = 1 the unimodal budget phi^4 / n is the equi-modal
        # phi^2 squared
        for mode, budget in (("unimodal", 0.0012005078745576348),
                             ("equimodal", 0.03464834591373208)):
            code = main(["budget", "--epsilon", "1", "--delta", str(math.exp(-1)),
                         "--m", "1", "--n", "1", "--gamma", "1",
                         "--sensitivity", "1", "--mode", mode])
            assert code == 0
            out = capsys.readouterr().out
            values = dict(line.split("=", 1) for line in out.strip().splitlines())
            assert float(values["alpha"]) == pytest.approx(4.0)
            assert float(values["beta"]) == pytest.approx(10.0)
            assert float(values["zeta"]) == pytest.approx(5.0)
            assert float(values["phi_max"]) == pytest.approx(0.18614066163450715)
            assert float(values["precision_budget"]) == pytest.approx(budget)
            assert values["mode"] == mode

    def test_bad_delta_exits_2(self):
        assert main(["budget", "--epsilon", "1", "--delta", "0",
                     "--m", "1", "--n", "1", "--gamma", "1",
                     "--sensitivity", "1", "--mode", "unimodal"]) == 2


class TestSampleCommand:
    def test_identity_covariances_reproduce_raw_normals(self, tmp_path):
        sigma = write_matrix(tmp_path, np.eye(2), "sigma.csv")
        psi = write_matrix(tmp_path, np.eye(3), "psi.csv")
        out = tmp_path / "samples.csv"
        code = main(["sample", "--m", "2", "--n", "3", "--sigma", sigma,
                     "--psi", psi, "--seed", "9", "--count", "2",
                     "--out", str(out)])
        assert code == 0
        samples = load_dense_csv(out)
        assert samples.shape == (2, 6)
        stream = RandomStream(9)
        expect0 = stream.standard_normal((2, 3)).reshape(-1)
        expect1 = stream.standard_normal((2, 3)).reshape(-1)
        assert np.array_equal(samples[0], expect0)
        assert np.array_equal(samples[1], expect1)

    def test_general_covariances(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2))
        sigma_mat = a @ a.T + 0.5 * np.eye(2)
        sigma = write_matrix(tmp_path, sigma_mat, "sigma.csv")
        psi = write_matrix(tmp_path, np.eye(2), "psi.csv")
        out = tmp_path / "samples.csv"
        assert main(["sample", "--m", "2", "--n", "2", "--sigma", sigma,
                     "--psi", psi, "--seed", "4", "--count", "1",
                     "--out", str(out)]) == 0
        got = load_dense_csv(out).reshape(2, 2)
        design = NoiseDesign.from_covariances(sigma_mat, np.eye(2))
        assert np.allclose(got, sample_mvg(RandomStream(4), design),
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("flag, value, message", [
        ("--count", "0", "count must be positive"),
        ("--seed", "-1", "seed must fit in 64 unsigned bits"),
    ])
    def test_a_bad_flag_is_reported_before_the_files_are_read(
            self, tmp_path, capsys, flag, value, message):
        missing = str(tmp_path / "missing.csv")
        assert main(["sample", "--m", "2", "--n", "2", "--sigma", missing,
                     "--psi", missing, flag, value,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert message in err and "missing.csv" not in err

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        for sigma_size, psi_size, message in (
                (3, 2, "sigma is (3, 3), expected (2, 2)"),
                (2, 3, "psi is (3, 3), expected (2, 2)")):
            sigma = write_matrix(tmp_path, np.eye(sigma_size), "sigma.csv")
            psi = write_matrix(tmp_path, np.eye(psi_size), "psi.csv")
            assert main(["sample", "--m", "2", "--n", "2", "--sigma", sigma,
                         "--psi", psi, "--out", str(tmp_path / "o.csv")]) == 2
            assert message in capsys.readouterr().err


class TestPerturbCommand:
    def test_identity_roundtrip_shape(self, tmp_path, sign_data):
        data = write_dataset(tmp_path, sign_data)
        out = tmp_path / "out.csv"
        code = main(["perturb", "--input", data, "--query", "identity",
                     "--epsilon", "1", "--lo", "-1", "--hi", "1",
                     "--theta", "uniform", "--seed", "3", "--out", str(out)])
        assert code == 0
        released = load_dense_csv(out)
        assert released.shape == (200, 3)  # records as rows again

    def test_covariance_release(self, tmp_path, sign_data):
        data = write_dataset(tmp_path, sign_data)
        out = tmp_path / "cov.csv"
        code = main(["perturb", "--input", data, "--query", "covariance",
                     "--epsilon", "1", "--lo", "-1", "--hi", "1",
                     "--theta", "binary:0.9:0", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        assert load_dense_csv(out).shape == (3, 3)

    def test_delta_defaults_to_one_over_n(self, tmp_path, sign_data):
        data = write_dataset(tmp_path, sign_data)
        out_default = tmp_path / "a.csv"
        out_explicit = tmp_path / "b.csv"
        args = ["perturb", "--input", data, "--query", "identity",
                "--epsilon", "1", "--lo", "-1", "--hi", "1", "--seed", "7"]
        assert main(args + ["--out", str(out_default)]) == 0
        assert main(args + ["--delta", str(1 / 200), "--out",
                            str(out_explicit)]) == 0
        assert out_default.read_bytes() == out_explicit.read_bytes()

    def test_out_of_bounds_data_is_clamped(self, tmp_path, sign_data, capfdbinary):
        # two of the three features reach 0.6 and 1, beyond [-0.5, 0.5]
        outputs = []
        for name, data in (("raw", sign_data),
                           ("clipped", np.clip(sign_data, -0.5, 0.5))):
            out = tmp_path / f"{name}.out.csv"
            path = write_dataset(tmp_path, data, f"{name}.csv")
            assert main(["perturb", "--input", path, "--query", "identity",
                         "--epsilon", "1", "--lo", "-0.5", "--hi", "0.5",
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert capfdbinary.readouterr().err == b""

    def test_nan_cell_exits_3(self, tmp_path, sign_data):
        data = np.array(sign_data)
        data[1, 17] = np.nan
        out = tmp_path / "o.csv"
        for query in ("identity", "covariance"):
            code = main(["perturb", "--input", write_dataset(tmp_path, data),
                         "--query", query, "--epsilon", "1", "--lo", "-1",
                         "--hi", "1", "--out", str(out)])
            assert code == 3
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path):
        code = main(["perturb", "--input", str(tmp_path / "nope.csv"),
                     "--query", "identity", "--epsilon", "1",
                     "--lo", "0", "--hi", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_unwritable_out_exits_2(self, tmp_path, sign_data, capsys):
        data = write_dataset(tmp_path, sign_data)
        code = main(["perturb", "--input", data, "--query", "identity",
                     "--epsilon", "1", "--lo", "-1", "--hi", "1",
                     "--out", str(tmp_path / "missing" / "o.csv")])
        assert code == 2
        assert "mvgdp: error:" in capsys.readouterr().err

    def test_directory_input_exits_2(self, tmp_path, capsys):
        code = main(["perturb", "--input", str(tmp_path), "--query", "identity",
                     "--epsilon", "1", "--lo", "0", "--hi", "1",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "mvgdp: error:" in capsys.readouterr().err

    def test_dp_directions(self, tmp_path, sign_data):
        data = write_dataset(tmp_path, sign_data)
        out = tmp_path / "o.csv"
        code = main(["perturb", "--input", data, "--query", "covariance",
                     "--epsilon", "1", "--lo", "-1", "--hi", "1",
                     "--theta", "binary:0.9:0,1", "--directions", "dp:0.2",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        assert load_dense_csv(out).shape == (3, 3)

    def test_a_bad_seed_is_reported_before_the_input_is_read(self, tmp_path,
                                                              capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["perturb", "--input", missing, "--query", "covariance",
                     "--epsilon", "1", "--lo", "-1", "--hi", "1", "--seed", "-1",
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "seed must fit in 64 unsigned bits" in err and "missing.csv" not in err

    def test_a_bad_allocation_is_reported_before_the_input_is_read(self, tmp_path,
                                                                   capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["perturb", "--input", missing, "--query", "identity",
                     "--epsilon", "1", "--lo", "-1", "--hi", "1", "--theta", "bogus",
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "could not parse allocation 'bogus'" in err and "missing.csv" not in err


def csv_bytes(matrix):
    return "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in matrix).encode()


class TestPerturbReplay:
    """``perturb`` output bytes equal a library release with the same seed."""

    def replay(self, path, query, directions):
        x, _ = load_csv_matrix(path)
        m, n = x.shape
        bounds = DataBounds(m, n, -1.0, 1.0)
        p = PrivacyParams(1.0, 1.0 / n)
        stream = RandomStream(5)
        if query == "identity":
            q = QuerySpec(m, n, sensitivity=identity_sensitivity(bounds),
                          gamma=gamma_identity(bounds), kind=QueryKind.IDENTITY)
            value, release = x, mvg_unimodal
        else:
            q = QuerySpec(m, m, sensitivity=covariance_sensitivity(bounds),
                          gamma=gamma_covariance(bounds),
                          kind=QueryKind.COVARIANCE)
            value, release = x @ x.T / n, mvg_equimodal
        if directions == "standard":
            w = np.eye(m)
        elif directions.startswith("dp:"):
            f = float(directions[3:])
            w = derive_directions_dp(x, PrivacyParams(f * p.epsilon, f * p.delta),
                                     m, stream, bounds=bounds)
            p = PrivacyParams(p.epsilon * (1 - f), p.delta * (1 - f))
        else:
            w = load_dense_csv(directions)
        theta = parse_theta_spec("binary:0.9:0,1", m)
        out = release(value, q, p, theta, w, stream).output
        return csv_bytes(out.T if query == "identity" else out)

    @pytest.mark.parametrize("query", ["covariance", "identity"])
    @pytest.mark.parametrize("directions", ["standard", "file", "dp:0.2"])
    def test_output_bytes_match_a_library_release(self, tmp_path, sign_data,
                                                  query, directions):
        data = write_dataset(tmp_path, sign_data)
        if directions == "file":
            basis = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]
            directions = write_matrix(tmp_path, basis, "w.csv")
        out = tmp_path / "o.csv"
        code = main(["perturb", "--input", data, "--query", query,
                     "--epsilon", "1", "--lo", "-1", "--hi", "1",
                     "--theta", "binary:0.9:0,1", "--directions", directions,
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == self.replay(data, query, directions)


class TestBenchCommand:
    def bench_args(self, data, fmt="text"):
        return ["bench", "--experiment", "firstpc", "--input", data,
                "--mechanism", "mvg-equi", "--trials", "5", "--epsilon", "1",
                "--lo", "-1", "--hi", "1", "--favored", "0", "--tau", "0.9",
                "--seed", "21", "--format", fmt]

    def test_byte_identical_reruns(self, tmp_path, sign_data, capfdbinary):
        data = write_dataset(tmp_path, sign_data)
        assert main(self.bench_args(data)) == 0
        first = capfdbinary.readouterr().out
        assert main(self.bench_args(data)) == 0
        second = capfdbinary.readouterr().out
        assert first == second
        assert first.startswith(b"metric=delta_rho")

    def test_csv_format(self, tmp_path, sign_data, capfdbinary):
        data = write_dataset(tmp_path, sign_data)
        assert main(self.bench_args(data, fmt="csv")) == 0
        out = capfdbinary.readouterr().out.decode()
        assert out.splitlines()[0] == "metric,mean,ci95,trials"

    def test_ablation_emits_three_rows(self, tmp_path, sign_data, capfdbinary):
        data = write_dataset(tmp_path, sign_data)
        args = ["bench", "--experiment", "ablation", "--input", data,
                "--mechanism", "mvg-equi", "--trials", "3", "--epsilon", "1",
                "--lo", "-1", "--hi", "1", "--favored", "0,1",
                "--seed", "2", "--format", "csv"]
        assert main(args) == 0
        lines = capfdbinary.readouterr().out.decode().strip().splitlines()
        assert len(lines) == 4

    def test_seed_past_64_bits_exits_2(self, tmp_path, sign_data, capfdbinary):
        # 2^64 + 5 must not run as seed 5; perturb rejects it too
        data = write_dataset(tmp_path, sign_data)
        args = self.bench_args(data)
        args[args.index("--seed") + 1] = str(2 ** 64 + 5)
        assert main(args) == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert b"seed" in captured.err

    def test_directory_input_exits_2(self, tmp_path, capsys):
        assert main(self.bench_args(str(tmp_path))) == 2
        assert "mvgdp: error:" in capsys.readouterr().err

    def test_equimodal_on_regression_exits_2(self, tmp_path, sign_data):
        rng = np.random.default_rng(3)
        data = write_dataset(tmp_path, rng.uniform(0, 1, (4, 40)))
        code = main(["bench", "--experiment", "regression", "--input", data,
                     "--mechanism", "mvg-equi", "--trials", "2",
                     "--epsilon", "1", "--lo", "0", "--hi", "1"])
        assert code == 2

    def test_a_basis_of_the_wrong_size_exits_2(self, tmp_path, capsys):
        # 4 features, so a 4 x 4 covariance query, and a 3 x 3 basis
        data = write_dataset(tmp_path, np.random.default_rng(5).choice([-1.0, 1.0],
                                                                        size=(4, 50)))
        basis = write_matrix(tmp_path, np.eye(3), "w3.csv")
        code = main(["bench", "--experiment", "firstpc", "--input", data,
                     "--mechanism", "mvg-equi", "--trials", "2", "--epsilon", "1",
                     "--lo", "-1", "--hi", "1", "--directions", basis])
        assert code == 2
        assert "w_sigma has shape (3, 3) but the query has 4 rows" in capsys.readouterr().err

    def test_a_failed_privacy_condition_exits_4(self, tmp_path, sign_data, capfdbinary,
                                                monkeypatch):
        # a cached spectrum would skip the check
        mechanisms.release_spectrum.cache_clear()
        monkeypatch.setattr(mechanisms, "check_condition",
                            lambda design, q, p: ConditionCheck(False, 2.0, 1.0))
        assert main(self.bench_args(write_dataset(tmp_path, sign_data))) == 4
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"mvgdp: internal assertion failed: constructed "
                                       b"design violates the privacy condition")

    @pytest.mark.parametrize("value", [100.0, -np.inf])
    # regression trains on the first 144 of the 200 records
    @pytest.mark.parametrize("record", [100, 190], ids=["train", "test"])
    @pytest.mark.parametrize("run", DATASET_RUNS)
    def test_a_cell_outside_the_box_runs_as_the_clipped_data(
            self, tmp_path, sign_data, monkeypatch, capfdbinary, run, record, value):
        monkeypatch.setattr(sensitivity, "GRAM_BLOCK_CELLS", 9)  # 3-record blocks
        data = np.array(sign_data)
        data[1, record] = value
        raw = run_on_dataset(tmp_path, capfdbinary, run, data, "raw")
        clipped = run_on_dataset(tmp_path, capfdbinary, run, np.clip(data, -1.0, 1.0),
                                 "clipped")
        assert raw[0] == 0 and raw[1] != b""
        assert raw == clipped  # the same output, and no data value on stderr
        assert raw[2] == b""

    def test_nan_cell_exits_3(self, tmp_path, sign_data, capfdbinary):
        data = np.array(sign_data)
        data[2, 0] = np.nan
        path = write_dataset(tmp_path, data)
        assert main(self.bench_args(path)) == 3
        assert capfdbinary.readouterr().out == b""
        dp_args = self.bench_args(path) + ["--directions", "dp:0.2"]
        assert main(dp_args) == 3

    @pytest.mark.parametrize("flag, message", [
        ("--trials=0", "trials must be a positive integer"),
        ("--seed=-1", "seed must be an integer in [0, 2^64)"),
        ("--ridge-reg=0", "ridge_reg must be positive"),
        ("--ridge-reg=inf", "ridge_reg must be positive and finite, got inf"),
        ("--epsilon=-1", "epsilon must be positive"),
        ("--delta=0", "delta must lie in the open interval"),
        ("--directions=dp:half", "could not parse direction budget"),
        ("--directions=dp:1.5", "direction budget fraction must lie in (0, 1)"),
        ("--lo=2", "lo must be less than hi"),
    ])
    def test_a_bad_flag_is_reported_before_the_input_is_read(
            self, tmp_path, capfdbinary, flag, message):
        missing = str(tmp_path / "missing.csv")
        for experiment in ("firstpc", "covest"):
            args = self.bench_args(missing) + [f"--experiment={experiment}", flag]
            assert main(args) == 2
            err = capfdbinary.readouterr().err.decode()
            assert message in err and "missing.csv" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--theta", "bogus"], "could not parse allocation 'bogus'"),
        (["--favored", "x"], "could not parse binary allocation 'binary:0.9:x'"),
        (["--favored", "0", "--tau", "1.5"], "tau must lie in (0, 1), got 1.5"),
        (["--favored", ","], "favored index set must not be empty"),
        (["--theta", "0.5,-1,0.5"], "every allocation share must be positive"),
        (["--theta", "0.5,nan,0.5"], "theta must be finite"),
        (["--favored", "0,-1"], "favored indices [-1, 0] must not be negative"),
        # a later --experiment wins
        (["--experiment", "ablation"],
         "needs a binary allocation (binary:TAU:I,J,...), got 'uniform'"),
        (["--experiment", "ablation", "--theta", "0.5,0.5"],
         "needs a binary allocation (binary:TAU:I,J,...), got '0.5,0.5'"),
    ], ids=["theta", "favored", "tau", "empty-favored", "negative-share",
            "nan-share", "negative-index", "ablation-uniform", "ablation-shares"])
    def test_a_bad_allocation_is_reported_before_the_input_is_read(
            self, tmp_path, capfdbinary, flags, message):
        missing = str(tmp_path / "missing.csv")
        args = ["bench", "--experiment", "firstpc", "--input", missing,
                "--mechanism", "mvg-equi", "--epsilon", "1", *flags]
        assert main(args) == 2
        err = capfdbinary.readouterr().err.decode()
        assert message in err and "missing.csv" not in err

    @pytest.mark.parametrize("mechanism", [kind.value for kind, row
                                           in harness._MECHANISMS.items()
                                           if not row.mvg])
    @pytest.mark.parametrize("flags, message", [
        (["--theta", "0.5,0.3,0.2"], "allocation '0.5,0.3,0.2' applies only to MVG"),
        (["--favored", "0"], "allocation 'binary:0.9:0' applies only to MVG"),
        (["--directions", "dp:0.2"], "directions 'dp:0.2' apply only to MVG"),
    ], ids=["theta", "favored", "directions"])
    def test_a_baseline_conflict_is_reported_before_the_input_is_read(
            self, tmp_path, capfdbinary, mechanism, flags, message):
        missing = str(tmp_path / "missing.csv")
        args = ["bench", "--experiment", "firstpc", "--input", missing,
                "--mechanism", mechanism, "--epsilon", "1", *flags]
        assert main(args) == 2
        err = capfdbinary.readouterr().err.decode()
        assert message in err and "missing.csv" not in err

    @pytest.mark.parametrize("run, clamped", [
        ("firstpc", [(200, 3)]),
        ("ablation", [(200, 3)]),
        ("perturb", [(200, 3)]),
        # X where it enters, then the records its Gram matrix sums: the
        # training records for regression, all of them otherwise
        ("covest", [(3, 200), (200, 3)]),
        ("regression", [(3, 200), (144, 3)]),
        ("perturb-identity", [(3, 200), (200, 3)]),
    ], ids=["firstpc", "ablation", "perturb", "covest", "regression",
            "perturb-identity"])
    def test_clamps_and_multiplies_the_dataset_once(self, tmp_path, sign_data,
                                                    monkeypatch, capfdbinary, run,
                                                    clamped):
        seen, grams = [], []

        def counting_clamp(x, lo, hi):
            seen.append(x.shape)
            return clamp(x, lo, hi)

        def counting_init(self, *args, **kwargs):
            grams.append(args)
            return gram_init(self, *args, **kwargs)

        gram_init = sensitivity.AuditedGram.__init__
        for module in (sensitivity, harness):
            monkeypatch.setattr(module, "clamp", counting_clamp)
        monkeypatch.setattr(sensitivity.AuditedGram, "__init__", counting_init)
        assert run_on_dataset(tmp_path, capfdbinary, run, sign_data)[0] == 0
        # a Gram-only run touches each of the dataset's 600 cells once
        assert seen == clamped
        assert len(grams) == 1

    @pytest.mark.parametrize("run", DATASET_RUNS)
    def test_a_nan_in_a_later_block_names_no_value_or_line(
            self, tmp_path, sign_data, monkeypatch, capfdbinary, run):
        monkeypatch.setattr(sensitivity, "GRAM_BLOCK_CELLS", 9)  # 3-record blocks
        data = np.array(sign_data)
        data[1, 190] = np.nan
        code, out, err = run_on_dataset(tmp_path, capfdbinary, run, data)
        assert (code, out) == (3, b"")
        assert err.startswith(b"mvgdp: contract violation: the data holds a cell "
                              b"that is not a number")
        assert b"nan" not in err.lower() and b"line" not in err and b"191" not in err

    @pytest.mark.parametrize("experiment", ["firstpc", "ablation"])
    @pytest.mark.parametrize("line, cell, code, message", [
        (9, "1,2,x", 2, "non-numeric cell at line 9, column 3: 'x'"),
        (9, "1,2", 2, "line 9 has 2 cells, expected 3"),
    ])
    def test_a_fault_in_a_later_block_names_its_line(
            self, tmp_path, sign_data, monkeypatch, capfdbinary, experiment,
            line, cell, code, message):
        monkeypatch.setattr(sensitivity, "GRAM_BLOCK_CELLS", 9)  # 3-record blocks
        data = write_dataset(tmp_path, sign_data)
        with open(data) as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[line - 1] = cell + "\n"
        with open(data, "w") as handle:
            handle.write("".join(lines))
        args = self.bench_args(data) + [f"--experiment={experiment}"]
        assert main(args) == code
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert message in captured.err.decode()

    def test_loads_the_dataset_once(self, tmp_path, sign_data, monkeypatch):
        # every CSV reader parses through harness._GridBlocks: a first-PC run
        # reads the file for its Gram matrix, a covest run for its records
        data = write_dataset(tmp_path, sign_data)
        reads = []
        original = harness._GridBlocks

        def counting(*args, **kwargs):
            reads.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "_GridBlocks", counting)
        assert main(self.bench_args(data) + ["--directions", "dp:0.2"]) == 0
        assert reads == [data]
        reads.clear()
        assert main(["bench", "--experiment", "covest", "--input", data,
                     "--mechanism", "mvg-uni", "--trials", "2", "--epsilon", "1",
                     "--lo", "-1", "--hi", "1", "--directions", "dp:0.2"]) == 0
        assert reads == [data]

    def test_config_file_supplies_defaults(self, tmp_path, sign_data,
                                           capfdbinary):
        import json

        data = write_dataset(tmp_path, sign_data)
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "experiment": "firstpc", "input": data, "mechanism": "mvg-equi",
            "trials": 5, "epsilon": 1.0, "lo": -1.0, "hi": 1.0,
            "favored": "0", "tau": 0.9, "seed": 21, "format": "text",
        }))
        assert main(["bench", "--config", str(config)]) == 0
        from_config = capfdbinary.readouterr().out
        assert main(self.bench_args(data)) == 0
        from_flags = capfdbinary.readouterr().out
        assert from_config == from_flags

    def test_flags_override_config(self, tmp_path, sign_data, capfdbinary):
        import json

        data = write_dataset(tmp_path, sign_data)
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "experiment": "firstpc", "input": data, "mechanism": "mvg-equi",
            "trials": 5, "epsilon": 1.0, "lo": -1.0, "hi": 1.0, "seed": 21,
        }))
        assert main(["bench", "--config", str(config), "--format", "csv"]) == 0
        out = capfdbinary.readouterr().out.decode()
        assert out.splitlines()[0] == "metric,mean,ci95,trials"

    def test_config_unknown_key_exits_2(self, tmp_path, sign_data):
        import json

        data = write_dataset(tmp_path, sign_data)
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({"input": data, "banana": 1}))
        assert main(["bench", "--config", str(config)]) == 2

    @pytest.mark.parametrize("bad, named", [
        (5, "JSON object"),
        ({"trials": "abc"}, "trials"),
        ({"experiment": "bogus"}, "experiment"),
        ({"format": "xml"}, "format"),
        ('{"trials": 2,', "invalid JSON"),
    ])
    def test_config_bad_value_exits_2_before_the_run(self, tmp_path, sign_data,
                                                     capfdbinary, bad, named):
        # file values get the type and choice checks flags get from argparse
        import json

        data = write_dataset(tmp_path, sign_data)
        if isinstance(bad, dict):
            bad = {"experiment": "firstpc", "input": data, "mechanism": "mvg-equi",
                   "trials": 2, "epsilon": 1.0, "lo": -1.0, "hi": 1.0, **bad}
        config = tmp_path / "bench.json"
        # a string is the file's text as it stands
        config.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        assert main(["bench", "--config", str(config)]) == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        err = captured.err.decode()
        assert err.startswith("mvgdp: error: ") and named in err

    def test_allocation_with_a_baseline_exits_2(self, tmp_path, sign_data,
                                                capfdbinary):
        data = write_dataset(tmp_path, sign_data)
        code = main(["bench", "--experiment", "firstpc", "--input", data,
                     "--mechanism", "gauss", "--trials", "3", "--epsilon", "1",
                     "--lo", "-1", "--hi", "1", "--favored", "0"])
        assert code == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"mvgdp: error: allocation")

    @pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
    def test_tau_without_favored_exits_2(self, tmp_path, sign_data, capfdbinary,
                                         in_config):
        # a tau with no favored set would run as uniform without a word
        data = write_dataset(tmp_path, sign_data)
        args = self.bench_args(data)
        del args[args.index("--favored"):args.index("--favored") + 2]
        if in_config:
            del args[args.index("--tau"):args.index("--tau") + 2]
            config = tmp_path / "bench.json"
            config.write_text(json.dumps({"tau": 0.5}))
            args += ["--config", str(config)]
        assert main(args) == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert b"--tau" in captured.err and b"--favored" in captured.err

    @pytest.mark.parametrize("drop", ["--tau", "--favored", None],
                             ids=["favored", "tau", "both"])
    @pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
    def test_theta_with_favored_or_tau_exits_2(self, tmp_path, sign_data,
                                               capfdbinary, drop, in_config):
        # a full allocation would silently replace the binary one
        data = write_dataset(tmp_path, sign_data)
        args = self.bench_args(data)
        if drop is not None:
            del args[args.index(drop):args.index(drop) + 2]
        if in_config:
            config = tmp_path / "bench.json"
            config.write_text(json.dumps({"theta": "uniform"}))
            args += ["--config", str(config)]
        else:
            args += ["--theta", "uniform"]
        assert main(args) == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        err = captured.err.decode()
        assert err.startswith("mvgdp: error: ") and err.count("\n") == 1
        assert "--theta" in err

    def test_favored_without_tau_gives_0_9(self, tmp_path, sign_data, capfdbinary):
        data = write_dataset(tmp_path, sign_data)
        args = self.bench_args(data)
        del args[args.index("--tau"):args.index("--tau") + 2]
        assert main(args) == 0
        default = capfdbinary.readouterr().out
        assert main(self.bench_args(data)) == 0
        assert default == capfdbinary.readouterr().out

    def test_missing_required_option_exits_2(self, tmp_path, sign_data):
        data = write_dataset(tmp_path, sign_data)
        assert main(["bench", "--input", data, "--mechanism", "mvg-equi",
                     "--epsilon", "1"]) == 2

    @pytest.mark.parametrize("mechanism", ["gauss", "laplace"])
    def test_ablation_with_a_baseline_exits_2(self, tmp_path, sign_data,
                                              capfdbinary, mechanism):
        # a baseline ignores the allocation, so its three arms would be one
        data = write_dataset(tmp_path, sign_data)
        with pytest.raises(ConfigError, match="allocation"):
            ExperimentConfig(
                experiment=Experiment.DIRECTION_ABLATION, dataset_path=data,
                bounds=DataBounds(3, 200, -1.0, 1.0), privacy=PrivacyParams(1.0, 0.005),
                mechanism=MechanismKind(mechanism), theta_spec="binary:0.9:0,1",
                trials=3)
        code = main(["bench", "--experiment", "ablation", "--input", data,
                     "--mechanism", mechanism, "--trials", "3", "--epsilon", "1",
                     "--lo", "-1", "--hi", "1", "--favored", "0,1"])
        assert code == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"mvgdp: error: ")


def bench_options():
    """The bench parser's options but --help and --config; argparse has no
    public accessor, so this reads its action lists."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return [a for a in commands.choices["bench"]._actions
            if a.dest not in ("help", "config")]


def test_the_mechanism_table_has_one_row_per_bench_choice():
    (option,) = [a for a in bench_options() if a.dest == "mechanism"]
    assert set(harness._MECHANISMS) == set(MechanismKind)
    assert sorted(option.choices) == sorted(kind.value for kind in harness._MECHANISMS)


class TestBenchConfigFile:
    """A config file is parsed as bench flags by the bench parser itself."""

    def parsed(self, monkeypatch, argv):
        seen = []
        monkeypatch.setattr(cli, "_cmd_bench", lambda args: seen.append(args) or 0)
        assert main(argv) == 0
        (args,) = seen
        return {k: v for k, v in vars(args).items() if k not in ("config", "func")}

    def write_config(self, tmp_path, entries):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_every_option_parses_as_its_flag(self, tmp_path, monkeypatch):
        options = bench_options()
        assert {"experiment", "ridge_reg", "has_header"} <= {a.dest for a in options}
        for action in options:
            if isinstance(action, argparse.BooleanOptionalAction):
                value, flags = True, [action.option_strings[0]]
            else:
                value = (action.choices[-1] if action.choices
                         else {int: 7, float: 0.25, None: "x"}[action.type])
                flags = [action.option_strings[0], str(value)]
            config = self.write_config(tmp_path, {action.dest: value})
            from_file = self.parsed(monkeypatch, ["bench", "--config", config])
            assert from_file == self.parsed(monkeypatch, ["bench", *flags])
            assert from_file[action.dest] == value != action.default

    def test_null_entries_leave_the_defaults(self, tmp_path, monkeypatch):
        config = self.write_config(tmp_path, {a.dest: None for a in bench_options()})
        assert (self.parsed(monkeypatch, ["bench", "--config", config])
                == self.parsed(monkeypatch, ["bench"]))

    def test_command_line_wins(self, tmp_path, monkeypatch):
        config = self.write_config(tmp_path, {"seed": 3, "has_header": True})
        args = self.parsed(monkeypatch, ["bench", "--seed", "4", "--config", config,
                                         "--no-has-header"])
        assert (args["seed"], args["has_header"]) == (4, False)

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["bench", "--trials", "abc"],
        ["bench", "--banana"],
        ["perturb", "--input", "data.csv"],
    ], ids=["no-command", "unknown-command", "bad-int", "unknown-flag",
            "missing-required"])
    def test_bad_flag_exits_2_without_usage(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mvgdp: error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("entries, named", [
        ({"exp": "firstpc"}, "exp"),
        ({"config": "other.json"}, "config"),
        ({"help": True}, "help"),
        ({"help": None}, "help"),
        ({"ridge-reg": 2.0}, "ridge-reg"),
        ({"seed": 1e3}, "seed"),
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"input": False}, "input"),
        ({"input": ["data.csv"]}, "input"),
        ({"has_header": "yes"}, "has-header"),
    ])
    def test_bad_entry_exits_2_naming_the_file(self, tmp_path, capsys,
                                               entries, named):
        config = self.write_config(tmp_path, entries)
        assert main(["bench", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mvgdp: error: {config}: ")
        assert named in err
