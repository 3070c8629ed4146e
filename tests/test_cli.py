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
    PrivacyParams,
    QueryKind,
    QuerySpec,
    RandomStream,
    cli,
    covariance_query,
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
    # seeded, so two runs draw the same noise and compare byte for byte
    "perturb": ["perturb", "--query", "covariance", "--directions", "dp:0.2",
                "--theta", "binary:0.9:0", "--seed", "0"],
    "perturb-identity": ["perturb", "--query", "identity", "--directions", "dp:0.2",
                         "--theta", "binary:0.9:0", "--seed", "0"],
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

    def test_a_gamma_whose_square_overflows_exits_2(self, capsys):
        # every flag is finite, but gamma squared overflows
        assert main(["budget", "--epsilon", "1", "--delta", "0.1",
                     "--m", "2", "--n", "2", "--gamma", "1e308",
                     "--sensitivity", "1", "--mode", "unimodal"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "mvgdp: error: alpha must be positive and finite, got inf\n"

    @pytest.mark.parametrize("mode", ["unimodal", "equimodal"])
    def test_counts_past_64_bits_run_in_bounded_memory(self, capsys, mode):
        # r = 2^64: the harmonic numbers come from their expansions, so
        # nothing of size r is allocated
        assert main(["budget", "--epsilon", "1", "--delta", "0.1",
                     "--m", str(2 ** 64), "--n", str(2 ** 64), "--gamma", "1",
                     "--sensitivity", "1", "--mode", mode]) == 0
        values = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.strip().splitlines())
        assert float(values["h_r"]) == pytest.approx(64 * math.log(2) + 0.5772156649015329)
        assert 0.0 < float(values["precision_budget"]) < math.inf

    @pytest.mark.parametrize("m, n, message", [
        ("1" + "0" * 400, "2", "m*n must be finite, got inf"),
        ("1" + "0" * 400, "1" + "0" * 400, "r must be finite, got inf")],
        ids=["m", "m and n"])
    def test_counts_too_large_for_a_float_exit_2(self, capsys, m, n, message):
        assert main(["budget", "--epsilon", "1", "--delta", "0.1", "--m", m,
                     "--n", n, "--gamma", "1", "--sensitivity", "1",
                     "--mode", "unimodal"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mvgdp: error: {message}\n"


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
                         "--seed", "0", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert capfdbinary.readouterr().err == b""

    def unseeded_covariance_release(self, tmp_path, data, name):
        out = tmp_path / f"{name}.csv"
        assert main(["perturb", "--input", write_dataset(tmp_path, data),
                     "--query", "covariance", "--epsilon", "1", "--lo", "-1",
                     "--hi", "1", "--theta", "uniform", "--out", str(out)]) == 0
        return load_dense_csv(out)

    def test_unseeded_runs_draw_different_noise(self, tmp_path, sign_data):
        first, second = (self.unseeded_covariance_release(tmp_path, sign_data, name)
                         for name in ("first", "second"))
        assert not np.array_equal(first, second)

    def test_unseeded_noise_cannot_be_redrawn_and_subtracted(self, tmp_path):
        # Under a known seed the noise is a function of public inputs: plan
        # the same release of a zero matrix, draw it from that seed, and the
        # output minus that draw is X X^T / N to rounding.
        x = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 500))
        bounds = DataBounds(3, 500, -1.0, 1.0)
        (plan,) = harness.plan_releases(MechanismKind.MVG_EQUIMODAL,
                                        covariance_query(bounds), np.zeros((3, 3)),
                                        PrivacyParams(1.0, 1 / 500), [None],
                                        ("standard", None), None)
        noise = plan.draw([RandomStream(0)])[0]
        recovered = self.unseeded_covariance_release(tmp_path, x, "cov") - noise
        # the noise sd is about 5 here, so a recovery would be within 1e-12
        assert np.abs(recovered - x @ x.T / 500).max() > 1e-3

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

    @pytest.mark.parametrize("rows, message", [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
         "w_sigma has shape (4, 3) but the query has 3 rows"),
        (2 * np.eye(3), "w_sigma is not orthonormal: max |W^T W - I| = 3.000e+00 exceeds 1e-08"),
        ([[1, 0, 0], [0, np.nan, 0], [0, 0, 1]],
         "w_sigma is not orthonormal: max |W^T W - I| = nan exceeds 1e-08"),
        ([[1, 0, 0], [0, np.inf, 0], [0, 0, 1]],
         "w_sigma is not orthonormal: max |W^T W - I| = nan exceeds 1e-08"),
        ([[1, 0, 0], [0, -np.inf, 0], [0, 0, 1]],
         "w_sigma is not orthonormal: max |W^T W - I| = nan exceeds 1e-08"),
    ], ids=["not-square", "not-orthonormal", "nan", "inf", "-inf"])
    def test_a_directions_file_that_is_not_a_basis_exits_2(self, tmp_path, sign_data,
                                                           capfdbinary, rows, message):
        # an entry that is not finite fails the orthonormality check, and
        # an infinite one does so without a RuntimeWarning on stderr
        directions = write_matrix(tmp_path, rows, "w.csv")
        out = tmp_path / "o.csv"
        assert main(["perturb", "--input", write_dataset(tmp_path, sign_data),
                     "--query", "covariance", "--epsilon", "1", "--lo", "-1", "--hi", "1",
                     "--directions", directions, "--out", str(out)]) == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert captured.err == f"mvgdp: error: {message}\n".encode()
        assert not out.exists()


def csv_bytes(matrix):
    return "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in matrix).encode()


class TestPerturbReplay:
    """``perturb`` output bytes equal a library release with the same seed."""

    def replay(self, path, query, directions, order="C"):
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
            w = np.asarray(load_dense_csv(directions), order=order)
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

    def test_a_fortran_ordered_basis_releases_the_bytes_of_the_file(self, tmp_path):
        # 17 features: a size at which a product's last bits can follow
        # the basis's memory order, not only its values
        rng = np.random.default_rng(17)
        data = write_dataset(tmp_path, rng.choice([-1.0, 1.0], size=(17, 200)))
        basis = np.linalg.qr(rng.standard_normal((17, 17)))[0]
        directions = write_matrix(tmp_path, basis, "w.csv")
        out = tmp_path / "o.csv"
        assert main(["perturb", "--input", data, "--query", "covariance",
                     "--epsilon", "1", "--lo", "-1", "--hi", "1",
                     "--theta", "binary:0.9:0,1", "--directions", directions,
                     "--seed", "5", "--out", str(out)]) == 0
        assert out.read_bytes() == self.replay(data, "covariance", directions, "F")


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

    @pytest.mark.parametrize("experiment", ["firstpc", "covest"])
    @pytest.mark.parametrize("flag", ["--delta", "--epsilon"])
    def test_a_gaussian_scale_that_overflows_exits_2(self, tmp_path, sign_data,
                                                     capfdbinary, experiment, flag):
        # an infinite sigma must not reach eigh (firstpc) or a NaN report (covest)
        args = ["bench", "--experiment", experiment, "--input",
                write_dataset(tmp_path, sign_data), "--mechanism", "gauss",
                "--trials", "2", "--epsilon", "1", "--delta", "0.1",
                "--lo", "-1", "--hi", "1"]
        args[args.index(flag) + 1] = "1e-320"
        assert main(args) == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert captured.err == (b"mvgdp: error: the Gaussian noise scale must be "
                                b"positive and finite, got inf\n")

    @pytest.mark.parametrize("mechanism, mode", [("mvg-uni", "unimodal"),
                                                 ("mvg-equi", "equimodal")])
    def test_a_precision_budget_that_underflows_names_epsilon(
            self, tmp_path, capfdbinary, mechanism, mode):
        # phi is positive, but phi^4 / n or phi^2 underflows to 0.0
        data = write_dataset(tmp_path, np.random.default_rng(4).uniform(0, 1, (3, 50)))
        assert main(["bench", "--experiment", "firstpc", "--input", data,
                     "--mechanism", mechanism, "--trials", "2",
                     "--epsilon", "1e-300", "--delta", "0.1"]) == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert captured.err == (
            f"mvgdp: error: the {mode} precision budget at epsilon=1e-300, "
            "delta=0.1, must be positive and finite, got 0.0\n").encode()

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

    def test_an_exact_delta_above_the_target_exits_4(self, tmp_path, sign_data,
                                                     capfdbinary, monkeypatch):
        mechanisms.release_spectrum.cache_clear()
        monkeypatch.setattr(mechanisms, "exact_delta", lambda design, s2, eps: 1.0)
        assert main(self.bench_args(write_dataset(tmp_path, sign_data))) == 4
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"mvgdp: internal assertion failed: constructed "
                                       b"design's exact delta 1 exceeds the target delta")

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
        ("--directions=", "directions must not be blank"),
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
        (["--theta", "0.5,nan,0.5"], "every allocation share must be positive and finite"),
        # four shares of 1e308 sum past the largest float
        (["--theta", "1e308,1e308,1e308,1e308"], "theta shares must have a finite sum"),
        (["--favored", "0,-1"], "favored index must be an integer >= 0, got -1"),
        # a later --experiment wins
        (["--experiment", "ablation"],
         "needs a binary allocation (binary:TAU:I,J,...), got 'uniform'"),
        (["--experiment", "ablation", "--theta", "0.5,0.5"],
         "needs a binary allocation (binary:TAU:I,J,...), got '0.5,0.5'"),
    ], ids=["theta", "favored", "tau", "empty-favored", "negative-share",
            "nan-share", "overflowing-shares", "negative-index", "ablation-uniform",
            "ablation-shares"])
    def test_a_bad_allocation_is_reported_before_the_input_is_read(
            self, tmp_path, capfdbinary, flags, message):
        missing = str(tmp_path / "missing.csv")
        args = ["bench", "--experiment", "firstpc", "--input", missing,
                "--mechanism", "mvg-equi", "--epsilon", "1", *flags]
        assert main(args) == 2
        err = capfdbinary.readouterr().err.decode()
        assert message in err and "missing.csv" not in err

    def test_shares_of_another_length_are_refused_by_the_plan(self, tmp_path, sign_data,
                                                              capfdbinary):
        # the plan's allocation check is the one length check of a run
        args = ["bench", "--experiment", "firstpc",
                "--input", write_dataset(tmp_path, sign_data), "--mechanism", "mvg-equi",
                "--epsilon", "1", "--lo", "-1", "--hi", "1", "--theta", "0.5,0.5"]
        assert main(args) == 2
        assert capfdbinary.readouterr().err.decode() == \
            "mvgdp: error: theta has 2 entries but the query has 3 rows\n"

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
        (b'{"trials": 2, "format": "\xe9"}', "not UTF-8 text"),
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
        # a string or bytes are the file's text or bytes as they stand
        if isinstance(bad, bytes):
            config.write_bytes(bad)
        else:
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


@pytest.mark.parametrize("command", [
    ["bench", "--experiment", "firstpc", "--mechanism", "mvg-equi", "--trials", "2",
     "--epsilon", "1", "--lo", "0", "--hi", "1", "--input"],
    ["perturb", "--query", "identity", "--epsilon", "1", "--lo", "0", "--hi", "1",
     "--input"],
    ["perturb", "--query", "identity", "--epsilon", "1", "--lo", "0", "--hi", "1",
     "--input", "data.csv", "--directions"],
], ids=["bench", "perturb", "perturb-directions"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capfdbinary, monkeypatch, command):
    # a dataset that reads, so --directions is the file that fails
    monkeypatch.chdir(tmp_path)
    write_dataset(tmp_path, np.zeros((3, 4)))
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\xe9,1\n2,3\n")
    code = main([*command, str(path), "--out", str(tmp_path / "o.csv")]
                if command[0] != "bench" else [*command, str(path)])
    assert code == 2
    captured = capfdbinary.readouterr()
    assert captured.err.decode() == f"mvgdp: error: {path}: not UTF-8 text\n"


@pytest.mark.parametrize("run, most", [("ablation", 2), ("firstpc", 2), ("covest", 2),
                                       ("perturb", 1), ("perturb-identity", 1)])
def test_a_run_parses_its_allocation_and_directions_once(tmp_path, capfdbinary,
                                                         monkeypatch, sign_data, run, most):
    # bench parses in its early check and in ExperimentConfig, perturb once
    # before it reads --input; nothing below them reads option text
    calls = {"parse_theta_grammar": 0, "parse_directions_source": 0}
    for name in calls:
        def counted(text, name=name, original=getattr(harness, name)):
            calls[name] += 1
            return original(text)

        for module in (harness, cli):
            monkeypatch.setattr(module, name, counted)
    code, _, err = run_on_dataset(tmp_path, capfdbinary, run, sign_data)
    assert code == 0, err
    assert 1 <= calls["parse_theta_grammar"] <= most, calls
    assert 1 <= calls["parse_directions_source"] <= most, calls


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

    def test_a_byte_order_mark_is_dropped(self, tmp_path, monkeypatch):
        # as in a file saved by an editor that writes one
        path = tmp_path / "bench.json"
        path.write_text("\ufeff" + json.dumps({"seed": 3}), encoding="utf-8")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert (self.parsed(monkeypatch, ["bench", "--config", str(path)])
                == self.parsed(monkeypatch, ["bench", "--seed", "3"]))

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
