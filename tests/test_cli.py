import math

import numpy as np
import pytest

from mvgdp import (
    DataBounds,
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
)
from mvgdp.cli import main


def write_dataset(tmp_path, data, name="data.csv"):
    # data arrives feature-major; files carry records as rows
    path = tmp_path / name
    np.savetxt(path, np.asarray(data).T, delimiter=",")
    return str(path)


def write_matrix(tmp_path, matrix, name):
    path = tmp_path / name
    np.savetxt(path, np.asarray(matrix), delimiter=",")
    return str(path)


@pytest.fixture
def sign_data():
    rng = np.random.default_rng(0)
    scale = np.array([1.0, 0.6, 0.2])
    return scale[:, None] * rng.choice([-1.0, 1.0], size=(3, 200))


class TestBudgetCommand:
    def test_prints_all_fields(self, capsys):
        code = main(["budget", "--epsilon", "1", "--delta", str(math.exp(-1)),
                     "--m", "1", "--n", "1", "--gamma", "1",
                     "--sensitivity", "1", "--mode", "unimodal"])
        assert code == 0
        out = capsys.readouterr().out
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(values["alpha"]) == pytest.approx(4.0)
        assert float(values["beta"]) == pytest.approx(10.0)
        assert float(values["zeta"]) == pytest.approx(5.0)
        assert float(values["phi_max"]) == pytest.approx(0.18614066163450715)
        assert float(values["precision_budget"]) == pytest.approx(
            0.0012005078745576348)
        assert values["mode"] == "unimodal"

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

    def test_shape_mismatch_exits_2(self, tmp_path):
        sigma = write_matrix(tmp_path, np.eye(3), "sigma.csv")
        psi = write_matrix(tmp_path, np.eye(2), "psi.csv")
        assert main(["sample", "--m", "2", "--n", "2", "--sigma", sigma,
                     "--psi", psi, "--out", str(tmp_path / "o.csv")]) == 2


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

    def test_out_of_bounds_data_exits_3(self, tmp_path, sign_data):
        data = write_dataset(tmp_path, sign_data)
        code = main(["perturb", "--input", data, "--query", "identity",
                     "--epsilon", "1", "--lo", "-0.5", "--hi", "0.5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3

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

    def test_bounds_violation_exits_3(self, tmp_path, sign_data):
        data = write_dataset(tmp_path, sign_data)
        code = main(["bench", "--experiment", "firstpc", "--input", data,
                     "--mechanism", "mvg-equi", "--trials", "2",
                     "--epsilon", "1", "--lo", "-0.1", "--hi", "0.1"])
        assert code == 3

    def test_nan_cell_exits_3(self, tmp_path, sign_data, capfdbinary):
        data = np.array(sign_data)
        data[2, 0] = np.nan
        path = write_dataset(tmp_path, data)
        assert main(self.bench_args(path)) == 3
        assert capfdbinary.readouterr().out == b""
        dp_args = self.bench_args(path) + ["--directions", "dp:0.2"]
        assert main(dp_args) == 3

    def test_loads_the_dataset_once(self, tmp_path, sign_data, monkeypatch):
        data = write_dataset(tmp_path, sign_data)
        calls = []

        def counting(original):
            def load(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)
            return load

        for module in (cli, harness):
            monkeypatch.setattr(module, "load_csv_matrix",
                                counting(module.load_csv_matrix))
        assert main(self.bench_args(data) + ["--directions", "dp:0.2"]) == 0
        assert len(calls) == 1

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
        config.write_text(json.dumps(bad))
        assert main(["bench", "--config", str(config)]) == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        err = captured.err.decode()
        assert err.startswith("mvgdp: error: ") and named in err

    def test_missing_required_option_exits_2(self, tmp_path, sign_data):
        data = write_dataset(tmp_path, sign_data)
        assert main(["bench", "--input", data, "--mechanism", "mvg-equi",
                     "--epsilon", "1"]) == 2
