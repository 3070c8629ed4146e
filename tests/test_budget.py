import math

import numpy as np
import pytest

from mvgdp import (
    BudgetMode,
    BudgetReport,
    DataBounds,
    DomainError,
    NoiseDesign,
    PrivacyParams,
    QuerySpec,
    ShapeError,
    alpha_beta,
    check_condition,
    covariance_sensitivity,
    gamma_covariance,
    harmonic_numbers,
    phi_bound,
    precision_budget_equimodal,
    precision_budget_unimodal,
    zeta,
)


def harmonic_oracle(r):
    # plain-Python partial sums, independent of the vectorized implementation
    return math.fsum(1.0 / i for i in range(1, r + 1)), \
        math.fsum(1.0 / math.sqrt(i) for i in range(1, r + 1))


class TestHarmonicNumbers:
    def test_single_term(self):
        assert harmonic_numbers(1) == (1.0, 1.0)

    def test_two_terms(self):
        h, hh = harmonic_numbers(2)
        assert h == pytest.approx(1.5, abs=0)
        assert hh == pytest.approx(1.7071067811865475, abs=1e-15)

    def test_r4_against_oracle(self):
        expect = harmonic_oracle(4)
        got = harmonic_numbers(4)
        assert got[0] == pytest.approx(expect[0], rel=1e-14)
        assert got[1] == pytest.approx(expect[1], rel=1e-14)
        assert got[0] == pytest.approx(2.0833333333, abs=1e-9)
        assert got[1] == pytest.approx(2.7844570503, abs=1e-9)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            harmonic_numbers(0)

    def test_monotone_and_half_dominates(self):
        prev = (0.0, 0.0)
        for r in range(1, 60):
            h, hh = harmonic_numbers(r)
            assert h > prev[0] and hh > prev[1]
            if r == 1:
                assert hh == h
            else:
                assert hh > h
            prev = (h, hh)


class TestZeta:
    def test_unit_dims(self):
        assert zeta(math.exp(-1), 1, 1) == pytest.approx(5.0, rel=1e-14)

    def test_2x3(self):
        expect = 6 + 2 + 2 * math.sqrt(6)
        assert zeta(math.exp(-1), 2, 3) == pytest.approx(expect, rel=1e-12)

    def test_delta_to_one_limit(self):
        for m, n in [(1, 1), (3, 7), (10, 10)]:
            assert zeta(1 - 1e-12, m, n) == pytest.approx(m * n, rel=1e-4)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                zeta(bad, 2, 2)

    def test_exceeds_mn_and_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, n = rng.integers(1, 20, size=2)
            d1, d2 = sorted(rng.uniform(1e-6, 1 - 1e-6, size=2))
            lo, hi = zeta(d2, int(m), int(n)), zeta(d1, int(m), int(n))
            assert lo > m * n
            if d1 < d2:
                assert hi > lo  # decreasing in delta
        # increasing in mn
        assert zeta(0.1, 3, 4) > zeta(0.1, 3, 3)


class TestAlphaBeta:
    def test_unit_case(self):
        q = QuerySpec(1, 1, sensitivity=1.0, gamma=1.0)
        p = PrivacyParams(1.0, math.exp(-1))
        assert alpha_beta(q, p) == (pytest.approx(4.0), pytest.approx(10.0))

    def test_2x2_case(self):
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0)
        p = PrivacyParams(1.0, math.exp(-1))
        alpha, beta = alpha_beta(q, p)
        assert alpha == pytest.approx(1.5 + 1.7071067811865475 + 3.0, rel=1e-12)
        assert beta == pytest.approx(42.42640687119285, rel=1e-12)

    def test_gamma_scaling(self):
        p = PrivacyParams(1.0, 0.1)
        q1 = QuerySpec(3, 5, sensitivity=0.5, gamma=2.0)
        q2 = QuerySpec(3, 5, sensitivity=0.5, gamma=4.0)
        a1, b1 = alpha_beta(q1, p)
        a2, b2 = alpha_beta(q2, p)
        assert a2 > a1
        assert b2 == pytest.approx(b1, rel=0)


class TestPhiBound:
    def test_quadratic_example(self):
        phi = phi_bound(4.0, 10.0, 1.0)
        assert phi == pytest.approx((-10 + math.sqrt(132)) / 8, rel=1e-14)
        assert 4 * phi ** 2 + 10 * phi == pytest.approx(2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_bound(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            phi_bound(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            phi_bound(1.0, 1.0, 0.0)

    def test_monotone_in_epsilon(self):
        assert phi_bound(4.0, 10.0, 2.0) > phi_bound(4.0, 10.0, 1.0)

    def test_root_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            alpha = float(10 ** rng.uniform(-3, 6))
            beta = float(10 ** rng.uniform(-3, 8))
            eps = float(10 ** rng.uniform(-3, 2))
            phi = phi_bound(alpha, beta, eps)
            residual = alpha * phi ** 2 + beta * phi - 2 * eps
            assert abs(residual) <= 1e-12 * 2 * eps


def _iid_design(m, n, row_value=1.0):
    return NoiseDesign(np.eye(m), np.full(m, row_value), np.eye(n), np.ones(n))


class TestCheckCondition:
    def test_saturating_scalar_design(self):
        q = QuerySpec(3, 4, sensitivity=1.0, gamma=2.0)
        p = PrivacyParams(1.0, 0.05)
        alpha, beta = alpha_beta(q, p)
        rhs = phi_bound(alpha, beta, p.epsilon) ** 2
        # Sigma = c*I gives lhs = sqrt(m*n)/c; solve c for exact saturation
        c = math.sqrt(q.m * q.n) / rhs
        holds, lhs, rhs_got = check_condition(_iid_design(q.m, q.n, c), q, p)
        assert holds
        assert lhs == pytest.approx(rhs_got, rel=1e-9)

    def test_tiny_epsilon_fails(self):
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0)
        p = PrivacyParams(1e-6, 0.05)
        holds, lhs, rhs = check_condition(_iid_design(2, 2), q, p)
        assert not holds
        assert lhs == pytest.approx(2.0, rel=1e-12)
        assert rhs < 2.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        q = QuerySpec(4, 4, sensitivity=0.5, gamma=3.0)
        p = PrivacyParams(2.0, 0.01)
        lam = rng.uniform(5.0, 50.0, 4)
        baseline = None
        for _ in range(10):
            w = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            sigma = (w * lam) @ w.T
            design = NoiseDesign.from_covariances(sigma, np.eye(4))
            _, lhs, _ = check_condition(design, q, p)
            if baseline is None:
                baseline = lhs
            assert lhs == pytest.approx(baseline, rel=1e-9)

    def test_dimension_mismatch(self):
        q = QuerySpec(2, 3, sensitivity=1.0, gamma=1.0)
        p = PrivacyParams(1.0, 0.1)
        with pytest.raises(ShapeError):
            check_condition(_iid_design(3, 3), q, p)


class TestPrecisionBudgets:
    def setup_method(self):
        self.q = QuerySpec(1, 1, sensitivity=1.0, gamma=1.0)
        self.p = PrivacyParams(1.0, math.exp(-1))

    def test_unimodal_example(self):
        report = precision_budget_unimodal(self.q, self.p)
        assert report.precision_budget == pytest.approx(0.0012005078745576348, rel=1e-10)
        assert report.mode is BudgetMode.UNIMODAL
        assert report.phi_max == pytest.approx(0.18614066163450715, rel=1e-12)

    def test_equimodal_example(self):
        report = precision_budget_equimodal(self.q, self.p)
        assert report.precision_budget == pytest.approx(0.03464834591373208, rel=1e-10)
        assert report.mode is BudgetMode.EQUI_MODAL

    @pytest.mark.parametrize("m, n, mode", [
        (1, 1, BudgetMode.UNIMODAL), (4, 4, BudgetMode.EQUI_MODAL),
        (21, 1531, BudgetMode.UNIMODAL), (16, 16, BudgetMode.EQUI_MODAL),
    ])
    def test_report_fields_equal_the_standalone_formulas(self, m, n, mode):
        # the report computes H_r and zeta once; every field must still have
        # the bits of the standalone functions
        q = QuerySpec(m, n, sensitivity=0.3, gamma=2.5)
        p = PrivacyParams(0.7, 1e-3)
        if mode is BudgetMode.UNIMODAL:
            report = precision_budget_unimodal(q, p)
        else:
            report = precision_budget_equimodal(q, p)
        h_r, h_r_half = harmonic_numbers(min(m, n))
        alpha, beta = alpha_beta(q, p)
        phi = phi_bound(alpha, beta, p.epsilon)
        budget = phi ** 4 / n if mode is BudgetMode.UNIMODAL else phi ** 2
        assert report == BudgetReport(
            h_r=h_r, h_r_half=h_r_half, zeta=zeta(p.delta, m, n), alpha=alpha,
            beta=beta, phi_max=phi, precision_budget=budget, mode=mode)

    def test_criterion_7_budget_is_noise_dominated(self):
        bounds = DataBounds(4, 2000, -2.0, 2.0)
        q = QuerySpec(4, 4, sensitivity=covariance_sensitivity(bounds),
                      gamma=gamma_covariance(bounds))
        report = precision_budget_equimodal(q, PrivacyParams(1.0, 1.0 / 2000))
        assert 1.0 / report.phi_max > q.gamma, (
            f"1/phi_max = {1.0 / report.phi_max:.4g} no longer exceeds gamma = "
            f"{q.gamma:.4g}: acceptance criterion 7 relies on every noise sd "
            "dwarfing the covariance spectrum at this budget, which is why it "
            "checks the informative-block error instead of the first-PC ordering"
        )

    def test_unimodal_decreases_in_n(self):
        p = PrivacyParams(1.0, 0.1)
        budgets = [
            precision_budget_unimodal(
                QuerySpec(3, n, sensitivity=1.0, gamma=2.0), p
            ).precision_budget
            for n in (2, 4, 8)
        ]
        assert budgets[0] > budgets[1] > budgets[2]

    def test_monotone_in_epsilon(self):
        q = QuerySpec(3, 3, sensitivity=1.0, gamma=2.0)
        lo = precision_budget_unimodal(q, PrivacyParams(1.0, 0.1))
        hi = precision_budget_unimodal(q, PrivacyParams(2.0, 0.1))
        assert hi.precision_budget > lo.precision_budget

    def test_equimodal_needs_square(self):
        q = QuerySpec(2, 3, sensitivity=1.0, gamma=1.0)
        with pytest.raises(ShapeError):
            precision_budget_equimodal(q, PrivacyParams(1.0, 0.1))

    def test_mode_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 20))
            gamma = float(rng.uniform(0.5, 10))
            q = QuerySpec(m, m, sensitivity=float(rng.uniform(0.1, 2 * gamma)),
                          gamma=gamma)
            p = PrivacyParams(float(rng.uniform(0.1, 5)), float(rng.uniform(1e-6, 0.5)))
            uni = precision_budget_unimodal(q, p).precision_budget
            equi = precision_budget_equimodal(q, p).precision_budget
            assert equi == pytest.approx(math.sqrt(m * uni), rel=1e-12)


class TestDomainTypes:
    def test_privacy_params_validation(self):
        with pytest.raises(DomainError):
            PrivacyParams(0.0, 0.1)
        with pytest.raises(DomainError):
            PrivacyParams(-1.0, 0.1)
        with pytest.raises(DomainError):
            PrivacyParams(1.0, 0.0)
        with pytest.raises(DomainError):
            PrivacyParams(1.0, 1.0)
        PrivacyParams(1.0, 1.0 / 2021)  # delta = 1/N style values are fine

    def test_query_spec_validation(self):
        with pytest.raises(DomainError):
            QuerySpec(0, 1, sensitivity=1.0, gamma=1.0)
        with pytest.raises(DomainError):
            QuerySpec(1, 1, sensitivity=0.0, gamma=1.0)
        with pytest.raises(DomainError):
            QuerySpec(1, 1, sensitivity=1.0, gamma=0.0)
        with pytest.raises(DomainError):
            QuerySpec(1, 1, sensitivity=3.0, gamma=1.0)  # s2 > 2*gamma
        q = QuerySpec(2, 5, sensitivity=1.0, gamma=1.0)
        assert q.r == 2

    def test_budget_report_positivity(self):
        with pytest.raises(DomainError):
            BudgetReport(h_r=1.0, h_r_half=1.0, zeta=5.0, alpha=4.0, beta=10.0,
                         phi_max=0.0, precision_budget=1.0,
                         mode=BudgetMode.UNIMODAL)
