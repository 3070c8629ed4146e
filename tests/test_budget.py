import dataclasses
import math

import numpy as np
import pytest

from mvgdp import (
    AllocationError,
    BudgetMode,
    BudgetReport,
    ConfigError,
    DataBounds,
    DomainError,
    EvalReport,
    Experiment,
    ExperimentConfig,
    MechanismKind,
    PrecisionAllocation,
    NoiseDesign,
    PrivacyParams,
    QueryKind,
    QuerySpec,
    RandomStream,
    ShapeError,
    alpha_beta,
    check_condition,
    covariance_sensitivity,
    gamma_covariance,
    harmonic_numbers,
    phi_bound,
    precision_budget_equimodal,
    precision_budget_unimodal,
    sample_standard_matrix,
    zeta,
)
from mvgdp import budget
from mvgdp.mechanisms import derive_directions_dp


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

    def test_the_slack_is_relative_to_the_rhs(self):
        q = QuerySpec(1, 1, sensitivity=1.0, gamma=1.0)
        p = PrivacyParams(1.0, 0.05)
        rhs = phi_bound(*alpha_beta(q, p), p.epsilon) ** 2
        # a 1x1 design's lhs is 1 / lambda_sigma
        at, over = (check_condition(_iid_design(1, 1, 1.0 / (rhs * scale)), q, p)
                    for scale in (1.0, 1.0 + 1e-6))
        assert at.holds and at.lhs == pytest.approx(rhs, rel=1e-15)
        assert not over.holds
        assert over.lhs == pytest.approx(rhs * (1.0 + 1e-6), rel=1e-15)

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


def bits(report):
    return [getattr(report, f.name) for f in dataclasses.fields(report)
            if f.name != "mode"]


class TestBudgetTermsMemo:
    CASES = [
        pytest.param(QuerySpec(1, 1, sensitivity=1.0, gamma=1.0),
                     PrivacyParams(1.0, math.exp(-1)), BudgetMode.UNIMODAL, id="uni-1x1"),
        pytest.param(QuerySpec(21, 1531, sensitivity=0.3, gamma=2.5),
                     PrivacyParams(0.7, 1e-3), BudgetMode.UNIMODAL, id="uni-21x1531"),
        pytest.param(QuerySpec(4, 4, sensitivity=0.3, gamma=2.5),
                     PrivacyParams(1.0, 1 / 2000), BudgetMode.EQUI_MODAL, id="equi-4"),
        pytest.param(QuerySpec(16, 16, sensitivity=1.0, gamma=4.0),
                     PrivacyParams(0.8, 0.8 / 50000), BudgetMode.EQUI_MODAL, id="equi-16"),
    ]

    @staticmethod
    def release_terms(q, p, mode):
        if mode is BudgetMode.UNIMODAL:
            report = precision_budget_unimodal(q, p)
        else:
            report = precision_budget_equimodal(q, p)
        design = NoiseDesign(None, np.ones(q.m), None, np.ones(q.n))
        return report, check_condition(design, q, p).rhs

    @pytest.mark.parametrize("q, p, mode", CASES)
    def test_warm_calls_have_the_bits_of_cold_ones(self, q, p, mode):
        budget.budget_terms.cache_clear()
        cold_report = self.release_terms(q, p, mode)[0]
        budget.budget_terms.cache_clear()
        cold_rhs = self.release_terms(q, p, mode)[1]
        warm_report, warm_rhs = self.release_terms(q, p, mode)
        assert budget.budget_terms.cache_info().hits >= 1
        assert [x.hex() for x in bits(warm_report)] == \
            [x.hex() for x in bits(cold_report)]
        assert warm_rhs.hex() == cold_rhs.hex()
        assert warm_rhs.hex() == (warm_report.phi_max ** 2).hex()

    @pytest.mark.parametrize("q, p, mode", CASES)
    def test_each_key_field_moves_the_rhs(self, q, p, mode):
        # a cache keyed on part of (q, p) would hand back the base pair's rhs
        budget.budget_terms.cache_clear()
        base = self.release_terms(q, p, mode)[1]
        variants = [
            (q, PrivacyParams(p.epsilon * 1.5, p.delta)),
            (q, PrivacyParams(p.epsilon, p.delta / 3)),
            (dataclasses.replace(q, gamma=q.gamma * 2), p),
        ]
        for vq, vp in variants:
            warm = self.release_terms(vq, vp, mode)[1]
            budget.budget_terms.cache_clear()
            assert self.release_terms(vq, vp, mode)[1] == warm != base
            budget.budget_terms.cache_clear()
            assert self.release_terms(q, p, mode)[1] == base


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
        for epsilon in ("1", None):
            with pytest.raises(DomainError, match="epsilon must be a real number"):
                PrivacyParams(epsilon, 0.1)
        # numpy reals are accepted as QuerySpec accepts them, and stored as
        # float64 for the reason test_query_scale_is_stored_as_float64 gives
        for epsilon in (np.int64(1), np.float32(1.0)):
            p = PrivacyParams(epsilon, np.float32(0.01))
            assert type(p.epsilon) is float and type(p.delta) is float
            assert p.epsilon == 1.0 and p.delta == float(np.float32(0.01))

    def test_query_spec_validation(self):
        with pytest.raises(DomainError):
            QuerySpec(0, 1, sensitivity=1.0, gamma=1.0)
        with pytest.raises(DomainError):
            QuerySpec(1, 1, sensitivity=0.0, gamma=1.0)
        with pytest.raises(DomainError):
            QuerySpec(1, 1, sensitivity=1.0, gamma=0.0)
        with pytest.raises(DomainError):
            QuerySpec(1, 1, sensitivity=3.0, gamma=1.0)  # s2 > 2*gamma
        with pytest.raises(DomainError, match="gamma must be positive and finite"):
            QuerySpec(1, 1, sensitivity=1.0, gamma=math.inf)
        q = QuerySpec(2, 5, sensitivity=1.0, gamma=1.0)
        assert q.r == 2

    @pytest.mark.parametrize("value", [True, "1", 0, -1.0, float("nan"), float("inf")])
    def test_l1_sensitivity_must_be_a_positive_finite_real(self, value):
        with pytest.raises(DomainError, match="l1_sensitivity must be"):
            QuerySpec(2, 2, sensitivity=1.0, gamma=1.0, l1_sensitivity=value)

    def test_l1_sensitivity_is_a_float_or_unknown(self):
        assert QuerySpec(2, 2, sensitivity=1.0, gamma=1.0).l1_sensitivity is None
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0, l1_sensitivity=3)
        assert type(q.l1_sensitivity) is float and q.l1_sensitivity == 3.0

    def test_query_kind_must_be_a_member(self):
        # a kind's value is not the kind: "covariance" is not COVARIANCE
        with pytest.raises(DomainError, match="kind must be a QueryKind"):
            QuerySpec(3, 3, sensitivity=0.12, gamma=3.0, kind="covariance")
        q = QuerySpec(3, 3, sensitivity=0.12, gamma=3.0, kind=QueryKind.COVARIANCE)
        assert q.kind is QueryKind.COVARIANCE

    def test_bools_are_not_numbers(self):
        # bool is an int subclass, so True would alias 1 as a budget cache key
        with pytest.raises(DomainError):
            PrivacyParams(True, 0.5)
        with pytest.raises(DomainError):
            PrivacyParams(1.0, True)
        with pytest.raises(DomainError):
            QuerySpec(True, 3, sensitivity=1.0, gamma=1.0)
        with pytest.raises(DomainError):
            QuerySpec(3, True, sensitivity=1.0, gamma=1.0)
        with pytest.raises(DomainError):
            QuerySpec(1, 1, sensitivity=True, gamma=1.0)
        with pytest.raises(DomainError):
            QuerySpec(1, 1, sensitivity=1.0, gamma=True)
        with pytest.raises(DomainError):
            QuerySpec(1, 1, sensitivity="1", gamma=1.0)
        with pytest.raises(DomainError):
            harmonic_numbers(True)
        with pytest.raises(DomainError):
            zeta(0.5, True, 2)
        with pytest.raises(DomainError):
            zeta(0.5, 2, True)
        # plain and numpy integers stay valid
        assert QuerySpec(np.int64(3), 3, sensitivity=1, gamma=1.0).r == 3
        assert harmonic_numbers(np.int64(1)) == (1.0, 1.0)

    @staticmethod
    def config(**kwargs):
        return ExperimentConfig(
            experiment=Experiment.FIRST_PC, dataset_path="unused.csv",
            bounds=DataBounds(2, 3, -1.0, 1.0), privacy=PrivacyParams(1.0, 0.1),
            mechanism=MechanismKind.MVG_EQUIMODAL, **kwargs)

    @pytest.mark.parametrize("build, error", [
        pytest.param(lambda: DataBounds(True, 5, 0.0, 1.0), DomainError,
                     id="DataBounds.num_features"),
        pytest.param(lambda: DataBounds(5, True, 0.0, 1.0), DomainError,
                     id="DataBounds.num_samples"),
        pytest.param(lambda: TestDomainTypes.config(trials=True), ConfigError,
                     id="ExperimentConfig.trials"),
        pytest.param(lambda: TestDomainTypes.config(seed=False), ConfigError,
                     id="ExperimentConfig.seed"),
        pytest.param(lambda: PrecisionAllocation.uniform(True), AllocationError,
                     id="PrecisionAllocation.uniform"),
        pytest.param(lambda: RandomStream(True), DomainError, id="RandomStream"),
        pytest.param(lambda: EvalReport("rss", 0.0, 0.0, True), DomainError,
                     id="EvalReport.trials"),
        pytest.param(lambda: sample_standard_matrix(RandomStream(0), True, 2),
                     ShapeError, id="sample_standard_matrix"),
        pytest.param(lambda: derive_directions_dp(np.zeros((2, 3)),
                                                  PrivacyParams(1.0, 0.1), True,
                                                  RandomStream(0),
                                                  bounds=DataBounds(2, 3, -1.0, 1.0)),
                     ShapeError, id="derive_directions_dp.k"),
    ])
    def test_counts_reject_bools(self, build, error):
        with pytest.raises(error):
            build()

    def test_numpy_counts_are_stored_as_ints(self):
        bounds = DataBounds(np.int64(2), np.uint32(3), -1.0, 1.0)
        cfg = self.config(trials=np.int32(4), seed=np.uint64(2 ** 64 - 1))
        values = (bounds.num_features, bounds.num_samples, cfg.trials, cfg.seed)
        assert values == (2, 3, 4, 2 ** 64 - 1)
        assert all(type(v) is int for v in values)

    def test_query_scale_is_stored_as_float64(self):
        # a float32 compares equal to its float64 key; a report computed in
        # float32 would hand its bits to every float64 caller with that key
        q32 = QuerySpec(4, 4, sensitivity=np.float32(0.5), gamma=np.float32(2.0))
        q64 = QuerySpec(4, 4, sensitivity=0.5, gamma=2.0)
        assert type(q32.sensitivity) is float and type(q32.gamma) is float
        p = PrivacyParams(1.0, 1e-3)
        budget.budget_terms.cache_clear()
        from_32 = precision_budget_equimodal(q32, p)
        budget.budget_terms.cache_clear()
        assert from_32 == precision_budget_equimodal(q64, p)
        assert all(type(x) is float for x in bits(from_32))

    def test_budget_report_positivity(self):
        with pytest.raises(DomainError):
            BudgetReport(h_r=1.0, h_r_half=1.0, zeta=5.0, alpha=4.0, beta=10.0,
                         phi_max=0.0, precision_budget=1.0,
                         mode=BudgetMode.UNIMODAL)
