import math
import tracemalloc

import numpy as np
import pytest

from mvgdp import (
    AllocationError,
    ContractViolationError,
    DataBounds,
    DegenerateDesignError,
    DomainError,
    NoiseDesign,
    PrecisionAllocation,
    PrivacyParams,
    QuerySpec,
    RandomStream,
    ShapeError,
    check_condition,
    derive_directions_dp,
    gaussian_iid_baseline,
    gaussian_noise_scale,
    laplace_iid_baseline,
    mvg_equimodal,
    mvg_unimodal,
    mvg_verify_characteristic,
    phi_bound,
    plan_equimodal,
    plan_unimodal,
    sample_mvg,
    sample_standard_matrix,
)
from mvgdp import mechanisms
from mvgdp.mechanisms import DirectionsPlan, plan_directions_dp
from mvgdp.sampling import color_noise
from oracles import dense_covariances


class TestPrecisionAllocation:
    def test_normalizes(self):
        theta = PrecisionAllocation(np.array([2.0, 2.0]))
        assert np.allclose(theta.theta, [0.5, 0.5])
        assert abs(theta.theta.sum() - 1.0) <= 1e-12

    def test_floors_tiny_entries(self):
        theta = PrecisionAllocation(np.array([1e-12, 1.0]))
        assert theta.theta[0] >= 9e-7

    def test_rejects_nonpositive(self):
        with pytest.raises(AllocationError):
            PrecisionAllocation(np.array([0.0, 1.0]))
        with pytest.raises(AllocationError):
            PrecisionAllocation(np.array([-0.1, 1.1]))

    def test_uniform(self):
        theta = PrecisionAllocation.uniform(4)
        assert np.allclose(theta.theta, 0.25)

    def test_binary(self):
        theta = PrecisionAllocation.binary(4, 0.9, [0, 2])
        assert np.allclose(theta.theta, [0.45, 0.05, 0.45, 0.05])

    def test_binary_validation(self):
        with pytest.raises(AllocationError):
            PrecisionAllocation.binary(4, 1.0, [0])
        with pytest.raises(AllocationError):
            PrecisionAllocation.binary(4, 0.9, [])
        with pytest.raises(AllocationError):
            PrecisionAllocation.binary(4, 0.9, [4])
        with pytest.raises(AllocationError):
            PrecisionAllocation.binary(4, 0.9, [0, 1, 2, 3])
        with pytest.raises(AllocationError):
            PrecisionAllocation.binary(1, 0.9, [0])


def unit_query(m, n):
    return QuerySpec(m, n, sensitivity=1.0, gamma=2.0)


class TestUnimodal:
    def setup_method(self):
        self.p = PrivacyParams(1.0, 0.05)

    def test_uniform_direction_variances(self):
        q = unit_query(2, 3)
        theta = PrecisionAllocation.uniform(2)
        result = mvg_unimodal(np.zeros((2, 3)), q, self.p, theta, np.eye(2),
                              RandomStream(0))
        budget = result.budget.precision_budget
        assert np.allclose(result.design.lambda_sigma, math.sqrt(2 / budget),
                           rtol=1e-12)
        assert np.array_equal(result.design.lambda_psi, np.ones(3))

    def test_skewed_allocation_ratio(self):
        q = unit_query(2, 3)
        theta = PrecisionAllocation(np.array([0.9, 0.1]))
        result = mvg_unimodal(np.zeros((2, 3)), q, self.p, theta, np.eye(2),
                              RandomStream(0))
        lam = result.design.lambda_sigma
        assert lam[0] / lam[1] == pytest.approx(math.sqrt(0.1 / 0.9), rel=1e-12)

    def test_zero_query_is_pure_noise(self):
        q = unit_query(3, 2)
        theta = PrecisionAllocation.uniform(3)
        result = mvg_unimodal(np.zeros((3, 2)), q, self.p, theta, np.eye(3),
                              RandomStream(123))
        replay = sample_mvg(RandomStream(123), result.design)
        assert np.array_equal(result.output, replay)

    def test_nan_query_value_rejected(self):
        value = np.zeros((3, 4))
        value[2, 1] = np.nan
        with pytest.raises(ContractViolationError):
            mvg_unimodal(value, unit_query(3, 4), self.p,
                         PrecisionAllocation.uniform(3), np.eye(3),
                         RandomStream(0))

    def test_wide_release_memory_stays_linear_in_records(self):
        # a dense n x n column basis would need 80 GB at this width
        m, n = 2, 100_000
        q = QuerySpec(m, n, sensitivity=1.0, gamma=2.0)
        value = np.zeros((m, n))
        theta = PrecisionAllocation.uniform(m)
        tracemalloc.start()
        try:
            result = mvg_unimodal(value, q, self.p, theta, np.eye(m),
                                  RandomStream(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.output.shape == (m, n)
        assert np.all(np.isfinite(result.output))
        assert peak <= 8 * result.output.nbytes

    def test_budget_exactly_spent(self):
        rng = np.random.default_rng(0)
        q = unit_query(5, 4)
        theta = PrecisionAllocation(rng.uniform(0.05, 1.0, 5))
        w = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        result = mvg_unimodal(np.zeros((5, 4)), q, self.p, theta, w,
                              RandomStream(1))
        budget = result.budget.precision_budget
        precisions = 1.0 / result.design.lambda_sigma ** 2
        assert precisions.sum() == pytest.approx(budget, rel=1e-12)
        holds, lhs, rhs = check_condition(result.design, q, self.p)
        assert holds
        assert lhs / rhs == pytest.approx(1.0, abs=1e-9)

    def test_gamma_violation_rejected(self):
        q = unit_query(2, 2)
        theta = PrecisionAllocation.uniform(2)
        oversized = np.full((2, 2), 10.0)
        with pytest.raises(ContractViolationError):
            mvg_unimodal(oversized, q, self.p, theta, np.eye(2), RandomStream(0))

    def test_theta_length_mismatch(self):
        q = unit_query(3, 2)
        with pytest.raises(AllocationError):
            mvg_unimodal(np.zeros((3, 2)), q, self.p,
                         PrecisionAllocation.uniform(2), np.eye(3), RandomStream(0))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        q = unit_query(4, 3)
        theta = np.array([0.4, 0.3, 0.2, 0.1])
        w = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        perm = np.array([2, 0, 3, 1])
        base = mvg_unimodal(np.zeros((4, 3)), q, self.p,
                            PrecisionAllocation(theta), w, RandomStream(0))
        permuted = mvg_unimodal(np.zeros((4, 3)), q, self.p,
                                PrecisionAllocation(theta[perm]), w[:, perm],
                                RandomStream(0))
        assert np.allclose(permuted.design.lambda_sigma,
                           base.design.lambda_sigma[perm], rtol=1e-14)

    def test_row_iid_reduction(self):
        # uniform shares with standard directions give an isotropic row design:
        # every direction variance is sqrt(m/P), so the squared scale per
        # direction is m/P and the realized per-entry variance is sqrt(m/P)
        q = unit_query(2, 3)
        theta = PrecisionAllocation.uniform(2)
        result = mvg_unimodal(np.zeros((2, 3)), q, self.p, theta, np.eye(2),
                              RandomStream(0))
        budget = result.budget.precision_budget
        per_direction = math.sqrt(2 / budget)
        assert np.allclose(result.design.lambda_sigma ** 2, 2 / budget, rtol=1e-12)
        trials = 20_000
        draws = RandomStream(99).standard_normal((trials, 2, 3))
        design = result.design
        noise = color_noise(draws, design.basis_sigma, design.lambda_sigma,
                            design.basis_psi, design.lambda_psi)
        empirical = noise.reshape(trials, -1).var(axis=0)
        assert np.allclose(empirical, per_direction, rtol=0.06)


class TestEquimodal:
    def setup_method(self):
        self.p = PrivacyParams(1.0, 0.05)

    def test_direction_variance_closed_form(self):
        # the quadratic-root example: alpha=4, beta=10, eps=1
        budget = phi_bound(4.0, 10.0, 1.0) ** 2
        assert 1 / math.sqrt(0.5 * budget) == pytest.approx(7.597553108250718,
                                                            rel=1e-12)
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=2.0)
        theta = PrecisionAllocation.uniform(2)
        result = mvg_equimodal(np.zeros((2, 2)), q, self.p, theta, np.eye(2),
                               RandomStream(0))
        expected = 1 / math.sqrt(0.5 * result.budget.precision_budget)
        assert np.allclose(result.design.lambda_sigma, expected, rtol=1e-12)
        assert np.array_equal(result.design.lambda_psi,
                              result.design.lambda_sigma)
        assert result.design.basis_psi is result.design.basis_sigma

    def test_requires_square(self):
        q = QuerySpec(2, 3, sensitivity=1.0, gamma=2.0)
        with pytest.raises(ShapeError):
            mvg_equimodal(np.zeros((2, 3)), q, self.p,
                          PrecisionAllocation.uniform(2), np.eye(2),
                          RandomStream(0))

    def test_nan_query_value_rejected(self):
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=2.0)
        value = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ContractViolationError):
            mvg_equimodal(value, q, self.p, PrecisionAllocation.uniform(2),
                          np.eye(2), RandomStream(0))

    def test_asymmetric_input_warns(self):
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=2.0)
        lopsided = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.warns(UserWarning, match="symmetric"):
            mvg_equimodal(lopsided, q, self.p, PrecisionAllocation.uniform(2),
                          np.eye(2), RandomStream(0))

    def test_saturates_condition(self):
        rng = np.random.default_rng(8)
        q = QuerySpec(3, 3, sensitivity=0.5, gamma=1.0)
        theta = PrecisionAllocation(rng.uniform(0.1, 1.0, 3))
        w = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        result = mvg_equimodal(np.zeros((3, 3)), q, self.p, theta, w,
                               RandomStream(2))
        holds, lhs, rhs = check_condition(result.design, q, self.p)
        assert holds
        assert lhs / rhs == pytest.approx(1.0, abs=1e-9)
        assert lhs == pytest.approx(result.budget.precision_budget, rel=1e-9)


class TestReleasePlan:
    """A plan draws a stack of trials; each equals its single release."""

    def setup_method(self):
        self.p = PrivacyParams(1.0, 0.05)
        rng = np.random.default_rng(12)
        self.w = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        self.theta = PrecisionAllocation(np.array([0.6, 0.3, 0.1]))
        self.streams = lambda: [RandomStream(40 + t) for t in range(5)]

    def test_unimodal_stack_equals_single_releases(self):
        q = unit_query(3, 4)
        value = np.full((3, 4), 0.25)
        plan = plan_unimodal(value, q, self.p, self.theta, self.w)
        stack = plan.draw(self.streams())
        assert stack.shape == (5, 3, 4)
        for t, stream in enumerate(self.streams()):
            single = mvg_unimodal(value, q, self.p, self.theta, self.w, stream)
            assert np.array_equal(stack[t], single.output)
            assert single.budget == plan.budget

    def test_equimodal_stack_equals_single_releases(self):
        q = unit_query(3, 3)
        value = np.diag([0.5, 0.3, 0.1])
        plan = plan_equimodal(value, q, self.p, self.theta, self.w)
        assert plan.condition.holds
        assert plan.condition == check_condition(plan.design, q, self.p)
        stack = plan.draw(self.streams())
        for t, stream in enumerate(self.streams()):
            single = mvg_equimodal(value, q, self.p, self.theta, self.w, stream)
            assert np.array_equal(stack[t], single.output)

    def test_drawn_directions_equal_derive_then_release(self):
        rng = np.random.default_rng(13)
        data = rng.uniform(-1, 1, (3, 60))
        bounds = DataBounds(3, 60, -1.0, 1.0)
        p_dir = PrivacyParams(0.3, 0.01)
        directions = plan_directions_dp(data, p_dir, 3, bounds=bounds)
        q = unit_query(3, 3)
        value = np.diag([0.5, 0.3, 0.1])
        stack = plan_equimodal(value, q, self.p, self.theta, directions).draw(
            self.streams())
        for t, stream in enumerate(self.streams()):
            w = derive_directions_dp(data, p_dir, 3, stream, bounds=bounds)
            single = mvg_equimodal(value, q, self.p, self.theta, w, stream)
            assert np.array_equal(stack[t], single.output)

    def test_drawn_bases_are_checked_for_orthonormality(self, monkeypatch):
        rng = np.random.default_rng(14)
        data = rng.uniform(-1, 1, (3, 60))
        directions = plan_directions_dp(data, PrivacyParams(0.3, 0.01), 3,
                                        bounds=DataBounds(3, 60, -1.0, 1.0))
        plan = plan_unimodal(np.zeros((3, 4)), unit_query(3, 4), self.p,
                             self.theta, directions)
        monkeypatch.setattr(DirectionsPlan, "bases",
                            lambda self, noise: noise * 1.5)
        with pytest.raises(DegenerateDesignError, match="orthonormal"):
            plan.draw(self.streams())

    def test_directions_must_match_the_query(self):
        data = np.zeros((4, 10))
        directions = plan_directions_dp(data, PrivacyParams(0.3, 0.01), 4,
                                        bounds=DataBounds(4, 10, -1.0, 1.0))
        with pytest.raises(ShapeError, match="4 features"):
            plan_equimodal(np.zeros((3, 3)), unit_query(3, 3), self.p,
                           self.theta, directions)

    def test_batched_bases_equal_single_draws(self):
        rng = np.random.default_rng(15)
        data = rng.uniform(-1, 1, (5, 40))
        plan = plan_directions_dp(data, PrivacyParams(0.5, 0.05), 5,
                                  bounds=DataBounds(5, 40, -1.0, 1.0))
        noise = np.stack([RandomStream(s).standard_normal((5, 5)) for s in range(7)])
        bases = plan.bases(noise)
        for s in range(7):
            assert np.array_equal(bases[s], plan.draw(RandomStream(s)))


class TestGaussianBaseline:
    def test_noise_scale_formula(self):
        p = PrivacyParams(1.0, 0.05)
        assert gaussian_noise_scale(1.0, p) == pytest.approx(
            math.sqrt(2 * math.log(25)), rel=1e-12)

    def test_large_epsilon_warns(self):
        with pytest.warns(UserWarning, match="epsilon"):
            gaussian_noise_scale(1.0, PrivacyParams(5.0, 0.05))

    @pytest.mark.parametrize("sensitivity", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_sensitivity(self, sensitivity):
        with pytest.raises(DomainError, match="sensitivity must be positive"):
            gaussian_noise_scale(sensitivity, PrivacyParams(1.0, 0.01))

    def test_empirical_variance(self):
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0)
        p = PrivacyParams(1.0, 0.05)
        sigma = gaussian_noise_scale(1.0, p)
        trials = 25_000
        stream = RandomStream(7)
        draws = stream.standard_normal((trials, 2, 2)) * sigma
        empirical = draws.reshape(trials, -1).var(axis=0)
        assert np.allclose(empirical, sigma ** 2, rtol=0.05)
        out = gaussian_iid_baseline(np.zeros((2, 2)), q, p, RandomStream(7))
        assert out.shape == (2, 2)

    def test_matches_mvg_special_case(self):
        q = QuerySpec(3, 4, sensitivity=1.0, gamma=1.0)
        p = PrivacyParams(0.8, 0.02)
        sigma = gaussian_noise_scale(q.sensitivity, p)
        query = np.arange(12, dtype=float).reshape(3, 4) / 20.0
        baseline = gaussian_iid_baseline(query, q, p, RandomStream(55))
        design = NoiseDesign(np.eye(3), np.full(3, sigma ** 2),
                             np.eye(4), np.ones(4))
        replay = query + sample_mvg(RandomStream(55), design)
        assert np.array_equal(baseline, replay)


class TestLaplaceBaseline:
    def test_variance_is_two_b_squared(self):
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0)
        trials = 25_000
        stream = RandomStream(17)
        draws = stream.laplace(1.0, (trials, 2, 2))
        empirical = draws.reshape(trials, -1).var(axis=0)
        assert np.allclose(empirical, 2.0, rtol=0.05)
        out = laplace_iid_baseline(np.zeros((2, 2)), q, 1.0, 1.0, RandomStream(17))
        assert out.shape == (2, 2)

    def test_rejects_bad_inputs(self):
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0)
        with pytest.raises(DomainError):
            laplace_iid_baseline(np.zeros((2, 2)), q, 1.0, 0.0, RandomStream(0))
        with pytest.raises(DomainError):
            laplace_iid_baseline(np.zeros((2, 2)), q, 0.0, 1.0, RandomStream(0))

    def test_determinism(self):
        q = QuerySpec(2, 3, sensitivity=1.0, gamma=1.0)
        a = laplace_iid_baseline(np.zeros((2, 3)), q, 0.5, 2.0, RandomStream(3))
        b = laplace_iid_baseline(np.zeros((2, 3)), q, 0.5, 2.0, RandomStream(3))
        assert np.array_equal(a, b)


class TestDeriveDirectionsDp:
    def test_recovers_dominant_direction(self):
        rng = np.random.default_rng(2)
        signs = rng.choice([-1.0, 1.0], size=200)
        data = np.zeros((4, 200))
        data[0] = signs  # all variance lives on the first axis
        bounds = DataBounds(4, 200, -1.0, 1.0)
        with pytest.warns(UserWarning, match="epsilon"):
            basis = derive_directions_dp(data, PrivacyParams(1e6, 0.2), 1,
                                         RandomStream(0), bounds=bounds)
        assert abs(basis[:, 0] @ np.array([1.0, 0, 0, 0])) >= 0.99

    def test_full_basis_orthonormal(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(-1, 1, (4, 60))
        bounds = DataBounds(4, 60, -1.0, 1.0)
        basis = derive_directions_dp(data, PrivacyParams(0.5, 0.1), 4,
                                     RandomStream(1), bounds=bounds)
        assert np.max(np.abs(basis.T @ basis - np.eye(4))) < 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(-1, 1, (3, 40))
        bounds = DataBounds(3, 40, -1.0, 1.0)
        a = derive_directions_dp(data, PrivacyParams(0.5, 0.1), 2,
                                 RandomStream(9), bounds=bounds)
        b = derive_directions_dp(data, PrivacyParams(0.5, 0.1), 2,
                                 RandomStream(9), bounds=bounds)
        assert np.array_equal(a, b)

    def test_k_too_large(self):
        data = np.zeros((3, 10))
        bounds = DataBounds(3, 10, -1.0, 1.0)
        with pytest.raises(ShapeError):
            derive_directions_dp(data, PrivacyParams(1.0, 0.1), 4,
                                 RandomStream(0), bounds=bounds)

    def test_nan_cell_rejected(self):
        data = np.zeros((2, 5))
        data[1, 3] = np.nan
        bounds = DataBounds(2, 5, -1.0, 1.0)
        with pytest.raises(ContractViolationError):
            derive_directions_dp(data, PrivacyParams(1.0, 0.1), 2,
                                 RandomStream(0), bounds=bounds)

    def test_plan_draw_matches_derive(self):
        rng = np.random.default_rng(6)
        data = rng.uniform(-1, 1, (4, 80))
        bounds = DataBounds(4, 80, -1.0, 1.0)
        p = PrivacyParams(0.4, 0.05)
        plan = plan_directions_dp(data, p, 2, bounds=bounds)
        for seed in (0, 1, 2):
            derived = derive_directions_dp(data, p, 2, RandomStream(seed),
                                           bounds=bounds)
            assert np.array_equal(plan.draw(RandomStream(seed)), derived)

    def test_out_of_bounds_data_rejected(self):
        data = np.full((2, 5), 3.0)
        bounds = DataBounds(2, 5, -1.0, 1.0)
        with pytest.raises(ContractViolationError):
            derive_directions_dp(data, PrivacyParams(1.0, 0.1), 2,
                                 RandomStream(0), bounds=bounds)


class TestVerifyCharacteristic:
    def setup_method(self):
        self.q = QuerySpec(3, 4, sensitivity=1.0, gamma=2.0)
        self.p = PrivacyParams(1.0, 0.05)
        theta = PrecisionAllocation(np.array([0.6, 0.3, 0.1]))
        result = mvg_unimodal(np.zeros((3, 4)), self.q, self.p, theta,
                              np.eye(3), RandomStream(0))
        self.design = result.design

    def test_saturating_design_always_passes(self):
        conditional, r1 = mvg_verify_characteristic(
            self.q, self.p, self.design, 2000, RandomStream(42))
        assert conditional == 1.0
        margin = 3 * math.sqrt(self.p.delta * (1 - self.p.delta) / 2000)
        assert r1 >= 1 - self.p.delta - margin

    def test_violating_design_reports_without_raising(self):
        # shrink every direction variance 100x: the condition's left side
        # inflates 100x past the bound, but the check stays diagnostic
        bad = NoiseDesign(self.design.basis_sigma, self.design.lambda_sigma / 100.0,
                          self.design.basis_psi, self.design.lambda_psi)
        holds, _, _ = check_condition(bad, self.q, self.p)
        assert not holds
        conditional, r1 = mvg_verify_characteristic(
            self.q, self.p, bad, 500, RandomStream(1))
        assert 0.0 <= conditional <= 1.0
        assert 0.0 <= r1 <= 1.0

    def test_wide_standard_side_memory_stays_linear(self):
        # reads the standard column side as its lambda only: one dense
        # n x n inverse or factor would need 80 GB at this width
        m, n = 2, 100_000
        q = QuerySpec(m, n, sensitivity=1.0, gamma=2.0)
        design = mvg_unimodal(np.zeros((m, n)), q, self.p,
                              PrecisionAllocation.uniform(m), np.eye(m),
                              RandomStream(3)).design
        assert design.basis_psi is None
        tracemalloc.start()
        try:
            conditional, r1 = mvg_verify_characteristic(q, self.p, design, 5,
                                                        RandomStream(4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert conditional == 1.0 and r1 == 1.0
        assert peak <= 10 * m * n * 8  # a handful of m x n arrays

    def test_standard_sides_match_explicit_identities(self, monkeypatch):
        # off the saturating point the pass rate lies strictly inside (0, 1)
        # and moves with every singular value
        rng = np.random.default_rng(8)
        lam_s, lam_p = rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 4)
        standard = NoiseDesign(None, lam_s, None, lam_p)
        explicit = NoiseDesign(np.eye(3), lam_s, np.eye(4), lam_p)
        for seed in (1, 2):
            got = mvg_verify_characteristic(self.q, self.p, standard, 300,
                                            RandomStream(seed))
            assert got == mvg_verify_characteristic(self.q, self.p, explicit,
                                                    300, RandomStream(seed))
            assert 0.0 < got[0] < 1.0
            # one trial per batch draws the same normals in the same order
            with monkeypatch.context() as patch:
                patch.setattr(mechanisms, "CHUNK_ENTRIES", 1)
                assert mvg_verify_characteristic(self.q, self.p, standard, 300,
                                                 RandomStream(seed)) == got

    def test_trials_validation(self):
        with pytest.raises(DomainError):
            mvg_verify_characteristic(self.q, self.p, self.design, 0,
                                      RandomStream(0))

    def test_trace_matches_four_term_oracle(self):
        # recompute the pass rate with the four trace terms written out
        # literally, sharing the draw sequence with the vectorized path
        design, q, p = self.design, self.q, self.p
        trials = 400
        conditional, r1 = mvg_verify_characteristic(q, p, design, trials,
                                                    RandomStream(5))
        assert design.basis_psi is None
        u = design.basis_sigma[:, int(np.argmin(design.lambda_sigma))]
        v = np.eye(q.n)[:, int(np.argmin(design.lambda_psi))]
        f_x1 = q.gamma * np.outer(u, v)
        delta_q = q.sensitivity * np.outer(u, v)
        f_x2 = f_x1 - delta_q
        s_inv, p_inv = (np.linalg.inv(c) for c in dense_covariances(design))
        b_s = design.basis_sigma * np.sqrt(design.lambda_sigma)
        b_p = np.diag(np.sqrt(design.lambda_psi))
        from mvgdp import zeta as zeta_fn

        radius_sq = zeta_fn(p.delta, q.m, q.n)
        stream = RandomStream(5)
        inside = passed = 0
        for _ in range(trials):
            draw = sample_standard_matrix(stream, q.m, q.n)
            if (draw ** 2).sum() > radius_sq:
                continue
            inside += 1
            y = f_x1 + b_s @ draw @ b_p.T
            trace = (np.trace(p_inv @ y.T @ s_inv @ delta_q)
                     + np.trace(p_inv @ delta_q.T @ s_inv @ y)
                     + np.trace(p_inv @ f_x2.T @ s_inv @ f_x2)
                     - np.trace(p_inv @ f_x1.T @ s_inv @ f_x1))
            if trace <= 2 * p.epsilon:
                passed += 1
        assert r1 == inside / trials
        assert conditional == passed / inside
