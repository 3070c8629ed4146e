import copy
import dataclasses
import enum
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mvgdp
from mvgdp import (
    AllocationError,
    BudgetMode,
    ConditionCheckError,
    ConfigError,
    ContractViolationError,
    DataBounds,
    DegenerateDesignError,
    DomainError,
    NoiseDesign,
    PrecisionAllocation,
    PrivacyParams,
    QueryKind,
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
    phi_bound,
    plan_equimodal,
    plan_unimodal,
    sample_mvg,
)
from mvgdp import design as design_module
from mvgdp import mechanisms
from mvgdp.budget import ConditionCheck, exact_delta
from mvgdp.design import descending_eigh
from mvgdp.mechanisms import (
    LaplacePlan,
    ReleasePlan,
    plan_directions_dp,
    plan_gaussian,
    plan_laplace,
    release_spectrum,
)
from mvgdp.sensitivity import AuditedGram, covariance_query
from oracles import dense_release, eigenbasis, scaled_release


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

    def test_rejects_shares_whose_sum_overflows(self):
        # divided by an infinite sum, every share would be 0.0
        with pytest.raises(AllocationError, match=r"^theta shares must have a finite sum, "
                                                  r"got \[1.e\+308 1.e\+308\]$"):
            PrecisionAllocation([1e308, 1e308])
        assert PrecisionAllocation([1e300, 1e300]) == PrecisionAllocation.uniform(2)

    def test_rejects_no_entries(self):
        with pytest.raises(ShapeError,
                           match=r"^theta shares must hold at least one entry, got shape \(0,\)$"):
            PrecisionAllocation([])

    def test_rejects_shares_that_are_not_1d(self):
        # flattened, a 2 x 2 array would be four shares
        with pytest.raises(ShapeError,
                           match=r"^theta shares must be 1-D, got shape \(2, 2\)$"):
            PrecisionAllocation(np.full((2, 2), 0.25))

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
        # a favored index is a count: none of these is taken as index 1
        for index in (1.5, True, "1"):
            with pytest.raises(AllocationError,
                               match="^favored index must be an integer >= 0, got "):
                PrecisionAllocation.binary(4, 0.9, [index])

    @pytest.mark.parametrize("shares", [["0.5", "0.5"], [True, True], [0.5, None]])
    def test_rejects_shares_that_are_not_numbers(self, shares):
        with pytest.raises(AllocationError, match="^theta shares must be real numbers"):
            PrecisionAllocation(shares)

    def test_equal_shares_are_equal_and_hash_alike(self):
        a, b = PrecisionAllocation.uniform(4), PrecisionAllocation.uniform(4)
        assert a == b and hash(a) == hash(b)
        assert {a: "key"}[b] == "key"
        # equality is on the normalized shares
        assert PrecisionAllocation(np.array([2.0, 2.0])) == PrecisionAllocation.uniform(2)
        assert a != PrecisionAllocation.binary(4, 0.9, [0])
        assert a != PrecisionAllocation.uniform(3)
        assert a != a.theta.tolist()

    def test_theta_is_read_only(self):
        theta = PrecisionAllocation.binary(4, 0.9, [0])
        shares = theta.theta.copy()
        with pytest.raises(ValueError):
            theta.theta[0] = -1.0
        assert theta.theta.tobytes() == shares.tobytes()


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
        noise = design.color(draws)
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

    @pytest.mark.parametrize("m", [17, 25, 32, 100])
    def test_a_fortran_copy_of_a_basis_releases_the_same_bytes(self, m):
        # sizes at which a Fortran-ordered factor gives other last bits
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        _, w = eigenbasis(a @ a.T + m * np.eye(m))
        value, q = np.zeros((m, m)), unit_query(m, m)
        theta = PrecisionAllocation.binary(m, 0.9, [0])
        c_release, f_release = (
            mvg_equimodal(value, q, self.p, theta, np.array(w, order=order),
                          RandomStream(m)).output.tobytes() for order in ("C", "F"))
        assert f_release == c_release


class TestReleasePlan:
    """A plan draws a stack of trials; each equals its single release."""

    def setup_method(self):
        self.p = PrivacyParams(1.0, 0.05)
        rng = np.random.default_rng(12)
        self.w = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        self.theta = PrecisionAllocation(np.array([0.6, 0.3, 0.1]))
        self.streams = lambda: [RandomStream(40 + t) for t in range(5)]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_unimodal_stack_equals_single_releases(self, order):
        q = unit_query(3, 4)
        value = np.full((3, 4), 0.25)
        plan = plan_unimodal(value, q, self.p, self.theta,
                             np.asarray(self.w, order=order))
        stack = plan.draw(self.streams())
        assert stack.shape == (5, 3, 4)
        for t, stream in enumerate(self.streams()):
            single = mvg_unimodal(value, q, self.p, self.theta, self.w, stream)
            assert np.array_equal(stack[t], single.output)
            assert single.budget == plan.calibration[1]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equimodal_stack_equals_single_releases(self, order):
        q = unit_query(3, 3)
        value = np.diag([0.5, 0.3, 0.1])
        plan = plan_equimodal(value, q, self.p, self.theta,
                              np.asarray(self.w, order=order))
        rule, _, condition = plan.calibration
        assert rule == "equimodal" and condition.holds
        assert condition == check_condition(plan.design, q, self.p)
        stack = plan.draw(self.streams())
        for t, stream in enumerate(self.streams()):
            single = mvg_equimodal(value, q, self.p, self.theta, self.w, stream)
            assert np.array_equal(stack[t], single.output)

    def test_drawn_directions_equal_derive_then_release(self):
        rng = np.random.default_rng(13)
        data = rng.uniform(-1, 1, (3, 60))
        bounds = DataBounds(3, 60, -1.0, 1.0)
        p_dir = PrivacyParams(0.3, 0.01)
        directions = plan_directions_dp(AuditedGram.of(data, -1.0, 1.0), p_dir)
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
        directions = plan_directions_dp(AuditedGram.of(data, -1.0, 1.0),
                                        PrivacyParams(0.3, 0.01))
        plan = plan_unimodal(np.zeros((3, 4)), unit_query(3, 4), self.p,
                             self.theta, directions)
        monkeypatch.setattr(ReleasePlan, "direction_bases",
                            lambda self, noise: noise * 1.5)
        with pytest.raises(DegenerateDesignError, match="orthonormal"):
            plan.draw(self.streams())

    @pytest.mark.parametrize("release", [mvg_unimodal, mvg_equimodal])
    def test_single_release_rejects_drawn_directions(self, release):
        # its result's design would name the standard basis, not the one drawn
        data = np.random.default_rng(16).uniform(-1, 1, (3, 60))
        directions = plan_directions_dp(AuditedGram.of(data, -1.0, 1.0),
                                        PrivacyParams(0.3, 0.01))
        with pytest.raises(ConfigError, match="derive_directions_dp"):
            release(np.diag([0.5, 0.3, 0.1]), unit_query(3, 3), self.p, self.theta,
                    directions, RandomStream(0))

    def test_directions_must_match_the_query(self):
        data = np.zeros((4, 10))
        directions = plan_directions_dp(AuditedGram.of(data, -1.0, 1.0),
                                        PrivacyParams(0.3, 0.01))
        with pytest.raises(ShapeError, match="4 features"):
            plan_equimodal(np.zeros((3, 3)), unit_query(3, 3), self.p,
                           self.theta, directions)

    @pytest.mark.parametrize("plan_fn", [plan_unimodal, plan_equimodal])
    @pytest.mark.parametrize("other", ["laplace", "mvg"])
    def test_only_a_directions_plan_draws_directions(self, plan_fn, other):
        # an MVG plan is a ReleasePlan too, but not one of the classic rule
        q = QuerySpec(3, 3, sensitivity=1.0, gamma=2.0, l1_sensitivity=1.0)
        plan = {"laplace": lambda: plan_laplace(np.eye(3), q, 1.0),
                "mvg": lambda: plan_equimodal(np.eye(3), q, self.p, self.theta, None),
                }[other]()
        with pytest.raises(ConfigError, match="^w_sigma must be a basis or the classic "
                                              "Gaussian plan of plan_directions_dp"):
            plan_fn(np.zeros((3, 3)), unit_query(3, 3), self.p, self.theta, plan)

    @pytest.mark.parametrize("release", [mvg_unimodal, mvg_equimodal])
    @pytest.mark.parametrize("basis", [np.eye(3), np.array([[1.0, 0.0, 0.0],
                                                            [1.0, 1.0, 0.0],
                                                            [0.0, 0.0, 1.0]])],
                             ids=["identity", "not-orthonormal"])
    def test_a_basis_of_the_wrong_size_is_a_basis_error(self, release, basis):
        # named before its orthonormality or the allocation's length
        with pytest.raises(ShapeError,
                           match=r"w_sigma has shape \(3, 3\) but the query has 4 rows"):
            release(np.zeros((4, 4)), unit_query(4, 4), self.p,
                    PrecisionAllocation.uniform(4), basis, RandomStream(0))

    def test_batched_bases_equal_single_draws(self):
        rng = np.random.default_rng(15)
        data = rng.uniform(-1, 1, (5, 40))
        plan = plan_directions_dp(AuditedGram.of(data, -1.0, 1.0),
                                  PrivacyParams(0.5, 0.05))
        noise = np.stack([RandomStream(s).standard_normal((5, 5)) for s in range(7)])
        bases = descending_eigh(plan.color(noise, None))[1]
        for s in range(7):
            single = descending_eigh(plan.draw([RandomStream(s)]))[1][0]
            assert np.array_equal(bases[s], single)


def signed_permutation(m):
    w = np.eye(m)[np.roll(np.arange(m), 1)]
    w[0] = -w[0]
    return w


class TestIdentityBasis:
    """A basis that is exactly the identity is applied by scaling, with the
    bits of the dense product; any other basis is checked and multiplied."""

    P = PrivacyParams(1.0, 0.05)
    MODES = [(plan_unimodal, mvg_unimodal, (4, 6)),
             (plan_equimodal, mvg_equimodal, (4, 4))]

    @staticmethod
    def inputs(m, n):
        rng = np.random.default_rng(21)
        value = rng.uniform(-0.2, 0.2, (m, n))
        if m == n:
            value = (value + value.T) / 2.0
        return value, unit_query(m, n), PrecisionAllocation.binary(m, 0.9, [0])

    @staticmethod
    def count_gram_checks(monkeypatch):
        calls = []
        check = design_module.check_orthonormal

        def counted(w, name):
            calls.append(name)
            return check(w, name)
        monkeypatch.setattr(design_module, "check_orthonormal", counted)
        return calls

    @pytest.mark.parametrize("plan_fn, release_fn, shape", MODES)
    def test_identity_has_the_bits_of_the_product_and_the_standard_side(
            self, monkeypatch, plan_fn, release_fn, shape):
        value, q, theta = self.inputs(*shape)
        w = np.eye(q.m)
        checks = self.count_gram_checks(monkeypatch)
        plan = plan_fn(value, q, self.P, theta, w)
        assert checks == []
        assert plan.design.basis_sigma is None and plan.design.basis_psi is None
        standard = plan_fn(value, q, self.P, theta, None)
        seeds = range(30, 35)
        stack = plan.draw([RandomStream(seed) for seed in seeds])
        for t, seed in enumerate(seeds):
            result = release_fn(value, q, self.P, theta, w, RandomStream(seed))
            # the result stores the identity as the standard side, and the
            # oracle multiplies by np.eye on each standard side
            assert result.design.basis_sigma is None
            assert result.design.basis_psi is None
            oracle = dense_release(value, result.design,
                                   RandomStream(seed).standard_normal(shape))
            assert result.output.tobytes() == oracle.tobytes()
            assert stack[t].tobytes() == oracle.tobytes()
            assert standard.draw([RandomStream(seed)])[0].tobytes() == \
                oracle.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("plan_fn, release_fn, shape", MODES)
    @pytest.mark.parametrize("near_miss", ["minus identity", "signed permutation",
                                           "tiny off-diagonal", "one ulp below 1"])
    def test_near_misses_are_checked_and_multiplied(
            self, monkeypatch, plan_fn, release_fn, shape, near_miss, order):
        value, q, theta = self.inputs(*shape)
        w = {"minus identity": -np.eye(q.m),
             "signed permutation": signed_permutation(q.m),
             "tiny off-diagonal": np.eye(q.m),
             "one ulp below 1": np.eye(q.m)}[near_miss]
        if near_miss == "tiny off-diagonal":
            w[0, 1] = 1e-300
        elif near_miss == "one ulp below 1":
            w[2, 2] = 1.0 - 2.0 ** -53
        w = np.asarray(w, order=order)
        checks = self.count_gram_checks(monkeypatch)
        plan = plan_fn(value, q, self.P, theta, w)
        assert checks == ["w_sigma"]
        # stored in C order: a C-ordered basis as it is, any other as a copy
        stored = plan.design.basis_sigma
        assert stored is w if order == "C" else (
            stored.flags.c_contiguous and stored.tobytes() == w.tobytes())
        result = release_fn(value, q, self.P, theta, w, RandomStream(3))
        oracle = dense_release(value, result.design,
                               RandomStream(3).standard_normal(shape))
        assert result.output.tobytes() == oracle.tobytes()
        assert plan.draw([RandomStream(3)])[0].tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("plan_fn, release_fn, shape", MODES)
    def test_an_integer_identity_is_read_as_floats(self, plan_fn, release_fn,
                                                   shape):
        value, q, theta = self.inputs(*shape)
        w = np.eye(q.m, dtype=int)
        result = release_fn(value, q, self.P, theta, w, RandomStream(3))
        # an exact identity once read as floats, so stored as the standard side
        assert result.design.basis_sigma is None
        oracle = dense_release(value, result.design,
                               RandomStream(3).standard_normal(shape))
        assert result.output.tobytes() == oracle.tobytes()
        floats = release_fn(value, q, self.P, theta, np.eye(q.m), RandomStream(3))
        assert result.output.tobytes() == floats.output.tobytes()

    @pytest.mark.parametrize("plan_fn, release_fn, shape", MODES)
    @pytest.mark.parametrize("cell", [(1, 1), (0, 1)])
    def test_a_nan_basis_is_rejected(self, plan_fn, release_fn, shape, cell):
        value, q, theta = self.inputs(*shape)
        w = np.eye(q.m)
        w[cell] = np.nan
        with pytest.raises(DegenerateDesignError, match="orthonormal"):
            plan_fn(value, q, self.P, theta, w)

    def test_identity_release_allocates_only_its_output(self):
        m, n = 21, 2000
        value = np.random.default_rng(22).uniform(0.0, 1.0, (m, n))
        q = QuerySpec(m, n, sensitivity=1.0, gamma=math.sqrt(m * n))
        theta = PrecisionAllocation.binary(m, 0.9, [0, 1])
        w = np.eye(m)
        plan = plan_unimodal(value, q, self.P, theta, None)
        releases = {
            "identity basis": lambda: mvg_unimodal(value, q, self.P, theta, w,
                                                   RandomStream(1)),
            "standard plan": lambda: plan.draw([RandomStream(1)]),
        }
        for name, release in releases.items():
            release()  # fills the spectrum memo and numpy's lazy state
            tracemalloc.start()
            try:
                release()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * m * n * 8, (name, peak / (m * n * 8))


class TestReleaseChecks:
    """A release keeps every value check and the bits of its arithmetic
    written out: the rows scaled, then the columns, then the value added."""

    P = PrivacyParams(1.0, 0.05)
    RELEASES = [(mvg_unimodal, (4, 6)), (mvg_equimodal, (4, 4))]

    @pytest.mark.parametrize("release_fn, shape", RELEASES)
    @pytest.mark.parametrize("basis", ["standard", "identity"])
    def test_outputs_replay_from_explicit_draws(self, release_fn, shape, basis):
        value, q, theta = TestIdentityBasis.inputs(*shape)
        w = None if basis == "standard" else np.eye(q.m)
        for seed in range(10):
            result = release_fn(value, q, self.P, theta, w, RandomStream(seed))
            noise = np.random.default_rng(seed).standard_normal(shape)
            replay = scaled_release(value, result.design, noise)
            assert result.output.tobytes() == replay.tobytes(), seed

    @pytest.mark.parametrize("gap, warns", [(2e-8, True), (5e-9, False),
                                            (0.0, False), ("signed zero", False)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_symmetry_warning_fires_above_1e_8(self, gap, warns, order):
        value, q, theta = TestIdentityBasis.inputs(4, 4)
        if gap == "signed zero":
            # equal values with unequal bits
            value[0, 1], value[1, 0] = 0.0, -0.0
        else:
            value[0, 1] = value[1, 0] + gap
        value = np.asarray(value, order=order)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mvg_equimodal(value, q, self.P, theta, np.eye(4), RandomStream(0))
        messages = [str(w.message) for w in caught]
        if warns:
            assert len(messages) == 1 and "by 2.000e-08" in messages[0]
        else:
            assert messages == []

    @pytest.mark.parametrize("release_fn, shape", RELEASES)
    @pytest.mark.parametrize("value", ["nan", "1e-6 over", "strided 1e-6 over"])
    def test_gamma_check_rejects_nan_and_a_small_excess(self, release_fn, shape,
                                                        value):
        m, n = shape
        q = QuerySpec(m, n, sensitivity=1.0, gamma=math.sqrt(m * n))
        theta = PrecisionAllocation.uniform(m)
        # every entry 1 puts the norm exactly at gamma, which passes
        release_fn(np.ones(shape), q, self.P, theta, np.eye(m), RandomStream(0))
        over = 1.0 + 1e-6
        bad = {"nan": np.where(np.eye(m, n) == 1.0, np.nan, 0.0),
               "1e-6 over": np.full(shape, over),
               "strided 1e-6 over": np.full((2 * m, 2 * n), over)[::2, ::2]}[value]
        with pytest.raises(ContractViolationError, match="exceeding"):
            release_fn(bad, q, self.P, theta, np.eye(m), RandomStream(0))


class TestGaussianBaseline:
    def test_noise_scale_formula(self):
        p = PrivacyParams(1.0, 0.05)
        assert gaussian_noise_scale(1.0, p) == pytest.approx(
            math.sqrt(2 * math.log(25)), rel=1e-12)

    def test_large_epsilon_warns(self):
        with pytest.warns(UserWarning, match="epsilon"):
            gaussian_noise_scale(1.0, PrivacyParams(5.0, 0.05))

    def test_warns_just_above_epsilon_one(self):
        # fails if the threshold moves from epsilon > 1 to epsilon > 2
        with pytest.warns(UserWarning, match="assumes epsilon <= 1, got epsilon = 1.5"):
            gaussian_noise_scale(1.0, PrivacyParams(1.5, 0.05))

    @pytest.mark.parametrize("epsilon, delta", [(1.0, 1e-320), (1e-320, 0.05)])
    def test_a_scale_that_overflows_is_rejected(self, epsilon, delta):
        # 1.25 / delta or the quotient by epsilon overflows to inf
        p = PrivacyParams(epsilon, delta)
        message = "^the Gaussian noise scale must be positive and finite, got inf$"
        with pytest.raises(DomainError, match=message):
            gaussian_noise_scale(1.0, p)
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0)
        with pytest.raises(DomainError, match=message):
            gaussian_iid_baseline(np.zeros((2, 2)), q, p, RandomStream(0))

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

    # at this target these sensitivities give sigma = 2^-511, whose square
    # is the least normal float, and the largest sigma whose square is finite
    EDGES = PrivacyParams(1.0, 0.6)
    LEAST, MOST = 1.2311708020134365e-154, 1.106633649311243e+154

    @pytest.mark.parametrize("sensitivity, normal", [
        (LEAST, True), (float(np.nextafter(LEAST, 0.0)), False),
        (MOST, True), (float(np.nextafter(MOST, math.inf)), False),
    ], ids=["least", "below-least", "most", "above-most"])
    def test_a_sigma_whose_square_is_not_a_normal_float_is_rejected(self, sensitivity,
                                                                    normal):
        q = QuerySpec(2, 2, sensitivity=sensitivity, gamma=max(1.0, sensitivity))
        sigma = gaussian_noise_scale(q.sensitivity, self.EDGES)
        if not normal:
            with pytest.raises(DomainError, match="^the Gaussian noise scale must have "
                                                  "a square that is a normal float"):
                plan_gaussian(np.zeros((2, 2)), q, self.EDGES)
            return
        assert sigma in (2.0 ** -511, math.sqrt(sys.float_info.max))
        plan = plan_gaussian(np.zeros((2, 2)), q, self.EDGES)
        assert plan.design.root_sigma.tolist() == [sigma, sigma]
        assert plan.calibration == ("classic", sigma)

    def test_a_plan_is_a_release_plan_over_the_standard_design(self):
        q = QuerySpec(3, 4, sensitivity=1.0, gamma=1.0)
        p = PrivacyParams(0.8, 0.02)
        sigma = gaussian_noise_scale(q.sensitivity, p)
        plan = plan_gaussian(np.zeros((3, 4)), q, p)
        design = plan.design
        assert (type(plan), plan.query, plan.directions) == (ReleasePlan, q, None)
        assert (design.basis_sigma, design.basis_psi, design.root_psi) == (None,) * 3
        assert design.lambda_sigma.tolist() == [sigma * sigma] * 3
        assert design.lambda_psi.tolist() == [1.0] * 4

    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0])
    def test_the_exact_delta_of_a_plan_is_within_its_target(self, epsilon):
        # equi-small's geometry: a 4 x 4 covariance query at delta = 1/2000
        q = QuerySpec(4, 4, sensitivity=0.016, gamma=1.0)
        p = PrivacyParams(epsilon, 1 / 2000)
        plan = plan_gaussian(np.zeros((4, 4)), q, p)
        assert exact_delta(plan.design, q.sensitivity, epsilon) <= p.delta
        if epsilon >= 0.5:
            # half the noise exceeds the target, so the accountant can tell;
            # at epsilon = 0.1 it stays below the target even so
            _, sigma = plan.calibration
            planted = NoiseDesign(None, np.full(4, (sigma / 2) ** 2), None, np.ones(4))
            assert exact_delta(planted, q.sensitivity, epsilon) > p.delta

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
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0, l1_sensitivity=1.0)
        trials = 25_000
        stream = RandomStream(17)
        draws = stream.laplace(1.0, (trials, 2, 2))
        empirical = draws.reshape(trials, -1).var(axis=0)
        assert np.allclose(empirical, 2.0, rtol=0.05)
        out = laplace_iid_baseline(np.zeros((2, 2)), q, 1.0, RandomStream(17))
        assert out.shape == (2, 2)

    def test_rejects_bad_inputs(self):
        # a non-positive L1 sensitivity is rejected by QuerySpec (test_budget)
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0, l1_sensitivity=1.0)
        with pytest.raises(DomainError):
            laplace_iid_baseline(np.zeros((2, 2)), q, 0.0, RandomStream(0))
        unknown = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0)
        with pytest.raises(ConfigError, match="got a custom query"):
            laplace_iid_baseline(np.zeros((2, 2)), unknown, 1.0, RandomStream(0))

    @pytest.mark.parametrize("l1, epsilon, scale", [(1e300, 1e-300, "inf"),
                                                    (1e-300, 1e300, "0.0")])
    def test_a_scale_that_is_not_positive_and_finite_is_rejected(self, l1, epsilon,
                                                                 scale):
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=1.0, l1_sensitivity=l1)
        with pytest.raises(DomainError,
                           match=f"^the Laplace scale must be positive and finite, got {scale}$"):
            laplace_iid_baseline(np.zeros((2, 2)), q, epsilon, RandomStream(0))

    def test_releases_a_custom_query_at_its_l1_scale(self):
        q = QuerySpec(2, 3, sensitivity=1.0, gamma=1.0, l1_sensitivity=3)
        value = np.arange(6, dtype=float).reshape(2, 3)
        out = laplace_iid_baseline(value, q, 0.5, RandomStream(3))
        assert np.array_equal(out, value + RandomStream(3).laplace(6.0, (2, 3)))

    def test_determinism(self):
        q = QuerySpec(2, 3, sensitivity=1.0, gamma=1.0, l1_sensitivity=2.0)
        a = laplace_iid_baseline(np.zeros((2, 3)), q, 0.5, RandomStream(3))
        b = laplace_iid_baseline(np.zeros((2, 3)), q, 0.5, RandomStream(3))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_scaled_unit_variates_have_the_bits_of_a_draw_at_the_scale(self, scale):
        value = np.arange(12, dtype=float).reshape(3, 4) / 7.0
        q = QuerySpec(3, 4, sensitivity=1.0, gamma=10.0, l1_sensitivity=scale * 0.5)
        plan = plan_laplace(value, q, 0.5)
        for seed in range(3):
            drawn = plan.draw([RandomStream(seed)])[0]
            want = value + RandomStream(seed).laplace(scale, value.shape)
            assert drawn.tobytes() == want.tobytes()


class TestPlanScales:
    """A Laplace plan built directly checks its noise scale, as
    :func:`plan_laplace`'s formula does."""

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_a_scale_that_is_not_positive_and_finite_is_rejected(self, scale):
        with pytest.raises(DomainError, match=f"^the Laplace scale must be positive "
                                              f"and finite, got {scale}$"):
            LaplacePlan(np.eye(2), scale)


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
        plan = plan_directions_dp(AuditedGram.of(data, -1.0, 1.0), p)
        for seed in (0, 1, 2):
            derived = derive_directions_dp(data, p, 2, RandomStream(seed),
                                           bounds=bounds)
            drawn = descending_eigh(plan.draw([RandomStream(seed)]))[1][0]
            assert np.array_equal(drawn, derived)

    def test_directions_are_the_covariance_gaussian_release_eigendecomposed(self):
        data = np.random.default_rng(8).uniform(-1, 1, (4, 50))
        gram = AuditedGram.of(data, -1.0, 1.0)
        p = PrivacyParams(0.4, 0.05)
        q = covariance_query(gram.bounds)
        plan = plan_directions_dp(gram, p)
        gaussian = plan_gaussian(gram.covariance, q, p)
        assert type(plan) is ReleasePlan and plan.directions is None
        assert plan.value.tobytes() == gaussian.value.tobytes()
        assert plan.design.lambda_sigma.tobytes() == gaussian.design.lambda_sigma.tobytes()
        assert plan.calibration == gaussian.calibration
        for seed in (0, 1, 2):
            noisy = gaussian_iid_baseline(gram.covariance, q, p, RandomStream(seed))
            want = descending_eigh(noisy[np.newaxis])[1][0]
            derived = derive_directions_dp(data, p, 2, RandomStream(seed),
                                           bounds=gram.bounds)
            assert derived.tobytes() == want.tobytes()

    def test_out_of_bounds_data_is_clamped(self):
        data = np.random.default_rng(7).uniform(-3.0, 3.0, (2, 5))
        bounds = DataBounds(2, 5, -1.0, 1.0)
        derived = [derive_directions_dp(x, PrivacyParams(1.0, 0.1), 2,
                                        RandomStream(0), bounds=bounds)
                   for x in (data, np.clip(data, -1.0, 1.0))]
        assert derived[0].tobytes() == derived[1].tobytes()

    @pytest.mark.parametrize("data, bounds, message", [
        (np.zeros(6), DataBounds(1, 6, -1.0, 1.0),
         r"^the records must be 2-D, got shape \(6,\)$"),
        (np.zeros((3, 10)), DataBounds(3, 11, -1.0, 1.0),
         "bounds declare 3x11 but the data is 3x10"),
        (np.zeros((3, 10)), DataBounds(4, 10, -1.0, 1.0),
         "bounds declare 4x10 but the data is 3x10"),
    ], ids=["1-D", "records", "features"])
    def test_shape_rejected(self, data, bounds, message):
        with pytest.raises(ShapeError, match=message):
            derive_directions_dp(data, PrivacyParams(1.0, 0.1), 1,
                                 RandomStream(0), bounds=bounds)


class TestReleaseSpectrumMemo:
    """An MVG release's budget, singular values and condition check are
    computed once per (query, privacy, allocation, mode)."""

    P = PrivacyParams(1.0, 1e-3)
    MODES = [
        pytest.param(plan_unimodal, mvg_unimodal, (3, 40), id="unimodal"),
        pytest.param(plan_equimodal, mvg_equimodal, (4, 4), id="equimodal"),
    ]

    @staticmethod
    def inputs(m, n):
        rng = np.random.default_rng(8)
        value = rng.uniform(-0.2, 0.2, (m, n))
        if m == n:
            value = (value + value.T) / 2.0
        w = np.linalg.qr(rng.standard_normal((m, m)))[0]
        return value, unit_query(m, n), PrecisionAllocation.binary(m, 0.9, [0]), w

    def snapshot(self, plan_fn, release_fn, value, q, theta, w):
        """Every bit a release and its plan report."""
        plan = plan_fn(value, q, self.P, theta, w)
        result = release_fn(value, q, self.P, theta, w, RandomStream(5))
        arrays = (plan.draw([RandomStream(5)])[0], result.output,
                  plan.design.lambda_sigma, plan.design.lambda_psi,
                  result.design.lambda_sigma, result.design.lambda_psi)
        _, budget, condition = plan.calibration
        return ([np.ascontiguousarray(a).tobytes() for a in arrays],
                budget, result.budget, condition.lhs.hex(), condition.rhs.hex())

    @pytest.mark.parametrize("plan_fn, release_fn, shape", MODES)
    def test_warm_releases_have_the_bits_of_cold_ones(self, plan_fn, release_fn,
                                                      shape):
        args = self.inputs(*shape)
        release_spectrum.cache_clear()
        cold = self.snapshot(plan_fn, release_fn, *args)
        hits = release_spectrum.cache_info().hits
        warm = self.snapshot(plan_fn, release_fn, *args)
        assert release_spectrum.cache_info().hits == hits + 2
        assert warm == cold

    @pytest.mark.parametrize("plan_fn, release_fn, shape", MODES)
    def test_each_key_field_misses(self, plan_fn, release_fn, shape):
        value, q, theta, w = self.inputs(*shape)
        release_spectrum.cache_clear()
        base = plan_fn(value, q, self.P, theta, w)
        variants = [
            (dataclasses.replace(q, gamma=3.0), self.P, theta),
            (q, PrivacyParams(2.0, self.P.delta), theta),
            (q, self.P, PrecisionAllocation.uniform(q.m)),
        ]
        for vq, vp, vtheta in variants:
            misses = release_spectrum.cache_info().misses
            plan = plan_fn(value, vq, vp, vtheta, w)
            assert release_spectrum.cache_info().misses == misses + 1
            assert (plan.calibration[2].rhs, plan.design.lambda_sigma.tobytes()) != \
                (base.calibration[2].rhs, base.design.lambda_sigma.tobytes())

    def test_the_mode_is_part_of_the_key(self):
        value, q, theta, w = self.inputs(4, 4)
        release_spectrum.cache_clear()
        equi = plan_equimodal(value, q, self.P, theta, w)
        uni = plan_unimodal(value, q, self.P, theta, w)
        assert release_spectrum.cache_info().misses == 2
        assert uni.calibration[0] == "unimodal"
        assert uni.calibration[1].mode is BudgetMode.UNIMODAL
        assert equi.calibration[0] == "equimodal"
        assert equi.calibration[1].mode is BudgetMode.EQUI_MODAL

    @pytest.mark.parametrize("plan_fn, release_fn, shape", MODES)
    def test_a_result_cannot_change_the_cached_spectrum(self, plan_fn, release_fn,
                                                        shape):
        value, q, theta, w = self.inputs(*shape)
        first = release_fn(value, q, self.P, theta, w, RandomStream(2))
        lam_sigma = first.design.lambda_sigma.copy()
        for lam in (first.design.lambda_sigma, first.design.lambda_psi,
                    first.design.root_sigma):
            with pytest.raises(ValueError):
                lam[0] = 1e-9
        again = release_fn(value, q, self.P, theta, w, RandomStream(2))
        assert again.output.tobytes() == first.output.tobytes()
        assert again.design.lambda_sigma.tobytes() == lam_sigma.tobytes()

    def test_a_failing_condition_raises_every_time(self, monkeypatch):
        value, q, theta, w = self.inputs(4, 4)
        release_spectrum.cache_clear()
        checks = []

        def failing(design, q, p):
            checks.append(q)
            return ConditionCheck(False, 2.0, 1.0)

        monkeypatch.setattr(mechanisms, "check_condition", failing)
        for _ in range(2):
            with pytest.raises(ConditionCheckError):
                plan_equimodal(value, q, self.P, theta, w)
        assert len(checks) == 2
        assert release_spectrum.cache_info().currsize == 0

    def test_an_exact_delta_above_the_target_raises_every_time(self, monkeypatch):
        value, q, theta, w = self.inputs(4, 4)
        release_spectrum.cache_clear()
        calls = []
        delta = np.nextafter(self.P.delta, 1.0)

        def planted(design, sensitivity, epsilon):
            calls.append((design.lambda_sigma.tobytes(), sensitivity, epsilon))
            return delta

        monkeypatch.setattr(mechanisms, "exact_delta", planted)
        for _ in range(2):
            with pytest.raises(ConditionCheckError, match="exact delta"):
                plan_equimodal(value, q, self.P, theta, w)
        assert release_spectrum.cache_info().currsize == 0
        # the target itself passes, and a warm key is not checked again
        delta = self.P.delta
        for _ in range(2):
            plan = plan_equimodal(value, q, self.P, theta, w)
        assert calls == [(plan.design.lambda_sigma.tobytes(), q.sensitivity,
                          self.P.epsilon)] * 3

    @pytest.mark.parametrize("plan_fn, release_fn, shape", MODES)
    def test_second_release_skips_budget_condition_and_lambda_checks(
            self, monkeypatch, plan_fn, release_fn, shape):
        value, q, theta, w = self.inputs(*shape)
        release_spectrum.cache_clear()
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("check_condition", "precision_budget_unimodal",
                     "precision_budget_equimodal"):
            counted(mechanisms, name)
        for name in ("positive_fault", "check_orthonormal"):
            counted(design_module, name)
        release_fn(value, q, self.P, theta, w, RandomStream(1))
        assert calls["check_condition"] == 1
        calls.clear()
        release_fn(value, q, self.P, theta, w, RandomStream(2))
        # only the basis is checked again
        assert calls == Counter(check_orthonormal=1)

    @pytest.mark.parametrize("plan_fn, release_fn, shape", MODES)
    def test_every_plan_checks_its_own_basis(self, plan_fn, release_fn, shape):
        value, q, theta, w = self.inputs(*shape)
        plan_fn(value, q, self.P, theta, w)
        skewed = np.eye(q.m)
        skewed[1, 0] = 1.0
        with pytest.raises(DegenerateDesignError):
            plan_fn(value, q, self.P, theta, skewed)

    def test_a_unimodal_entry_stores_no_column_array(self):
        n = 100_000
        spectrum = release_spectrum(unit_query(2, n), self.P,
                                    PrecisionAllocation.uniform(2), BudgetMode.UNIMODAL)
        lam_psi = spectrum.design.lambda_psi
        assert lam_psi.shape == (n,) and lam_psi.strides == (0,)
        assert np.all(lam_psi == 1.0)
        assert spectrum.design.basis_sigma is None and spectrum.design.basis_psi is None


# a spec and a privacy target pickled by a process with its own str hashes
PICKLE_IN_CHILD = """
import pickle, sys
from mvgdp import PrivacyParams, QueryKind, QuerySpec
specs = (QuerySpec(4, 4, sensitivity=0.5, gamma=3.0, kind=QueryKind.COVARIANCE),
         QuerySpec(3, 5, sensitivity=1.0, gamma=2.0, kind=QueryKind.IDENTITY,
                   l1_sensitivity=0.25),
         PrivacyParams(0.75, 1e-3))
sys.stdout.buffer.write(pickle.dumps((hash("str probe"), specs)))
"""


class TestSpecHashes:
    """A spec's hash is computed once, from values that hash alike in every
    process, so a spec pickled elsewhere keys the same memo entries."""

    def test_a_spec_pickled_in_another_process_hits_the_memo(self):
        env = dict(os.environ, PYTHONPATH=str(Path(mvgdp.__file__).parents[1]),
                   PYTHONHASHSEED="1" if os.environ.get("PYTHONHASHSEED") == "0" else "0")
        child = subprocess.run([sys.executable, "-c", PICKLE_IN_CHILD], env=env,
                               capture_output=True, check=True, timeout=60)
        str_hash, (cov, ident, p) = pickle.loads(child.stdout)
        assert str_hash != hash("str probe")  # the child's str hashes differ
        local = (QuerySpec(4, 4, sensitivity=0.5, gamma=3.0, kind=QueryKind.COVARIANCE),
                 QuerySpec(3, 5, sensitivity=1.0, gamma=2.0, kind=QueryKind.IDENTITY,
                           l1_sensitivity=0.25),
                 PrivacyParams(0.75, 1e-3))
        for pickled, here in zip((cov, ident, p), local):
            assert pickled == here and hash(pickled) == hash(here)
        theta = PrecisionAllocation.uniform(4)
        value = np.diag([1.0, 0.5, 0.25, 0.0])
        release_spectrum.cache_clear()
        warm = plan_equimodal(value, local[0], local[2], theta, None)
        plan = plan_equimodal(value, cov, p, theta, None)
        assert release_spectrum.cache_info().hits == 1
        assert plan.design is warm.design

    def test_the_kind_and_an_unknown_l1_sensitivity_enter_the_hash(self):
        q = QuerySpec(2, 2, sensitivity=1.0, gamma=2.0)
        assert hash(q) == hash(QuerySpec(2, 2, sensitivity=1.0, gamma=2.0))
        others = [dataclasses.replace(q, kind=QueryKind.IDENTITY),
                  dataclasses.replace(q, l1_sensitivity=1.0),
                  dataclasses.replace(q, gamma=3.0)]
        assert len({hash(q), *map(hash, others)}) == 4
        assert all(other != q for other in others)


class TestPerCallPath:
    """A warm release builds its plan and result without the dataclass
    machinery and hashes its memo key without Python-level enum hashing."""

    P = PrivacyParams(1.0, 0.05)

    @staticmethod
    def generated_code() -> set:
        """The code of every dataclass-generated __init__ and __hash__ in
        mvgdp, and of enum.Enum.__hash__."""
        generated = {enum.Enum.__hash__.__code__}
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("mvgdp"):
                continue
            for cls in vars(module).values():
                if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
                    continue
                for name in ("__init__", "__hash__"):
                    code = getattr(cls.__dict__.get(name), "__code__", None)
                    # a hand-written method's code is in its module's file
                    if code is not None and code.co_filename != sys.modules[
                            cls.__module__].__file__:
                        generated.add(code)
        return generated

    @pytest.mark.parametrize("release_fn, shape", [(mvg_equimodal, (4, 4)),
                                                   (mvg_unimodal, (4, 6))])
    @pytest.mark.parametrize("basis", ["identity", "dense", "standard"])
    def test_a_warm_release_runs_no_generated_init_or_hash(self, release_fn, shape,
                                                           basis):
        value, q, theta = TestIdentityBasis.inputs(*shape)
        w = {"identity": np.eye(4), "standard": None,
             "dense": np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))[0]}[
                 basis]
        release_fn(value, q, self.P, theta, w, RandomStream(0))
        generated = self.generated_code()
        # a hand-written hash is told apart from a generated init
        assert PrecisionAllocation.__hash__.__code__ not in generated
        assert ReleasePlan.__init__.__code__ in generated
        called = []

        def profile(frame, event, arg):
            if event == "call":
                called.append(frame.f_code)
        sys.setprofile(profile)
        try:
            result = release_fn(value, q, self.P, theta, w, RandomStream(0))
        finally:
            sys.setprofile(None)
        assert release_fn.__code__ in called
        assert [code.co_name for code in called if code in generated] == []
        assert result.output.tobytes() == \
            release_fn(value, q, self.P, theta, w, RandomStream(0)).output.tobytes()

    def test_a_plan_and_a_result_hold_every_field_and_stay_frozen(self):
        value, q, theta = TestIdentityBasis.inputs(4, 4)
        plan = plan_equimodal(value, q, self.P, theta, np.eye(4))
        result = mvg_equimodal(value, q, self.P, theta, np.eye(4), RandomStream(0))
        for obj in (plan, result):
            assert list(vars(obj)) == [f.name for f in dataclasses.fields(obj)]
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.design = None
        assert (plan.value is value, plan.query, plan.directions) == (True, q, None)
        assert (result.design, result.budget, result.seed) == \
            (plan.design, plan.calibration[1], 0)
        assert result.output.tobytes() == plan.draw([RandomStream(0)])[0].tobytes()


def release_object(name):
    """One object of the class ``name``, one of those that hold arrays."""
    p = PrivacyParams(0.5, 0.05)
    q = QuerySpec(2, 2, sensitivity=1.0, gamma=10.0, l1_sensitivity=1.0)
    theta = PrecisionAllocation.uniform(2)
    return {
        "PerturbResult": lambda: mvg_equimodal(np.eye(2), q, p, theta, None,
                                               RandomStream(0)),
        "ReleasePlan": lambda: plan_equimodal(np.eye(2), q, p, theta, None),
        "LaplacePlan": lambda: plan_laplace(np.eye(2), q, 1.0),
        "NoiseDesign": lambda: NoiseDesign(None, np.ones(2), None, np.ones(2)),
    }[name]()


@pytest.mark.parametrize("name", ["PerturbResult", "ReleasePlan", "LaplacePlan",
                                  "NoiseDesign"])
def test_release_objects_compare_and_hash_by_identity(name):
    obj = release_object(name)
    twin = copy.copy(obj)
    assert type(obj).__name__ == name
    assert obj == obj and obj != twin
    assert hash(obj) == hash(obj) and {obj: name}[obj] == name
    assert len({obj, twin}) == 2


@pytest.mark.parametrize("kind", ["gaussian", "laplace", "standard", "dense", "dp"])
def test_every_plan_draws_an_empty_stack_from_no_streams(kind):
    p = PrivacyParams(0.5, 0.05)
    q = QuerySpec(3, 4, sensitivity=1.0, gamma=10.0, l1_sensitivity=1.0)
    value = np.zeros((3, 4))
    if kind == "gaussian":
        plan = plan_gaussian(value, q, p)
    elif kind == "laplace":
        plan = plan_laplace(value, q, 1.0)
    else:
        w = {"standard": lambda: None,
             "dense": lambda: signed_permutation(3),
             "dp": lambda: plan_directions_dp(AuditedGram.of(np.eye(3), -1.0, 1.0), p),
             }[kind]()
        plan = plan_unimodal(value, q, p, PrecisionAllocation.uniform(3), w)
    assert plan.draw([]).shape == (0, 3, 4)


class TestOneColoringPath:
    """Every Gaussian draw, MVG, classic or of the directions, is colored by
    ``NoiseDesign.color``."""

    P = PrivacyParams(1.0, 0.05)

    @staticmethod
    def count_colors(monkeypatch):
        calls = []
        color = NoiseDesign.color

        def counted(self, noise, basis_sigma=None, basis_psi=None):
            calls.append((noise.shape, basis_sigma is None, basis_psi is None))
            return color(self, noise, basis_sigma, basis_psi)

        monkeypatch.setattr(NoiseDesign, "color", counted)
        return calls

    def test_sample_mvg(self, monkeypatch):
        calls = self.count_colors(monkeypatch)
        sample_mvg(RandomStream(0), NoiseDesign(None, np.ones(2), None, np.ones(3)))
        assert calls == [((2, 3), True, True)]

    @pytest.mark.parametrize("plan_fn, equimodal", [(plan_unimodal, False),
                                                    (plan_equimodal, True)])
    @pytest.mark.parametrize("drawn", [False, True], ids=["fixed", "dp"])
    def test_release_plan_draw(self, monkeypatch, plan_fn, equimodal, drawn):
        rng = np.random.default_rng(3)
        data = rng.uniform(-1, 1, (3, 60))
        w = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        if drawn:
            w = plan_directions_dp(AuditedGram.of(data, -1.0, 1.0),
                                   PrivacyParams(0.3, 0.01))
        plan = plan_fn(np.zeros((3, 3)), unit_query(3, 3), self.P,
                       PrecisionAllocation.uniform(3), w)
        calls = self.count_colors(monkeypatch)
        plan.draw([RandomStream(s) for s in range(4)])
        # the directions plan colors the covariance noise on its standard
        # sides first; drawn bases replace the row side, and the column side
        # if equi-modal
        assert calls == [((4, 3, 3), True, True)] * drawn + [
            ((4, 3, 3), not drawn, not (drawn and equimodal))]

    def test_gaussian_plan_draw(self, monkeypatch):
        plan = plan_gaussian(np.zeros((3, 4)), unit_query(3, 4), self.P)
        calls = self.count_colors(monkeypatch)
        plan.draw([RandomStream(s) for s in range(2)])
        assert calls == [((2, 3, 4), True, True)]
