import itertools
import math

import numpy as np
import pytest

from mvgdp import (
    ContractViolationError,
    DataBounds,
    DomainError,
    QueryKind,
    ShapeError,
    covariance_query,
    covariance_sensitivity,
    covariance_sensitivity_l1,
    gamma_covariance,
    gamma_identity,
    identity_query,
    identity_sensitivity,
    identity_sensitivity_l1,
)
from mvgdp.sensitivity import clamp


class TestDataBounds:
    def test_validation(self):
        with pytest.raises(DomainError):
            DataBounds(0, 5, 0.0, 1.0)
        with pytest.raises(DomainError):
            DataBounds(3, 0, 0.0, 1.0)
        with pytest.raises(DomainError):
            DataBounds(3, 5, 1.0, 1.0)
        with pytest.raises(DomainError):
            DataBounds(3, 5, 2.0, 1.0)
        for lo, hi in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(DomainError, match="bounds must be finite"):
                DataBounds(3, 5, lo, hi)
        # a bool is not a number here either, and a string is no number at all
        for lo, hi in ((True, 2.0), (0.0, np.True_), ("0", "1")):
            with pytest.raises(DomainError, match="bounds must be a real number"):
                DataBounds(4, 10, lo, hi)
        assert DataBounds(4, 10, np.int64(0), np.float32(1.0)).magnitude == 1.0

    def test_check_shape(self):
        bounds = DataBounds(3, 5, 0.0, 1.0)
        bounds.check_shape((3, 5))
        for shape, shown in (((5, 3), "5x3"), ((3, 5, 1), "3x5x1"), ((15,), "15")):
            with pytest.raises(ShapeError,
                               match=f"bounds declare 3x5 but the data is {shown}$"):
                bounds.check_shape(shape)

    def test_magnitude(self):
        assert DataBounds(1, 1, -3.0, 1.0).magnitude == 3.0
        assert DataBounds(1, 1, 0.0, 2.0).magnitude == 2.0


class TestIdentitySensitivity:
    def test_unit_box_six_features(self):
        assert identity_sensitivity(DataBounds(6, 248, 0.0, 1.0)) == \
            pytest.approx(math.sqrt(6), rel=1e-13)

    def test_unit_box_21_features(self):
        assert identity_sensitivity(DataBounds(21, 2126, 0.0, 1.0)) == \
            pytest.approx(math.sqrt(21), rel=1e-13)

    def test_single_feature_range_two(self):
        assert identity_sensitivity(DataBounds(1, 10, 0.0, 2.0)) == pytest.approx(2.0)

    def test_extreme_pair_attains_bound(self):
        b = DataBounds(4, 6, -1.0, 2.0)
        x1 = np.full((4, 6), -1.0)
        x2 = x1.copy()
        x2[:, 3] = 2.0  # one record replaced, every feature at the far corner
        diff = np.linalg.norm(x1 - x2)
        assert diff == pytest.approx(identity_sensitivity(b), rel=1e-12)

    def test_random_pairs_never_exceed(self):
        rng = np.random.default_rng(10)
        b = DataBounds(5, 20, -0.5, 1.5)
        bound = identity_sensitivity(b)
        for _ in range(500):
            x1 = rng.uniform(b.lo, b.hi, (5, 20))
            x2 = x1.copy()
            x2[:, rng.integers(0, 20)] = rng.uniform(b.lo, b.hi, 5)
            assert np.linalg.norm(x1 - x2) <= bound * (1 + 1e-12)


class TestCovarianceSensitivity:
    def test_movement_constants(self):
        assert covariance_sensitivity(DataBounds(4, 2021, -1.0, 1.0)) == \
            pytest.approx(8 / 2021, rel=1e-13)

    def test_tiny_case(self):
        assert covariance_sensitivity(DataBounds(1, 1, 0.0, 1.0)) == pytest.approx(2.0)

    def test_halves_with_doubled_samples(self):
        a = covariance_sensitivity(DataBounds(3, 10, -1.0, 1.0))
        b = covariance_sensitivity(DataBounds(3, 20, -1.0, 1.0))
        assert b == pytest.approx(a / 2)

    def test_random_neighbors_never_exceed(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(2, 51))
            b = DataBounds(m, n, -1.0, 1.0)
            bound = covariance_sensitivity(b)
            for _ in range(250):
                x1 = rng.uniform(-1, 1, (m, n))
                x2 = x1.copy()
                x2[:, rng.integers(0, n)] = rng.uniform(-1, 1, m)
                s1 = x1 @ x1.T / n
                s2 = x2 @ x2.T / n
                assert np.linalg.norm(s1 - s2) <= bound * (1 + 1e-12)


class TestGammaBounds:
    def test_identity_small(self):
        assert gamma_identity(DataBounds(2, 2, 0.0, 1.0)) == pytest.approx(2.0)

    def test_identity_liver_shape(self):
        got = gamma_identity(DataBounds(6, 248, 0.0, 1.0))
        assert got == pytest.approx(math.sqrt(1488), rel=1e-13)
        # the all-ones corner of the box attains it
        corner = np.ones((6, 248))
        assert np.linalg.norm(corner) == pytest.approx(got, rel=1e-12)

    def test_identity_scale(self):
        a = gamma_identity(DataBounds(3, 7, -1.0, 1.0))
        b = gamma_identity(DataBounds(3, 7, -2.0, 2.0))
        assert b == pytest.approx(2 * a)

    def test_covariance_values(self):
        assert gamma_covariance(DataBounds(4, 100, -1.0, 1.0)) == pytest.approx(4.0)
        assert gamma_covariance(DataBounds(1, 3, 0.0, 1.0)) == pytest.approx(1.0)

    def test_covariance_attained_by_constant_columns(self):
        b = DataBounds(4, 50, -1.0, 1.0)
        x = np.ones((4, 50))
        s = x @ x.T / 50
        assert np.linalg.norm(s) == pytest.approx(gamma_covariance(b), rel=1e-12)

    def test_covariance_dominates_random_data(self):
        rng = np.random.default_rng(12)
        b = DataBounds(4, 30, -1.0, 1.0)
        bound = gamma_covariance(b)
        for _ in range(1000):
            x = rng.uniform(-1, 1, (4, 30))
            assert np.linalg.norm(x @ x.T / 30) <= bound


class TestTriangleInequality:
    def test_sensitivity_below_twice_gamma(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = int(rng.integers(1, 30))
            n = int(rng.integers(1, 300))
            lo = float(rng.uniform(-5, 1))
            hi = lo + float(rng.uniform(0.1, 6))
            b = DataBounds(m, n, lo, hi)
            assert identity_sensitivity(b) <= 2 * gamma_identity(b) * (1 + 1e-12)
            assert covariance_sensitivity(b) <= 2 * gamma_covariance(b) * (1 + 1e-12)

    def test_a_spec_at_twice_gamma_builds(self):
        # one record in a symmetric box moves the identity query by its
        # whole diameter: (hi - lo) sqrt(M) = 2 c sqrt(M) = 2 gamma
        for m in (1, 3, 7):
            q = identity_query(DataBounds(m, 1, -1.0, 1.0))
            assert q.sensitivity == 2.0 * q.gamma


class TestL1Helpers:
    def test_identity_l1(self):
        assert identity_sensitivity_l1(DataBounds(6, 10, 0.0, 1.0)) == pytest.approx(6.0)

    def test_covariance_l1(self):
        got = covariance_sensitivity_l1(DataBounds(4, 2021, -1.0, 1.0))
        assert got == pytest.approx(32 / 2021, rel=1e-13)

    def test_covariance_l1_dominates(self):
        rng = np.random.default_rng(14)
        b = DataBounds(3, 25, -1.0, 1.0)
        bound = covariance_sensitivity_l1(b)
        for _ in range(300):
            x1 = rng.uniform(-1, 1, (3, 25))
            x2 = x1.copy()
            x2[:, rng.integers(0, 25)] = rng.uniform(-1, 1, 3)
            delta = np.abs(x1 @ x1.T - x2 @ x2.T).sum() / 25
            assert delta <= bound * (1 + 1e-12)


class TestQueryBuilders:
    @pytest.mark.parametrize("build, kind, n, formulas", [
        (identity_query, QueryKind.IDENTITY, 37,
         (identity_sensitivity, gamma_identity, identity_sensitivity_l1)),
        (covariance_query, QueryKind.COVARIANCE, 5,
         (covariance_sensitivity, gamma_covariance, covariance_sensitivity_l1)),
    ], ids=["identity", "covariance"])
    def test_spec_carries_the_formulas_bit_for_bit(self, build, kind, n, formulas):
        b = DataBounds(5, 37, -0.3, 1.7)
        q = build(b)
        assert (q.m, q.n, q.kind) == (5, n, kind)
        assert [q.sensitivity, q.gamma, q.l1_sensitivity] == [f(b) for f in formulas]

    @pytest.mark.parametrize("build", [identity_query, covariance_query])
    @pytest.mark.parametrize("shape", [(10 ** 400, 2), (2, 10 ** 400)],
                             ids=["features", "records"])
    def test_a_count_too_large_for_a_float_is_a_domain_error(self, build, shape):
        # the count enters a scale as an infinity, which the spec rejects
        with pytest.raises(DomainError, match="must be positive and finite"):
            build(DataBounds(*shape, 0.0, 1.0))


class TestFormulasAgainstCornerOracle:
    """The six formulas against the bounds they are derived from, worked
    out over the corners of the box [-1, 3]. There the largest magnitude
    c = 3 is neither 1 nor the half range 2, so a formula that drops c,
    divides by it or takes the range for it gives another value."""

    b = DataBounds(3, 4, -1.0, 3.0)

    def corners(self):
        # every record whose entries are all at an end of the box
        return np.array(list(itertools.product((self.b.lo, self.b.hi),
                                               repeat=self.b.num_features)))

    def test_identity_formulas(self):
        corners = self.corners()
        # replacing one record moves one column from one corner to another
        moves = corners[:, np.newaxis, :] - corners[np.newaxis, :, :]
        assert identity_sensitivity(self.b) == pytest.approx(
            np.linalg.norm(moves, axis=-1).max(), rel=1e-12)
        assert identity_sensitivity_l1(self.b) == pytest.approx(
            np.abs(moves).sum(axis=-1).max(), rel=1e-12)
        # the largest X repeats the largest corner in every column
        top = corners[np.argmax(np.linalg.norm(corners, axis=1))]
        largest = np.repeat(top[:, np.newaxis], self.b.num_samples, axis=1)
        assert gamma_identity(self.b) == pytest.approx(np.linalg.norm(largest),
                                                       rel=1e-12)

    def test_covariance_formulas(self):
        n = self.b.num_samples
        terms = [np.outer(x, x) for x in self.corners()]
        largest_l2 = max(np.linalg.norm(t) for t in terms)
        largest_l1 = max(np.abs(t).sum() for t in terms)
        # X X^T / N of constant columns is one term, and one record's
        # replacement moves the query by at most two terms over N
        assert gamma_covariance(self.b) == pytest.approx(largest_l2, rel=1e-12)
        assert covariance_sensitivity(self.b) == pytest.approx(2 * largest_l2 / n,
                                                               rel=1e-12)
        assert covariance_sensitivity_l1(self.b) == pytest.approx(2 * largest_l1 / n,
                                                                  rel=1e-12)


class TestClamp:
    def test_records_inside_the_box_are_returned_themselves(self):
        x = np.array([[-1.0, 0.5], [3.0, 0.0]])
        assert clamp(x, -1.0, 3.0) is x

    def test_records_outside_are_clipped_and_infinities_go_to_the_edges(self):
        x = np.array([[-2.0, np.inf], [-np.inf, 4.0], [0.5, 3.0]])
        clamped = clamp(x, -1.0, 3.0)
        assert clamped.tolist() == [[-1.0, 3.0], [-1.0, 3.0], [0.5, 3.0]]
        assert clamped.tobytes() == np.clip(x, -1.0, 3.0).tobytes()
        assert x[0, 0] == -2.0  # the caller's array is not written

    @pytest.mark.parametrize("x", [np.array([[np.nan]]),
                                   np.array([[0.0, np.nan, 5.0]]),
                                   np.array([[np.inf], [np.nan]])])
    def test_a_nan_raises_naming_no_value(self, x):
        with pytest.raises(ContractViolationError,
                           match="^the data holds a cell that is not a number") as info:
            clamp(x, -1.0, 3.0)
        assert "nan" not in str(info.value).lower()
