import math

import numpy as np
import pytest

from mvgdp import (
    ContractViolationError,
    DomainError,
    EvalReport,
    ShapeError,
    captured_variance,
    delta_rho,
    mean_ci95,
    ridge_regression_rmse,
    rss,
)
from mvgdp.metrics import DeltaRho


def random_psd(rng, m, scale=1.0):
    a = rng.standard_normal((m, m))
    return scale * (a @ a.T) / m


class TestCapturedVariance:
    def test_axis_directions(self):
        s = np.diag([2.0, 1.0])
        assert captured_variance([1.0, 0.0], s) == pytest.approx(2.0)
        assert captured_variance([0.0, 1.0], s) == pytest.approx(1.0)

    def test_isotropic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            assert captured_variance(v, np.eye(4)) == pytest.approx(1.0, rel=1e-12)

    def test_sign_invariance(self):
        rng = np.random.default_rng(1)
        s = random_psd(rng, 3)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert captured_variance(v, s) == pytest.approx(captured_variance(-v, s))

    def test_rejects_non_unit(self):
        with pytest.raises(ContractViolationError):
            captured_variance([1.0, 1.0], np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            captured_variance([1.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_a_direction_of_the_wrong_length(self):
        with pytest.raises(ShapeError, match="v has length 3, s_bar is 2x2"):
            captured_variance([1.0, 0.0, 0.0], np.eye(2))
        # flattened, a 2 x 2 v would have s_bar's length 4
        for score in (captured_variance, delta_rho):
            with pytest.raises(ShapeError, match=r"^v must be 1-D, got shape \(2, 2\)$"):
                score(np.full((2, 2), 0.5), np.eye(4))

    def test_rejects_a_nan_direction(self):
        # a NaN norm must fail the unit test, not score NaN
        with pytest.raises(ContractViolationError, match="got norm nan"):
            captured_variance([math.nan, 0.0], np.eye(2))


class TestDeltaRho:
    def test_top_eigenvector_gives_zero(self):
        s = np.diag([2.0, 1.0])
        assert delta_rho([1.0, 0.0], s) == 0.0

    def test_minor_axis(self):
        s = np.diag([2.0, 1.0])
        assert delta_rho([0.0, 1.0], s) == pytest.approx(1.0)

    def test_cross_solver_oracle(self):
        # top eigenvector from the general (non-symmetric-specialized) solver
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = random_psd(rng, 5)
            eigvals, eigvecs = np.linalg.eig(s)
            v = np.real(eigvecs[:, np.argmax(np.real(eigvals))])
            v /= np.linalg.norm(v)
            assert delta_rho(v, s) <= 1e-8

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = random_psd(rng, 4)
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            assert delta_rho(v, s) >= 0.0

    def test_rejects_a_nan_direction(self):
        with pytest.raises(ContractViolationError, match="got norm nan"):
            delta_rho([math.nan, 0.0], np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_an_s_bar_that_is_not_finite(self, bad):
        # NaN fails no tolerance comparison, so finiteness is tested first
        with pytest.raises(ContractViolationError,
                           match="^s_bar has an entry that is not finite$"):
            DeltaRho(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestBatchedDeltaRho:
    @pytest.mark.parametrize("m", [3, 4, 16])
    @pytest.mark.parametrize("trials", [1, 2, 200])
    def test_rows_equal_the_scalar_product(self, m, trials):
        # the harness scores the strided top-eigenvector views of one eigh
        rng = np.random.default_rng(100 * m + trials)
        s_bar = random_psd(rng, m)
        noisy = s_bar + 0.3 * rng.standard_normal((trials, m, m))
        vs = np.linalg.eigh((noisy + np.swapaxes(noisy, -1, -2)) / 2.0)[1][..., -1]
        assert not vs.flags.c_contiguous
        gap = DeltaRho(s_bar)
        expected = [gap.lam1 - float(v @ s_bar @ v) for v in vs]
        expected = [0.0 if -1e-10 <= g < 0.0 else g for g in expected]
        gaps = gap(vs)
        assert gaps.shape == (trials,)
        assert gaps.tolist() == expected

    def test_dust_clamps_to_zero_and_larger_negatives_stay(self):
        dust, beyond = 1.0 + 2e-11, 1.0 + 4e-9  # both unit within 1e-8
        assert -1e-10 <= 1.0 - dust * dust < 0.0
        assert 1.0 - beyond * beyond < -1e-10
        gaps = DeltaRho(np.diag([1.0, 0.5]))(
            np.array([[dust, 0.0], [beyond, 0.0], [0.0, 1.0]]))
        assert gaps.tolist() == [0.0, 1.0 - beyond * beyond, 0.5]

    def test_rejects_a_non_unit_or_wrong_length_row(self):
        gap = DeltaRho(np.diag([1.0, 0.5]))
        with pytest.raises(ContractViolationError, match="got norm 2.0"):
            gap(np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ShapeError, match="v has length 3, s_bar is 2x2"):
            gap(np.array([[1.0, 0.0, 0.0]]))


class TestRss:
    def test_identical_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_psd(rng, 4)
            assert rss(s, s) <= 1e-10

    def test_swapped_eigenvectors(self):
        s_bar = np.diag([2.0, 1.0])
        s_tilde = np.diag([1.0, 2.0])
        assert rss(s_tilde, s_bar) == pytest.approx(2.0)

    def test_identity_estimate_oracle(self):
        # brute-force pairing oracle: ref eigenvalues descending against the
        # captured variance of each estimate eigenvector, ranked and summed
        rng = np.random.default_rng(5)
        s_bar = np.diag([3.0, 2.0, 1.0])
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        s_tilde = q @ np.diag([2.5, 2.5, 0.5]) @ q.T

        ref_vals = sorted(np.linalg.eigvalsh(s_bar), reverse=True)
        est_vals, est_vecs = np.linalg.eigh(s_tilde)
        order = np.argsort(est_vals)[::-1]
        expected = math.fsum(
            (ref_vals[i] - est_vecs[:, order[i]] @ s_bar @ est_vecs[:, order[i]]) ** 2
            for i in range(3)
        )
        assert rss(s_tilde, s_bar) == pytest.approx(expected, rel=1e-12)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(6)
        s_bar = random_psd(rng, 4)
        s_tilde = random_psd(rng, 4)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        rotated = rss(q @ s_tilde @ q.T, q @ s_bar @ q.T)
        assert rotated == pytest.approx(rss(s_tilde, s_bar), rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["s_tilde", "s_bar"])
    def test_rejects_a_matrix_that_is_not_finite(self, bad, which):
        # a NaN must not score 0.0, a perfect estimate, and inf must not warn
        # on inf - inf (which the suite's warning filter makes an error)
        matrix = np.array([[bad, 0.0], [0.0, 1.0]])
        args = (matrix, np.eye(2)) if which == "s_tilde" else (np.eye(2), matrix)
        with pytest.raises(ContractViolationError,
                           match=f"^{which} has an entry that is not finite$"):
            rss(*args)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rss(np.eye(2), np.eye(3))
        with pytest.raises(ShapeError,
                           match=r"s_tilde must be a square matrix, got shape \(2, 3\)"):
            rss(np.ones((2, 3)), np.eye(2))


class TestRidgeRegression:
    def test_interpolation_limit(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 40))
        w = np.array([0.5, -1.0, 2.0])
        y = w @ x
        x_test = rng.standard_normal((3, 10))
        rmse = ridge_regression_rmse((x, y), (x_test, w @ x_test), reg=1e-10)
        assert rmse < 1e-6

    def test_zero_targets(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 20))
        rmse = ridge_regression_rmse((x, np.zeros(20)),
                                     (rng.standard_normal((2, 5)), np.zeros(5)),
                                     reg=1.0)
        assert rmse == 0.0

    def test_scalar_closed_form(self):
        # one feature, two training points: w = (sum xy) / (sum x^2 + reg)
        x = np.array([[1.0, 2.0]])
        y = np.array([1.0, 2.0])
        w = (1 * 1 + 2 * 2) / (1 + 4 + 1.0)
        pred = w * 3.0
        rmse = ridge_regression_rmse((x, y), (np.array([[3.0]]), np.array([2.0])),
                                     reg=1.0)
        assert rmse == pytest.approx(abs(pred - 2.0), rel=1e-12)

    def test_validation(self):
        x = np.ones((2, 3))
        y = np.ones(3)
        with pytest.raises(DomainError):
            ridge_regression_rmse((x, y), (x, y), reg=0.0)
        with pytest.raises(ShapeError):
            ridge_regression_rmse((x, np.ones(4)), (x, y), reg=1.0)
        with pytest.raises(ShapeError, match="feature counts differ"):
            ridge_regression_rmse((x, y), (np.ones((3, 3)), y), reg=1.0)
        with pytest.raises(ShapeError, match="must be 2-D"):
            ridge_regression_rmse((np.ones(3), y), (x, y), reg=1.0)
        with pytest.raises(ShapeError, match="test has 3 columns but 2 targets"):
            ridge_regression_rmse((x, y), (x, np.ones(2)), reg=1.0)
        # flattened, a 1 x 3 target array would pass as three targets
        for train, test, name in (((x, y[np.newaxis]), (x, y), "train"),
                                  ((x, y), (x, y[np.newaxis]), "test")):
            with pytest.raises(ShapeError,
                               match=rf"^the {name} targets must be 1-D, got shape \(1, 3\)$"):
                ridge_regression_rmse(train, test, reg=1.0)


class TestMemoryOrder:
    """A Fortran-ordered copy of a metric's matrix inputs gives the bits of
    the C-ordered original: a report's bytes follow values, not layout."""

    SIZES = [*range(2, 40), 64, 100, 130]

    @staticmethod
    def inputs(m):
        rng = np.random.default_rng(m)
        s_bar = random_psd(rng, m)
        noise = rng.standard_normal((m, m))
        return rng, s_bar, s_bar + (noise + noise.T) / 10.0

    def test_delta_rho(self):
        for m in self.SIZES:
            rng, s_bar, _ = self.inputs(m)
            vs = rng.standard_normal((4, m))
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            assert (DeltaRho(np.asfortranarray(s_bar))(vs).tobytes()
                    == DeltaRho(s_bar)(vs).tobytes()), m

    def test_rss(self):
        for m in self.SIZES:
            _, s_bar, s_tilde = self.inputs(m)
            fortran = rss(np.asfortranarray(s_tilde), np.asfortranarray(s_bar))
            assert fortran == rss(s_tilde, s_bar), m

    def test_ridge_regression_rmse(self):
        for m in self.SIZES:
            rng = self.inputs(m)[0]
            x_train, y_train = rng.standard_normal((m, 3 * m)), rng.standard_normal(3 * m)
            x_test, y_test = rng.standard_normal((m, 2 * m)), rng.standard_normal(2 * m)
            fortran = ridge_regression_rmse((np.asfortranarray(x_train), y_train),
                                            (np.asfortranarray(x_test), y_test), 1.0)
            assert fortran == ridge_regression_rmse((x_train, y_train),
                                                    (x_test, y_test), 1.0), m


class TestEvalReport:
    def test_ci_against_brute_force(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(50)
        report = mean_ci95(values, "m")
        mean = sum(values) / 50
        var = sum((v - mean) ** 2 for v in values) / 49
        expected = 1.96 * math.sqrt(var) / math.sqrt(50)
        assert report.mean == pytest.approx(mean, rel=1e-12)
        assert report.ci95_half_width == pytest.approx(expected, rel=1e-12)
        assert report.trials == 50

    def test_no_values_are_rejected(self):
        with pytest.raises(ShapeError, match=r"^metric values must hold at least one entry, "
                                             r"got shape \(0,\)$"):
            mean_ci95([], "m")

    def test_values_of_another_rank_are_rejected(self):
        with pytest.raises(ShapeError,
                           match=r"^metric values must be 1-D, got shape \(2, 2\)$"):
            mean_ci95(np.ones((2, 2)), "m")

    def test_single_trial_has_zero_width(self):
        report = mean_ci95([3.5], "m")
        assert report.ci95_half_width == 0.0
        assert report.trials == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            EvalReport("m", 1.0, -0.1, 10)
        with pytest.raises(DomainError):
            EvalReport("m", 1.0, 0.1, 0)

    @pytest.mark.parametrize("mean, half, message", [
        (1.0, math.nan, "ci95_half_width must be finite, got nan"),
        (1.0, math.inf, "ci95_half_width must be finite, got inf"),
        (1.0, "1", "ci95_half_width must be a real number, got '1'"),
        (math.nan, 0.1, "mean must be finite, got nan"),
        ("1", 0.1, "mean must be a real number, got '1'"),
        (None, 0.1, "mean must be a real number, got None"),
    ])
    def test_mean_and_width_are_finite_reals(self, mean, half, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            EvalReport("m", mean, half, 10)
        assert EvalReport("m", -2.0, 0.0, 1).ci95_half_width == 0.0
