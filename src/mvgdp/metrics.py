"""Utility metrics for evaluating perturbed matrix queries.

Covers the captured variance of a candidate principal direction, its gap to
the optimum, the residual sum of squares over all principal directions, and a
ridge-regression RMSE used by the regression benchmark. A linear ridge
regressor stands in for kernel ridge regression; both arms of every
comparison use the identical evaluator, so the mechanism ranking is
unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DomainError, ShapeError, as_count, as_real

_UNIT_TOL = 1e-8
_SYMMETRY_TOL = 1e-8
# Negative gap values above this threshold are floating-point dust and clamp
# to zero; anything more negative is reported as-is.
_NEGATIVE_DUST = -1e-10


@dataclass(frozen=True)
class EvalReport:
    """Mean and normal-approximation 95% confidence half-width of a metric."""

    metric_name: str
    mean: float
    ci95_half_width: float
    trials: int

    def __post_init__(self):
        as_real(self.mean, "mean", DomainError)
        if as_real(self.ci95_half_width, "ci95_half_width", DomainError) < 0:
            raise DomainError(
                f"ci95_half_width must be nonnegative, got {self.ci95_half_width}"
            )
        as_count(self.trials, "trials", DomainError)


def mean_ci95(values, metric_name: str) -> EvalReport:
    """Aggregate per-trial metric values into an EvalReport.

    Half-width is 1.96 * sample standard deviation / sqrt(trials); a single
    trial has undefined standard deviation and reports zero width.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size < 1:
        raise DomainError("need at least one metric value")
    mean = float(arr.mean())
    if arr.size == 1:
        half = 0.0
    else:
        half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return EvalReport(metric_name=metric_name, mean=mean,
                      ci95_half_width=half, trials=int(arr.size))


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {mat.shape}")
    dev = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    if dev > _SYMMETRY_TOL:
        raise ContractViolationError(
            f"{name} deviates from symmetry by {dev:.3e}, beyond {_SYMMETRY_TOL:.0e}"
        )
    return mat


def _check_unit(v) -> np.ndarray:
    vec = np.asarray(v, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ContractViolationError(f"v must be a unit vector, got norm {norm!r}")
    return vec


def captured_variance(v, s_bar) -> float:
    """Variance of s_bar explained by the unit direction v: v^T s_bar v."""
    vec = _check_unit(v)
    mat = _check_symmetric(s_bar, "s_bar")
    if vec.size != mat.shape[0]:
        raise ShapeError(f"v has length {vec.size}, s_bar is {mat.shape[0]}x{mat.shape[0]}")
    return float(vec @ mat @ vec)


def delta_rho(v, s_bar) -> float:
    """Gap between the top eigenvalue of s_bar and the variance captured by v.

    Zero exactly when v spans the top eigenspace; tiny negative values from
    floating-point roundoff clamp to zero.
    """
    return float(DeltaRho(s_bar)(np.asarray(v, dtype=float).reshape(1, -1))[0])


class DeltaRho:
    """:func:`delta_rho` against one fixed s_bar, for many directions.

    Checks s_bar's symmetry and takes its top eigenvalue once; a call then
    checks a stack of directions for unit norm at once and scores them all
    with two stacked products, (T, 1, m) @ (m, m) and then
    (T, 1, m) @ (T, m, 1). numpy runs those as one matrix-vector and one dot
    product per row, so each gap has the bits of the scalar
    ``lam1 - float(v @ s_bar @ v)``; a single ``vs @ s_bar`` or ``einsum``
    does not.
    """

    def __init__(self, s_bar):
        self.s_bar = _check_symmetric(s_bar, "s_bar")
        self.lam1 = float(np.linalg.eigvalsh(self.s_bar)[-1])

    def __call__(self, vs: np.ndarray) -> np.ndarray:
        """The gap for each row of the (T, m) array ``vs``, as a (T,) array."""
        mat = self.s_bar
        norms = np.linalg.norm(vs, axis=1)
        bad = np.abs(norms - 1.0) > _UNIT_TOL
        if np.any(bad):
            raise ContractViolationError(
                f"v must be a unit vector, got norm {float(norms[bad][0])!r}"
            )
        if vs.shape[1] != mat.shape[0]:
            raise ShapeError(
                f"v has length {vs.shape[1]}, s_bar is {mat.shape[0]}x{mat.shape[0]}"
            )
        rows = vs[:, np.newaxis, :]
        captured = np.matmul(np.matmul(rows, mat), vs[:, :, np.newaxis])[:, 0, 0]
        gaps = self.lam1 - captured
        gaps[(gaps >= _NEGATIVE_DUST) & (gaps < 0.0)] = 0.0
        return gaps


def rss(s_tilde, s_bar) -> float:
    """Residual sum of squares of the estimated principal directions.

    Pairs the i-th eigenvalue of the reference matrix (descending) with the
    captured variance of the i-th principal direction of the estimate
    (descending by the estimate's own eigenvalues; ties keep the solver's
    order) and sums the squared gaps. Zero when the estimate equals the
    reference. The estimate need not be positive semidefinite; noise can
    break that.
    """
    est = _check_symmetric(s_tilde, "s_tilde")
    ref = _check_symmetric(s_bar, "s_bar")
    if est.shape != ref.shape:
        raise ShapeError(f"shape mismatch: s_tilde {est.shape} vs s_bar {ref.shape}")
    ref_eigvals = np.linalg.eigvalsh(ref)[::-1]
    est_vals, est_vecs = np.linalg.eigh(est)
    est_vecs = est_vecs[:, np.argsort(-est_vals, kind="stable")]
    captured = np.einsum("ij,jk,ki->i", est_vecs.T, ref, est_vecs)
    return float(np.sum((ref_eigvals - captured) ** 2))


def ridge_regression_rmse(train: tuple, test: tuple, reg: float) -> float:
    """Root-mean-square test error of a closed-form ridge fit.

    Args:
        train: (M x N feature matrix with samples as columns, length-N targets).
        test: (M x T feature matrix, length-T targets).
        reg: positive ridge penalty; keeps the normal equations nonsingular.

    No intercept and no feature centering: the evaluator is deliberately
    minimal and identical across every mechanism being compared.
    """
    reg = as_real(reg, "reg", DomainError, positive=True)
    x_train, y_train = train
    x_test, y_test = test
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float).reshape(-1)
    x_test = np.asarray(x_test, dtype=float)
    y_test = np.asarray(y_test, dtype=float).reshape(-1)
    if x_train.ndim != 2 or x_test.ndim != 2:
        raise ShapeError("feature matrices must be 2-D")
    if x_train.shape[1] != y_train.size:
        raise ShapeError(
            f"train has {x_train.shape[1]} columns but {y_train.size} targets"
        )
    if x_test.shape[1] != y_test.size:
        raise ShapeError(
            f"test has {x_test.shape[1]} columns but {y_test.size} targets"
        )
    if x_train.shape[0] != x_test.shape[0]:
        raise ShapeError(
            f"train and test feature counts differ: {x_train.shape[0]} vs "
            f"{x_test.shape[0]}"
        )
    num_features = x_train.shape[0]
    weights = np.linalg.solve(
        x_train @ x_train.T + reg * np.eye(num_features), x_train @ y_train
    )
    residuals = x_test.T @ weights - y_test
    return float(np.sqrt(np.mean(residuals ** 2)))
