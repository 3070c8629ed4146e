"""Factored covariance designs for matrix-valued noise.

A design holds the row-wise and column-wise covariance matrices of the noise
in factored form: an orthonormal direction basis per side plus the positive
singular values attached to those directions. Keeping the factors (rather
than the dense covariances) lets the privacy condition, the budget math and
the sampler all consume the same object without re-decomposing anything.

A side whose directions are the standard basis stores only its singular
values: its basis is written as ``None`` and never materialized unless a
dense accessor asks for it. An n x n identity side then costs O(n) memory
instead of O(n^2), and the sampler scales by it instead of multiplying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError, ShapeError

ORTHONORMALITY_TOL = 1e-8
EIGENVALUE_FLOOR = 1e-12


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got ndim={m.ndim}")
    return m


def _check_orthonormal(w: np.ndarray, name: str) -> None:
    if w.shape[0] != w.shape[1]:
        raise ShapeError(f"{name} must be square, got {w.shape}")
    if w.shape[0] < 1:
        raise ShapeError(f"{name} must have at least one row")
    gram = w.T @ w
    dev = np.max(np.abs(gram - np.eye(w.shape[0])))
    if dev > ORTHONORMALITY_TOL:
        raise DegenerateDesignError(
            f"{name} is not orthonormal: max |W^T W - I| = {dev:.3e} "
            f"exceeds {ORTHONORMALITY_TOL:.0e}"
        )


def _check_side(basis, lam: np.ndarray, side: str) -> np.ndarray | None:
    """Validate one side's basis against its singular values.

    ``None`` stands for the standard basis, which is orthonormal by
    construction and takes its size from ``lam``; any supplied basis is
    checked in full.
    """
    if basis is None:
        if lam.shape[0] < 1:
            raise ShapeError(f"lambda_{side} must have at least one entry")
        return None
    w = _as_matrix(basis, f"w_{side}")
    _check_orthonormal(w, f"w_{side}")
    if lam.shape[0] != w.shape[0]:
        raise ShapeError(
            f"lambda_{side} has length {lam.shape[0]}, expected {w.shape[0]}"
        )
    return w


@dataclass(frozen=True)
class NoiseDesign:
    """Row and column covariance factors of a matrix-valued Gaussian noise.

    Either basis may be ``None``, meaning the standard basis; that side then
    stores only its singular values and skips the orthonormality check.

    Attributes:
        basis_sigma: m x m orthonormal basis of row-noise directions, or
            ``None`` for the standard basis.
        lambda_sigma: length-m positive singular values of the row covariance
            (the noise variance attached to each row-noise direction).
        basis_psi: n x n orthonormal basis of column-noise directions, or
            ``None`` for the standard basis.
        lambda_psi: length-n positive singular values of the column covariance.

    ``w_sigma`` and ``w_psi`` always read as dense bases; a standard side
    materializes its identity on each read. The dense covariances are
    ``sigma = w_sigma @ diag(lambda_sigma) @ w_sigma.T`` and likewise for
    ``psi``.
    """

    basis_sigma: np.ndarray | None
    lambda_sigma: np.ndarray
    basis_psi: np.ndarray | None
    lambda_psi: np.ndarray

    def __post_init__(self):
        lam_s = np.asarray(self.lambda_sigma, dtype=float).reshape(-1)
        lam_p = np.asarray(self.lambda_psi, dtype=float).reshape(-1)
        basis_s = _check_side(self.basis_sigma, lam_s, "sigma")
        basis_p = _check_side(self.basis_psi, lam_p, "psi")
        for name, lam in (("lambda_sigma", lam_s), ("lambda_psi", lam_p)):
            if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
                raise DegenerateDesignError(
                    f"{name} must be strictly positive and finite, got {lam}"
                )
        object.__setattr__(self, "basis_sigma", basis_s)
        object.__setattr__(self, "lambda_sigma", lam_s)
        object.__setattr__(self, "basis_psi", basis_p)
        object.__setattr__(self, "lambda_psi", lam_p)

    @property
    def m(self) -> int:
        return self.lambda_sigma.shape[0]

    @property
    def n(self) -> int:
        return self.lambda_psi.shape[0]

    @property
    def w_sigma(self) -> np.ndarray:
        """Dense m x m row basis; an identity is built on each read."""
        return np.eye(self.m) if self.basis_sigma is None else self.basis_sigma

    @property
    def w_psi(self) -> np.ndarray:
        """Dense n x n column basis; an identity is built on each read."""
        return np.eye(self.n) if self.basis_psi is None else self.basis_psi

    def sigma(self) -> np.ndarray:
        """Dense row-wise covariance."""
        return (self.w_sigma * self.lambda_sigma) @ self.w_sigma.T

    def psi(self) -> np.ndarray:
        """Dense column-wise covariance."""
        return (self.w_psi * self.lambda_psi) @ self.w_psi.T

    def sigma_inv(self) -> np.ndarray:
        return (self.w_sigma / self.lambda_sigma) @ self.w_sigma.T

    def psi_inv(self) -> np.ndarray:
        return (self.w_psi / self.lambda_psi) @ self.w_psi.T

    @classmethod
    def from_covariances(cls, sigma, psi) -> "NoiseDesign":
        """Build a design from dense symmetric positive-definite covariances.

        Each matrix is eigendecomposed; eigenvalues are sorted in descending
        order. Eigenvalues below 1e-12 are rejected as degenerate.
        """
        w_s, lam_s = _decompose(sigma, "sigma")
        w_p, lam_p = _decompose(psi, "psi")
        return cls(w_s, lam_s, w_p, lam_p)


def _decompose(cov, name: str) -> tuple[np.ndarray, np.ndarray]:
    mat = _as_matrix(cov, name)
    if mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"{name} must be square, got {mat.shape}")
    sym_dev = np.max(np.abs(mat - mat.T)) if mat.size else 0.0
    if sym_dev > ORTHONORMALITY_TOL:
        raise DegenerateDesignError(
            f"{name} is not symmetric: max |A - A^T| = {sym_dev:.3e}"
        )
    eigvals, eigvecs = np.linalg.eigh((mat + mat.T) / 2.0)
    if np.any(eigvals < EIGENVALUE_FLOOR):
        raise DegenerateDesignError(
            f"{name} has eigenvalue {eigvals.min():.3e} below the "
            f"{EIGENVALUE_FLOOR:.0e} floor; design is degenerate"
        )
    # descending, ties keeping the solver's original order
    order = np.argsort(-eigvals, kind="stable")
    return eigvecs[:, order], eigvals[order]


def factor_design(design: NoiseDesign) -> tuple[np.ndarray, np.ndarray]:
    """Square-root factors (B_sigma, B_psi) with B @ B.T equal to each covariance.

    Uses the direction bases scaled by the square roots of the singular
    values. A Cholesky factor would serve the sampler equally well; this form
    keeps the factors expressed in the same direction bases the budget math
    uses.

    Both factors are dense, so a standard side comes back as an n x n
    diagonal matrix. The sampler does not call this; it scales a standard
    side by the square roots directly (see :func:`mvgdp.sampling.sample_mvg`).
    """
    b_sigma = design.w_sigma * np.sqrt(design.lambda_sigma)
    b_psi = design.w_psi * np.sqrt(design.lambda_psi)
    return b_sigma, b_psi
