"""Factored covariance designs for matrix-valued noise.

A design holds the row-wise and column-wise covariance matrices of the noise
in factored form: an orthonormal direction basis per side plus the positive
singular values attached to those directions. Keeping the factors (rather
than the dense covariances) lets the privacy condition, the budget math and
the sampler all consume the same object without re-decomposing anything.

A side whose directions are the standard basis stores only its singular
values: its basis is written as ``None``. An n x n identity side then costs
O(n) memory instead of O(n^2), and the sampler scales by it instead of
multiplying. A basis given as exactly the identity is kept as given, but it
is orthonormal by inspection and the sampler scales by it too, with the
bits of the product. No dense covariance is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDesignError, ShapeError

ORTHONORMALITY_TOL = 1e-8
EIGENVALUE_FLOOR = 1e-12


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got ndim={m.ndim}")
    return m


def check_orthonormal(w: np.ndarray, name: str) -> None:
    """Check a square basis, or a stack of them shaped (..., m, m), for
    orthonormal columns."""
    if w.shape[-2] != w.shape[-1]:
        raise ShapeError(f"{name} must be square, got {w.shape}")
    if w.shape[-1] < 1:
        raise ShapeError(f"{name} must have at least one row")
    gram = np.swapaxes(w, -1, -2) @ w
    gram -= np.eye(w.shape[-1])
    dev = np.abs(gram, out=gram).max()
    # written so a NaN deviation fails the check too
    if not dev <= ORTHONORMALITY_TOL:
        raise DegenerateDesignError(
            f"{name} is not orthonormal: max |W^T W - I| = {dev:.3e} "
            f"exceeds {ORTHONORMALITY_TOL:.0e}"
        )


def _is_identity(w: np.ndarray) -> bool:
    """Whether a 2-D matrix is exactly an m x m identity, m >= 1.

    It is when it is square, its only nonzeros are its m diagonal entries
    and each is exactly 1.0. A NaN counts as nonzero and equals nothing, so
    a matrix holding one never passes.
    """
    m = w.shape[0]
    # a list compare, cheaper at small m than a numpy reduction
    return (w.shape[1] == m >= 1 and np.count_nonzero(w) == m
            and w.diagonal().tolist() == [1.0] * m)


def _check_side(basis, lam: np.ndarray,
                side: str) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Validate one side's basis against its singular values.

    ``None`` stands for the standard basis, which is orthonormal by
    construction and takes its size from ``lam``. A supplied basis is
    checked in full, unless it is exactly the identity, which is orthonormal
    by inspection. Returns the basis and the basis the sampler multiplies
    by: ``None`` for a standard side or an exact identity, which it scales
    instead, and the basis itself otherwise.
    """
    if basis is None:
        if lam.shape[0] < 1:
            raise ShapeError(f"lambda_{side} must have at least one entry")
        return None, None
    w = _as_matrix(basis, f"w_{side}")
    identity = _is_identity(w)
    if not identity:
        check_orthonormal(w, f"w_{side}")
    if lam.shape[0] != w.shape[0]:
        raise ShapeError(
            f"lambda_{side} has length {lam.shape[0]}, expected {w.shape[0]}"
        )
    return w, None if identity else w


def _check_lambda(lam: np.ndarray, name: str) -> None:
    # min and max propagate NaN, so a NaN fails the first test and -inf or
    # +inf fails one of the two
    if not (lam.min() > 0 and lam.max() < np.inf):
        raise DegenerateDesignError(
            f"{name} must be strictly positive and finite, got {lam}"
        )


def _check_bases(basis_sigma, lam_s: np.ndarray, basis_psi,
                 lam_p: np.ndarray) -> tuple[tuple, tuple]:
    """Both sides' (basis, color basis) pairs, from :func:`_check_side`."""
    side_s = _check_side(basis_sigma, lam_s, "sigma")
    if basis_psi is basis_sigma and lam_p.shape == lam_s.shape:
        # one basis on both sides, as in an equi-modal design: the psi
        # side's checks are the sigma side's, so they run once
        return side_s, side_s
    return side_s, _check_side(basis_psi, lam_p, "psi")


@dataclass(frozen=True)
class NoiseDesign:
    """Row and column covariance factors of a matrix-valued Gaussian noise.

    Either basis may be ``None``, meaning the standard basis; that side then
    stores only its singular values and skips the orthonormality check. A
    basis that is exactly the identity is kept as given, but it too skips
    the check and is applied by scaling.

    Attributes:
        basis_sigma: m x m orthonormal basis of row-noise directions, or
            ``None`` for the standard basis.
        lambda_sigma: length-m positive singular values of the row covariance
            (the noise variance attached to each row-noise direction).
        basis_psi: n x n orthonormal basis of column-noise directions, or
            ``None`` for the standard basis.
        lambda_psi: length-n positive singular values of the column covariance.
        color_bases: the (row, column) bases the sampler multiplies by, set
            when the bases are checked: each side's basis, or ``None`` where
            it is ``None`` or exactly the identity, which the sampler scales
            instead of multiplying, with the same bits.
        root_sigma: ``sqrt(lambda_sigma)``, the row scales the sampler
            colors with, computed once when the design is built.

    The privacy condition reads the singular values and the sampler colors
    with ``basis * sqrt(lambda)`` per side. A side's covariance is
    ``(W * lam) @ W.T``, with ``W = np.eye(n)`` for a standard side.
    """

    basis_sigma: np.ndarray | None
    lambda_sigma: np.ndarray
    basis_psi: np.ndarray | None
    lambda_psi: np.ndarray
    color_bases: tuple = field(init=False, repr=False, compare=False)
    root_sigma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam_s = np.asarray(self.lambda_sigma, dtype=float).reshape(-1)
        if self.lambda_psi is self.lambda_sigma:
            # one object on both sides stays one, so the sampler can tell
            lam_p = lam_s
        else:
            lam_p = np.asarray(self.lambda_psi, dtype=float).reshape(-1)
        side_s, side_p = _check_bases(self.basis_sigma, lam_s, self.basis_psi, lam_p)
        _check_lambda(lam_s, "lambda_sigma")
        if lam_p is not lam_s:
            _check_lambda(lam_p, "lambda_psi")
        root = np.sqrt(lam_s)
        # read-only like a cached design's lambda, which it is shared with
        root.flags.writeable = False
        self._set(side_s, side_p, {"lambda_sigma": lam_s, "lambda_psi": lam_p,
                                   "root_sigma": root})

    def _set(self, side_s, side_p, fields) -> None:
        # a frozen dataclass's fields, in one write instead of one per field
        vars(self).update(fields, basis_sigma=side_s[0], basis_psi=side_p[0],
                          color_bases=(side_s[1], side_p[1]))

    def with_bases(self, basis_sigma, basis_psi) -> "NoiseDesign":
        """This design's singular values on the given bases, each ``None``
        for the standard basis.

        The bases are checked as the constructor checks them. The singular
        values and their roots were checked when this design was built, so
        they are shared as they are, neither copied nor checked again.
        """
        side_s, side_p = _check_bases(basis_sigma, self.lambda_sigma,
                                      basis_psi, self.lambda_psi)
        design = object.__new__(type(self))
        design._set(side_s, side_p, vars(self))
        return design

    @property
    def m(self) -> int:
        return self.lambda_sigma.shape[0]

    @property
    def n(self) -> int:
        return self.lambda_psi.shape[0]

    @property
    def w_sigma(self) -> np.ndarray:
        """Dense m x m row basis; an identity is built on each read.

        Read only by the benchmark's tracer; goes with ROADMAP open item 1.
        """
        return np.eye(self.m) if self.basis_sigma is None else self.basis_sigma

    @property
    def w_psi(self) -> np.ndarray:
        """Dense n x n column basis; kept for the tracer like ``w_sigma``."""
        return np.eye(self.n) if self.basis_psi is None else self.basis_psi

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

