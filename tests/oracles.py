"""Dense oracles for the tests, built from a design's stored fields."""

import numpy as np


def _dense_basis(basis, lam):
    return np.eye(lam.shape[0]) if basis is None else basis


def dense_covariances(design):
    """The design's row and column covariances as dense matrices.

    Each side is ``W diag(lambda) W^T``, with the identity standing in for
    a standard (``None``) basis.
    """
    def side(basis, lam):
        w = _dense_basis(basis, lam)
        return (w * lam) @ w.T

    return (side(design.basis_sigma, design.lambda_sigma),
            side(design.basis_psi, design.lambda_psi))


def dense_release(value, design, noise):
    """``value + B_sigma @ noise @ B_psi^T`` by explicit dense products.

    Each factor is ``W diag(sqrt(lambda))``, with ``np.eye`` for a standard
    side, so an identity basis is multiplied, never scaled.
    """
    def factor(basis, lam):
        return _dense_basis(basis, lam) * np.sqrt(lam)

    f_sigma = factor(design.basis_sigma, design.lambda_sigma)
    f_psi = factor(design.basis_psi, design.lambda_psi)
    return f_sigma @ noise @ f_psi.T + value


def scaled_release(value, design, noise):
    """``value + noise`` scaled by each side's ``sqrt(lambda)``, written out.

    The rows are scaled first, then the columns, then the value is added:
    ``(N[i, j] * r_sigma[i]) * r_psi[j] + value[i, j]``, the arithmetic of a
    release on standard or identity bases.
    """
    rows = np.sqrt(design.lambda_sigma)[:, np.newaxis]
    cols = np.sqrt(design.lambda_psi)
    return noise * rows * cols + value
