"""Dense oracles for the tests, built from a design's stored fields."""

import numpy as np


def dense_covariances(design):
    """The design's row and column covariances as dense matrices.

    Each side is ``W diag(lambda) W^T``, with the identity standing in for
    a standard (``None``) basis.
    """
    def side(basis, lam):
        w = np.eye(lam.shape[0]) if basis is None else basis
        return (w * lam) @ w.T

    return (side(design.basis_sigma, design.lambda_sigma),
            side(design.basis_psi, design.lambda_psi))
