"""Oracles for the tests: dense products built from a design's stored
fields, a covariance's eigenbasis, and the Gaussian mechanism's exact delta
by numerical integration."""

import math

import numpy as np

from mvgdp import NoiseDesign, exact_delta
from mvgdp.design import descending_eigh


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


def eigenbasis(cov):
    """A symmetric matrix's eigenvalues and eigenvectors, by descending
    eigenvalue: one side of a design whose covariance is ``cov``."""
    (values,), (vectors,) = descending_eigh(np.asarray(cov)[np.newaxis])
    return values, vectors


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


# a design whose whitened sensitivity is the sensitivity it is given
UNIT_DESIGN = NoiseDesign(None, np.ones(1), None, np.ones(1))


def hockey_stick_delta(mu, epsilon, step=1e-3):
    """The exact delta at ``epsilon`` of the Gaussian mechanism with
    sensitivity ``mu`` and unit noise: the hockey-stick divergence
    ``integral of max(0, phi(x - mu) - e^epsilon phi(x)) dx``, by Simpson's
    rule on a numpy grid of about ``step``.

    The integrand is positive exactly above x* = epsilon/mu + mu/2 and smooth
    there, so the rule runs from x* to 40 past the larger of x* and mu. On
    that range x^2/2 >= epsilon, so e^epsilon phi(x) is formed as
    exp(epsilon - x^2/2) / sqrt(2 pi), which cannot overflow.
    """
    start = epsilon / mu + mu / 2
    stop = max(start, mu) + 40.0
    count = 2 * math.ceil((stop - start) / (2 * step)) + 1
    x, h = np.linspace(start, stop, count, retstep=True)
    f = (np.exp(-(x - mu) ** 2 / 2) - np.exp(epsilon - x * x / 2)) / math.sqrt(2 * math.pi)
    return h / 3 * (f[0] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum() + f[-1])


def delta_boundary(epsilon, delta):
    """The whitened sensitivity at which ``exact_delta`` reaches ``delta`` at
    ``epsilon``, by bisection: the exact delta grows with the sensitivity."""
    lo, hi = 1e-3, 1e3
    assert exact_delta(UNIT_DESIGN, lo, epsilon) < delta < exact_delta(UNIT_DESIGN, hi, epsilon)
    while hi - lo > 1e-15 * hi:
        mid = math.sqrt(lo * hi)
        if exact_delta(UNIT_DESIGN, mid, epsilon) < delta:
            lo = mid
        else:
            hi = mid
    return lo
