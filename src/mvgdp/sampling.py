"""Seeded sampling of matrix-valued Gaussian noise.

A sample from the zero-mean matrix Gaussian with row covariance Sigma and
column covariance Psi is produced by the affine transform
``Z = B_sigma @ N @ B_psi.T`` of an i.i.d. standard-normal matrix N, where
B_sigma and B_psi are square roots of the covariances (see
:func:`mvgdp.design.factor_design`). The vectorized covariance of Z is the
Kronecker product of Psi and Sigma. A side stored as the standard basis has
the diagonal square root ``diag(sqrt(lambda))``, so it is applied by scaling
rows or columns: O(mn) instead of a dense matrix product.

The generator is NumPy's PCG64 with its standard-normal transform; a given
seed reproduces the same sample sequence bit for bit within one NumPy
version. Distinct streams may be used concurrently; a single stream must not
be shared across threads without external serialization.
"""

from __future__ import annotations

import numpy as np

from .design import NoiseDesign
from .errors import DomainError, ShapeError

_SEED_MAX = 2 ** 64


class RandomStream:
    """A seeded, stateful source of random draws.

    Args:
        seed: unsigned 64-bit integer seeding the generator.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise DomainError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < _SEED_MAX:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")
        self.seed = int(seed)
        self._generator = np.random.default_rng(self.seed)

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        return self._generator.standard_normal(shape)

    def laplace(self, scale: float, shape: tuple[int, ...]) -> np.ndarray:
        return self._generator.laplace(loc=0.0, scale=scale, size=shape)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed})"


def sample_standard_matrix(stream: RandomStream, m: int, n: int) -> np.ndarray:
    """Draw an m x n matrix of i.i.d. standard-normal entries."""
    for name, value in (("m", m), ("n", n)):
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ShapeError(f"{name} must be a positive integer, got {value!r}")
    return stream.standard_normal((int(m), int(n)))


def sample_mvg(stream: RandomStream, design: NoiseDesign) -> np.ndarray:
    """Draw one matrix from the zero-mean matrix Gaussian given by ``design``.

    Consumes exactly m*n standard-normal draws from ``stream``. With identity
    covariances the transform is exact, so the output equals the raw
    standard-normal matrix for the same seed.

    A side with a supplied basis W costs a dense product with
    ``W diag(sqrt(lambda))``; a standard side scales the rows (or columns) by
    ``sqrt(lambda)`` in place. The scaling gives the same bits as the product
    with the diagonal factor, whose other terms are exact zeros, so a design
    sampled with a standard side equals the one given ``np.eye`` explicitly.
    With a standard column side, as in a unimodal release, the draw costs
    O(m^2 n) time and O(mn) memory.
    """
    noise = sample_standard_matrix(stream, design.m, design.n)
    root_sigma = np.sqrt(design.lambda_sigma)
    root_psi = np.sqrt(design.lambda_psi)
    if design.basis_sigma is None:
        noise *= root_sigma[:, np.newaxis]
    else:
        noise = (design.basis_sigma * root_sigma) @ noise
    if design.basis_psi is None:
        noise *= root_psi
        return noise
    return noise @ (design.basis_psi * root_psi).T
