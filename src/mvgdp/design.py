"""Factored covariance designs for matrix-valued noise.

A design holds the row-wise and column-wise covariance matrices of the noise
in factored form: an orthonormal direction basis per side plus the positive
singular values attached to those directions. Keeping the factors (rather
than the dense covariances) lets the privacy condition, the budget math and
the sampler all consume the same object without re-decomposing anything.

A design also colors its own noise. A sample from the zero-mean matrix
Gaussian with row covariance Sigma and column covariance Psi is the affine
transform ``Z = B_sigma @ N @ B_psi.T`` of an i.i.d. standard-normal matrix
N, where each factor is a side's basis scaled by the square roots of its
singular values, ``B = W diag(sqrt(lambda))``, so that ``B @ B.T`` is that
side's covariance; the vectorized covariance of Z is the Kronecker product
of Psi and Sigma. :meth:`NoiseDesign.color` is that transform.

A side whose directions are the standard basis stores only its singular
values: its basis is written as ``None``. An n x n identity side then costs
O(n) memory instead of O(n^2), and its diagonal factor is applied by scaling
rows or columns, O(mn) instead of a dense matrix product. A standard column
side whose singular values are all exactly 1.0 is left as drawn. A basis
given as exactly the identity is stored as the standard side, ``None``: it
is orthonormal by inspection, and scaling gives the bits of its product,
whose other terms are exact zeros. No dense covariance is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDesignError,
    DomainError,
    ShapeError,
    as_real_array,
    positive_fault,
)

ORTHONORMALITY_TOL = 1e-8

# a float64 1.0 and 0.0 in native byte order, the bytes np.eye is made of
_ONE, _ZERO = np.float64(1.0).tobytes(), bytes(8)


def check_orthonormal(w: np.ndarray, name: str) -> None:
    """Check a square basis, or a stack of them shaped (..., m, m), for
    orthonormal columns."""
    if w.shape[-2] != w.shape[-1]:
        raise ShapeError(f"{name} must be square, got {w.shape}")
    # an infinite entry makes inf * 0 = nan, which fails the check below
    # rather than warn
    with np.errstate(invalid="ignore"):
        gram = np.swapaxes(w, -1, -2) @ w
    gram -= np.eye(w.shape[-1])
    # an empty stack deviates by nothing; written so a NaN deviation fails
    # the check too
    dev = np.abs(gram, out=gram).max(initial=0.0)
    if not dev <= ORTHONORMALITY_TOL:
        raise DegenerateDesignError(
            f"{name} is not orthonormal: max |W^T W - I| = {dev:.3e} "
            f"exceeds {ORTHONORMALITY_TOL:.0e}"
        )


def _is_identity(w: np.ndarray) -> bool:
    """Whether a non-empty 2-D float64 matrix is exactly an m x m identity.

    It is when it is square, its only nonzeros are its m diagonal entries
    and each is exactly 1.0. A NaN counts as nonzero and equals nothing, so
    a matrix holding one never passes.
    """
    m = w.shape[0]
    if w.shape[1] != m:
        return False
    # np.eye(m) itself is 1.0 and then m zeros, m - 1 times, and a last 1.0:
    # one bytes compare. A -0.0 (an identity still) or a NaN (never one)
    # has other bytes and goes to the value test, a list compare of the
    # diagonal, cheaper at small m than a numpy reduction
    return (w.tobytes() == (_ONE + _ZERO * m) * (m - 1) + _ONE
            or (np.count_nonzero(w) == m and w.diagonal().tolist() == [1.0] * m))


def _check_side(basis, lam: np.ndarray, side: str) -> np.ndarray | None:
    """Check one side's basis against its singular values and return the one
    to store: ``None``, the standard basis, for ``None`` (sized by ``lam``)
    or an exact identity, and otherwise the basis in C order, checked in
    full, since a product's bits follow its layout as well as its values."""
    if basis is None:
        return None
    w = as_real_array(basis, f"w_{side}", DomainError, ndim=2)
    identity = _is_identity(w)
    if not identity:
        w = np.ascontiguousarray(w)
        check_orthonormal(w, f"w_{side}")
    if lam.shape[0] != w.shape[0]:
        raise ShapeError(
            f"lambda_{side} has length {lam.shape[0]}, expected {w.shape[0]}"
        )
    return None if identity else w


def _check_bases(basis_sigma, lam_s: np.ndarray, basis_psi,
                 lam_p: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Both sides' stored bases, from :func:`_check_side`."""
    stored_s = _check_side(basis_sigma, lam_s, "sigma")
    if basis_psi is basis_sigma and lam_p.shape == lam_s.shape:
        # one basis on both sides, as in an equi-modal design: the psi
        # side's checks are the sigma side's, so they run once
        return stored_s, stored_s
    return stored_s, _check_side(basis_psi, lam_p, "psi")


@dataclass(frozen=True, eq=False)
class NoiseDesign:
    """Row and column covariance factors of a matrix-valued Gaussian noise.

    Attributes:
        basis_sigma: m x m orthonormal basis of row-noise directions, or
            ``None`` for the standard basis, given as ``None`` or as exactly
            the identity; such a side stores only its singular values.
        lambda_sigma: length-m positive singular values of the row covariance
            (the noise variance attached to each row-noise direction).
        basis_psi: n x n orthonormal basis of column-noise directions, or
            ``None`` as for ``basis_sigma``.
        lambda_psi: length-n positive singular values of the column covariance.
        root_sigma, root_psi: each side's read-only ``sqrt(lambda)``,
            computed once when the design is built; ``root_psi`` is ``None``
            when every entry of ``lambda_psi`` is exactly 1.0, as on a
            unimodal column side.

    The privacy condition reads the singular values and :meth:`color`
    colors with ``basis * sqrt(lambda)`` per side. A side's covariance is
    ``(W * lam) @ W.T``, with ``W = np.eye(n)`` for a standard side.
    Designs are compared and hashed by identity.
    """

    basis_sigma: np.ndarray | None
    lambda_sigma: np.ndarray
    basis_psi: np.ndarray | None
    lambda_psi: np.ndarray
    root_sigma: np.ndarray = field(init=False, repr=False)
    root_psi: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        lam_s = as_real_array(self.lambda_sigma, "lambda_sigma", DomainError, ndim=1)
        lam_p = as_real_array(self.lambda_psi, "lambda_psi", DomainError, ndim=1)
        basis_s, basis_p = _check_bases(self.basis_sigma, lam_s, self.basis_psi, lam_p)
        if fault := positive_fault(lam_s, "lambda_sigma"):
            raise DegenerateDesignError(fault)
        root_s = np.sqrt(lam_s)
        # read-only like a cached design's lambda, since a design made with
        # with_bases shares both with the design it is made from
        root_s.flags.writeable = False
        if (lam_p == 1.0).all():
            # sqrt(1.0) is exactly 1.0, so leaving the side as drawn gives
            # the bits of scaling or multiplying by it
            root_p = None
        else:
            if fault := positive_fault(lam_p, "lambda_psi"):
                raise DegenerateDesignError(fault)
            root_p = np.sqrt(lam_p)
            root_p.flags.writeable = False
        # a frozen dataclass's fields, in one write instead of one per field
        vars(self).update(basis_sigma=basis_s, lambda_sigma=lam_s, basis_psi=basis_p,
                          lambda_psi=lam_p, root_sigma=root_s, root_psi=root_p)

    def with_bases(self, basis_sigma, basis_psi) -> "NoiseDesign":
        """This design's singular values on the given bases, each ``None``
        for the standard basis.

        The bases are checked as the constructor checks them. The singular
        values and their roots were checked when this design was built, so
        they are shared as they are, neither copied nor checked again. When
        the bases to store are this design's own, as standard or identity
        bases are for a design with standard sides, the result is this
        frozen design itself.
        """
        basis_s, basis_p = _check_bases(basis_sigma, self.lambda_sigma,
                                        basis_psi, self.lambda_psi)
        if basis_s is self.basis_sigma and basis_p is self.basis_psi:
            return self
        design = object.__new__(type(self))
        vars(design).update(vars(self), basis_sigma=basis_s, basis_psi=basis_p)
        return design

    def color(self, noise: np.ndarray, basis_sigma=None,
              basis_psi=None) -> np.ndarray:
        """Map standard normals, one m x n matrix or a (T, m, n) stack, to
        this design's noise B_sigma @ N @ B_psi.T.

        A side uses its stored basis unless a (T, m, m) stack of drawn
        bases, checked orthonormal, is given in its place; each matrix
        gets the bits of its own product. A side without a basis is scaled
        in place, so the caller hands over the array, and a column side
        without a root is left as drawn. With standard rows the coloring
        costs O(mn) time and writes only into ``noise``; a dense row basis
        adds O(m^2 n) time and an array.
        """
        basis_sigma = self.basis_sigma if basis_sigma is None else basis_sigma
        basis_psi = self.basis_psi if basis_psi is None else basis_psi
        root_sigma, root_psi = self.root_sigma, self.root_psi
        if basis_sigma is None:
            noise *= root_sigma[:, np.newaxis]
        else:
            noise = (basis_sigma * root_sigma) @ noise
        if basis_psi is None:
            if root_psi is not None:
                noise *= root_psi
            return noise
        factor_psi = basis_psi if root_psi is None else basis_psi * root_psi
        return noise @ np.swapaxes(factor_psi, -1, -2)

    @property
    def m(self) -> int:
        return self.lambda_sigma.shape[0]

    @property
    def n(self) -> int:
        return self.lambda_psi.shape[0]

    @property
    def w_sigma(self) -> np.ndarray:
        """Dense m x m row basis, an identity built on each read for a
        standard side; read only by the benchmark's tracer."""
        return np.eye(self.m) if self.basis_sigma is None else self.basis_sigma

    @property
    def w_psi(self) -> np.ndarray:
        """Dense n x n column basis; kept for the tracer like ``w_sigma``."""
        return np.eye(self.n) if self.basis_psi is None else self.basis_psi


def descending_eigh(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (T, m) and eigenvectors (T, m, m) of each symmetrized
    matrix of a stack (T, m, m), from one batched ``eigh``, each matrix's
    pairs by descending eigenvalue, ties in the order ``eigh`` gives."""
    sym = stack + np.swapaxes(stack, -1, -2)
    sym /= 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    del sym
    order = np.argsort(-eigvals, axis=-1, kind="stable")
    # one matrix at a time: np.take_along_axis would build index arrays
    # four times the stack's size
    for vals, vecs, columns in zip(eigvals, eigvecs, order):
        vals[:] = vals[columns]
        vecs[:] = vecs[:, columns]
    return eigvals, eigvecs
