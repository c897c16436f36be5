"""Covariance-matrix formalism for multimode Gaussian states.

Quadrature ordering is (Q1, P1, Q2, P2, ...).  Covariance matrices are plain
real symmetric numpy arrays, or stacks (..., 2n, 2n) of them, on which every
function acts matrix by matrix; the vacuum is (1/2) * identity.
"""

import numpy as np

from .entropics import g
from .errors import DomainError, InvalidStateError

#: base tolerance on nu_min - 1/2 when validating covariance matrices; scaled
#: up with the matrix norm so roundoff from congruence chains at large energy
#: does not reject physical states
_NU_TOL = 1e-10


def n_modes_of(sigma):
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2] or sigma.shape[-1] % 2:
        raise InvalidStateError(f"covariance matrix must be square 2n x 2n, got {sigma.shape}")
    if not sigma.shape[-1]:
        raise InvalidStateError("need at least one mode")
    return sigma.shape[-1] // 2


def symplectic_eigenvalues(sigma):
    """Kernel: descending symplectic spectrum of a covariance matrix, or of each
    matrix of a stack (..., 2n, 2n) of them.

    With the Cholesky factor sigma = L L^T, sigma Delta is similar to
    L^T Delta L, so i L^T Delta L is Hermitian with spectrum {+/- nu_k}: one
    Cholesky and one symmetric eigensolve per matrix, with no matrix square
    root, and full symmetric-eigensolver accuracy, unlike the nonsymmetric
    eigenproblem for inv(Delta) sigma.  Raises InvalidStateError unless every
    matrix is finite, symmetric, positive definite, has a spectrum that pairs
    up, and meets the uncertainty relation nu_min >= 1/2 to within
    max(_NU_TOL, 1e-13 * scale).
    """
    sigma = np.asarray(sigma, dtype=float)
    n = n_modes_of(sigma)
    transpose = np.swapaxes(sigma, -1, -2)
    scale = np.maximum(1.0, np.abs(sigma).max(axis=(-2, -1)))
    if not np.isfinite(scale).all():  # NaN passes Cholesky and every check below
        raise InvalidStateError("covariance matrix has a non-finite entry")
    if (np.abs(sigma - transpose).max(axis=(-2, -1)) > 1e-12 * scale).any():
        raise InvalidStateError("covariance matrix is not symmetric")
    try:
        L = np.linalg.cholesky(0.5 * (sigma + transpose))
    except np.linalg.LinAlgError as exc:
        raise InvalidStateError("covariance matrix is not positive definite") from exc
    delta_L = np.empty_like(L)  # Delta L: swap the rows of each mode, negating the second
    delta_L[..., 0::2, :] = L[..., 1::2, :]
    delta_L[..., 1::2, :] = -L[..., 0::2, :]
    A = np.swapaxes(L, -1, -2) @ delta_L
    try:
        nu = np.linalg.eigvalsh(1j * (0.5 * (A - np.swapaxes(A, -1, -2))))  # ascending
    except np.linalg.LinAlgError as exc:
        raise InvalidStateError("symplectic eigenvalues did not converge") from exc
    paired = nu[..., :n - 1:-1]  # the positive half, descending
    if (np.abs(paired + nu[..., :n]).max(axis=-1) > 1e-9 * np.maximum(1.0, paired[..., 0])).any():
        raise InvalidStateError("symplectic spectrum does not pair up; matrix is not physical")
    violated = paired[..., -1] < 0.5 - np.maximum(_NU_TOL, 1e-13 * scale)
    if violated.any():
        raise InvalidStateError(
            "uncertainty relation violated: min symplectic eigenvalue "
            f"{paired[..., -1][violated].min()} < 1/2"
        )
    return paired


def validate_covariance(sigma):
    """Check symmetry, positivity and the uncertainty relation; return the matrix."""
    symplectic_eigenvalues(sigma)
    return np.asarray(sigma, dtype=float)


def gaussian_entropy(sigma):
    """Von Neumann entropy sum_k g(nu_k - 1/2) of the Gaussian state with
    covariance sigma: a float for one matrix, an array for a stack.

    Eigenvalues within 1e-11 * max(1, nu_0) of 1/2 are treated as exactly pure:
    g has infinite slope at 0, so roundoff on pure modes would otherwise be
    amplified by a factor |ln eps| into every entropy difference.  Vacuum
    modes padded onto a matrix therefore add exactly 0.
    """
    nu = symplectic_eigenvalues(sigma)
    excess = np.maximum(nu - 0.5, 0.0)
    excess[excess < 1e-11 * np.maximum(1.0, nu[..., :1])] = 0.0
    out = np.sum(g(excess), axis=-1)
    return out if out.ndim else float(out)


def marginal(sigma, modes):
    """Principal submatrix of sigma on the given mode indices (order preserved)."""
    sigma = np.asarray(sigma, dtype=float)
    n = n_modes_of(sigma)
    modes = list(modes)
    if not modes or any(m < 0 or m >= n for m in modes):
        raise DomainError(f"mode subset {modes} out of range for {n} modes")
    if len(set(modes)) != len(modes):
        raise DomainError(f"mode subset {modes} has duplicates")
    idx = np.array([2 * m + q for m in modes for q in (0, 1)])
    return sigma[..., idx[:, None], idx]

