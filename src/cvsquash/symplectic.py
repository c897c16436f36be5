"""Covariance-matrix formalism for multimode Gaussian states.

Quadrature ordering is (Q1, P1, Q2, P2, ...).  Covariance matrices are plain
real symmetric numpy arrays, or stacks (..., 2n, 2n) of them, on which every
function acts matrix by matrix; the vacuum is (1/2) * identity.
"""

import functools

import numpy as np

from .entropics import _g
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


@functools.cache
def _delta(n):
    """rows and signs with Delta L = L[..., rows, :] * signs: the two rows of
    each mode swapped, the second negated, exactly."""
    rows = np.arange(2 * n) ^ 1
    return rows, np.where(rows > np.arange(2 * n), 1.0, -1.0)[:, None]


def symplectic_eigenvalues(sigma):
    """Kernel: descending symplectic spectrum of a covariance matrix, or of each
    matrix of a stack (..., 2n, 2n) of them.

    With the Cholesky factor sigma = L L^T, sigma Delta is similar to
    L^T Delta L, so i L^T Delta L is Hermitian with spectrum {+/- nu_k}: one
    Cholesky and one symmetric eigensolve per matrix, with no matrix square
    root, and full symmetric-eigensolver accuracy, unlike the nonsymmetric
    eigenproblem for inv(Delta) sigma.  Raises InvalidStateError unless every
    matrix is finite, symmetric, positive definite, and meets the uncertainty
    relation nu_min >= 1/2 to within max(_NU_TOL, 1e-13 * scale).

    The spectrum pairs up with no check: the Hermitian matrix is formed as
    i/2 (A - A^T), purely imaginary and exactly antisymmetric, so its exact
    spectrum is {+/- nu_k}, and Weyl's inequality with the eigensolver's
    backward error puts each computed eigenvalue within about n eps nu_0 of
    its exact value, some 1e-14 nu_0 at three modes.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = n_modes_of(sigma)
    transpose = sigma.swapaxes(-1, -2)
    scale = np.abs(sigma).max(axis=(-2, -1), initial=1.0)  # max(1, |sigma|)
    # NaN passes Cholesky and every check below.  A NaN entry makes the
    # asymmetry's excess over its bound NaN, and an infinite one makes it
    # inf - inf, so one comparison refuses all three; only the message differs
    with np.errstate(invalid="ignore"):
        asymmetry = np.abs(sigma - transpose).max(axis=(-2, -1)) - 1e-12 * scale
        if not (asymmetry <= 0.0).all():
            raise InvalidStateError("covariance matrix " + (
                "is not symmetric" if np.isfinite(scale).all() else "has a non-finite entry"))
    try:
        L = np.linalg.cholesky(0.5 * (sigma + transpose))
    except np.linalg.LinAlgError as exc:
        raise InvalidStateError("covariance matrix is not positive definite") from exc
    rows, signs = _delta(n)
    A = L.swapaxes(-1, -2) @ (L[..., rows, :] * signs)  # L^T Delta L
    try:
        nu = np.linalg.eigvalsh(0.5j * (A - A.swapaxes(-1, -2)))  # ascending
    except np.linalg.LinAlgError as exc:
        raise InvalidStateError("symplectic eigenvalues did not converge") from exc
    paired = nu[..., :n - 1:-1]  # the positive half, descending
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
    modes padded onto a matrix therefore add exactly 0.  The mixed excesses,
    finite from the kernel's checks and at least 1e-11, go to g's unvalidated
    body ``entropics._g``.
    """
    nu = symplectic_eigenvalues(sigma)
    excess = nu - 0.5
    mixed = excess >= 1e-11 * np.maximum(1.0, nu[..., :1])
    terms = np.zeros(excess.shape)  # g goes only where it adds more than 0
    terms[mixed] = _g(excess[mixed])
    out = terms.sum(axis=-1)
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

