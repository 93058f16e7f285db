"""Reference implementations the tests check the library against.

Each is the direct formula for something the library computes another way:
one kernel entry, all squared distances in one expression, the full-matrix
sigma gradient, the closed-form noise optimum for a diagonal kernel, and a
fit from inputs instead of a kernel matrix. None is read by the library
itself.
"""

import numpy as np

from gplabelnoise import (
    GprState,
    InvalidInputError,
    KernelParams,
    build_kernel_matrix,
    fit_matrix,
)
from gplabelnoise import gpr


def eval_kernel(params: KernelParams, a, b) -> float:
    """Covariance between two input points."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("kernel inputs must be finite")
    d2 = float(np.sum((a - b) ** 2))
    ell = params.length_scale
    return params.signal_variance * float(np.exp(-d2 / (2.0 * ell * ell)))


def sq_dists_one_einsum(A, B) -> np.ndarray:
    """Squared distances between the rows of A and of B, from every
    coordinate difference at once (an m x n x d array) and one sum over the
    coordinates."""
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def grad_sigma_full_matrix(state: GprState, y) -> np.ndarray:
    """Full-matrix form Kt^-1 - (Kt^-1 y)(Kt^-1 y)'; its diagonal is grad_sigma."""
    a = state.alpha_for(y)
    return gpr._kinv(state) - np.outer(a, a)


def diagonal_solution(K_diag: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form optimum for a diagonal kernel: max(y_i^2 - K_ii, 0).

    This is the exact limit of the multiplicative scheme in that setting and
    the reference the iterative path is checked against.
    """
    K_diag = np.asarray(K_diag, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(K_diag <= 0.0):
        raise InvalidInputError("diagonal kernel entries must be positive")
    if K_diag.shape != y.shape:
        raise InvalidInputError("K_diag and y must have matching shapes")
    return np.maximum(y * y - K_diag, 0.0)


def fit(params: KernelParams, sigma, X, y) -> GprState:
    """Fit the regularized GPR state for kernel ``params`` on (X, y)."""
    return fit_matrix(build_kernel_matrix(params, X), sigma, y)
