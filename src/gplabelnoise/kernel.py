"""Radial-basis covariance function and kernel-matrix assembly.

The covariance family is fixed to the RBF kernel

    k(a, b) = s2 * exp(-||a - b||^2 / (2 * ell^2))

with signal variance ``s2`` and length scale ``ell``. Both hyperparameters are
strictly positive and are optimized in log space, so positivity is preserved
by construction. Matrices are assembled from explicit coordinate differences,
which makes them bit-exactly symmetric with diagonal exactly ``s2``. Callers
that try many hyperparameter values on one input set (the joint optimizer)
compute the squared distances once with ``sq_dists`` and evaluate each trial
with ``rbf_from_sq_dists``, the helper every kernel matrix here goes through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, InvalidInputError

__all__ = [
    "KernelParams",
    "eval_kernel",
    "build_kernel_matrix",
    "cross_kernel",
    "kernel_grad_theta",
    "sq_dists",
    "rbf_from_sq_dists",
    "rbf_grad_from_sq_dists",
    "heuristic_params",
]


@dataclass(frozen=True)
class KernelParams:
    """RBF hyperparameters: signal variance (label units^2) and length scale.

    ``log_vector``/``from_log`` convert to and from the 2-vector
    ``[log s2, log ell]`` used by gradient-based hyperparameter updates.
    """

    signal_variance: float
    length_scale: float

    def __post_init__(self):
        for name in ("signal_variance", "length_scale"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidInputError(f"{name} must be a positive finite real, got {v!r}")

    def log_vector(self) -> np.ndarray:
        return np.array([np.log(self.signal_variance), np.log(self.length_scale)])

    @classmethod
    def from_log(cls, log_vec) -> "KernelParams":
        log_vec = np.asarray(log_vec, dtype=float)
        return cls(float(np.exp(log_vec[0])), float(np.exp(log_vec[1])))


def _as_points(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def eval_kernel(params: KernelParams, a, b) -> float:
    """Covariance between two input points."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("kernel inputs must be finite")
    d2 = float(np.sum((a - b) ** 2))
    ell = params.length_scale
    return params.signal_variance * float(np.exp(-d2 / (2.0 * ell * ell)))


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # Explicit differences rather than the |a|^2 + |b|^2 - 2ab expansion:
    # keeps A == B matrices bit-exactly symmetric with an exactly zero diagonal.
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def sq_dists(X) -> np.ndarray:
    """N x N squared distances of the training inputs.

    The part of ``build_kernel_matrix`` that does not depend on the
    hyperparameters: compute it once per input set and pass it to
    ``rbf_from_sq_dists`` for every parameter value tried.
    """
    X = _as_points(X)
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot build a kernel matrix from zero points")
    if not np.isfinite(X).all():
        raise InvalidInputError("kernel inputs must be finite")
    return _sq_dists(X, X)


def rbf_from_sq_dists(params: KernelParams, d2: np.ndarray) -> np.ndarray:
    """RBF covariance s2 * exp(-d2 / (2 ell^2)) from squared distances.

    The one place the kernel expression is evaluated. The result is a fresh
    array, exponentiated and scaled in place, so it costs one array the size
    of ``d2`` on top of ``d2`` itself.
    """
    ell = params.length_scale
    K = d2 / (-2.0 * ell * ell)  # bitwise equal to -d2 / (2 ell^2)
    np.exp(K, out=K)
    K *= params.signal_variance
    return K


def rbf_grad_from_sq_dists(
    params: KernelParams, K: np.ndarray, d2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives (dK/dlog s2, dK/dlog ell) of ``K = rbf_from_sq_dists(params, d2)``.

    dK/dlog s2 = K (the matrix is linear in s2) and
    dK/dlog ell = K * d2 / ell^2 elementwise, which vanishes on the diagonal.
    """
    ell = params.length_scale
    return K, K * d2 / (ell * ell)


def build_kernel_matrix(params: KernelParams, X) -> np.ndarray:
    """N x N prior covariance matrix of the training inputs."""
    return rbf_from_sq_dists(params, sq_dists(X))


def cross_kernel(params: KernelParams, A, B) -> np.ndarray:
    """M x N covariance between query points A and training points B."""
    A, B = _as_points(A), _as_points(B)
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise InvalidInputError("kernel inputs must be finite")
    return rbf_from_sq_dists(params, _sq_dists(A, B))


def kernel_grad_theta(params: KernelParams, X) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the kernel matrix w.r.t. (log s2, log ell).

    See ``rbf_grad_from_sq_dists``; this builds K and the squared distances
    from X first.
    """
    d2 = sq_dists(X)
    return rbf_grad_from_sq_dists(params, rbf_from_sq_dists(params, d2), d2)


def heuristic_params(X, y) -> KernelParams:
    """Data-driven starting hyperparameters.

    Signal variance = var(y), length scale = median pairwise distance; both
    fall back to 1.0 when the data is degenerate (constant labels, a single
    point, or duplicate inputs only). X goes through ``sq_dists``, which
    rejects an empty or non-finite X.
    """
    d2 = sq_dists(X)
    y = np.asarray(y, dtype=float)
    s2 = float(np.var(y))
    if not np.isfinite(s2) or s2 <= 0.0:
        s2 = 1.0
    n = d2.shape[0]
    if n < 2:
        ell = 1.0
    else:
        d = np.sqrt(d2, out=d2)  # in place: no second N x N array
        ell = float(np.median(d[np.triu_indices(n, k=1)]))
        if not np.isfinite(ell) or ell <= 0.0:
            ell = 1.0
    return KernelParams(signal_variance=s2, length_scale=ell)
