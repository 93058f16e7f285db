"""Radial-basis covariance function and kernel-matrix assembly.

The covariance family is fixed to the RBF kernel

    k(a, b) = s2 * exp(-||a - b||^2 / (2 * ell^2))

with signal variance ``s2`` and length scale ``ell``. Both hyperparameters are
strictly positive and are optimized in log space, so positivity is preserved
by construction. Matrices are assembled from explicit coordinate differences,
which makes them bit-exactly symmetric with diagonal exactly ``s2``. Callers
that try many hyperparameter values on one input set (the joint optimizer)
compute the squared distances once with ``sq_dists`` and evaluate each trial
with ``rbf_from_sq_dists``, the helper every kernel matrix here goes through,
and its derivatives with ``kernel_grad_theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, InvalidInputError

__all__ = [
    "KernelParams",
    "build_kernel_matrix",
    "cross_kernel",
    "kernel_grad_theta",
    "sq_dists",
    "rbf_from_sq_dists",
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
    """X as rows of coordinates; a 1-D X holds points of one coordinate."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InvalidInputError(f"points must be rows of coordinates (1-D or 2-D), got shape {X.shape}")
    return X


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of A (m x d) and of B (n x d).

    Explicit differences rather than the |a|^2 + |b|^2 - 2ab expansion:
    keeps A == B matrices bit-exactly symmetric with an exactly zero
    diagonal. The differences are formed for m // d rows of A at a time, so a
    block is never larger than the m x n result, and the call holds two
    arrays of that size, not d + 1. The result is allocated after the first
    block's differences, so at d = 1 it never sits on top of the
    subtraction's buffer. Each entry is still one ``einsum`` sum over the
    coordinates, so the bits do not depend on the blocking. An A with no rows
    gives a 0 x n result.
    """
    m, d = A.shape
    rows = max(1, m // max(d, 1))
    out = None
    for start in range(0, max(m, 1), rows):  # one block even when m = 0
        diff = A[start : start + rows, None, :] - B[None, :, :]
        if out is None:
            out = np.empty((m, B.shape[0]))
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start : start + rows])
        del diff  # before the next block is formed
    return out


def sq_dists(X) -> np.ndarray:
    """N x N squared distances of the training inputs.

    The part of ``build_kernel_matrix`` that does not depend on the
    hyperparameters: compute it once per input set and pass it to
    ``rbf_from_sq_dists`` for every parameter value tried. Its peak is two
    N x N arrays, the result and one block of coordinate differences, for
    any input dimension; ``build_kernel_matrix`` then holds the distances
    and the kernel, two as well.
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


def build_kernel_matrix(params: KernelParams, X) -> np.ndarray:
    """N x N prior covariance matrix of the training inputs, Fortran-ordered
    (the transpose of the symmetric result) so that fits copy it straight."""
    return rbf_from_sq_dists(params, sq_dists(X)).T


def cross_kernel(params: KernelParams, A, B) -> np.ndarray:
    """M x N covariance between query points A and training points B.

    A 1-D array holds points of one coordinate. Raises ``InvalidInputError``
    unless A and B are 1-D or 2-D and finite, with the same number of
    coordinates.
    """
    A, B = _as_points(A), _as_points(B)
    if A.shape[1] != B.shape[1]:
        raise InvalidInputError(f"query points have {A.shape[1]} coordinates, training points {B.shape[1]}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise InvalidInputError("kernel inputs must be finite")
    return rbf_from_sq_dists(params, _sq_dists(A, B))


def kernel_grad_theta(
    params: KernelParams, K: np.ndarray, d2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives (dK/dlog s2, dK/dlog ell) of ``K = rbf_from_sq_dists(params, d2)``.

    dK/dlog s2 = K (the matrix is linear in s2) and
    dK/dlog ell = K * d2 / ell^2 elementwise, which vanishes on the diagonal.
    """
    ell = params.length_scale
    return K, K * d2 / (ell * ell)


def _label_variance(y: np.ndarray) -> float:
    """var(y); InvalidInputError when it is not finite, which finite labels
    reach from a magnitude of about 1e154."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(np.var(y))
    if not math.isfinite(v):
        raise InvalidInputError(f"labels must be finite with a finite variance, largest |y| {np.abs(y).max():.3g}")
    return v


def heuristic_params(X, y) -> KernelParams:
    """Data-driven starting hyperparameters.

    Signal variance = var(y), length scale = median pairwise distance; both
    fall back to 1.0 when the data is degenerate (constant labels, a single
    point, or duplicate inputs only). X goes through ``sq_dists``, which
    rejects an empty or non-finite X; y must hold one label per row of X,
    with a finite variance. The peak is that of ``sq_dists``, two N x N
    arrays: the upper triangle is selected through a boolean mask (N^2
    bytes), and the distance matrix is released before the median of the
    N(N-1)/2 selected distances is taken in place: ``np.median``'s value,
    without its copy or its import of ``numpy.ma``.
    """
    d2 = sq_dists(X)
    n = d2.shape[0]
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise InvalidInputError(f"y must have shape ({n},), got {y.shape}")
    s2 = _label_variance(y)
    if s2 == 0.0:  # constant labels
        s2 = 1.0
    if n < 2:
        ell = 1.0
    else:
        d = d2[np.less.outer(np.arange(n), np.arange(n))]  # row-major upper triangle
        del d2
        middle = (d.shape[0] - 1) // 2, d.shape[0] // 2  # one index twice for an odd count
        d.partition(middle)
        ell = float((np.sqrt(d[middle[0]]) + np.sqrt(d[middle[1]])) / 2.0)
        if not np.isfinite(ell) or ell <= 0.0:
            ell = 1.0
    return KernelParams(signal_variance=s2, length_scale=ell)
