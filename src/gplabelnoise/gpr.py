"""Regularized Gaussian-process regression core.

Everything here operates on the regularized covariance Kt = K + diag(sigma),
where sigma holds one non-negative noise variance per label. A fit computes
only what every reader needs: the Cholesky factor L of Kt, factored in
place in one Fortran-ordered copy of K, and alpha = Kt^-1 y. Everything
else is read off the factor on first access and cached on the state:
``logdet`` (log det Kt, for the negative log-likelihood), ``kinv_diag``
(diag(Kt^-1), as column sums of squares of the triangular inverse L^-1,
for the noise update, the sigma gradient and the closed-form leave-one-out
quantities) and ``kinv`` (the full inverse, for the full-matrix sigma
gradient and the kernel-hyperparameter gradient). A state whose only
reader is the NLL, such as a rejected line-search trial, never inverts its
factor.

The factor path calls LAPACK directly: ``dpotrf`` for the Cholesky factor,
``dpotrs`` for solves against it, ``dtrtri`` for the triangular inverse and
``dpotri`` for the full inverse, each bound once at import. These are the
routines, with the same arguments, that ``scipy.linalg.cholesky``/
``cho_solve`` call, so factors and solves are bitwise the same, without
SciPy's per-call wrapper cost (which dominates at N of a few dozen). The
input checks those wrappers would make live in ``cholesky_with_jitter``
(square, finite matrix), ``fit_matrix`` (square K, finite labels of matching
length, finite Kt) and ``_check_sigma`` (shape, finite, non-negative).

The NLL convention is ``log det Kt + y' Kt^-1 y`` with the additive constant
dropped; all tests and optimizers use the same convention.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import EmptyDatasetError, InvalidInputError, NumericalError
from .kernel import KernelParams, build_kernel_matrix, cross_kernel, eval_kernel

__all__ = [
    "GprState",
    "Posterior",
    "LoocvResult",
    "cholesky_with_jitter",
    "fit",
    "fit_matrix",
    "predict",
    "predict_batch",
    "nll",
    "grad_sigma",
    "grad_sigma_full_matrix",
    "grad_theta",
    "loocv",
]

log = logging.getLogger(__name__)

_potrf, _potrs, _trtri, _potri = scipy.linalg.get_lapack_funcs(
    ("potrf", "potrs", "trtri", "potri"), dtype=np.float64
)

# Jitter ladder: first retry at 1e-10 * mean(diag K), then three escalations
# of 10x each. sigma >= 0 keeps Kt positive definite in exact arithmetic, so
# jitter only absorbs round-off (e.g. duplicate input points).
_JITTER_STEPS = (1e-10, 1e-9, 1e-8, 1e-7)


@dataclass(frozen=True)
class GprState:
    """Factorized regularized covariance plus the reads of it that are used.

    ``params`` and ``X`` are kept for prediction and are None for states
    built directly from a covariance matrix (``fit_matrix``). ``y`` is a
    copy of the fitted labels, so readers can tell when ``alpha`` answers
    for the labels they are given. ``logdet``, ``kinv_diag`` and ``kinv``
    are computed from the factor on first access and cached.
    """

    params: KernelParams | None
    X: np.ndarray | None
    sigma: np.ndarray
    y: np.ndarray
    chol: np.ndarray  # lower Cholesky factor of Kt (+ applied jitter), upper triangle zero
    jitter: float
    alpha: np.ndarray  # Kt^-1 y

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Kt^-1 b via the cached factor, for a vector or a matrix b."""
        b = np.asarray(b, dtype=float)
        if b.shape[:1] != self.alpha.shape:
            raise ValueError(f"right-hand side must have {self.n} rows, got shape {b.shape}")
        # the factor of a finite matrix is finite, and NaN in b propagates;
        # info is 0: the factor's diagonal is positive
        return _potrs(self.chol, b, lower=1)[0]

    def alpha_for(self, y) -> np.ndarray:
        """Kt^-1 y, read from the cache when y equals the fitted labels."""
        if y is self.y:
            return self.alpha
        y = np.asarray(y, dtype=float)
        if y.shape == self.y.shape and (y == self.y).all():
            return self.alpha
        return self.solve(y)

    @cached_property
    def logdet(self) -> float:
        """log det Kt = 2 * sum(log diag L)."""
        return 2.0 * float(np.log(self.chol.diagonal()).sum())

    @cached_property
    def kinv_diag(self) -> np.ndarray:
        """diag(Kt^-1), the column sums of squares of L^-1."""
        # info is 0: a successful Cholesky leaves a positive diagonal
        linv = _trtri(self.chol, lower=1)[0]
        return np.einsum("ij,ij->j", linv, linv)

    @cached_property
    def kinv(self) -> np.ndarray:
        """Kt^-1, built from the factor on first access and cached.

        Symmetric by construction, with the diagonal taken from ``kinv_diag``
        so that the full-matrix and diagonal gradient forms agree bitwise.
        """
        # info is 0: a successful Cholesky leaves a positive diagonal.
        # dpotri overwrites only the lower triangle of (a copy of) the
        # factor, whose upper triangle is exactly zero, so adding the
        # transpose mirrors the lower triangle exactly
        lower = _potri(self.chol, lower=1)[0]
        kinv = lower + lower.T
        np.fill_diagonal(kinv, self.kinv_diag)
        return kinv


@dataclass(frozen=True)
class Posterior:
    mean: float
    variance: float  # clamped at 0


@dataclass(frozen=True)
class LoocvResult:
    errors: np.ndarray  # y_i - mu_{-i}, label units
    stds: np.ndarray  # leave-one-out posterior standard deviations


def cholesky_with_jitter(M: np.ndarray, diag_ref: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of M, retrying with escalating diagonal jitter.

    ``diag_ref`` scales the ladder (mean of the prior covariance diagonal).
    Raises ``InvalidInputError`` unless M is a finite square matrix, and
    ``NumericalError`` carrying the smallest eigenvalue of the final attempt
    once the ladder is exhausted.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"matrix to factor must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidInputError("matrix to factor must be finite")
    L, info = _potrf(M, lower=1, clean=1)
    if info == 0:
        return L, 0.0
    del L  # release each failed attempt's factor before the next rung
    for step in _JITTER_STEPS:
        jitter = step * diag_ref
        # the jitter goes on the diagonal of a Fortran-ordered copy, which is
        # factored in place: one N x N array per rung, holding M + jitter*I
        A = np.array(M, order="F")
        np.fill_diagonal(A, M.diagonal() + jitter)
        L, info = _potrf(A, lower=1, clean=1, overwrite_a=1)
        del A
        if info == 0:
            log.debug("cholesky needed jitter %.3e", jitter)
            return L, jitter
        del L
    pivot = float(np.min(scipy.linalg.eigvalsh(M)))
    raise NumericalError(
        f"covariance matrix not positive definite after jitter escalation "
        f"(smallest eigenvalue {pivot:.3e})",
        smallest_pivot=pivot,
    )


def _check_sigma(sigma, n: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n,):
        raise InvalidInputError(f"sigma must have shape ({n},), got {sigma.shape}")
    # two reductions, no temporaries; NaN fails the first comparison
    if not (sigma.min() >= 0.0 and sigma.max() < math.inf):
        raise InvalidInputError("sigma entries must be finite and non-negative")
    return sigma


def fit_matrix(
    K: np.ndarray,
    sigma,
    y,
    params: KernelParams | None = None,
    X: np.ndarray | None = None,
) -> GprState:
    """Factorize K + diag(sigma) and cache alpha = Kt^-1 y.

    Kt is one Fortran-ordered copy of K with sigma added to its diagonal,
    and LAPACK factors it in place, so a fit holds one N x N array: the
    factor. Only when that factorization fails is Kt rebuilt from K for the
    jitter ladder. Nothing is inverted here; ``GprState.logdet``,
    ``kinv_diag`` and ``kinv`` are computed from the factor by their first
    reader, so a state read only by ``nll`` costs a factorization and one
    solve. O(N^3), fine at the targeted scale.

    Raises ``EmptyDatasetError`` for a 0 x 0 K, ``InvalidInputError`` unless K
    is a square matrix, y a finite vector of matching length, sigma a finite
    non-negative vector of matching length and K + diag(sigma) finite, and
    ``NumericalError`` when K + diag(sigma) cannot be factorized.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InvalidInputError(f"K must be a square matrix, got shape {K.shape}")
    n = K.shape[0]
    if n == 0:
        raise EmptyDatasetError("cannot fit zero points")
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise InvalidInputError(f"y must have shape ({n},), got {y.shape}")
    if not np.isfinite(y).all():
        raise InvalidInputError("y entries must be finite")
    sigma = _check_sigma(sigma, n)
    Kt = np.array(K, order="F")
    Kt.flat[:: n + 1] += sigma  # the diagonal
    if not np.isfinite(Kt).all():
        raise InvalidInputError("matrix to factor must be finite")
    L, info = _potrf(Kt, lower=1, clean=1, overwrite_a=1)
    jitter = 0.0
    if info != 0:
        # the failed attempt overwrote Kt: rebuild it for the jitter ladder
        del L, Kt
        Kt = K.copy()
        Kt.flat[:: n + 1] += sigma
        L, jitter = cholesky_with_jitter(Kt, diag_ref=float(np.add.reduce(K.diagonal()) / n))
    return GprState(
        params=params,
        X=None if X is None else np.asarray(X, dtype=float),
        sigma=sigma,
        y=y.copy(),
        chol=L,
        jitter=jitter,
        # info is 0: a successful Cholesky leaves a positive diagonal
        alpha=_potrs(L, y, lower=1)[0],
    )


def fit(params: KernelParams, sigma, X, y) -> GprState:
    """Fit the regularized GPR state for kernel ``params`` on (X, y)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    K = build_kernel_matrix(params, X)
    return fit_matrix(K, sigma, y, params=params, X=X)


def predict(state: GprState, x_star) -> Posterior:
    """Posterior mean and variance at a single query point."""
    if state.params is None or state.X is None:
        raise InvalidInputError("state carries no kernel/inputs; fit with fit() to predict")
    x_star = np.asarray(x_star, dtype=float).ravel()
    if not np.all(np.isfinite(x_star)):
        raise InvalidInputError("query point must be finite")
    k_star = cross_kernel(state.params, x_star[None, :], state.X)[0]
    mean = float(k_star @ state.alpha)
    v = scipy.linalg.solve_triangular(state.chol, k_star, lower=True, check_finite=False)
    var = eval_kernel(state.params, x_star, x_star) - float(v @ v)
    if var < -1e-8:
        log.warning("posterior variance %.3e clamped to 0", var)
    return Posterior(mean=mean, variance=max(var, 0.0))


def predict_batch(state: GprState, X_star) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and (clamped) variances at many query points."""
    if state.params is None or state.X is None:
        raise InvalidInputError("state carries no kernel/inputs; fit with fit() to predict")
    X_star = np.asarray(X_star, dtype=float)
    if X_star.ndim == 1:
        X_star = X_star[:, None]
    Ks = cross_kernel(state.params, X_star, state.X)
    means = Ks @ state.alpha
    # k' Kt^-1 k = |L^-1 k|^2: one triangular solve instead of two
    V = scipy.linalg.solve_triangular(state.chol, Ks.T, lower=True, check_finite=False)
    quad = np.einsum("ij,ij->j", V, V)
    variances = state.params.signal_variance - quad
    low = variances < -1e-8
    if np.any(low):
        log.warning("posterior variance clamped to 0 at %d points", int(np.sum(low)))
    return means, np.maximum(variances, 0.0)


def nll(state: GprState, y) -> float:
    """Negative log-likelihood, log det Kt + y' Kt^-1 y (constant dropped)."""
    y = np.asarray(y, dtype=float)
    return state.logdet + float(y @ state.alpha_for(y))


def grad_sigma(state: GprState, y) -> np.ndarray:
    """Gradient of the NLL in sigma: diag(Kt^-1) - (Kt^-1 y) ** 2."""
    a = state.alpha_for(y)
    return state.kinv_diag - a * a


def grad_sigma_full_matrix(state: GprState, y) -> np.ndarray:
    """Full-matrix form Kt^-1 - (Kt^-1 y)(Kt^-1 y)'; its diagonal is grad_sigma."""
    a = state.alpha_for(y)
    return state.kinv - np.outer(a, a)


def grad_theta(state: GprState, y, dK_dtheta) -> np.ndarray:
    """Gradient of the NLL in the kernel hyperparameters.

    One entry tr(Kt^-1 dK) - (Kt^-1 y)' dK (Kt^-1 y) per matrix in
    ``dK_dtheta``; the trace is an elementwise sum against the full inverse,
    which the first call on a state builds.
    """
    a = state.alpha_for(y)
    out = np.empty(len(dK_dtheta))
    for j, dK in enumerate(dK_dtheta):
        out[j] = float(np.sum(state.kinv * dK)) - float(a @ dK @ a)
    return out


def loocv(state: GprState, y) -> LoocvResult:
    """Closed-form leave-one-out errors and standard deviations.

    errors_i = (Kt^-1 y)_i / (Kt^-1)_ii and stds_i = (Kt^-1)_ii ^ -1/2,
    evaluated on the regularized matrix Kt.
    """
    a = state.alpha_for(y)
    return LoocvResult(errors=a / state.kinv_diag, stds=1.0 / np.sqrt(state.kinv_diag))
