"""Regularized Gaussian-process regression core.

Everything here operates on the regularized covariance Kt = K + diag(sigma),
where sigma holds one non-negative noise variance per label. A fit computes
only what every reader needs: the Cholesky factor L of Kt, factored in
place in one Fortran-ordered copy of K, and alpha = Kt^-1 y. A fit state
holds one N x N array, that factor. Only when the factorization fails does
the fit fall back on the jitter ladder (``cholesky_with_jitter``), which
factors K + diag(sigma) + jitter*I rung by rung, one copy of K at a time;
each matrix is factored once. The rest is read off the factor on first
access and cached on the state: ``logdet`` (log det Kt, for the negative
log-likelihood) and ``kinv_diag`` (diag(Kt^-1), as column sums of squares
of the triangular inverse L^-1, for the noise update, the sigma gradient
and the closed-form leave-one-out quantities). The full inverse, which
only the kernel-hyperparameter gradient reads, is formed by ``grad_theta``
and dropped when it returns. A state whose only reader is the NLL, such as
a rejected line-search trial, never inverts its factor. A state is the
factorization and nothing else: the kernel and the training inputs stay
with the caller, who passes them to ``predict_batch`` (Rasmussen and
Williams, GPML, Algorithm 2.1).

The factor path calls LAPACK directly: ``dpotrf`` for the Cholesky factor,
``dpotrs`` for solves against it, ``dtrtri`` for the triangular inverse,
``dpotri`` for the full inverse and ``dtrtrs`` for a prediction's
triangular solve, each bound once at import. These are the routines, with
the same arguments, that ``scipy.linalg.cholesky``/``cho_solve``/
``solve_triangular`` call, so factors and solves are bitwise the same,
without SciPy's per-call wrapper cost (which dominates at N of a few dozen).
They and BLAS ``dtrmm`` are bound from SciPy's compiled modules
``scipy.linalg._flapack`` and ``scipy.linalg._fblas``, loaded on their own
and registered under their own names. Importing the ``scipy.linalg``
package instead would load a dozen more compiled modules and SciPy's
array-API layer, most of a cold start. A later ``import scipy.linalg``
reuses the registered modules, so its ``get_lapack_funcs`` returns the
very routines bound here. The package itself is imported only by
``cholesky_with_jitter`` once its ladder is exhausted, for the smallest
eigenvalue it reports.

The input checks those wrappers would make are made once per K and y, by
``fit_matrix``, which hands K and its own read-only copy of y to a refitter
(``_Refitter``). Fits that need no such check refit with the ``state.y`` of
the fit they start from: a sigma loop's steps on its one K, and the joint
fit's theta trials on kernels finite by construction. Each fit checks sigma
in one pass (``_check_sigma``: one ``np.minimum.reduce``, one
``np.maximum.reduce``, and diag(K) + sigma bounded by max diag(K) plus that
max), O(N); ``cholesky_with_jitter`` and ``detect.flag_noisy`` use it.

Above order 64 the triangular inverse is recursive blocked inversion
(Elmroth, Gustavson, Jonsson and Kagstrom, SIAM Review 2004): L is halved,
its two diagonal blocks are inverted recursively and the lower-left block
of L^-1 is -L22^-1 L21 L11^-1, two BLAS-3 ``dtrmm`` calls. That is the
same n^3/3 flops as ``dtrtri``, in a kernel OpenBLAS runs faster, and as
stable (Du Croz and Higham, IMA J. Numer. Anal. 1992). At order 64 and
below it is ``dtrtri`` itself, so ``kinv_diag`` is bitwise the
``scipy.linalg`` result there; above 64 it agrees with it to round-off, not
bitwise.

The NLL convention is ``log det Kt + y' Kt^-1 y`` with the additive constant
dropped; all tests and optimizers use the same convention.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import EmptyDatasetError, InvalidInputError, NumericalError
from .kernel import KernelParams, cross_kernel

__all__ = [
    "GprState",
    "LoocvResult",
    "cholesky_with_jitter",
    "fit_matrix",
    "predict_batch",
    "nll",
    "grad_sigma",
    "grad_theta",
    "loocv",
]

log = logging.getLogger(__name__)


def _compiled(package: str, name: str):
    """SciPy's compiled module ``scipy.<package>.<name>``, loaded without
    its package and registered in ``sys.modules`` under its own name; one
    already there is reused. That is how ``scipy.linalg._flapack`` and
    ``_fblas`` load at import, and ``scipy.optimize._lbfgsb`` (for
    ``noiseopt``'s L-BFGS-B) on the first joint fit.

    A later import of the package reuses the registered module, since
    SciPy's own ``from . import <name>`` falls back to ``sys.modules``. The
    module never becomes an attribute of its package, though: when this
    package was imported first, ``scipy.linalg._flapack`` or
    ``scipy.optimize._lbfgsb`` raises ``AttributeError``."""
    fullname = f"scipy.{package}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.machinery.PathFinder.find_spec(fullname, [os.path.join(scipy.__path__[0], package)])
        if spec is None:
            raise ImportError(f"cannot find SciPy's compiled module {fullname}", name=fullname)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


_flapack, _fblas = _compiled("linalg", "_flapack"), _compiled("linalg", "_fblas")
_potrf, _potrs, _trtri, _potri, _trtrs = (
    _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtri, _flapack.dpotri, _flapack.dtrtrs
)
_trmm = _fblas.dtrmm

# Jitter ladder: first rung at 1e-10 * mean(diag K), then three escalations
# of 10x each. sigma >= 0 keeps Kt positive definite in exact arithmetic, so
# jitter only absorbs round-off (e.g. duplicate input points).
_JITTER_STEPS = (1e-10, 1e-9, 1e-8, 1e-7)

# Orders up to this invert triangles with dtrtri; larger ones are halved.
# One OpenBLAS thread, minimum over repeats (kernel scan in BENCH_14.json):
# halving is 1.6x faster than dtrtri at N=128 and 2.0x at N=1000, but
# halving down to 32 or 16 is 1.4-2.1x slower than dtrtri at N=48, and
# keeping dtrtri up to 128 is 1.2-1.6x slower at N=100-200.
_TRTRI_MAX_N = 64


class _cached:
    """``functools.cached_property`` without its lock.

    The first read stores the value in the instance ``__dict__``, which
    later reads find before this non-data descriptor, so the value is
    computed once and then read like a field. Python 3.11's
    ``cached_property`` takes a class-wide lock on every first read, which
    costs more than the read itself at N of a few dozen.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


# not frozen: a frozen dataclass's per-field object.__setattr__ is slow at small N
@dataclass
class GprState:
    """Factorized regularized covariance plus the reads of it that are used.

    ``y`` is the read-only copy of the labels one ``fit_matrix`` call
    checked, shared by the states refitted from that fit; a reader given
    that array itself reads ``alpha``, and solves for any other. ``chol`` is
    the one N x N array a state holds; ``logdet`` and ``kinv_diag`` are
    computed from it on first access and cached.
    """

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
        """Kt^-1 y: the cached alpha when y is ``self.y``, a solve otherwise."""
        return self.alpha if y is self.y else self.solve(y)

    @_cached
    def logdet(self) -> float:
        """log det Kt = 2 * sum(log diag L)."""
        return 2.0 * float(np.log(self.chol.diagonal()).sum())

    @_cached
    def kinv_diag(self) -> np.ndarray:
        """diag(Kt^-1), the column sums of squares of L^-1.

        Above order 64 the sums are taken block by block, so L^-1 is never
        assembled, and L11^-1 is reduced to its column sums before L22^-1 is
        formed: the workspace peaks near 11/16 of an N x N array (L21 L11^-1
        beside the assembled inverse of the half-size L22 and its blocks).
        """
        if self.n <= _TRTRI_MAX_N:
            return _col_sumsq(_tri_inv(self.chol))
        top, B, C = _tri_inv_blocks(self.chol, top=_col_sumsq)
        return np.concatenate([top + _col_sumsq(B), _col_sumsq(C)])


def _col_sumsq(M: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", M, M)


def _tri_inv(L: np.ndarray) -> np.ndarray:
    """L^-1 for a lower-triangular L with a positive diagonal, as a new
    array whose upper triangle is zero; L is not written."""
    n = L.shape[0]
    if n <= _TRTRI_MAX_N:
        # info is 0: the diagonal is positive
        return _trtri(L, lower=1)[0]
    A, B, C = _tri_inv_blocks(L)
    h = A.shape[0]
    X = np.zeros((n, n), order="F")
    X[:h, :h] = A
    X[h:, :h] = B
    X[h:, h:] = C
    return X


def _tri_inv_blocks(L: np.ndarray, top=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blocks L11^-1, -L22^-1 L21 L11^-1 and L22^-1 of L^-1, with L
    halved at h = n // 2.

    A given ``top`` maps L11^-1 to what is returned in its place, and runs
    before L22^-1 is formed, so L11^-1 is released first.
    """
    h = L.shape[0] // 2
    A = _tri_inv(L[:h, :h])
    # only this copy of L21 is overwritten
    B = _trmm(1.0, A, np.array(L[h:, :h], order="F"), side=1, lower=1, overwrite_b=1)
    if top is not None:
        A = top(A)
    C = _tri_inv(L[h:, h:])
    B = _trmm(-1.0, C, B, lower=1, overwrite_b=1)
    return A, B, C


def _kinv(state: GprState) -> np.ndarray:
    """Kt^-1 from the factor of ``state``, as a new array that is not cached.

    Symmetric by construction, with the diagonal taken from ``kinv_diag``
    so that the full-matrix and diagonal sigma-gradient forms agree
    bitwise.
    """
    # info is 0: a successful Cholesky leaves a positive diagonal.
    # dpotri overwrites only the lower triangle of (a copy of) the
    # factor, whose upper triangle is exactly zero, so adding the
    # transpose mirrors the lower triangle exactly
    lower = _potri(state.chol, lower=1)[0]
    kinv = lower + lower.T
    np.fill_diagonal(kinv, state.kinv_diag)
    return kinv


@dataclass(frozen=True)
class LoocvResult:
    errors: np.ndarray  # y_i - mu_{-i}, label units
    stds: np.ndarray  # leave-one-out posterior standard deviations
    kkt_residual: float  # largest scaled violation of the KKT conditions of sigma >= 0


def _checked_matrix(K) -> np.ndarray:
    """K as a float array, checked to be a finite, non-empty square matrix."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InvalidInputError(f"K must be a square matrix, got shape {K.shape}")
    if K.shape[0] == 0:
        raise EmptyDatasetError("cannot factor a 0 x 0 matrix")
    if not np.isfinite(K).all():
        raise InvalidInputError("matrix to factor must be finite")
    return K


def _factor(K: np.ndarray, diag: np.ndarray) -> tuple[np.ndarray, int]:
    """``potrf`` of a fresh Fortran-ordered copy of K with ``diag`` on its
    diagonal, factored in place: the lower factor and LAPACK's info."""
    A = np.array(K, order="F")
    A.flat[:: A.shape[0] + 1] = diag
    return _potrf(A, lower=1, clean=1, overwrite_a=1)


def cholesky_with_jitter(K: np.ndarray, sigma) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + diag(sigma) + jitter*I, and the jitter,
    for the smallest rung of the jitter ladder that factors.

    The fallback of a fit once K + diag(sigma) itself fails to factor, so
    it never factors without jitter: the first rung is
    1e-10 * mean(diag K), and each further rung is 10x the one before.
    Each rung is one Fortran-ordered copy of K with the jittered diagonal,
    factored in place, and a failed rung is released before the next: the
    ladder holds one N x N array beyond its input.

    Raises ``EmptyDatasetError`` for a 0 x 0 K, which has no diagonal to
    scale the ladder, ``InvalidInputError`` unless K is a finite square
    matrix, sigma a finite non-negative vector of matching length and
    K + diag(sigma) finite, and ``NumericalError`` carrying the smallest
    eigenvalue of K + diag(sigma) once the ladder is exhausted.
    """
    # checked before any copy: the check's mask and a rung are never held
    # together
    K = _checked_matrix(K)
    k_diag = K.diagonal()
    sigma, diag = _check_sigma(sigma, k_diag.shape[0], k_diag, float(np.maximum.reduce(k_diag)))
    scale = float(np.add.reduce(k_diag) / k_diag.shape[0])
    for step in _JITTER_STEPS:
        jitter = step * scale
        L, info = _factor(K, diag + jitter)
        if info == 0:
            log.debug("cholesky needed jitter %.3e", jitter)
            return L, jitter
        del L
    Kt = K.copy()
    np.fill_diagonal(Kt, diag)
    import scipy.linalg  # loaded on this failure path only (see the module docstring)

    pivot = float(np.min(scipy.linalg.eigvalsh(Kt)))
    raise NumericalError(
        f"covariance matrix not positive definite after jitter escalation "
        f"(smallest eigenvalue {pivot:.3e})",
        smallest_pivot=pivot,
    )


def _finite_nonnegative(x) -> bool:
    """Whether x, a number or a non-empty array, is finite and non-negative
    in every entry."""
    x = np.asarray(x, dtype=float)
    # two reductions, no temporaries; NaN fails the first comparison
    return x.size > 0 and x.min() >= 0.0 and x.max() < math.inf


def _check_sigma(sigma, n: int, k_diag=0.0, k_diag_max: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """sigma, checked to be a finite, non-negative vector of shape (n,),
    n >= 1, and k_diag + sigma, checked to be finite, in one pass: two ufunc
    reductions (NaN fails both comparisons), then k_diag_max (max k_diag)
    plus max sigma bounds every entry of the sum, so a finite bound rules
    out overflow. For k_diag = diag(K), K finite, that is a finite Kt."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n,):
        raise InvalidInputError(f"sigma must have shape ({n},), got {sigma.shape}")
    top = float(np.maximum.reduce(sigma))
    if not (top < math.inf and np.minimum.reduce(sigma) >= 0.0):
        raise InvalidInputError("sigma entries must be finite and non-negative")
    if k_diag_max + top < math.inf:
        return sigma, k_diag + sigma
    with np.errstate(over="ignore"):
        diag = k_diag + sigma
    if not np.isfinite(diag).all():
        raise InvalidInputError("matrix to factor must be finite")
    return sigma, diag


class _Refitter:
    """Fits of K + diag(sigma) for one K and y that a fit has checked.

    Calling it with a sigma checks only sigma and diag(K) + sigma, O(N),
    then factors a fresh Fortran-ordered copy of Kt in place; if that fails,
    the attempt is released and ``cholesky_with_jitter`` runs on K and
    sigma. It holds a reference to K, not a copy, and the read-only y that
    every state it returns shares, so a loop of refits keeps no N x N array
    of its own.
    """

    __slots__ = ("K", "y", "_k_diag", "_k_diag_max")

    def __init__(self, K: np.ndarray, y: np.ndarray):
        self.K, self.y = K, y
        self._k_diag = K.diagonal()
        self._k_diag_max = float(np.maximum.reduce(self._k_diag))

    def __call__(self, sigma) -> GprState:
        sigma, diag = _check_sigma(sigma, self.y.shape[0], self._k_diag, self._k_diag_max)
        L, info = _factor(self.K, diag)
        jitter = 0.0
        if info != 0:
            del L  # the failed attempt, released before the ladder's first rung
            L, jitter = cholesky_with_jitter(self.K, sigma)
        # info is 0: a successful Cholesky leaves a positive diagonal
        return GprState(sigma, self.y, L, jitter, _potrs(L, self.y, lower=1)[0])


def fit_matrix(K: np.ndarray, sigma, y) -> GprState:
    """Factorize K + diag(sigma) and cache alpha = Kt^-1 y.

    The first fit of a refitter of K and y: it checks K and y, whatever
    array y is, keeps a read-only copy of y as ``state.y``, then checks
    sigma and the finiteness of diag(K) + sigma. Kt is one Fortran-ordered
    copy of K with sigma on its diagonal, and LAPACK factors it in place,
    so a fit holds one N x N array: the factor. Only when that
    factorization fails is the failed attempt released and the jitter
    ladder (``cholesky_with_jitter``) run on K and sigma, which starts at
    its first jittered rung and holds one rung at a time. Nothing is inverted
    here; ``GprState.logdet`` and ``kinv_diag`` are computed from the
    factor by their first reader, so a state read only by ``nll`` costs a
    factorization and one solve. O(N^3), fine at the targeted scale.

    Raises ``EmptyDatasetError`` for a 0 x 0 K, ``InvalidInputError`` unless K
    is a finite square matrix, y a finite vector of matching length, sigma a
    finite non-negative vector of matching length and K + diag(sigma)
    finite, and ``NumericalError`` when K + diag(sigma) cannot be
    factorized.
    """
    K = _checked_matrix(K)
    n = K.shape[0]
    y = np.array(y, dtype=float)  # a copy
    if y.shape != (n,):
        raise InvalidInputError(f"y must have shape ({n},), got {y.shape}")
    if not np.isfinite(y).all():
        raise InvalidInputError("y entries must be finite")
    y.flags.writeable = False
    return _Refitter(K, y)(sigma)


def predict_batch(params: KernelParams, X, state: GprState, X_star) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and (clamped) variances at many query points, for
    ``state`` fitted on the training inputs ``X`` under kernel ``params``.

    Raises ``InvalidInputError`` unless X has one row per fitted label and
    X_star is a 1-D or 2-D array of finite points with X's number of
    coordinates; a 1-D X_star holds points of one coordinate, so it fits
    only one-coordinate inputs.
    """
    if np.shape(X)[:1] != (state.n,):
        raise InvalidInputError(f"X must have {state.n} rows, one per fitted label, got shape {np.shape(X)}")
    Ks = cross_kernel(params, X_star, X)
    means = Ks @ state.alpha
    # k' Kt^-1 k = |L^-1 k|^2: one triangular solve instead of two
    # dtrtrs, as scipy.linalg.solve_triangular calls it for a Fortran-ordered
    # factor; info is 0: the factor's diagonal is positive
    V = _trtrs(state.chol, Ks.T, lower=1)[0]
    quad = np.einsum("ij,ij->j", V, V)
    variances = params.signal_variance - quad
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


def grad_theta(state: GprState, y, dK_dtheta) -> np.ndarray:
    """Gradient of the NLL in the kernel hyperparameters.

    One entry tr(Kt^-1 dK) - (Kt^-1 y)' dK (Kt^-1 y) per matrix in
    ``dK_dtheta``, without N x N temporaries: the trace sums products with
    the (symmetric) full inverse, which each call forms from the factor and
    drops on return, so the state keeps holding only its factor.
    """
    a = state.alpha_for(y)
    kinv = _kinv(state)
    out = np.empty(len(dK_dtheta))
    for j, dK in enumerate(dK_dtheta):
        out[j] = float(np.einsum("ij,ij->", kinv, dK)) - float(a @ (dK @ a))
    return out


def loocv(state: GprState, y) -> LoocvResult:
    """Closed-form leave-one-out errors and standard deviations (GPML eq.
    5.12), and the KKT residual of sigma >= 0 that they certify.

    With a = Kt^-1 y and p = diag(Kt^-1): errors = a / p, stds = p^-1/2,
    and the sigma gradient is g = p - a^2 = p (1 - q) with
    q = (errors / stds)^2. ``kkt_residual`` is the largest of |g_i| / p_i
    where sigma_i > 0 and max(-g_i, 0) / p_i where sigma_i = 0, so it is 0
    exactly when q_i = 1 on sigma_i > 0 and q_i <= 1 at sigma_i = 0.
    """
    a, p = state.alpha_for(y), state.kinv_diag
    g = grad_sigma(state, y)
    residual = np.where(state.sigma > 0.0, np.abs(g), np.maximum(-g, 0.0))
    return LoocvResult(errors=a / p, stds=1.0 / np.sqrt(p), kkt_residual=float(np.max(residual / p)))
