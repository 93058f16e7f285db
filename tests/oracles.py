"""Reference implementations the tests check the library against.

Each is the direct formula for something the library computes another way:
one kernel entry, all squared distances in one expression, the full-matrix
sigma gradient, the closed-form noise optimum for a diagonal kernel, a
fit from inputs instead of a kernel matrix, the two sigma loops with one
``fit_matrix`` call per fit, and L-BFGS-B through ``scipy.optimize.minimize``.
None is read by the library itself.
"""

from dataclasses import replace

import numpy as np
import scipy.optimize

from gplabelnoise import (
    GprState,
    InvalidInputError,
    KernelParams,
    MultUpdateConfig,
    OptTrace,
    PgdConfig,
    build_kernel_matrix,
    fit_matrix,
    grad_sigma,
    loocv,
    mult_update_step,
    nll,
)
from gplabelnoise import gpr, noiseopt


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


def rel_change(new, old) -> float:
    """max|new - old| / max|old|, over 1 when old is all zero."""
    scale = float(np.max(np.abs(old)))
    return float(np.max(np.abs(new - old))) / (scale if scale != 0.0 else 1.0)


def mult_loop(K, y, config: MultUpdateConfig, step=mult_update_step):
    """The multiplicative scheme from ``config``'s start, as ``_mult_loop``
    ran it with a ``fit_matrix`` call per step: final sigma, trace, and the
    jitter of every fit."""
    config = replace(config, zero_clip=noiseopt._resolve_zero_clip(config.zero_clip, y))
    sigma = noiseopt._resolve_sigma_init(config.sigma_init, y)
    state = fit_matrix(K, sigma, y)
    nlls, jitters = [nll(state, y)], [state.jitter]
    objective = nlls[0] + noiseopt._penalty(sigma, config)
    stop = "max_iters"
    for _ in range(config.max_iters):
        new_sigma = step(state, config)
        rel = rel_change(new_sigma, sigma)
        state = fit_matrix(K, new_sigma, y)
        nlls.append(nll(state, y))
        jitters.append(state.jitter)
        previous, objective = objective, nlls[-1] + noiseopt._penalty(new_sigma, config)
        sigma = new_sigma
        reason = noiseopt._fixed_point_stop(rel, previous, objective, config)
        if reason is not None:
            stop = reason
            break
    return sigma, OptTrace(np.array(nlls), np.arange(1, len(nlls) + 1), stop), jitters


def projected_gradient(K, y, config: PgdConfig):
    """The projected-gradient baseline with a ``fit_matrix`` call per trial:
    final sigma and trace."""
    sigma = noiseopt._resolve_sigma_init(config.sigma_init, y)
    state = fit_matrix(K, sigma, y)
    value = nll(state, y)
    nlls, evals, evals_done = [value], [1], 1
    eta, stop = config.step_size, "max_iters"
    for _ in range(config.max_iters):
        if loocv(state, y).kkt_residual <= config.tol_grad:
            stop = "grad_tol"
            break
        g, trial = grad_sigma(state, y), eta
        for _ in range(config.max_halvings + 1):
            cand = np.maximum(sigma - trial * g, 0.0)
            cand_state = fit_matrix(K, cand, y)
            cand_value = nll(cand_state, y)
            evals_done += 1
            if cand_value <= value:
                break
            trial *= 0.5
        else:
            stop = "nll_tol"
            break
        reason = noiseopt._fixed_point_stop(rel_change(cand, sigma), value, cand_value, config)
        sigma, state, value = cand, cand_state, cand_value
        nlls.append(value)
        evals.append(evals_done)
        eta = trial * 2.0
        if reason is not None:
            stop = reason
            break
    return sigma, OptTrace(np.array(nlls), np.array(evals), stop)


def lbfgsb_by_minimize(func, x0, bounds, maxiter, callback):
    """``scipy.optimize.fmin_l_bfgs_b`` for an objective that returns its
    gradient, with the arguments a theta block passes, run as
    ``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` with 20
    iterations and minimize's own defaults for everything else."""
    assert maxiter == 20
    res = scipy.optimize.minimize(func, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                                  options={"maxiter": 20}, callback=callback)
    return res.x, res.fun, {"grad": res.jac, "task": res.message, "funcalls": res.nfev,
                            "nit": res.nit, "warnflag": res.status}
