"""Per-label noise-variance optimization.

The workhorse is the multiplicative fixed-point scheme

    sigma_i  <-  sigma_i * (Ktilde^-1 y)_i^2 / (Ktilde^-1)_ii

whose fixed points with sigma_i > 0 are exactly the stationary points of the
marginal likelihood in sigma, and which preserves non-negativity for free. An
optional penalty lambda * ||sigma||_p^p enters through the denominator as
lambda * p * sigma_i^(p-1). A one-parameter variant updates a single shared
variance (the homoscedastic model), and a projected-gradient loop is kept as
the baseline the multiplicative scheme is measured against.

``joint_optimize`` wraps the sigma scheme in a block-coordinate descent that
also moves the kernel hyperparameters (in log space, with backtracking) and
restarts from seeded random log-space initializations.

Matrix-level entry points (``*_matrix``) take a precomputed kernel matrix so
the schemes can run on covariances that do not come from an RBF kernel, e.g.
diagonal ones with a closed-form solution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError, InvalidInputError, NumericalError
from .gpr import GprState, fit_matrix, grad_sigma, grad_theta, nll
from .kernel import (
    KernelParams,
    build_kernel_matrix,
    heuristic_params,
    rbf_from_sq_dists,
    rbf_grad_from_sq_dists,
    sq_dists,
)
from .rng import make_rng

__all__ = [
    "MultUpdateConfig",
    "PgdConfig",
    "JointOptConfig",
    "OptTrace",
    "mult_update_step",
    "optimize_sigma",
    "optimize_sigma_matrix",
    "optimize_sigma_uniform",
    "optimize_sigma_uniform_matrix",
    "diagonal_solution",
    "projected_gradient_baseline",
    "projected_gradient_baseline_matrix",
    "joint_optimize",
]

log = logging.getLogger(__name__)

# an objective increase below this, relative to the objective's magnitude
# where that exceeds 1, is attributed to roundoff, not the update (see _is_rise)
_MONOTONE_SLACK = 1e-10

# log-theta candidates beyond this box describe degenerate kernels (identity
# or constant) and overflow double precision; the line search rejects them
_LOG_THETA_BOUND = 200.0


@dataclass(frozen=True)
class MultUpdateConfig:
    """Settings for the multiplicative scheme.

    ``sigma_init`` may be a positive scalar, a positive vector, or None for
    the data-driven default 0.1 * var(y) (1.0 when the labels are constant).
    Zero is excluded: it is a fixed point of the update, so the scheme would
    never leave it. ``zero_clip`` snaps entries below a floor (default
    1e-12 * var(y)) to exactly 0, where they then stay.
    """

    max_iters: int = 10000
    tol_sigma: float = 1e-8
    tol_nll: float = 1e-10
    sigma_init: float | np.ndarray | None = None
    penalty_lambda: float = 0.0
    penalty_p: float = 1.0
    zero_clip: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol_sigma < 0.0 or self.tol_nll < 0.0:
            raise ConfigError("tolerances must be non-negative")
        if self.penalty_lambda < 0.0:
            raise ConfigError("penalty_lambda must be non-negative")
        if self.penalty_p < 1.0:
            raise ConfigError(f"penalty_p must be >= 1, got {self.penalty_p}")
        if self.sigma_init is not None and np.any(np.asarray(self.sigma_init) <= 0.0):
            raise ConfigError("sigma_init entries must be positive")
        if self.zero_clip is not None and self.zero_clip < 0.0:
            raise ConfigError("zero_clip must be non-negative")


@dataclass(frozen=True)
class PgdConfig:
    """Settings for the projected-gradient baseline."""

    max_iters: int = 5000
    tol_sigma: float = 1e-8
    tol_nll: float = 1e-10
    tol_grad: float = 1e-8
    sigma_init: float | np.ndarray | None = None
    step_size: float = 1.0
    max_halvings: int = 40

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if min(self.tol_sigma, self.tol_nll, self.tol_grad) < 0.0:
            raise ConfigError("tolerances must be non-negative")
        if self.step_size <= 0.0:
            raise ConfigError("step_size must be positive")
        if self.sigma_init is not None and np.any(np.asarray(self.sigma_init) <= 0.0):
            raise ConfigError("sigma_init entries must be positive")


@dataclass(frozen=True)
class JointOptConfig:
    """Settings for block-coordinate descent over (sigma, theta)."""

    outer_rounds: int = 3
    theta_lr: float = 0.1
    theta_max_steps: int = 20
    theta_max_halvings: int = 30
    restarts: int = 4
    restart_seed: int = 0
    restart_spread: float = 2.0  # log-space halfwidth around the heuristic center

    def __post_init__(self):
        if self.outer_rounds < 0:
            raise ConfigError("outer_rounds must be non-negative")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.theta_lr <= 0.0:
            raise ConfigError("theta_lr must be positive")
        if self.theta_max_steps < 0 or self.theta_max_halvings < 0:
            raise ConfigError("theta step limits must be non-negative")


@dataclass(frozen=True)
class OptTrace:
    """Per-iteration record of an optimization run.

    ``nll_per_iter`` has ``iters + 1`` entries (initial point included);
    ``sigma_change_per_iter`` and ``func_evals_per_iter`` align with it, the
    latter counting cumulative NLL evaluations including rejected line-search
    trials. ``monotone`` is true iff no recorded NLL step rose beyond
    round-off (1e-10, relative to the NLL where its magnitude exceeds 1).
    Under a penalty the NLL may rise by design; the loop itself watches the
    penalized objective.

    ``stop_reason`` says why the run ended: ``sigma_tol`` (relative sigma
    change below tolerance), ``nll_tol`` (NLL decrease below tolerance, or
    for the projected-gradient baseline no decrease left to find along the
    gradient), ``grad_tol`` (projected-gradient stationarity residual below
    tolerance), ``nll_increase`` (a step raised the objective, the NLL plus
    any penalty, beyond round-off) or ``max_iters``. ``converged`` is true
    for the first three.
    """

    nll_per_iter: np.ndarray
    sigma_change_per_iter: np.ndarray
    func_evals_per_iter: np.ndarray
    iters: int
    converged: bool
    monotone: bool
    stop_reason: str

    @property
    def final_nll(self) -> float:
        return float(self.nll_per_iter[-1])

    @property
    def func_evals(self) -> int:
        return int(self.func_evals_per_iter[-1])


_CONVERGED_REASONS = ("sigma_tol", "nll_tol", "grad_tol")


def _is_rise(previous: float, value: float) -> bool:
    """Whether a step from ``previous`` to ``value`` raised the objective
    beyond round-off.

    The allowance is _MONOTONE_SLACK relative to the objective's magnitude
    (absolute below 1): at N=1000 the NLL is ~1e3 and evaluating it on
    row-permuted copies of one problem scatters it by ~1e-8, so an absolute
    1e-10 would call round-off a rise.
    """
    return value - previous > _MONOTONE_SLACK * max(1.0, abs(previous))


def _make_trace(nlls, changes, evals, stop_reason: str) -> OptTrace:
    nlls = np.asarray(nlls, dtype=float)
    steps = nlls.tolist()
    return OptTrace(
        nll_per_iter=nlls,
        sigma_change_per_iter=np.asarray(changes, dtype=float),
        func_evals_per_iter=np.asarray(evals, dtype=int),
        iters=len(nlls) - 1,
        converged=stop_reason in _CONVERGED_REASONS,
        monotone=not any(map(_is_rise, steps, steps[1:])),
        stop_reason=stop_reason,
    )


def _fixed_point_stop(
    rel: float, previous: float, value: float, config: MultUpdateConfig
) -> str | None:
    """Stop reason after a fixed-point step from objective ``previous`` to
    ``value``, or None to keep going.

    A rise beyond round-off is reported as such, never as convergence.
    """
    if _is_rise(previous, value):
        return "nll_increase"
    if rel < config.tol_sigma:
        return "sigma_tol"
    if previous - value < config.tol_nll:
        return "nll_tol"
    return None


def _resolve_sigma_init(sigma_init, y: np.ndarray, n: int) -> np.ndarray:
    if sigma_init is None:
        v = float(np.var(y))
        return np.full(n, 0.1 * v if v > 0.0 else 1.0)
    arr = np.asarray(sigma_init, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ConfigError(f"sigma_init must be scalar or shape ({n},), got {arr.shape}")
    return arr.copy()


def _penalty(sigma: np.ndarray, config: MultUpdateConfig) -> float:
    """lambda * ||sigma||_p^p, the term the penalized update adds to the NLL."""
    if config.penalty_lambda == 0.0:
        return 0.0
    return config.penalty_lambda * float(np.sum(np.power(sigma, config.penalty_p)))


def _resolve_zero_clip(zero_clip, y: np.ndarray) -> float:
    if zero_clip is None:
        return 1e-12 * float(np.var(y))
    return float(zero_clip)


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    scale = float(np.abs(old).max())
    if scale == 0.0:
        scale = 1.0
    return float(np.abs(new - old).max()) / scale


def _refit(K: np.ndarray, sigma: np.ndarray, y: np.ndarray, iteration: int) -> GprState:
    try:
        return fit_matrix(K, sigma, y)
    except NumericalError as e:
        raise NumericalError(str(e.args[0]), smallest_pivot=e.smallest_pivot, iteration=iteration) from e


def mult_update_step(state: GprState, y: np.ndarray, config: MultUpdateConfig) -> np.ndarray:
    """One multiplicative update of the noise vector held by ``state``.

    Entries that land below the zero clip come back as exact zeros and stay
    there on later steps. The state itself is not modified.
    """
    a = state.alpha_for(y)
    denom = state.kinv_diag
    if config.penalty_lambda > 0.0:
        # p = 1 at sigma = 0 relies on 0**0 == 1, which numpy guarantees
        denom = denom + config.penalty_lambda * config.penalty_p * np.power(
            state.sigma, config.penalty_p - 1.0
        )
    new = state.sigma * (a * a) / denom
    new[new < _resolve_zero_clip(config.zero_clip, y)] = 0.0
    return new


def optimize_sigma_matrix(
    K: np.ndarray, y: np.ndarray, config: MultUpdateConfig | None = None
) -> tuple[np.ndarray, OptTrace]:
    """Run the multiplicative scheme on a precomputed kernel matrix."""
    config = config or MultUpdateConfig()
    y = np.asarray(y, dtype=float)
    sigma = _resolve_sigma_init(config.sigma_init, y, y.shape[0])
    return _mult_loop(np.asarray(K, dtype=float), y, sigma, config)


def _mult_loop(
    K: np.ndarray, y: np.ndarray, sigma: np.ndarray, config: MultUpdateConfig
) -> tuple[np.ndarray, OptTrace]:
    # unlike the public entry point, sigma may contain exact zeros here (warm
    # restarts inside the joint scheme); they are fixed points and stay put.
    # The zero clip is resolved once here instead of once per step.
    config = replace(config, zero_clip=_resolve_zero_clip(config.zero_clip, y))
    # The trace records the NLL; the stop rule watches the objective the
    # update minimizes, which a penalty adds to. Readers are given the
    # state's own copy of the labels, so they read its cached alpha.
    state = _refit(K, sigma, y, iteration=0)
    nlls = [nll(state, state.y)]
    objective = nlls[0] + _penalty(sigma, config)
    changes = [0.0]
    evals = [1]
    stop = "max_iters"
    for t in range(1, config.max_iters + 1):
        new_sigma = mult_update_step(state, state.y, config)
        rel = _rel_change(new_sigma, sigma)
        state = _refit(K, new_sigma, y, iteration=t)
        value = nll(state, state.y)
        previous, objective = objective, value + _penalty(new_sigma, config)
        reason = _fixed_point_stop(rel, previous, objective, config)
        nlls.append(value)
        changes.append(rel)
        evals.append(evals[-1] + 1)
        sigma = new_sigma
        if reason is not None:
            stop = reason
            break
    return sigma, _make_trace(nlls, changes, evals, stop)


def optimize_sigma(
    params: KernelParams, data: Dataset, config: MultUpdateConfig | None = None
) -> tuple[np.ndarray, OptTrace]:
    """Multiplicative scheme on a dataset under an RBF kernel (labels centered)."""
    K = build_kernel_matrix(params, data.X)
    return optimize_sigma_matrix(K, data.y_centered, config)


def optimize_sigma_uniform_matrix(
    K: np.ndarray, y: np.ndarray, config: MultUpdateConfig | None = None
) -> tuple[float, OptTrace]:
    """One shared noise variance: sigma <- sigma * (a . a) / tr(Ktilde^-1)."""
    config = config or MultUpdateConfig()
    if config.penalty_lambda > 0.0:
        raise ConfigError("the uniform model does not support a penalty")
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    init = _resolve_sigma_init(config.sigma_init, y, n)
    if np.ptp(init) != 0.0:
        raise ConfigError("sigma_init for the uniform model must be a scalar")
    sigma = float(init[0])
    clip = _resolve_zero_clip(config.zero_clip, y)

    state = _refit(K, np.full(n, sigma), y, iteration=0)
    nlls = [nll(state, state.y)]
    changes = [0.0]
    evals = [1]
    stop = "max_iters"
    for t in range(1, config.max_iters + 1):
        a = state.alpha
        new_sigma = sigma * float(a @ a) / float(np.sum(state.kinv_diag))
        if new_sigma < clip:
            new_sigma = 0.0
        rel = abs(new_sigma - sigma) / (abs(sigma) if sigma != 0.0 else 1.0)
        state = _refit(K, np.full(n, new_sigma), y, iteration=t)
        value = nll(state, state.y)
        reason = _fixed_point_stop(rel, nlls[-1], value, config)
        nlls.append(value)
        changes.append(rel)
        evals.append(evals[-1] + 1)
        sigma = new_sigma
        if reason is not None:
            stop = reason
            break
    return sigma, _make_trace(nlls, changes, evals, stop)


def optimize_sigma_uniform(
    params: KernelParams, data: Dataset, config: MultUpdateConfig | None = None
) -> tuple[float, OptTrace]:
    K = build_kernel_matrix(params, data.X)
    return optimize_sigma_uniform_matrix(K, data.y_centered, config)


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


def projected_gradient_baseline_matrix(
    K: np.ndarray, y: np.ndarray, config: PgdConfig | None = None
) -> tuple[np.ndarray, OptTrace]:
    """Projected gradient descent on sigma >= 0 with a backtracking step.

    The step size halves until the NLL does not increase and doubles after
    each accepted step. Stops on the scale-free stationarity residual
    (|grad_i| where sigma_i > 0, max(-grad_i, 0) at the boundary, measured
    relative to (Ktilde^-1)_ii), on sigma stalling, or on NLL stalling.
    Counts every NLL evaluation, rejected trials included, so runs are
    comparable with the multiplicative scheme's trace.
    """
    config = config or PgdConfig()
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = _resolve_sigma_init(config.sigma_init, y, y.shape[0])

    state = _refit(K, sigma, y, iteration=0)
    value = nll(state, state.y)
    nlls = [value]
    changes = [0.0]
    evals_done = 1
    evals = [1]
    eta = config.step_size
    stop = "max_iters"
    for t in range(1, config.max_iters + 1):
        g = grad_sigma(state, state.y)
        residual = np.where(sigma > 0.0, np.abs(g), np.maximum(-g, 0.0))
        if float(np.max(residual / state.kinv_diag)) <= config.tol_grad:
            stop = "grad_tol"
            break
        trial = eta
        accepted = False
        for _ in range(config.max_halvings + 1):
            cand = np.maximum(sigma - trial * g, 0.0)
            cand_state = _refit(K, cand, y, iteration=t)
            cand_value = nll(cand_state, cand_state.y)
            evals_done += 1
            if cand_value <= value:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            # no decrease at ~1e-12 of the base step: we are at the roundoff
            # floor of the objective, which is as converged as it gets
            stop = "nll_tol"
            break
        rel = _rel_change(cand, sigma)
        decrease = value - cand_value
        sigma, state, value = cand, cand_state, cand_value
        nlls.append(value)
        changes.append(rel)
        evals.append(evals_done)
        eta = trial * 2.0
        if rel < config.tol_sigma:
            stop = "sigma_tol"
            break
        if decrease < config.tol_nll:
            stop = "nll_tol"
            break
    return sigma, _make_trace(nlls, changes, evals, stop)


def projected_gradient_baseline(
    params: KernelParams, data: Dataset, config: PgdConfig | None = None
) -> tuple[np.ndarray, OptTrace]:
    K = build_kernel_matrix(params, data.X)
    return projected_gradient_baseline_matrix(K, data.y_centered, config)


def joint_optimize(
    data: Dataset,
    config: JointOptConfig | None = None,
    mult_config: MultUpdateConfig | None = None,
) -> tuple[KernelParams, np.ndarray, OptTrace]:
    """Block-coordinate descent over the noise vector and kernel parameters.

    Each restart runs the multiplicative scheme to convergence, then
    ``outer_rounds`` rounds of (backtracking gradient steps on log-theta at
    fixed sigma, multiplicative re-optimization warm-started from the current
    sigma). Restart 0 starts at the data-driven heuristic (signal variance =
    var(y), length scale = median pairwise distance); the rest draw log-theta
    uniformly from a +-restart_spread box around it, seeded by restart_seed.
    The winner is the restart with the lowest final NLL, earliest index on
    ties; restarts that fail numerically are dropped, and only if all of them
    fail does the failure propagate.
    """
    config = config or JointOptConfig()
    mult_config = mult_config or MultUpdateConfig()
    X, y = data.X, data.y_centered
    center = heuristic_params(X, data.y).log_vector()
    d2 = sq_dists(X)  # shared by every kernel matrix of every restart
    rng = make_rng(config.restart_seed)

    best = None
    failures: list[NumericalError] = []
    for r in range(config.restarts):
        offset = config.restart_spread * (2.0 * rng.random(2) - 1.0)
        log_theta = center if r == 0 else center + offset
        try:
            result = _joint_single_start(X, d2, y, log_theta, config, mult_config)
        except NumericalError as e:
            log.warning("joint restart %d failed: %s", r, e)
            failures.append(e)
            continue
        if best is None or result[2].final_nll < best[2].final_nll:
            best = result
    if best is None:
        raise NumericalError(
            f"all {config.restarts} joint restarts failed numerically",
            smallest_pivot=failures[-1].smallest_pivot,
            iteration=failures[-1].iteration,
        )
    return best


def _joint_single_start(
    X: np.ndarray,
    d2: np.ndarray,
    y: np.ndarray,
    log_theta: np.ndarray,
    config: JointOptConfig,
    mult_config: MultUpdateConfig,
) -> tuple[KernelParams, np.ndarray, OptTrace]:
    params = KernelParams.from_log(log_theta)
    K = rbf_from_sq_dists(params, d2)
    sigma, trace = optimize_sigma_matrix(K, y, mult_config)
    nlls = list(trace.nll_per_iter)
    changes = list(trace.sigma_change_per_iter)
    evals = list(trace.func_evals_per_iter)
    stop = trace.stop_reason

    for _ in range(config.outer_rounds):
        state = fit_matrix(K, sigma, y, params=params, X=X)
        value = nll(state, state.y)
        for _ in range(config.theta_max_steps):
            g = grad_theta(state, state.y, rbf_grad_from_sq_dists(params, K, d2))
            if float(np.max(np.abs(g))) <= 1e-10:
                break
            log_theta = params.log_vector()
            lr = config.theta_lr
            accepted = False
            # a trial is read only for its NLL, so a rejected one never
            # inverts its factor
            for _ in range(config.theta_max_halvings + 1):
                cand_log = log_theta - lr * g
                if float(np.max(np.abs(cand_log))) > _LOG_THETA_BOUND:
                    lr *= 0.5
                    continue
                try:
                    cand_params = KernelParams.from_log(cand_log)
                    cand_K = rbf_from_sq_dists(cand_params, d2)
                    cand_state = fit_matrix(cand_K, sigma, y, params=cand_params, X=X)
                except (NumericalError, InvalidInputError):
                    lr *= 0.5
                    continue
                cand_value = nll(cand_state, cand_state.y)
                evals.append(evals[-1] + 1)
                if cand_value <= value:
                    params, K, state, value = cand_params, cand_K, cand_state, cand_value
                    nlls.append(value)
                    changes.append(0.0)
                    accepted = True
                    break
                lr *= 0.5
            if not accepted:
                break
        # theta moved, so sigma's optimum moved: re-run from the current
        # vector (its exact zeros are fixed points and simply stay)
        sigma, trace = _mult_loop(K, y, sigma, mult_config)
        offset = evals[-1]
        nlls.extend(trace.nll_per_iter[1:])
        changes.extend(trace.sigma_change_per_iter[1:])
        evals.extend(offset + trace.func_evals_per_iter[1:])
        stop = trace.stop_reason

    return params, sigma, _make_trace(nlls, changes, evals, stop)
