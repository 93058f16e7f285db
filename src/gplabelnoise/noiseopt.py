"""Per-label noise-variance optimization.

The workhorse is the multiplicative fixed-point scheme

    sigma_i  <-  sigma_i * (Ktilde^-1 y)_i^2 / (Ktilde^-1)_ii

whose fixed points with sigma_i > 0 are exactly the stationary points of the
marginal likelihood in sigma, and which preserves non-negativity for free. An
optional penalty lambda * ||sigma||_p^p enters through the denominator as
lambda * p * sigma_i^(p-1). The shared-variance (homoscedastic) model is the
same loop with every sigma_i tied to one value: summing numerator and
denominator over the labels gives sigma <- sigma * (a . a) / tr(Ktilde^-1).
A projected-gradient loop is kept as the baseline the multiplicative scheme
is measured against.

``joint_optimize`` wraps the sigma scheme in a block-coordinate descent that
also moves the kernel hyperparameters (L-BFGS-B in log space, with the
analytic gradient) and restarts from seeded random log-space
initializations. L-BFGS-B (Byrd, Lu, Nocedal and Zhu, 1995) runs as
``scipy.optimize.fmin_l_bfgs_b``, ``minimize``'s solver and defaults without
its per-call wrapper. Each block starts from the state the other block
fitted last, so no (theta, sigma) pair is factored twice in a row.

``optimize_sigma`` is the dataset-level entry point; the others
(``*_matrix``) take a precomputed kernel matrix so the schemes can run on
covariances that do not come from an RBF kernel, e.g. diagonal ones with a
closed-form solution.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from ._fanout import fan_out
from .data import Dataset
from .errors import ConfigError, InvalidInputError, NumericalError
from .gpr import GprState, _finite_nonnegative, _Refitter, fit_matrix, grad_sigma, grad_theta, loocv, nll
from .kernel import (
    KernelParams,
    _label_variance,
    build_kernel_matrix,
    heuristic_params,
    kernel_grad_theta,
    rbf_from_sq_dists,
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
    "optimize_sigma_uniform_matrix",
    "projected_gradient_baseline_matrix",
    "joint_optimize",
]

log = logging.getLogger(__name__)

# an objective increase below this, relative to the objective's magnitude
# where that exceeds 1, is attributed to roundoff, not the update (see _is_rise)
_MONOTONE_SLACK = 1e-10

# log theta beyond this box describes degenerate kernels (identity or
# constant) and overflows double precision; it bounds the theta search
_LOG_THETA_BOUND = 200.0
_THETA_MAX_STEPS = 20  # L-BFGS-B iterations per theta block
# log-space half-widths of the box around a theta block's start: the whole
# range first, then the shrinking boxes of the retries after failing trials
_THETA_BOX_HALFWIDTHS = (math.inf,) + tuple(2.0**-k for k in range(11))
_RESTART_SPREAD = 2.0  # log-space halfwidth of the box random restarts draw from


def _check_sigma_init(sigma_init) -> None:
    if sigma_init is not None and not (
        _finite_nonnegative(sigma_init) and np.all(np.asarray(sigma_init) > 0.0)
    ):
        raise ConfigError("sigma_init entries must be positive and finite")


def _check_count(name: str, value, least: int) -> None:
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


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
        _check_count("max_iters", self.max_iters, 1)
        # each check fails on NaN and on +-inf
        if not (_finite_nonnegative(self.tol_sigma) and _finite_nonnegative(self.tol_nll)):
            raise ConfigError("tolerances must be non-negative and finite")
        if not _finite_nonnegative(self.penalty_lambda):
            raise ConfigError("penalty_lambda must be non-negative and finite")
        if not (self.penalty_p >= 1.0 and _finite_nonnegative(self.penalty_p)):
            raise ConfigError(f"penalty_p must be >= 1 and finite, got {self.penalty_p}")
        _check_sigma_init(self.sigma_init)
        if self.zero_clip is not None and not _finite_nonnegative(self.zero_clip):
            raise ConfigError("zero_clip must be non-negative and finite")


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
        _check_count("max_iters", self.max_iters, 1)
        _check_count("max_halvings", self.max_halvings, 0)
        if not all(map(_finite_nonnegative, (self.tol_sigma, self.tol_nll, self.tol_grad))):
            raise ConfigError("tolerances must be non-negative and finite")
        if not (self.step_size > 0.0 and _finite_nonnegative(self.step_size)):
            raise ConfigError("step_size must be positive and finite")
        _check_sigma_init(self.sigma_init)


@dataclass(frozen=True)
class JointOptConfig:
    """Settings for block-coordinate descent over (sigma, theta). Each theta
    block runs at most 20 L-BFGS-B iterations; random restarts draw log theta
    within +-2 of the heuristic."""

    outer_rounds: int = 3
    restarts: int = 4
    restart_seed: int = 0

    def __post_init__(self):
        _check_count("outer_rounds", self.outer_rounds, 0)
        _check_count("restarts", self.restarts, 1)


@dataclass(frozen=True)
class OptTrace:
    """Per-iteration record of an optimization run.

    ``nll_per_iter`` has ``iters + 1`` entries (initial point included);
    ``func_evals_per_iter`` aligns with it, counting cumulative NLL
    evaluations including rejected line-search trials. ``monotone`` is true
    iff no recorded NLL step rose beyond round-off (1e-10, relative to the
    NLL where its magnitude exceeds 1). Under a penalty the NLL may rise by
    design; the loop itself watches the penalized objective.

    ``stop_reason`` says why the run ended: ``sigma_tol`` (relative sigma
    change below tolerance), ``nll_tol`` (NLL decrease below tolerance, or
    for the projected-gradient baseline no decrease left to find along the
    gradient), ``grad_tol`` (the projected-gradient baseline's KKT residual,
    ``loocv``'s ``kkt_residual``, at most its tolerance), ``nll_increase``
    (a step raised the objective, the NLL plus any penalty, beyond
    round-off) or ``max_iters``. ``converged`` is true for the first three.
    Only the loop's record is stored; ``iters``, ``converged``,
    ``monotone`` and the final values are read off it.
    """

    nll_per_iter: np.ndarray
    func_evals_per_iter: np.ndarray
    stop_reason: str

    @property
    def iters(self) -> int:
        return len(self.nll_per_iter) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("sigma_tol", "nll_tol", "grad_tol")

    @property
    def monotone(self) -> bool:
        steps = self.nll_per_iter.tolist()
        return not any(map(_is_rise, steps, steps[1:]))

    @property
    def final_nll(self) -> float:
        return float(self.nll_per_iter[-1])

    @property
    def func_evals(self) -> int:
        return int(self.func_evals_per_iter[-1])


def _is_rise(previous: float, value: float) -> bool:
    """Whether a step from ``previous`` to ``value`` raised the objective
    beyond round-off.

    The allowance is _MONOTONE_SLACK relative to the objective's magnitude
    (absolute below 1): at N=1000 the NLL is ~1e3 and evaluating it on
    row-permuted copies of one problem scatters it by ~1e-8, so an absolute
    1e-10 would call round-off a rise.
    """
    return value - previous > _MONOTONE_SLACK * max(1.0, abs(previous))


def _fixed_point_stop(
    rel: float, previous: float, value: float, config: MultUpdateConfig | PgdConfig
) -> str | None:
    """Stop reason after a step from objective ``previous`` to ``value``, or
    None to keep going.

    A rise beyond round-off is reported as such, never as convergence (an
    accepted projected-gradient step never rises).
    """
    if _is_rise(previous, value):
        return "nll_increase"
    if rel < config.tol_sigma:
        return "sigma_tol"
    if previous - value < config.tol_nll:
        return "nll_tol"
    return None


def _resolve_sigma_init(sigma_init, y: np.ndarray) -> np.ndarray:
    n = y.shape[0]
    if sigma_init is None:
        v = _label_variance(y)
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
        return 1e-12 * _label_variance(y)
    return float(zero_clip)


def _rel_change(new: np.ndarray, old: np.ndarray, scale: float) -> tuple[float, float]:
    """max|new - old| / max|old| (over 1 when old is all zero), and max|new|.

    ``scale`` is max|old|, which the step before returned as its max|new|.
    Noise vectors are non-negative, so max|new| is max(new).
    """
    diff = new - old
    rel = float(np.maximum.reduce(np.absolute(diff, out=diff))) / (scale or 1.0)
    return rel, float(np.maximum.reduce(new))


def mult_update_step(state: GprState, config: MultUpdateConfig) -> np.ndarray:
    """One multiplicative update of the noise vector held by ``state``, from
    its cached alpha = Kt^-1 y.

    Entries that land below the zero clip (by default from ``state.y``)
    come back as exact zeros and stay there on later steps. The state itself
    is not modified.
    """
    a = state.alpha
    denom = state.kinv_diag
    if config.penalty_lambda > 0.0:
        # p = 1 at sigma = 0 relies on 0**0 == 1, which numpy guarantees
        denom = denom + config.penalty_lambda * config.penalty_p * np.power(
            state.sigma, config.penalty_p - 1.0
        )
    new = state.sigma * (a * a) / denom
    new[new < _resolve_zero_clip(config.zero_clip, state.y)] = 0.0
    return new


def optimize_sigma_matrix(
    K: np.ndarray, y: np.ndarray, config: MultUpdateConfig | None = None
) -> tuple[np.ndarray, OptTrace]:
    """Run the multiplicative scheme on a precomputed kernel matrix."""
    config = config or MultUpdateConfig()
    K, y = np.asarray(K, dtype=float), np.asarray(y, dtype=float)
    # the start is an argument, not a local, so the loop can drop it
    sigma, trace, _ = _mult_loop(K, fit_matrix(K, _resolve_sigma_init(config.sigma_init, y), y), config)
    return sigma, trace


def _mult_loop(
    K: np.ndarray, state: GprState, config: MultUpdateConfig, step=None
) -> tuple[np.ndarray, OptTrace, GprState]:
    """The multiplicative scheme from ``state``, the caller's fit of K:
    final sigma, trace, last state.

    The start counts as one fit. Every later fit is a refit through one
    ``_Refitter`` of K and ``state.y``, so each step checks only its sigma
    and diag(K) + sigma. Every fit is of K itself, so the kernel that K
    came from stays with the caller. A step's state is dropped before the
    refit, so beside K the loop holds one factor and, while a step reads
    diag(Kt^-1), at most 3/4 of an N x N array of workspace (the start
    stays alive while the caller holds it). ``step`` replaces
    ``mult_update_step``, which is looked up per call so that a patched
    module attribute takes effect.
    """
    # unlike the public entry point, sigma may contain exact zeros here (warm
    # restarts inside the joint scheme); they are fixed points and stay put.
    # The zero clip is resolved once here instead of once per step.
    config = replace(config, zero_clip=_resolve_zero_clip(config.zero_clip, state.y))
    # The trace records the NLL; the stop rule watches the objective the
    # update minimizes, which a penalty adds to. Readers are given the
    # state's own copy of the labels, so they read its cached alpha.
    refit = _Refitter(K, state.y)
    sigma = state.sigma
    nlls, evals = [nll(state, state.y)], [1]
    objective = nlls[0] + _penalty(sigma, config)
    stop = "max_iters"
    step = step or mult_update_step
    scale = float(np.maximum.reduce(sigma))
    for _ in range(config.max_iters):
        new_sigma = step(state, config)
        rel, scale = _rel_change(new_sigma, sigma, scale)
        del state  # one factor alive at a time: this step's goes before the refit
        state = refit(new_sigma)
        value = nll(state, state.y)
        previous, objective = objective, value + _penalty(new_sigma, config)
        reason = _fixed_point_stop(rel, previous, objective, config)
        nlls.append(value)
        evals.append(evals[-1] + 1)
        sigma = new_sigma
        if reason is not None:
            stop = reason
            break
    return sigma, OptTrace(np.array(nlls), np.array(evals), stop), state


def optimize_sigma(
    params: KernelParams, data: Dataset, config: MultUpdateConfig | None = None
) -> tuple[np.ndarray, OptTrace]:
    """Multiplicative scheme on a dataset under an RBF kernel (labels centered)."""
    K = build_kernel_matrix(params, data.X)
    return optimize_sigma_matrix(K, data.y_centered, config)


def optimize_sigma_uniform_matrix(
    K: np.ndarray, y: np.ndarray, config: MultUpdateConfig | None = None
) -> tuple[np.ndarray, OptTrace]:
    """One shared noise variance: the multiplicative loop with every entry
    tied, sigma <- sigma * (a . a) / tr(Ktilde^-1). Returns the per-label
    vector, every entry the shared value."""
    config = config or MultUpdateConfig()
    if config.penalty_lambda > 0.0:
        raise ConfigError("the uniform model does not support a penalty")
    K, y = np.asarray(K, dtype=float), np.asarray(y, dtype=float)
    sigma = _resolve_sigma_init(config.sigma_init, y)
    if np.ptp(sigma) != 0.0:
        raise ConfigError("sigma_init for the uniform model must be a scalar")
    sigma, trace, _ = _mult_loop(K, fit_matrix(K, sigma, y), config, step=_tied_step)
    return sigma, trace


def _tied_step(state: GprState, config: MultUpdateConfig) -> np.ndarray:
    """The tied step: numerator and denominator of the per-label step summed
    over the labels, the zero clip applied, and the value broadcast to N."""
    a = state.alpha
    new = state.sigma[0] * float(a @ a) / float(np.sum(state.kinv_diag))
    return np.full(state.n, 0.0 if new < _resolve_zero_clip(config.zero_clip, state.y) else new)


def projected_gradient_baseline_matrix(
    K: np.ndarray, y: np.ndarray, config: PgdConfig | None = None
) -> tuple[np.ndarray, OptTrace]:
    """Projected gradient descent on sigma >= 0 with a backtracking step.

    The step size halves until the NLL does not increase and doubles after
    each accepted step. The start is a ``fit_matrix`` call and every trial
    a refit of K and the start's labels through one ``_Refitter``. Stops
    when the KKT residual of sigma >= 0 (the ``kkt_residual`` of ``loocv``)
    is at most ``tol_grad``, on sigma stalling, or on NLL stalling. Counts
    every NLL evaluation, rejected trials included, so runs are comparable
    with the multiplicative scheme's trace.
    """
    config = config or PgdConfig()
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = _resolve_sigma_init(config.sigma_init, y)

    state = fit_matrix(K, sigma, y)
    refit = _Refitter(K, state.y)
    value = nll(state, state.y)
    nlls = [value]
    evals_done = 1
    evals = [1]
    eta = config.step_size
    stop = "max_iters"
    scale = float(np.maximum.reduce(sigma))
    for _ in range(config.max_iters):
        if loocv(state, state.y).kkt_residual <= config.tol_grad:
            stop = "grad_tol"
            break
        g = grad_sigma(state, state.y)
        trial = eta
        accepted = False
        for _ in range(config.max_halvings + 1):
            cand = np.maximum(sigma - trial * g, 0.0)
            cand_state = refit(cand)
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
        rel, scale = _rel_change(cand, sigma, scale)
        reason = _fixed_point_stop(rel, value, cand_value, config)
        sigma, state, value = cand, cand_state, cand_value
        nlls.append(value)
        evals.append(evals_done)
        eta = trial * 2.0
        if reason is not None:
            stop = reason
            break
    return sigma, OptTrace(np.array(nlls), np.array(evals), stop)


def joint_optimize(
    data: Dataset,
    config: JointOptConfig | None = None,
    mult_config: MultUpdateConfig | None = None,
) -> tuple[KernelParams, np.ndarray, OptTrace]:
    """Block-coordinate descent over the noise vector and kernel parameters.

    Each restart runs the multiplicative scheme to convergence, then
    ``outer_rounds`` rounds of (L-BFGS-B on log-theta at fixed sigma, with
    the analytic gradient; multiplicative re-optimization warm-started from
    the current sigma). Each block starts from the state the other fitted
    last, and a theta block keeps its result only if the NLL did not rise.
    The trace has one entry per sigma step and per L-BFGS-B iteration that
    moved theta. Restart 0 starts at the data-driven heuristic (signal
    variance = var(y), length scale = median pairwise distance); the rest
    draw log-theta uniformly from a +-2 box around it in log space, seeded
    by restart_seed. The winner is the restart with the lowest final NLL,
    earliest index on ties; restarts that fail numerically are dropped, and
    only if all of them fail does the failure propagate.

    With one BLAS thread and more than one usable CPU on Linux, the
    restarts run in this process and forked copies of it (``_fanout``);
    each restart computes the same bytes either way. A copy that dies
    raises ``OSError``.
    """
    config = config or JointOptConfig()
    mult_config = mult_config or MultUpdateConfig()
    X, y = data.X, data.y_centered
    center = heuristic_params(X, data.y).log_vector()
    d2 = sq_dists(X)  # shared by every kernel matrix of every restart
    rng = make_rng(config.restart_seed)
    # restart 0 draws an offset too, and starts at the heuristic
    starts = [center + _RESTART_SPREAD * (2.0 * rng.random(2) - 1.0) for _ in range(config.restarts)]
    starts[0] = center

    def restart(log_theta: np.ndarray):
        try:
            return _joint_single_start(d2, y, log_theta, config, mult_config)
        except NumericalError as e:
            return e

    best = None
    failures: list[NumericalError] = []
    for r, result in enumerate(fan_out(restart, starts, "joint restart")):
        if isinstance(result, NumericalError):
            log.warning("joint restart %d failed: %s", r, result)
            failures.append(result)
        elif best is None or result[2].final_nll < best[2].final_nll:
            best = result
    if best is None:
        raise NumericalError(
            f"all {config.restarts} joint restarts failed numerically",
            smallest_pivot=failures[-1].smallest_pivot,
        )
    return best


def _joint_single_start(
    d2: np.ndarray,
    y: np.ndarray,
    log_theta: np.ndarray,
    config: JointOptConfig,
    mult_config: MultUpdateConfig,
) -> tuple[KernelParams, np.ndarray, OptTrace]:
    K = rbf_from_sq_dists(KernelParams.from_log(log_theta), d2)
    sigma = _resolve_sigma_init(mult_config.sigma_init, y)
    state = fit_matrix(K, sigma, y)
    nlls, evals = [nll(state, state.y)], [1]
    fits = 1  # every fit so far, theta trials after a block's last iteration included

    for round_ in range(config.outer_rounds + 1):
        if round_ > 0:
            log_theta, K, state, steps, trials = _theta_block(log_theta, K, state, d2)
            for value, n in steps:
                nlls.append(value)
                evals.append(fits + n)
            fits += trials
        # sigma's optimum moves with theta: run the scheme from the current
        # vector (its exact zeros are fixed points and simply stay)
        sigma, trace, state = _mult_loop(K, state, mult_config)
        nlls.extend(trace.nll_per_iter[1:])
        # the loop counts its start, a fit already counted here
        evals.extend(fits - 1 + trace.func_evals_per_iter[1:])
        fits = evals[-1]
        stop = trace.stop_reason

    return KernelParams.from_log(log_theta), sigma, OptTrace(np.array(nlls), np.array(evals), stop)


def _theta_block(
    log_theta: np.ndarray, K: np.ndarray, state: GprState, d2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, GprState, list[tuple[float, int]], int]:
    """L-BFGS-B on log theta from ``state``, the fit of (K, sigma) under
    ``log_theta``, at fixed sigma.

    Returns the log theta, K and state kept (the start unless the result's
    NLL is no higher), one (NLL, trials so far) pair per iteration that left
    the start, and the number of trials fitted (the result is refitted,
    uncounted, when it is not the latest trial). A trial is a ``fit_matrix``
    call given ``state.y``, which it shares rather than checks again. A
    trial whose fit fails is infinitely bad. L-BFGS-B's line search barely
    backs off from such a trial, so a run that met one and did not lower
    the NLL is repeated from the start inside a box of half-width 1 around
    it in log space, the box halved on each repeat, until a run lowers the
    NLL, meets no failing trial, or the half-width falls below 2**-10.
    """
    import scipy.optimize  # loaded by the first theta block, not with the package

    sigma, y = state.sigma, state.y
    start = nll(state, y)
    start_params = KernelParams.from_log(log_theta)
    # (NLL, gradient) of each fitted trial by its parameters (log theta
    # values a rounding apart give the same kernel), but the kernel and fit
    # of the latest trial only. The start is the caller's fit and L-BFGS-B's
    # first evaluation, so that refits nothing.
    evaluated = {start_params: (start, grad_theta(state, y, kernel_grad_theta(start_params, K, d2)))}
    latest = (start_params, K, state)
    steps: list[tuple[float, int]] = []

    def fit_at(params: KernelParams) -> tuple[np.ndarray, GprState]:
        nonlocal latest
        if latest[0] != params:
            trial_K = rbf_from_sq_dists(params, d2)
            latest = (params, trial_K, fit_matrix(trial_K, sigma, y))
        return latest[1:]

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal failed
        try:
            params = KernelParams.from_log(x)
            if params in evaluated:
                return evaluated[params]
            trial_K, trial = fit_at(params)
            value = nll(trial, trial.y)
        except (NumericalError, InvalidInputError):
            failed = True
            return math.inf, np.zeros_like(x)
        evaluated[params] = value, grad_theta(trial, trial.y, kernel_grad_theta(params, trial_K, d2))
        return evaluated[params]

    def record(x: np.ndarray) -> None:
        # called once per iteration, at an iterate already evaluated; also
        # after a first line search that failed, at the start, which adds no row
        params = KernelParams.from_log(x)
        if params != start_params:
            steps.append((evaluated[params][0], len(evaluated) - 1))

    for halfwidth in _THETA_BOX_HALFWIDTHS:
        failed = False
        steps.clear()  # a run that is repeated recorded only the start
        x = scipy.optimize.fmin_l_bfgs_b(
            objective,
            log_theta,
            bounds=list(zip(np.maximum(log_theta - halfwidth, -_LOG_THETA_BOUND),
                            np.minimum(log_theta + halfwidth, _LOG_THETA_BOUND))),
            maxiter=_THETA_MAX_STEPS,
            callback=record,
        )[0]
        kept = evaluated.get(KernelParams.from_log(x))
        if not failed or (kept is not None and kept[0] < start):
            break
    if kept is None or kept[0] > start:
        return log_theta, K, state, steps, len(evaluated) - 1
    return (x, *fit_at(KernelParams.from_log(x)), steps, len(evaluated) - 1)
