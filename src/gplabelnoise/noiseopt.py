"""Per-label noise-variance optimization.

The workhorse is the multiplicative fixed-point scheme

    sigma_i  <-  sigma_i * (Ktilde^-1 y)_i^2 / (Ktilde^-1)_ii

whose fixed points with sigma_i > 0 are exactly the stationary points of the
marginal likelihood in sigma, and which preserves non-negativity for free. An
optional penalty lambda * ||sigma||_p^p enters through the denominator as
lambda * p * sigma_i^(p-1). The shared-variance (homoscedastic) model is the
same loop with every sigma_i tied to one value: summing numerator and
denominator over the labels gives sigma <- sigma * (a . a) / tr(Ktilde^-1).
Projected gradient with backtracking is kept as the baseline the
multiplicative scheme is measured against. The three steps are proposals to
one driver, ``_drive``, which owns the refits, their count, the trace and
the stop test.

``joint_optimize`` wraps the sigma scheme in a block-coordinate descent that
also moves the kernel hyperparameters (L-BFGS-B in log space, with the
analytic gradient) and restarts from seeded random log-space
initializations. L-BFGS-B (Byrd, Lu, Nocedal and Zhu, 1995) is SciPy's
compiled ``setulb``, driven by ``_lbfgsb`` with ``fmin_l_bfgs_b``'s loop
and defaults, so its iterates are bitwise those of ``fmin_l_bfgs_b`` and
the ``scipy.optimize`` package is never imported. Each block starts from
the state the other block fitted last, so no (theta, sigma) pair is
factored twice in a row, and appends its rows to the restart's one trace.

``optimize_sigma`` is the dataset-level entry point; the others
(``*_matrix``) take a precomputed kernel matrix so the schemes can run on
covariances that do not come from an RBF kernel, e.g. diagonal ones with a
closed-form solution.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError, InvalidInputError, NumericalError
from .gpr import GprState, _compiled, _finite_nonnegative, _Refitter, fit_matrix, grad_sigma, grad_theta, loocv, nll
from .kernel import (
    KernelParams,
    _label_variance,
    build_kernel_matrix,
    heuristic_params,
    kernel_grad_theta,
    rbf_from_sq_dists,
    sq_dists,
)
from .rng import _check_count, _check_seed, make_rng

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
_RESTART_SPREAD = 2.0  # log-space halfwidth of the box random restarts draw from


def _check_sigma_init(sigma_init) -> None:
    if sigma_init is not None and not (
        _finite_nonnegative(sigma_init) and np.all(np.asarray(sigma_init) > 0.0)
    ):
        raise ConfigError("sigma_init entries must be positive and finite")


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
        _check_seed(self.restart_seed)


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


def _penalty(sigma: np.ndarray, config: MultUpdateConfig | PgdConfig) -> float:
    """lambda * ||sigma||_p^p, the term the penalized update adds to the NLL
    (none for the projected-gradient baseline)."""
    if getattr(config, "penalty_lambda", 0.0) == 0.0:
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
    # the start is an argument, not a local, so the driver can drop it
    sigma, trace, _ = _drive(K, fit_matrix(K, _resolve_sigma_init(config.sigma_init, y), y), config,
                             mult_update_step)
    return sigma, trace


class _Record:
    """A trace being written: its NLL rows, the fits counted at each row,
    and every fit counted so far (trials after the last row included). The
    first row is a start, counted as one fit."""

    def __init__(self, start_nll: float):
        self.nlls, self.evals, self.fits = [start_nll], [1], 1

    def row(self, value: float) -> None:
        self.nlls.append(value)
        self.evals.append(self.fits)


def _drive(K: np.ndarray, state: GprState, config: MultUpdateConfig | PgdConfig, propose,
           record: _Record | None = None) -> tuple[np.ndarray, OptTrace, GprState | None]:
    """The sigma method ``propose`` from ``state``, the caller's fit of K:
    final sigma, trace, last state.

    ``propose(state, config)`` returns a stop reason, the sigma of a step
    that is always taken (a map, such as ``mult_update_step``), or an
    iterator of candidate sigmas, of which the first whose objective is no
    higher than the current one is taken; when none is, the run stops with
    ``nll_tol`` and the last state is None. The driver owns the rest. The
    trace continues ``record``, or starts a new one at ``state``. Every
    candidate is a counted refit through one ``_Refitter`` of K and
    ``state.y``, so each checks only its sigma and diag(K) + sigma, and the
    kernel that K came from stays with the caller. The objective is the NLL
    plus any penalty, and ``_fixed_point_stop`` ends the run. A state is
    dropped before the next refit, whether it is the current one or a
    rejected trial's, so beside K the loop holds one factor and, while a
    proposal reads diag(Kt^-1), at most 3/4 of an N x N array of workspace
    (the start stays alive while the caller holds it).
    """
    if isinstance(config, MultUpdateConfig):
        # sigma may contain exact zeros here (warm restarts inside the joint
        # scheme); they are fixed points and stay put. The zero clip is
        # resolved once here instead of once per step.
        config = replace(config, zero_clip=_resolve_zero_clip(config.zero_clip, state.y))
    # Readers are given the state's own copy of the labels, so they read
    # its cached alpha.
    refit = _Refitter(K, state.y)
    sigma = state.sigma
    value = nll(state, state.y)
    if record is None:
        record = _Record(value)
    objective = value + _penalty(sigma, config)
    scale = float(np.maximum.reduce(sigma))
    stop = "max_iters"
    for _ in range(config.max_iters):
        proposal = propose(state, config)
        if isinstance(proposal, str):
            stop = proposal
            break
        descent = not isinstance(proposal, np.ndarray)
        for candidate in proposal if descent else (proposal,):
            state = None  # one factor alive at a time: the last one goes before the refit
            state = refit(candidate)
            record.fits += 1
            value = nll(state, state.y)
            new_objective = value + _penalty(candidate, config)
            if not descent or new_objective <= objective:
                break
        else:
            # every candidate raised the objective: at its round-off floor,
            # which is as converged as it gets
            stop, state = "nll_tol", None
            break
        rel, scale = _rel_change(candidate, sigma, scale)
        reason = _fixed_point_stop(rel, objective, new_objective, config)
        record.row(value)
        sigma, objective = candidate, new_objective
        if reason is not None:
            stop = reason
            break
    return sigma, OptTrace(np.array(record.nlls), np.array(record.evals), stop), state


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
    sigma, trace, _ = _drive(K, fit_matrix(K, sigma, y), config, _tied_step)
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
    K, y = np.asarray(K, dtype=float), np.asarray(y, dtype=float)
    eta = config.step_size

    def propose(state: GprState, config: PgdConfig):
        if loocv(state, state.y).kkt_residual <= config.tol_grad:
            return "grad_tol"
        return halvings(state.sigma, grad_sigma(state, state.y))

    def halvings(sigma: np.ndarray, g: np.ndarray):
        nonlocal eta
        trial = eta
        for _ in range(config.max_halvings + 1):
            eta = trial * 2.0  # the next step's size, should this trial be taken
            yield np.maximum(sigma - trial * g, 0.0)
            trial *= 0.5

    sigma, trace, _ = _drive(K, fit_matrix(K, _resolve_sigma_init(config.sigma_init, y), y), config, propose)
    return sigma, trace


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

    best = None
    failures: list[NumericalError] = []
    for r, log_theta in enumerate(starts):
        try:
            result = _joint_single_start(d2, y, log_theta, config, mult_config)
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
    state = fit_matrix(K, _resolve_sigma_init(mult_config.sigma_init, y), y)
    record = _Record(nll(state, state.y))
    for round_ in range(config.outer_rounds + 1):
        if round_ > 0:
            log_theta, K, state = _theta_block(log_theta, K, state, d2, record)
        # sigma's optimum moves with theta: run the scheme from the current
        # vector (its exact zeros are fixed points and simply stay)
        sigma, trace, state = _drive(K, state, mult_config, mult_update_step, record)
    return KernelParams.from_log(log_theta), sigma, trace


def _theta_block(
    log_theta: np.ndarray, K: np.ndarray, state: GprState, d2: np.ndarray, record: _Record
) -> tuple[np.ndarray, np.ndarray, GprState]:
    """One L-BFGS-B run on log theta inside +-``_LOG_THETA_BOUND``, from
    ``state``, the fit of (K, sigma) under ``log_theta``, at fixed sigma.

    Returns the log theta, K and state kept: the run's result if it was
    evaluated and its NLL is no higher than the start's, else the caller's
    own objects. Appends to ``record`` one row per iteration that left the
    start and counts every trial fitted in it (the result is refitted,
    uncounted, when it is not the latest trial). A trial refits its own
    kernel with ``state.y`` and checks only sigma, as a sigma step does: a
    kernel of checked distances with log parameters inside the box is
    finite, in [0, e**200]. A trial whose fit fails is infinitely bad and
    not counted.
    """
    sigma, y = state.sigma, state.y
    start = nll(state, y)
    start_params = KernelParams.from_log(log_theta)
    # (NLL, gradient) of each fitted trial by its parameters (log theta
    # values a rounding apart give the same kernel), but the kernel and fit
    # of the latest trial only. The start is the caller's fit and L-BFGS-B's
    # first evaluation, so that refits nothing.
    evaluated = {start_params: (start, grad_theta(state, y, kernel_grad_theta(start_params, K, d2)))}
    latest = (start_params, K, state)

    def fit_at(params: KernelParams) -> tuple[np.ndarray, GprState]:
        nonlocal latest
        if latest[0] != params:
            trial_K = rbf_from_sq_dists(params, d2)
            latest = (params, trial_K, _Refitter(trial_K, y)(sigma))
        return latest[1:]

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            params = KernelParams.from_log(x)
            if params in evaluated:
                return evaluated[params]
            trial_K, trial = fit_at(params)
            value = nll(trial, trial.y)
        except (NumericalError, InvalidInputError):
            return math.inf, np.zeros_like(x)
        evaluated[params] = value, grad_theta(trial, trial.y, kernel_grad_theta(params, trial_K, d2))
        record.fits += 1
        return evaluated[params]

    def on_iteration(x: np.ndarray) -> None:
        # called once per iteration, at an iterate already evaluated; also
        # after a first line search that failed, at the start, which adds no row
        params = KernelParams.from_log(x)
        if params != start_params:
            record.row(evaluated[params][0])

    bound = np.full(len(log_theta), _LOG_THETA_BOUND)
    x = _lbfgsb(objective, log_theta, -bound, bound, _THETA_MAX_STEPS, on_iteration)
    kept = evaluated.get(KernelParams.from_log(x))
    if kept is None or kept[0] > start:
        return log_theta, K, state
    return (x, *fit_at(KernelParams.from_log(x)))


def _lbfgsb(fun, x0, lower, upper, maxiter, callback) -> np.ndarray:
    """L-BFGS-B on ``fun`` (returning value and gradient) from ``x0`` within
    the finite box [lower, upper]: SciPy's compiled ``setulb`` in the
    reverse-communication loop of ``fmin_l_bfgs_b``, with that function's
    defaults (10 corrections, factr 1e7, pgtol 1e-5, 20 line-search steps).

    ``fun`` is called at x0 clipped into the box, then at each point
    ``setulb`` asks for that differs from the last one evaluated;
    ``callback`` gets a copy of each iterate. The run stops after
    ``maxiter`` iterations, or when ``setulb`` stops. Returns the last x.
    """
    setulb = _compiled("optimize", "_lbfgsb").setulb
    n, m = len(x0), 10
    x = np.clip(x0, lower, upper)
    nbd = np.full(n, 2, np.int32)  # bounded below and above
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    last = x.copy()
    f, g = fun(last)
    iters = 0
    while True:
        # setulb gets a copy: g may be an array fun keeps
        setulb(m, x, lower, upper, nbd, f, np.array(g, np.float64), 1e7, 1e-5,
               wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # f and g wanted at x
            if not np.array_equal(x, last):
                last = x.copy()
                f, g = fun(last)
        elif task[0] == 1:  # a new iterate
            iters += 1
            callback(x.copy())
            if iters >= maxiter:
                task[:] = 5, 504
        else:
            return x
