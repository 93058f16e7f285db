"""Tests for noise-vector optimization: multiplicative updates, the uniform
variant, the projected-gradient baseline, and joint hyperparameter search."""

import json
import math
import os

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from gplabelnoise import (
    ConfigError,
    InvalidInputError,
    JointOptConfig,
    KernelParams,
    MultUpdateConfig,
    NoiseInjectionSpec,
    NumericalError,
    OptTrace,
    PgdConfig,
    build_kernel_matrix,
    fit_matrix,
    gen_example1,
    gen_gp,
    grad_theta,
    heuristic_params,
    inject_noise,
    joint_optimize,
    kernel_grad_theta,
    make_dataset,
    mult_update_step,
    optimize_sigma,
    optimize_sigma_matrix,
    optimize_sigma_uniform_matrix,
    projected_gradient_baseline_matrix,
    sq_dists,
    write_dataset,
)
from gplabelnoise import cli, gpr, kernel, noiseopt
from gplabelnoise.rng import make_rng, normals
from memtrace import peak_nn
import oracles
from oracles import diagonal_solution

# configurations tight enough to chase hand-checkable fixed points to high
# precision; the defaults stop earlier, at practically useful accuracy
TIGHT_MULT = MultUpdateConfig(tol_sigma=1e-12, tol_nll=0.0)
TIGHT_PGD = PgdConfig(tol_sigma=1e-14, tol_nll=0.0, tol_grad=1e-12)

# ---------------------------------------------------------------------------
# single multiplicative step
# ---------------------------------------------------------------------------


class TestMultUpdateStep:
    """One update on one-point problems where the arithmetic is by hand."""

    def _state(self, k, sigma, y):
        return fit_matrix(np.array([[k]]), np.array([sigma]), np.array([y]))

    def test_step_from_one_doubles(self):
        # k=1, sigma=1, y=2: alpha = 2/2, diag = 1/2  ->  1 * (1^2) / (1/2) = 2
        state = self._state(1.0, 1.0, 2.0)
        new = mult_update_step(state, MultUpdateConfig(zero_clip=0.0))
        assert new[0] == pytest.approx(2.0, rel=1e-12)

    def test_stationary_at_diagonal_solution(self):
        # sigma = y^2 - k = 3 is a fixed point
        state = self._state(1.0, 3.0, 2.0)
        new = mult_update_step(state, MultUpdateConfig(zero_clip=0.0))
        assert new[0] == pytest.approx(3.0, rel=1e-12)

    def test_penalty_shifts_the_fixed_point(self):
        # with lambda=1/2, p=1 the denominator at sigma=1 doubles: 1 stays put
        state = self._state(1.0, 1.0, 2.0)
        config = MultUpdateConfig(penalty_lambda=0.5, penalty_p=1.0, zero_clip=0.0)
        new = mult_update_step(state, config)
        assert new[0] == pytest.approx(1.0, rel=1e-12)


RANGE_CHECKED_SETTINGS = pytest.mark.parametrize(
    "config, field",
    [(MultUpdateConfig, f) for f in
     ("tol_sigma", "tol_nll", "penalty_lambda", "penalty_p", "zero_clip", "sigma_init")]
    + [(PgdConfig, f) for f in ("tol_sigma", "tol_nll", "tol_grad", "step_size", "sigma_init")],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)


@RANGE_CHECKED_SETTINGS
def test_nan_setting_rejected(config, field):
    # each range check fails on NaN, which passes no comparison
    with pytest.raises(ConfigError):
        config(**{field: float("nan")})


@RANGE_CHECKED_SETTINGS
@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
def test_infinite_setting_rejected(config, field, value):
    # a setting is finite wherever it is range-checked: an infinite one
    # would land in a report as Infinity, which is not JSON
    with pytest.raises(ConfigError):
        config(**{field: value})
    if field == "sigma_init":
        with pytest.raises(ConfigError):
            config(sigma_init=np.array([1.0, value]))


@pytest.mark.parametrize(
    "config, field, least",
    [(MultUpdateConfig, "max_iters", 1), (PgdConfig, "max_iters", 1), (PgdConfig, "max_halvings", 0),
     (JointOptConfig, "outer_rounds", 0), (JointOptConfig, "restarts", 1)],
    ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", None),
)
def test_integer_setting_rejected(config, field, least):
    # a count must be an integer at or above its minimum: NaN, inf and 2.5
    # used to pass the range check and fail later in range()
    for value in (float("nan"), np.inf, 2.5, float(least), least - 1):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer >= {least}"):
            config(**{field: value})
    config(**{field: np.int64(least)})


@pytest.mark.parametrize("scale", [1e154, 1e300])
@pytest.mark.parametrize(
    "optimizer",
    [optimize_sigma_matrix, optimize_sigma_uniform_matrix, projected_gradient_baseline_matrix],
    ids=lambda f: f.__name__,
)
def test_label_variance_overflow_is_invalid_input(optimizer, scale):
    # the default start and zero clip read var(y), which overflows from
    # about 1e154; the suite turns the RuntimeWarning into an error
    y = gen_example1(0).y_centered * scale
    message = r"^labels must be finite with a finite variance, largest \|y\| 3.7e\+(154|300)$"
    with pytest.raises(InvalidInputError, match=message):
        optimizer(np.eye(y.shape[0]), y)


@pytest.mark.parametrize("length", [3, 5])
@pytest.mark.parametrize(
    "optimizer, config",
    [(optimize_sigma_matrix, MultUpdateConfig), (optimize_sigma_uniform_matrix, MultUpdateConfig),
     (projected_gradient_baseline_matrix, PgdConfig)],
    ids=lambda v: v.__name__,
)
def test_sigma_init_of_another_length_rejected(optimizer, config, length):
    y = np.array([0.5, -1.0, 0.2, 0.8])
    with pytest.raises(ConfigError, match=r"^sigma_init must be scalar or shape \(4,\)"):
        optimizer(np.eye(4), y, config(sigma_init=np.ones(length)))


# ---------------------------------------------------------------------------
# diagonal-kernel closed form
# ---------------------------------------------------------------------------


class TestDiagonalSolution:
    """Per-label optimum when the Gram matrix is diagonal."""

    def test_hand_values(self):
        out = diagonal_solution(np.array([1.0, 4.0, 2.0]), np.array([2.0, 1.0, -2.0]))
        assert np.allclose(out, [3.0, 0.0, 2.0], atol=1e-14)

    @pytest.mark.parametrize(
        "k_diag,y",
        [
            (np.array([0.0, 1.0]), np.ones(2)),   # zero variance entry
            (np.array([-1.0, 1.0]), np.ones(2)),  # negative variance entry
            (np.ones(3), np.ones(2)),             # length mismatch
        ],
    )
    def test_invalid_inputs_rejected(self, k_diag, y):
        with pytest.raises(InvalidInputError):
            diagonal_solution(k_diag, y)


# ---------------------------------------------------------------------------
# multiplicative optimizer
# ---------------------------------------------------------------------------


class TestOptimizeSigma:
    """Fixed points, traces, and the absorbing zero of the multiplicative map."""

    def test_scalar_problem_reaches_exact_optimum(self):
        sigma, trace = optimize_sigma_matrix(
            np.array([[1.0]]), np.array([2.0]), TIGHT_MULT
        )
        assert abs(sigma[0] - 3.0) < 1e-8, f"sigma={sigma[0]!r}"
        assert trace.converged
        assert trace.monotone

    def test_scalar_problem_default_config_is_close(self):
        sigma, trace = optimize_sigma_matrix(np.array([[1.0]]), np.array([2.0]))
        assert abs(sigma[0] - 3.0) < 1e-4
        assert trace.converged

    def test_trace_bookkeeping(self):
        _, trace = optimize_sigma_matrix(np.array([[1.0]]), np.array([2.0]), TIGHT_MULT)
        assert trace.func_evals == trace.iters + 1
        # the per-iteration counter is cumulative: one evaluation per step
        assert trace.func_evals_per_iter[0] == 1
        assert trace.func_evals == trace.func_evals_per_iter[-1]
        assert np.all(np.diff(trace.func_evals_per_iter) >= 1)
        assert trace.final_nll == trace.nll_per_iter[-1]
        assert len(trace.nll_per_iter) == trace.iters + 1

    def test_zero_is_absorbing_when_signal_explains_labels(self):
        # k=4, y=1: y^2 < k, so the noise estimate must shrink to nothing
        K, y = np.array([[4.0]]), np.array([1.0])
        config = MultUpdateConfig(zero_clip=0.0)
        sigma = 0.1
        for _ in range(12):
            state = fit_matrix(K, np.array([sigma]), y)
            new = float(mult_update_step(state, config)[0])
            assert new < sigma, f"{new} !< {sigma}"
            sigma = new
        full = MultUpdateConfig(
            max_iters=1000, tol_sigma=0.0, tol_nll=0.0, zero_clip=0.0,
            sigma_init=np.array([0.1]),
        )
        final, _ = optimize_sigma_matrix(K, y, full)
        assert final[0] == 0.0

    def test_scalar_contraction_factor(self):
        # on k=1, y=2 the gap 1/sigma - 1/3 shrinks by exactly k/y^2 per step
        K, y = np.array([[1.0]]), np.array([2.0])
        config = MultUpdateConfig(zero_clip=0.0)
        sigma = 0.5
        for _ in range(5):
            state = fit_matrix(K, np.array([sigma]), y)
            new = float(mult_update_step(state, config)[0])
            ratio = (1.0 / new - 1.0 / 3.0) / (1.0 / sigma - 1.0 / 3.0)
            assert ratio == pytest.approx(0.25, abs=1e-12)
            sigma = new

    def test_far_apart_inputs_recover_diagonal_solution(self):
        X = np.array([[0.0], [1e6], [2e6], [3e6], [4e6]])
        K = build_kernel_matrix(KernelParams(1.0, 1.0), X)
        assert np.array_equal(K, np.eye(5))
        y = np.array([2.0, 0.5, -3.0, 0.8, -0.2])
        sigma, trace = optimize_sigma_matrix(K, y)
        star = diagonal_solution(np.diag(K), y)
        assert np.max(np.abs(sigma - star)) < 1e-6
        assert trace.monotone

    def test_dataset_and_matrix_front_ends_agree_bitwise(self):
        data = gen_example1(0)
        params = heuristic_params(data.X, data.y_centered)
        s1, t1 = optimize_sigma(params, data)
        K = build_kernel_matrix(params, data.X)
        s2, t2 = optimize_sigma_matrix(K, data.y_centered)
        assert np.array_equal(s1, s2)
        assert t1.final_nll == t2.final_nll

    def test_holds_one_factor_per_step(self):
        """Beside the caller's K the loop holds one factor: a step's state is
        dropped before the refit, and diag(Kt^-1) adds at most 3/4 of an
        N x N array of triangular-inverse workspace (holding the old factor
        through the refit peaked at 2.15 N^2 at this size)."""
        n = 400
        data = inject_noise(gen_gp(KernelParams(1.0, 0.3), n, d=2, seed=0),
                            NoiseInjectionSpec(rate=0.1, level=1.0))
        K = build_kernel_matrix(KernelParams(1.0, 0.3), data.X)
        (_, trace), peak = peak_nn(lambda: optimize_sigma_matrix(K, data.y_centered), n)
        assert trace.iters > 1
        assert peak <= 1.75 + 64 * 1024 / (8 * n * n), f"peak {peak:.3f} N^2 doubles"

    def test_synthetic_fixture_trace(self):
        data = gen_example1(0)
        params = heuristic_params(data.X, data.y_centered)
        _, trace = optimize_sigma(params, data)
        assert trace.converged
        assert trace.monotone
        assert trace.final_nll == pytest.approx(10.206420193778502, abs=1e-6)
        assert trace.func_evals == trace.iters + 1

    def test_penalty_shrinks_the_noise_vector(self):
        data = gen_example1(0)
        params = heuristic_params(data.X, data.y_centered)
        plain, _ = optimize_sigma(params, data)
        penalized, _ = optimize_sigma(
            params, data, MultUpdateConfig(penalty_lambda=0.5, penalty_p=1.0)
        )
        assert np.sum(penalized) < 0.7 * np.sum(plain)

    def test_initial_point_at_fixed_point_stays(self):
        config = MultUpdateConfig(
            tol_sigma=1e-12, tol_nll=0.0, sigma_init=np.array([3.0])
        )
        sigma, trace = optimize_sigma_matrix(np.array([[1.0]]), np.array([2.0]), config)
        assert abs(sigma[0] - 3.0) < 1e-12
        assert trace.iters <= 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iters=0),
            dict(tol_sigma=-1.0),
            dict(tol_nll=-1.0),
            dict(penalty_lambda=-0.1),
            dict(penalty_p=0.5),
            dict(zero_clip=-1.0),
            dict(sigma_init=np.array([0.0])),
            dict(sigma_init=np.array([-1.0])),
        ],
    )
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MultUpdateConfig(**kwargs)

    @pytest.mark.parametrize("exponent", [-20, -10, 10, 20])
    def test_label_scale_scales_the_noise_exactly(self, exponent):
        """Labels scaled by c = 2^k give exactly c^2 sigma under the
        heuristic kernel, in as many iterations and for the same reason.

        A power-of-two factor is exact in every step of the sigma map: the
        heuristic signal variance, the start 0.1 var(y) and the zero clip
        scale by c^2, K + diag(sigma) by c^2, its Cholesky factor by c,
        alpha by 1/c and diag(Kt^-1) by 1/c^2, so each update scales by
        c^2 and so does the relative-change test. The NLL moves by
        2 N log c, which is not exact, so a stop on the NLL (nll_tol, a
        rise) could in principle flip on a decrease within round-off of its
        tolerance; on these 80 cases none does."""
        c = 2.0**exponent
        for seed in range(20):
            data = gen_example1(seed)
            sigma, trace = optimize_sigma(heuristic_params(data.X, data.y), data)
            scaled = make_dataset(data.X, c * data.y)
            sigma_c, trace_c = optimize_sigma(heuristic_params(scaled.X, scaled.y), scaled)
            assert np.array_equal(sigma_c, c * c * sigma), f"seed {seed}"
            assert (trace_c.iters, trace_c.stop_reason) == (trace.iters, trace.stop_reason), f"seed {seed}"


# ---------------------------------------------------------------------------
# uniform (single shared noise level) variant
# ---------------------------------------------------------------------------


class TestStopReason:
    """Each loop says why it stopped, and a real NLL rise is no convergence."""

    def test_real_rise_stops_unconverged(self):
        # on k=1, y=10 with lambda=1/2, p=3 the step from sigma=3 goes to
        # 3*(10/4)^2/(1/4 + (3/2)*3^2) = 15/11, which raises the penalized
        # objective log(1+s) + 100/(1+s) + s^3/2 that the loop minimizes
        config = MultUpdateConfig(
            penalty_lambda=0.5, penalty_p=3.0, sigma_init=np.array([3.0])
        )
        sigma, trace = optimize_sigma_matrix(np.array([[1.0]]), np.array([10.0]), config)
        assert sigma[0] == pytest.approx(15.0 / 11.0, rel=1e-14)
        assert trace.iters == 1

        def objective(s):
            return np.log(1.0 + s) + 100.0 / (1.0 + s) + 0.5 * s**3

        assert objective(15.0 / 11.0) - objective(3.0) > 4.5
        assert trace.nll_per_iter[1] - trace.nll_per_iter[0] == pytest.approx(
            objective(15.0 / 11.0) - objective(3.0) - 0.5 * ((15.0 / 11.0) ** 3 - 27.0),
            rel=1e-12,
        )
        assert trace.stop_reason == "nll_increase"
        assert not trace.converged
        assert not trace.monotone

    def test_penalized_loop_watches_the_penalized_objective(self):
        # from the unpenalized optimum sigma=3 of k=1, y=2, the penalty
        # (lambda=1/2, p=1) steps to sigma=3*(1/4)/(1/4+1/2)=1, its own fixed
        # point: the NLL rises from log 4 + 1 to log 2 + 2 by design, the
        # penalized objective falls by log 2, and the loop converges
        config = MultUpdateConfig(penalty_lambda=0.5, sigma_init=np.array([3.0]))
        sigma, trace = optimize_sigma_matrix(np.array([[1.0]]), np.array([2.0]), config)
        assert sigma[0] == pytest.approx(1.0, rel=1e-14)
        assert trace.nll_per_iter[1] - trace.nll_per_iter[0] == pytest.approx(
            np.log(0.5) + 1.0, rel=1e-12
        )
        assert trace.converged and trace.stop_reason in ("sigma_tol", "nll_tol")
        assert not trace.monotone  # the recorded NLL did rise

    def test_roundoff_rise_is_not_a_rise(self):
        # at N=1000 the NLL is ~-1800 and evaluating it on row-permuted copies
        # of one problem scatters it by ~1e-8; a rise of that size is round-off
        config = MultUpdateConfig()
        assert noiseopt._fixed_point_stop(1e-3, -1799.82201708, -1799.82201707, config) == "nll_tol"
        assert noiseopt._fixed_point_stop(1e-3, 10.0, 10.0 + 1e-11, config) == "nll_tol"
        assert noiseopt._fixed_point_stop(1e-3, 10.0, 10.0 + 1e-8, config) == "nll_increase"
        assert noiseopt._fixed_point_stop(1e-3, 0.01, 0.01 + 2e-10, config) == "nll_increase"
        # the trace's monotone flag applies the same allowance
        for nlls, monotone in (
            ([-1799.82201708, -1799.82201707], True),
            ([10.0, 10.0 + 1e-8], False),
            ([0.01, 0.01 + 2e-10], False),
        ):
            trace = OptTrace(np.array(nlls), np.array([1, 2]), "nll_tol")
            assert trace.monotone is monotone

    def test_tolerance_reasons(self):
        data = gen_example1(0)
        K = build_kernel_matrix(heuristic_params(data.X, data.y_centered), data.X)
        y = data.y_centered
        _, trace = optimize_sigma_matrix(K, y, MultUpdateConfig(tol_nll=0.0))
        assert (trace.stop_reason, trace.converged) == ("sigma_tol", True)
        _, trace = optimize_sigma_matrix(K, y, MultUpdateConfig(tol_sigma=0.0))
        assert (trace.stop_reason, trace.converged) == ("nll_tol", True)
        _, trace = optimize_sigma_matrix(K, y, MultUpdateConfig(max_iters=3))
        assert (trace.stop_reason, trace.converged, trace.iters) == ("max_iters", False, 3)
        _, trace = optimize_sigma_uniform_matrix(K, y, MultUpdateConfig(max_iters=1))
        assert (trace.stop_reason, trace.converged) == ("max_iters", False)
        _, trace = optimize_sigma_uniform_matrix(K, y)
        assert trace.converged and trace.stop_reason in ("sigma_tol", "nll_tol")

    def test_projected_gradient_reasons(self):
        K, y = np.diag([1.0, 1.0]), np.array([2.0, 3.0])
        _, trace = projected_gradient_baseline_matrix(
            K, y, PgdConfig(sigma_init=diagonal_solution(np.diag(K), y))
        )
        assert (trace.stop_reason, trace.converged) == ("grad_tol", True)
        # no halving allowed and an overshooting first trial: no decrease left
        _, trace = projected_gradient_baseline_matrix(
            K, y, PgdConfig(sigma_init=0.5, step_size=1e6, max_halvings=0)
        )
        assert (trace.stop_reason, trace.converged, trace.iters) == ("nll_tol", True, 0)
        _, trace = projected_gradient_baseline_matrix(K, y, PgdConfig(max_iters=1))
        assert (trace.stop_reason, trace.converged) == ("max_iters", False)

    def test_joint_reports_its_last_loop(self):
        data = gen_example1(0)
        _, _, trace = joint_optimize(data, JointOptConfig(restarts=1))
        assert trace.converged and trace.stop_reason in ("sigma_tol", "nll_tol")


class TestOptimizeSigmaUniform:
    """Shared-scalar dynamics built from the same update."""

    def test_single_point_matches_per_label_optimum(self):
        sigma, _ = optimize_sigma_uniform_matrix(
            np.array([[1.0]]), np.array([2.0]), TIGHT_MULT
        )
        assert sigma.shape == (1,)
        assert abs(sigma[0] - 3.0) < 1e-6

    def test_converged_value_is_a_fixed_point(self):
        X = np.linspace(0.0, 1.0, 6).reshape(-1, 1)
        K = build_kernel_matrix(KernelParams(1.0, 0.5), X)
        y = normals(make_rng(3), 6)
        sigma, trace = optimize_sigma_uniform_matrix(K, y, TIGHT_MULT)
        assert trace.converged
        assert sigma.shape == (6,) and np.ptp(sigma) == 0.0
        state = fit_matrix(K, sigma, y)
        ratio = float(state.alpha @ state.alpha) / float(np.sum(state.kinv_diag))
        assert abs(sigma[0] * ratio - sigma[0]) < 1e-6

    def test_zero_labels_drive_sigma_to_zero(self):
        X = np.linspace(0.0, 1.0, 4).reshape(-1, 1)
        K = build_kernel_matrix(KernelParams(1.0, 0.5), X)
        config = MultUpdateConfig(sigma_init=0.5, zero_clip=0.0)
        sigma, trace = optimize_sigma_uniform_matrix(K, np.zeros(4), config)
        assert np.array_equal(sigma, np.zeros(4))
        assert trace.monotone

    def test_penalty_not_supported(self):
        config = MultUpdateConfig(penalty_lambda=0.5)
        with pytest.raises(ConfigError):
            optimize_sigma_uniform_matrix(np.eye(2), np.ones(2), config)

    def test_vector_initialization_rejected(self):
        config = MultUpdateConfig(sigma_init=np.array([1.0, 2.0]))
        with pytest.raises(ConfigError):
            optimize_sigma_uniform_matrix(np.eye(2), np.ones(2), config)

    def test_dataset_and_matrix_front_ends_agree(self, tmp_path, capsys):
        # the dataset-level front end of the shared model is `fit --mode basic`
        data = gen_example1(1)
        write_dataset(data, tmp_path / "data.csv")
        out = tmp_path / "fit.json"
        assert cli.main(["fit", "--data", str(tmp_path / "data.csv"), "--mode", "basic",
                         "--out", str(out)]) == 0
        fitted = [row["sigma"] for row in json.loads(out.read_text())["per_label"]]
        K = build_kernel_matrix(heuristic_params(data.X, data.y), data.X)
        s2, _ = optimize_sigma_uniform_matrix(K, data.y_centered)
        assert np.ptp(s2) == 0.0
        assert fitted == s2.tolist()

    @pytest.mark.parametrize("k", [0.5, 1.5, 5.0])
    def test_diagonal_kernel_closed_form(self, k):
        # on K = k*I the shared optimum is max(mean(y^2) - k, 0), the
        # basic-model analogue of diagonal_solution
        y = np.array([1.0, -2.0, 3.0, 0.5])
        config = MultUpdateConfig(tol_sigma=1e-14, tol_nll=0.0)
        sigma, trace = optimize_sigma_uniform_matrix(k * np.eye(4), y, config)
        assert trace.converged and trace.monotone
        assert np.ptp(sigma) == 0.0
        assert abs(sigma[0] - max(float(np.mean(y * y)) - k, 0.0)) < 1e-8

    def test_mult_update_step_is_looked_up_per_call(self, monkeypatch):
        # the benchmark tracer counts steps by patching the module attribute
        calls = []
        original = noiseopt.mult_update_step

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(noiseopt, "mult_update_step", counting)
        data = gen_example1(2)
        K = build_kernel_matrix(heuristic_params(data.X, data.y_centered), data.X)
        _, trace = optimize_sigma_matrix(K, data.y_centered)
        assert len(calls) == trace.iters > 0
        calls.clear()
        optimize_sigma_uniform_matrix(K, data.y_centered)
        assert calls == []


# ---------------------------------------------------------------------------
# projected-gradient baseline
# ---------------------------------------------------------------------------


class TestProjectedGradientBaseline:
    """Line-searched gradient descent with clipping to the nonnegative orthant."""

    def test_scalar_problem_reaches_optimum_slowly(self):
        sigma, trace = projected_gradient_baseline_matrix(
            np.array([[1.0]]), np.array([2.0]), TIGHT_PGD
        )
        assert abs(sigma[0] - 3.0) < 1e-6
        _, mult_trace = optimize_sigma_matrix(
            np.array([[1.0]]), np.array([2.0]), TIGHT_MULT
        )
        assert trace.iters > mult_trace.iters

    def test_zero_iterations_when_started_at_optimum(self):
        K = np.diag([1.0, 1.0])
        y = np.array([2.0, 3.0])
        star = diagonal_solution(np.diag(K), y)
        config = PgdConfig(sigma_init=star)
        sigma, trace = projected_gradient_baseline_matrix(K, y, config)
        assert trace.iters == 0
        assert trace.converged
        assert np.array_equal(sigma, star)

    def test_far_apart_inputs_recover_diagonal_solution(self):
        X = np.array([[0.0], [1e6], [2e6], [3e6], [4e6]])
        K = build_kernel_matrix(KernelParams(1.0, 1.0), X)
        y = np.array([2.0, 0.5, -3.0, 0.8, -0.2])
        sigma, trace = projected_gradient_baseline_matrix(K, y)
        star = diagonal_solution(np.diag(K), y)
        assert trace.converged
        assert np.max(np.abs(sigma - star)) < 1e-3

    def test_agrees_with_multiplicative_on_smooth_instance(self):
        rng = make_rng(300)
        n = 8 + int(rng.random() * 7)
        params = KernelParams(1.0, 0.25)
        clean = gen_gp(params, n, d=2, seed=400)
        y = clean.y + normals(rng, n, std=2.0)
        K = build_kernel_matrix(params, clean.X)
        _, mult_trace = optimize_sigma_matrix(K, y)
        _, pgd_trace = projected_gradient_baseline_matrix(
            K, y, PgdConfig(max_iters=20000)
        )
        assert abs(mult_trace.final_nll - pgd_trace.final_nll) < 1e-4
        assert mult_trace.func_evals < pgd_trace.func_evals

    def test_never_beats_multiplicative_on_synthetic_fixture(self):
        data = gen_example1(0)
        params = heuristic_params(data.X, data.y_centered)
        K = build_kernel_matrix(params, data.X)
        _, mult_trace = optimize_sigma_matrix(K, data.y_centered)
        _, pgd_trace = projected_gradient_baseline_matrix(K, data.y_centered)
        assert mult_trace.final_nll <= pgd_trace.final_nll + 1e-9

    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_iters=0), dict(step_size=0.0), dict(tol_grad=-1.0)],
    )
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PgdConfig(**kwargs)


# ---------------------------------------------------------------------------
# joint hyperparameter and noise optimization
# ---------------------------------------------------------------------------


@pytest.fixture()
def one_cpu():
    """Pin this process to one CPU, restored afterwards. Under one BLAS
    thread joint restarts would otherwise run partly in forked processes,
    whose calls a spy in this process does not see."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class TestJointOptimize:
    """Alternating hyperparameter line search and noise updates."""

    def test_zero_outer_rounds_keeps_heuristic_hyperparameters(self):
        data = gen_example1(0)
        heuristic = heuristic_params(data.X, data.y_centered)
        params, sigma, _ = joint_optimize(
            data, JointOptConfig(outer_rounds=0, restarts=1)
        )
        assert params.signal_variance == heuristic.signal_variance
        assert params.length_scale == heuristic.length_scale
        sigma_only, _ = optimize_sigma(heuristic, data)
        assert np.allclose(sigma, sigma_only, rtol=0.0, atol=1e-12)

    def test_improves_on_fixed_hyperparameters(self):
        data = gen_example1(0)
        heuristic = heuristic_params(data.X, data.y_centered)
        _, sigma_trace = optimize_sigma(heuristic, data)
        _, _, joint_trace = joint_optimize(data)
        assert joint_trace.final_nll <= sigma_trace.final_nll + 1e-9

    def test_small_instance_returns_finite_solution(self):
        data = gen_gp(KernelParams(1.0, 0.5), 16, d=1, seed=1, base_noise_std=0.2)
        params, sigma, trace = joint_optimize(
            data, JointOptConfig(outer_rounds=2, restarts=2)
        )
        assert np.isfinite(params.signal_variance) and params.signal_variance > 0.0
        assert np.isfinite(params.length_scale) and params.length_scale > 0.0
        assert np.all(sigma >= 0.0)
        assert np.isfinite(trace.final_nll)

    def test_deterministic_across_calls(self):
        data = gen_gp(KernelParams(1.0, 0.5), 12, d=1, seed=4, base_noise_std=0.2)
        config = JointOptConfig(outer_rounds=2, restarts=3)
        p1, s1, t1 = joint_optimize(data, config)
        p2, s2, t2 = joint_optimize(data, config)
        assert p1.signal_variance == p2.signal_variance
        assert p1.length_scale == p2.length_scale
        assert np.array_equal(s1, s2)
        assert t1.final_nll == t2.final_nll

    def test_recovers_generating_hyperparameters_in_log_space(self):
        true = KernelParams(1.0, 0.5)
        dev_sv, dev_ell, sigma_peaks = [], [], []
        for seed in range(20):
            data = gen_gp(true, 48, d=2, seed=seed)
            params, sigma, _ = joint_optimize(data)
            dev_sv.append(abs(np.log(params.signal_variance) - np.log(1.0)))
            dev_ell.append(abs(np.log(params.length_scale) - np.log(0.5)))
            sigma_peaks.append(float(np.max(sigma)))
        assert float(np.median(dev_sv)) < 0.5, f"median |dlog sv| {np.median(dev_sv)}"
        assert float(np.median(dev_ell)) < 0.5, f"median |dlog ell| {np.median(dev_ell)}"
        # noiseless draws should not be explained away as label noise
        assert float(np.median(sigma_peaks)) < 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [dict(outer_rounds=-1), dict(restarts=0)],
    )
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            JointOptConfig(**kwargs)

    def test_theta_gradients_use_kernel_grad_theta_matrices(self, monkeypatch, one_cpu):
        """Every theta gradient, built from the cached squared distances,
        sees bitwise the matrices kernel_grad_theta gives for the kernel
        and squared distances built afresh from X."""
        data = gen_example1(1)
        seen = []
        grad = noiseopt.kernel_grad_theta

        def spy(params, K, d2):
            matrices = grad(params, K, d2)
            seen.append((params, [m.copy() for m in matrices]))
            return matrices

        monkeypatch.setattr(noiseopt, "kernel_grad_theta", spy)
        joint_optimize(data, JointOptConfig(outer_rounds=2, restarts=2))
        assert len(seen) > 2
        for params, matrices in seen:
            reference = kernel_grad_theta(params, build_kernel_matrix(params, data.X), sq_dists(data.X))
            assert all(np.array_equal(m, r) for m, r in zip(matrices, reference))

    def test_failed_theta_trials_are_rejected(self, monkeypatch, one_cpu):
        """A fit that fails at a theta trial makes that trial infinitely bad
        (without a floating-point warning): the search stays below the
        failing region and the trace still never rises."""
        data = gen_example1(0)
        cut = 1.0
        rbf, failed = noiseopt.rbf_from_sq_dists, []

        def failing_kernel(params, d2):
            if params.length_scale > cut:
                failed.append(params.length_scale)
                raise NumericalError("length scale above the cut-off")
            return rbf(params, d2)

        monkeypatch.setattr(noiseopt, "rbf_from_sq_dists", failing_kernel)
        params, sigma, trace = joint_optimize(data)
        assert failed
        assert np.isfinite(params.signal_variance) and 0.0 < params.length_scale <= cut
        assert np.all(np.isfinite(sigma))
        assert trace.monotone and np.isfinite(trace.final_nll)

    def test_failed_theta_block_retries_in_a_shrinking_box(self, monkeypatch):
        """With fits above l = 0.3 failing, three of the four restarts on
        gen_example1(0) fail outright and the fourth starts at l = 0.25007,
        whose unconstrained theta step lands far beyond the cut. The block
        retries in a box around its start instead of ending there, so the
        fit moves l off its start and lowers the NLL below -15.58, the value
        at the start's sigma optimum."""
        cut, rbf = 0.3, noiseopt.rbf_from_sq_dists

        def failing_kernel(params, d2):
            if params.length_scale > cut:
                raise NumericalError("length scale above the cut-off")
            return rbf(params, d2)

        monkeypatch.setattr(noiseopt, "rbf_from_sq_dists", failing_kernel)
        params, sigma, trace = joint_optimize(gen_example1(0))
        assert 0.2501 < params.length_scale <= cut
        assert trace.final_nll < -15.58
        assert trace.monotone and np.all(np.isfinite(sigma))

    def test_theta_block_retries_end_at_a_negligible_box(self, monkeypatch):
        """When every trial but the start fails, the retries stop after the
        smallest box and the block keeps its start, having fitted nothing.
        L-BFGS-B still calls back once at the start; that adds no row, so
        the block records no step."""
        data = gen_example1(0)
        params = heuristic_params(data.X, data.y)
        d2 = kernel.sq_dists(data.X)
        K = kernel.rbf_from_sq_dists(params, d2)
        state = fit_matrix(K, np.full(data.n, 0.1), data.y_centered)
        trials = []

        def failing_kernel(params, d2):
            trials.append(params)
            raise NumericalError("every trial fails")

        monkeypatch.setattr(noiseopt, "rbf_from_sq_dists", failing_kernel)
        log_theta = params.log_vector()
        kept, kept_K, kept_state, steps, fits = noiseopt._theta_block(log_theta, K, state, d2)
        assert np.array_equal(kept, log_theta) and kept_K is K and kept_state is state
        assert fits == 0 and steps == []
        assert len(trials) >= len(noiseopt._THETA_BOX_HALFWIDTHS)
        # the last retries stay inside the smallest box
        smallest = noiseopt._THETA_BOX_HALFWIDTHS[-1]
        assert np.all(np.abs(trials[-1].log_vector() - log_theta) <= smallest * (1 + 1e-12))

    def test_no_fit_repeats_the_one_before(self, monkeypatch, one_cpu):
        """States cross the theta/sigma boundary: no factorization is of the
        matrix the one just before it factored. The spy sits on LAPACK's
        ``potrf``, which every fit, refit and jitter rung calls, so it sees
        each sigma step's refit as well as loop starts and theta trials."""
        potrf, last = gpr._potrf, [None]
        counts = {"factorizations": 0, "repeats": 0, "steps": 0}

        def spy(A, **kwargs):
            key = A.tobytes()  # before potrf overwrites A
            counts["factorizations"] += 1
            counts["repeats"] += key == last[0]
            last[0] = key
            return potrf(A, **kwargs)

        step = noiseopt.mult_update_step

        def counting_step(*args):
            counts["steps"] += 1
            return step(*args)

        monkeypatch.setattr(gpr, "_potrf", spy)
        monkeypatch.setattr(noiseopt, "mult_update_step", counting_step)
        for seed in range(5):
            joint_optimize(gen_example1(seed))
        assert counts["repeats"] == 0
        assert counts["factorizations"] > counts["steps"] > 0

    def test_trace_columns_align(self):
        """One entry per recorded point in every trace column: theta
        iterations count their line-search trials without adding rows."""
        _, _, trace = joint_optimize(gen_example1(0))
        assert len(trace.nll_per_iter) == trace.iters + 1
        assert len(trace.func_evals_per_iter) == trace.iters + 1

    def test_returns_near_theta_stationary_points(self):
        """At the returned (theta, sigma) the NLL gradient in log theta is
        small: the theta block runs to (near) stationarity."""
        peaks = []
        for seed in range(20):
            data = gen_example1(seed)
            params, sigma, _ = joint_optimize(data)
            K = build_kernel_matrix(params, data.X)
            state = fit_matrix(K, sigma, data.y_centered)
            g = grad_theta(state, data.y_centered, kernel_grad_theta(params, K, sq_dists(data.X)))
            peaks.append(float(np.max(np.abs(g))))
        assert float(np.median(peaks)) < 0.05, f"median max|grad| {np.median(peaks)}"

    def test_theta_blocks_hold_one_trial_fit(self):
        """A theta block holds the kernel and fit of its latest trial only, so
        the peak stays a few N x N arrays however many trials the blocks make
        (holding every trial's fit peaked near 58 at this size)."""
        n = 200
        data = inject_noise(gen_gp(KernelParams(1.0, 0.3), n, d=2, seed=0),
                            NoiseInjectionSpec(rate=0.1, level=1.0))
        # warm-up, so that loading scipy.optimize is not counted
        joint_optimize(gen_example1(0), JointOptConfig(outer_rounds=1, restarts=1))
        _, peak = peak_nn(lambda: joint_optimize(data, JointOptConfig(outer_rounds=3, restarts=1)), n)
        assert peak <= 16, f"peak {peak:.1f} N^2 doubles"

    def test_squared_distances_built_once_per_call(self, monkeypatch, one_cpu):
        """Theta trials reuse one squared-distance matrix: the count does not
        grow with the number of kernel matrices tried."""
        data = gen_example1(2)
        counts = {"sq_dists": 0, "kernels": 0}
        sq, rbf = kernel._sq_dists, noiseopt.rbf_from_sq_dists

        def counting_sq(A, B):
            counts["sq_dists"] += 1
            return sq(A, B)

        def counting_rbf(params, d2):
            counts["kernels"] += 1
            return rbf(params, d2)

        monkeypatch.setattr(kernel, "_sq_dists", counting_sq)
        monkeypatch.setattr(noiseopt, "rbf_from_sq_dists", counting_rbf)
        restarts = 4
        joint_optimize(data, JointOptConfig(restarts=restarts))
        # one for the heuristic length scale, one shared by every restart
        assert counts["sq_dists"] == 2
        assert counts["kernels"] > 10 * restarts


# ---------------------------------------------------------------------------
# numerical failure
# ---------------------------------------------------------------------------


def _failing_fit(*args, **kwargs):
    raise NumericalError("factorization failed", smallest_pivot=-1.0)


class TestNumericalFailure:
    """A fit that fails propagates with its pivot; wrappers keep it."""

    def test_sigma_loop_propagates_the_failure(self, monkeypatch):
        monkeypatch.setattr(noiseopt, "fit_matrix", _failing_fit)
        data = gen_example1(0)
        K = build_kernel_matrix(heuristic_params(data.X, data.y), data.X)
        with pytest.raises(NumericalError) as info:
            optimize_sigma_matrix(K, data.y_centered)
        assert info.value.smallest_pivot == -1.0

    def test_joint_reports_all_restarts_failed(self, monkeypatch):
        monkeypatch.setattr(noiseopt, "fit_matrix", _failing_fit)
        with pytest.raises(NumericalError, match="all 4 joint restarts failed numerically") as info:
            joint_optimize(gen_example1(0))
        assert info.value.smallest_pivot == -1.0


# ---------------------------------------------------------------------------
# refits: a loop's later fits reuse its K and y, checked once
# ---------------------------------------------------------------------------


def _heuristic_problem(data):
    """The kernel matrix under the heuristic theta, and the centred labels."""
    return build_kernel_matrix(heuristic_params(data.X, data.y), data.X), data.y_centered


def _assert_same_run(got, expected):
    """Bitwise the same sigma and trace columns, and the same stop reason."""
    (sigma, trace), (sigma_o, trace_o) = got, expected[:2]
    for a, b in ((sigma, sigma_o), (trace.nll_per_iter, trace_o.nll_per_iter),
                 (trace.func_evals_per_iter, trace_o.func_evals_per_iter)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert trace.stop_reason == trace_o.stop_reason


# duplicate inputs with equal labels: both variances of the pair reach 0
# and a refit, not the loop start, takes the jitter ladder
DUPLICATE_INPUTS = make_dataset(np.repeat(np.linspace(0.0, 1.0, 4), 2)[:, None],
                                np.array([0.0, 0.1, 1.0, 0.9, -1.0, -1.2, 0.5, 0.5]))


class TestRefitsMatchFitMatrix:
    """Each loop is bitwise the loop with one ``fit_matrix`` call per fit
    (``oracles.mult_loop`` and ``oracles.projected_gradient``)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_per_label_loop(self, seed):
        K, y = _heuristic_problem(gen_example1(seed))
        _assert_same_run(optimize_sigma_matrix(K, y), oracles.mult_loop(K, y, MultUpdateConfig()))

    @pytest.mark.parametrize("seed", range(5))
    def test_tied_loop(self, seed):
        K, y = _heuristic_problem(gen_example1(seed))
        expected = oracles.mult_loop(K, y, MultUpdateConfig(), step=noiseopt._tied_step)
        _assert_same_run(optimize_sigma_uniform_matrix(K, y), expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_penalized_loop(self, seed):
        K, y = _heuristic_problem(gen_example1(seed))
        config = MultUpdateConfig(penalty_lambda=0.1, penalty_p=1.0)
        _assert_same_run(optimize_sigma_matrix(K, y, config), oracles.mult_loop(K, y, config))

    def test_refit_on_the_jitter_ladder(self):
        K, y = _heuristic_problem(DUPLICATE_INPUTS)
        *expected, jitters = oracles.mult_loop(K, y, MultUpdateConfig())
        assert jitters[0] == 0.0 and max(jitters[1:]) > 0.0
        _assert_same_run(optimize_sigma_matrix(K, y), expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_projected_gradient_trials(self, seed):
        K, y = _heuristic_problem(gen_example1(seed))
        _assert_same_run(projected_gradient_baseline_matrix(K, y), oracles.projected_gradient(K, y, PgdConfig()))


class TestThetaBlockSolver:
    """The theta blocks call ``scipy.optimize.fmin_l_bfgs_b``; with
    ``scipy.optimize.minimize(method="L-BFGS-B")`` in its place
    (``oracles.lbfgsb_by_minimize``) every joint fit is bitwise the same."""

    @pytest.mark.parametrize("seed", range(5))
    def test_joint_fit_as_with_minimize(self, seed, monkeypatch):
        data = gen_example1(seed)
        params, sigma, trace = joint_optimize(data)
        calls = []

        def reference(*args, **kwargs):
            calls.append(1)
            return oracles.lbfgsb_by_minimize(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "fmin_l_bfgs_b", reference)
        params_o, sigma_o, trace_o = joint_optimize(data)
        assert calls
        assert params.log_vector().tobytes() == params_o.log_vector().tobytes()
        _assert_same_run((sigma, trace), (sigma_o, trace_o))


def _set_entry(value):
    """A step that returns the state's sigma with entry 3 set to ``value``."""
    def step(state, config):
        sigma = state.sigma.copy()
        sigma[3] = value
        return sigma
    return step


class TestRefitFailure:
    """A fit that fails at a refit, not at the loop start, raises what
    ``fit_matrix`` raises on the same matrix."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_step_raises_the_fit_error(self, monkeypatch, bad):
        K, y = _heuristic_problem(gen_example1(0))
        sigma = np.ones(24)
        sigma[3] = bad
        with pytest.raises(InvalidInputError) as expected:
            fit_matrix(K, sigma, y)
        monkeypatch.setattr(noiseopt, "mult_update_step", _set_entry(bad))
        monkeypatch.setattr(noiseopt, "_tied_step", _set_entry(bad))
        for optimize in (optimize_sigma_matrix, optimize_sigma_uniform_matrix):
            with pytest.raises(InvalidInputError) as info:
                optimize(K, y)
            assert str(info.value) == str(expected.value) == "sigma entries must be finite and non-negative"

    def test_exhausted_ladder_at_a_refit_carries_its_pivot(self, monkeypatch):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
        y = np.array([1.0, -1.0])
        with pytest.raises(NumericalError) as expected:
            fit_matrix(K, np.zeros(2), y)
        pivot = expected.value.smallest_pivot
        assert pivot < 0.0
        # the loops start at K + 5 I, which factors, and step to sigma = 0
        monkeypatch.setattr(noiseopt, "mult_update_step", lambda state, config: np.zeros(2))
        with pytest.raises(NumericalError) as info:
            optimize_sigma_matrix(K, y, MultUpdateConfig(sigma_init=5.0))
        assert info.value.smallest_pivot == pivot
        monkeypatch.setattr(noiseopt, "grad_sigma", lambda state, y: np.full(2, 1e3))
        with pytest.raises(NumericalError) as info:
            projected_gradient_baseline_matrix(K, y, PgdConfig(sigma_init=5.0))
        assert info.value.smallest_pivot == pivot


# ---------------------------------------------------------------------------
# properties (Hypothesis): settings, degenerate inputs and label scale
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def _accepted(config_type, **kwargs) -> bool:
    try:
        config_type(**kwargs)
    except ConfigError:
        return False
    return True


def _count_ok(value, least: int) -> bool:
    return isinstance(value, int) and value >= least


@PROPERTY_SETTINGS
@given(field=st.sampled_from(["tol_sigma", "tol_nll", "penalty_lambda", "zero_clip", "penalty_p"]),
       value=ANY_FLOAT)
def test_mult_config_float_settings(field, value):
    least = 1.0 if field == "penalty_p" else 0.0
    assert _accepted(MultUpdateConfig, **{field: value}) == (math.isfinite(value) and value >= least)


@PROPERTY_SETTINGS
@given(field=st.sampled_from(["tol_sigma", "tol_nll", "tol_grad", "step_size"]), value=ANY_FLOAT)
def test_pgd_config_float_settings(field, value):
    ok = math.isfinite(value) and (value > 0.0 if field == "step_size" else value >= 0.0)
    assert _accepted(PgdConfig, **{field: value}) == ok


@PROPERTY_SETTINGS
@given(value=st.integers(-3, 3) | ANY_FLOAT)
def test_count_settings(value):
    assert _accepted(MultUpdateConfig, max_iters=value) == _count_ok(value, 1)
    assert _accepted(PgdConfig, max_iters=value) == _count_ok(value, 1)
    assert _accepted(PgdConfig, max_halvings=value) == _count_ok(value, 0)


@PROPERTY_SETTINGS
@given(value=ANY_FLOAT | st.lists(ANY_FLOAT, min_size=1, max_size=4))
def test_sigma_init_setting(value):
    ok = all(math.isfinite(v) and v > 0.0 for v in np.atleast_1d(value))
    assert _accepted(MultUpdateConfig, sigma_init=value) == _accepted(PgdConfig, sigma_init=value) == ok


def _outcome(optimize, *args):
    """A run's result, or the type and message of the library error it raised."""
    try:
        return optimize(*args)
    except (InvalidInputError, NumericalError) as e:
        return type(e), str(e)


@st.composite
def degenerate_problems(draw):
    """Small 1-D problems with duplicate inputs, constant labels or N = 1.

    Coordinates and labels are multiples of 1/16 and 1/64, so labels have a
    finite variance and no coordinate is subnormal."""
    kind = draw(st.sampled_from(["duplicates", "constant", "single"]))
    n = 1 if kind == "single" else draw(st.integers(2, 8))
    points = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n, unique=kind != "duplicates"))
    if kind == "duplicates":
        points[-1] = points[0]
    labels = draw(st.lists(st.integers(-128, 128), min_size=n, max_size=n))
    if kind == "constant":
        labels = [labels[0]] * n
    return make_dataset(np.array(points, dtype=float)[:, None] / 16.0, np.array(labels, dtype=float) / 64.0)


@PROPERTY_SETTINGS
@given(data=degenerate_problems())
def test_degenerate_inputs_refit_as_fit_matrix(data):
    """Through the refit path, each degenerate problem runs bitwise as with
    one ``fit_matrix`` call per step, or fails with the same error."""
    K, y = _heuristic_problem(data)
    config = MultUpdateConfig(max_iters=200)
    got = _outcome(optimize_sigma_matrix, K, y, config)
    expected = _outcome(oracles.mult_loop, K, y, config)
    if isinstance(expected[0], type):
        assert got == expected
    else:
        _assert_same_run(got, expected)
        assert np.all(np.isfinite(got[0])) and np.all(got[0] >= 0.0)


@st.composite
def scaled_problems(draw):
    """A 1-D problem with labels of non-zero variance, a power of two in
    2^-20..2^20 and a number of steps."""
    n = draw(st.integers(2, 10))
    points = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(-128, 128), min_size=n, max_size=n).filter(lambda v: len(set(v)) > 1))
    data = make_dataset(np.array(points, dtype=float)[:, None] / 16.0, np.array(labels, dtype=float) / 64.0)
    return data, 2.0 ** draw(st.integers(-20, 20)), draw(st.integers(1, 30))


@PROPERTY_SETTINGS
@given(problem=scaled_problems())
def test_label_rescale_scales_every_refit_step_exactly(problem):
    """Labels scaled by c = 2^k scale K, the start and every step's sigma by
    c^2 bit for bit (see test_label_scale_scales_the_noise_exactly), over a
    fixed number of steps: a ``fit_matrix`` start, then refits."""
    data, c, steps = problem
    runs = []
    for scale in (1.0, c):
        K, y = _heuristic_problem(make_dataset(data.X, scale * data.y))
        refit = gpr._Refitter(K, y)
        state = fit_matrix(K, noiseopt._resolve_sigma_init(None, y), y)
        sigmas = [state.sigma]
        for _ in range(steps):
            sigmas.append(mult_update_step(state, MultUpdateConfig()))
            state = refit(sigmas[-1])
        runs.append(sigmas)
    for sigma, sigma_c in zip(*runs):
        assert sigma_c.tobytes() == (c * c * sigma).tobytes()


@st.composite
def sigma_for_a_fit(draw):
    """A kernel matrix of order n and a noise vector for it: of shape (n,),
    (n + 1,) or (n, 1), with moderate entries, NaN, +-inf, negative ones,
    -0.0, or entries near the largest double. The kernel's diagonal entries
    are 1 or 1e308, so diag(K) + sigma can overflow, or its bound can while
    the sum does not."""
    n = draw(st.integers(1, 5))
    X = np.arange(n, dtype=float)[:, None] / n
    K = build_kernel_matrix(KernelParams(1.0, 0.5), X)
    if draw(st.booleans()):
        K = np.diag(draw(st.lists(st.sampled_from([1.0, 1e308]), min_size=n, max_size=n)))
    shape = draw(st.sampled_from([(n,), (n + 1,), (n, 1)]))
    entry = (st.floats(0.0, 10.0) | st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0])
             | st.floats(1e307, 1.7976931348623157e308))
    values = draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))
    return K, np.array(values).reshape(shape)


@PROPERTY_SETTINGS
@given(case=sigma_for_a_fit())
def test_refit_takes_sigma_as_fit_matrix(case):
    """A loop's refit accepts and rejects the sigma that ``fit_matrix``
    does, with the same error, and fits the same state bit for bit."""
    K, sigma = case
    y = np.linspace(-1.0, 1.0, K.shape[0])
    refit = gpr._Refitter(K, fit_matrix(K, np.ones(K.shape[0]), y).y)
    got, expected = _outcome(refit, sigma), _outcome(fit_matrix, K, sigma, y)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, gpr.GprState) and got.jitter == expected.jitter
    for name in ("sigma", "y", "chol", "alpha"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
