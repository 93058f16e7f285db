"""Tests for GP regression: fitting, prediction, likelihood, gradients, LOOCV."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from gplabelnoise import (
    EmptyDatasetError,
    InvalidInputError,
    KernelParams,
    NumericalError,
    build_kernel_matrix,
    fit,
    fit_matrix,
    grad_sigma,
    grad_sigma_full_matrix,
    grad_theta,
    kernel_grad_theta,
    loocv,
    nll,
    predict,
    predict_batch,
)
from gplabelnoise import gpr
from gplabelnoise.gpr import cholesky_with_jitter
from gplabelnoise.rng import make_rng, normals

# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


class TestFit:
    """Cholesky state on hand-checkable one-point problems."""

    def test_single_point_no_noise(self):
        state = fit_matrix(np.array([[1.0]]), np.array([0.0]), np.array([2.0]))
        assert state.alpha[0] == pytest.approx(2.0, rel=1e-14)
        assert state.kinv_diag[0] == pytest.approx(1.0, rel=1e-14)

    def test_single_point_unit_noise(self):
        state = fit_matrix(np.array([[1.0]]), np.array([1.0]), np.array([2.0]))
        assert state.alpha[0] == pytest.approx(1.0, rel=1e-14)
        assert state.kinv_diag[0] == pytest.approx(0.5, rel=1e-14)

    def test_kinv_diag_matches_full_inverse(self):
        rng = make_rng(40)
        X = rng.random((10, 2))
        K = build_kernel_matrix(KernelParams(1.0, 0.5), X)
        sigma = 0.1 + rng.random(10)
        state = fit_matrix(K, sigma, normals(rng, 10))
        direct = np.diag(np.linalg.inv(K + np.diag(sigma)))
        assert np.allclose(state.kinv_diag, direct, rtol=1e-9)
        assert np.allclose(np.diag(state.kinv), direct, rtol=1e-9)

    def test_kinv_diag_matches_full_inverse_at_n200(self):
        rng = make_rng(45)
        n = 200
        X = rng.random((n, 2))
        K = build_kernel_matrix(KernelParams(1.0, 0.5), X)
        sigma = 0.1 + rng.random(n)
        state = fit_matrix(K, sigma, normals(rng, n))
        assert state.jitter == 0.0
        direct = np.diag(np.linalg.inv(K + np.diag(sigma)))
        assert np.allclose(state.kinv_diag, direct, rtol=1e-9, atol=0.0)

    def test_kinv_diag_on_jittered_duplicate_inputs(self):
        """Duplicated inputs with zero noise make Kt singular, so the factor
        carries jitter and kinv_diag must describe K + diag(sigma) + jitter*I.

        That matrix has condition number ~1e12, so any two independent
        inversions of it differ by up to cond * eps ~ 2.7e-4 relative on the
        duplicated labels; the bound against np.linalg.inv is set from that.
        The explicit inverse from the same factor shares the factorization
        round-off and must agree to 1e-9.
        """
        rng = make_rng(46)
        n = 200
        X = rng.random((n, 2))
        X[1] = X[0]
        X[3] = X[2]
        K = build_kernel_matrix(KernelParams(1.0, 0.5), X)
        sigma = 0.1 + rng.random(n)
        sigma[:4] = 0.0
        state = fit_matrix(K, sigma, normals(rng, n))
        assert state.jitter > 0.0
        Kt = K + np.diag(sigma) + state.jitter * np.eye(n)
        same_factor = np.diag(scipy.linalg.cho_solve((state.chol, True), np.eye(n)))
        assert np.allclose(state.kinv_diag, same_factor, rtol=1e-9, atol=0.0)
        rtol = np.linalg.cond(Kt) * np.finfo(float).eps
        assert np.allclose(state.kinv_diag, np.diag(np.linalg.inv(Kt)), rtol=rtol, atol=0.0)

    def test_lazy_kinv_is_symmetric_inverse_with_cached_diagonal(self):
        rng = make_rng(47)
        n = 60
        K = build_kernel_matrix(KernelParams(1.3, 0.4), rng.random((n, 2)))
        sigma = 0.1 + rng.random(n)
        state = fit_matrix(K, sigma, normals(rng, n))
        kinv = state.kinv
        assert kinv is state.kinv
        assert np.array_equal(kinv, kinv.T)
        assert np.array_equal(np.diag(kinv), state.kinv_diag)
        assert np.allclose(kinv, np.linalg.inv(K + np.diag(sigma)), rtol=1e-9, atol=1e-12)

    def test_clean_problem_needs_no_jitter(self):
        state = fit_matrix(np.eye(3), np.ones(3), np.array([1.0, -1.0, 0.5]))
        assert state.jitter == 0.0

    def test_singular_gram_gets_smallest_jitter_rung(self):
        state = fit_matrix(np.ones((2, 2)), np.zeros(2), np.array([1.0, 1.0]))
        assert state.jitter == 1e-10

    def test_indefinite_matrix_raises(self):
        with pytest.raises(NumericalError):
            fit_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2), np.ones(2))

    @pytest.mark.parametrize(
        "sigma,y",
        [
            (np.ones(3), np.ones(2)),          # sigma length mismatch
            (np.ones(2), np.ones(3)),          # y length mismatch
            (np.array([-0.1, 1.0]), np.ones(2)),  # negative noise
        ],
    )
    def test_invalid_inputs_rejected(self, sigma, y):
        X = np.zeros((2, 1))
        X[1, 0] = 1.0
        with pytest.raises(InvalidInputError):
            fit(KernelParams(1.0, 1.0), sigma, X, y)

    @pytest.mark.parametrize(
        "K,y",
        [
            (np.ones((2, 3)), np.ones(2)),                      # K not square
            (np.ones(3), np.ones(3)),                           # K not a matrix
            (np.eye(3), np.ones(2)),                            # K size != y size
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2)),  # NaN in K
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2)),     # inf in K
            (np.eye(2), np.array([1.0, np.nan])),               # NaN label
            (np.eye(2), np.array([-np.inf, 1.0])),              # inf label
        ],
    )
    def test_fit_matrix_rejects_malformed_inputs(self, K, y):
        with pytest.raises(InvalidInputError):
            fit_matrix(K, np.ones(y.shape[0]), y)

    @pytest.mark.parametrize(
        "M",
        [
            np.ones((2, 3)),                              # not square
            np.ones(4),                                   # not a matrix
            np.array([[1.0, 0.0], [0.0, np.nan]]),        # NaN
            np.array([[1.0, -np.inf], [-np.inf, 1.0]]),   # inf
        ],
    )
    def test_cholesky_with_jitter_rejects_malformed_inputs(self, M):
        with pytest.raises(InvalidInputError):
            cholesky_with_jitter(M, diag_ref=1.0)


class TestLapackContract:
    """The factor path calls LAPACK directly; it must return what the SciPy
    wrappers around the same routines return, bit for bit."""

    def _gram(self, n, seed, duplicate=False):
        X = make_rng(seed).random((n, 2))
        if duplicate:
            X[1] = X[0]
        return build_kernel_matrix(KernelParams(1.3, 0.4), X)

    def test_factor_of_pd_matrix_equals_scipy_cholesky(self):
        M = self._gram(40, 50) + 0.1 * np.eye(40)
        L, jitter = cholesky_with_jitter(M, diag_ref=1.3)
        assert jitter == 0.0
        assert np.array_equal(L, scipy.linalg.cholesky(M, lower=True))
        assert np.all(np.triu(L, 1) == 0.0)

    def test_duplicate_inputs_get_first_ladder_rung(self):
        M = self._gram(30, 51, duplicate=True)
        L, jitter = cholesky_with_jitter(M, diag_ref=1.3)
        assert jitter == 1e-10 * 1.3
        # the rung factors exactly M + jitter * I
        assert np.array_equal(L, scipy.linalg.cholesky(M + jitter * np.eye(30), lower=True))
        assert np.all(np.triu(L, 1) == 0.0)

    def test_indefinite_matrix_reports_smallest_eigenvalue(self):
        M = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 3.0]])
        with pytest.raises(NumericalError) as info:
            cholesky_with_jitter(M, diag_ref=1.0)
        assert info.value.smallest_pivot == float(np.min(scipy.linalg.eigvalsh(M)))
        assert info.value.smallest_pivot < 0.0

    @pytest.mark.parametrize("shape", [(25,), (25, 1), (25, 4)])
    def test_solve_equals_scipy_cho_solve(self, shape):
        rng = make_rng(52)
        K = self._gram(25, 53)
        state = fit_matrix(K, 0.1 + rng.random(25), normals(rng, 25))
        b = normals(rng, int(np.prod(shape))).reshape(shape)
        expected = scipy.linalg.cho_solve((state.chol, True), b)
        assert np.array_equal(state.solve(b), expected)
        assert state.solve(b).shape == shape

    def test_solve_rejects_mismatched_rows(self):
        state = fit_matrix(np.eye(2), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            state.solve(np.ones(3))

    def test_fit_of_zero_points_is_an_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            fit_matrix(np.zeros((0, 0)), np.zeros(0), np.zeros(0))

    def test_fit_matches_scipy_wrappers(self):
        rng = make_rng(54)
        K = self._gram(25, 55)
        sigma = 0.1 + rng.random(25)
        y = normals(rng, 25)
        state = fit_matrix(K, sigma, y)
        L = scipy.linalg.cholesky(K + np.diag(sigma), lower=True)
        assert np.array_equal(state.chol, L)
        assert np.array_equal(state.alpha, scipy.linalg.cho_solve((L, True), y))

    def test_jitter_ladder_holds_one_matrix_at_a_time(self):
        """A jittered rung adds the jitter to one copy's diagonal and factors
        it in place, and a failed rung's factor is gone before the next rung:
        the ladder never holds more than one N x N array beyond its input."""
        n = 300
        M = build_kernel_matrix(KernelParams(1.0, 0.3), make_rng(56).random((n, 2)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            L, jitter = cholesky_with_jitter(M, diag_ref=1.0)
            del L
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert jitter > 0.0
        assert peak <= 8 * n * n + 64 * 1024, f"peak {peak / (8 * n * n):.3f} N^2 doubles"


class TestLazyReads:
    """A fit factors Kt and solves for alpha; log det Kt, diag(Kt^-1) and
    Kt^-1 are computed from the factor by their first reader."""

    def _state(self, n=40, seed=57, duplicate=False):
        rng = make_rng(seed)
        X = rng.random((n, 2))
        sigma = 0.1 + rng.random(n)
        if duplicate:
            X[1] = X[0]
            sigma[:2] = 0.0
        K = build_kernel_matrix(KernelParams(1.3, 0.4), X)
        return fit_matrix(K, sigma, normals(rng, n))

    def test_nll_alone_never_inverts_the_factor(self, monkeypatch):
        calls = []
        trtri = gpr._trtri

        def counting(*args, **kwargs):
            calls.append(1)
            return trtri(*args, **kwargs)

        monkeypatch.setattr(gpr, "_trtri", counting)
        state = self._state()
        nll(state, state.y)
        assert calls == []
        assert state.kinv_diag is state.kinv_diag
        assert len(calls) == 1

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_reads_equal_eager_formulas_bitwise(self, duplicate):
        state = self._state(duplicate=duplicate)
        assert (state.jitter > 0.0) == duplicate
        linv = scipy.linalg.lapack.dtrtri(state.chol, lower=1)[0]
        assert np.array_equal(state.kinv_diag, np.einsum("ij,ij->j", linv, linv))
        assert state.logdet == 2.0 * float(np.log(np.diag(state.chol)).sum())

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_kinv_is_exactly_symmetric_with_kinv_diag_on_its_diagonal(self, duplicate):
        state = self._state(duplicate=duplicate)
        assert np.all(np.triu(state.chol, 1) == 0.0)
        kinv = state.kinv
        assert np.array_equal(kinv, kinv.T)
        assert np.array_equal(np.diag(kinv), state.kinv_diag)
        lower = scipy.linalg.lapack.dpotri(state.chol, lower=1)[0]
        assert np.array_equal(np.tril(kinv, -1), np.tril(lower, -1))

    def test_fit_holds_one_factor(self):
        """Kt is one copy of K, factored in place, and nothing is inverted:
        a fit peaks at one N x N array plus small change. Factoring a copy of
        Kt and forming L^-1 in the fit would hold three."""
        n = 300
        rng = make_rng(58)
        K = build_kernel_matrix(KernelParams(1.0, 0.3), rng.random((n, 2)))
        sigma = 0.1 + rng.random(n)
        y = normals(rng, n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            state = fit_matrix(K, sigma, y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert state.jitter == 0.0
        assert peak <= 2 * 8 * n * n + 64 * 1024, f"peak {peak / (8 * n * n):.3f} N^2 doubles"


# ---------------------------------------------------------------------------
# marginal likelihood and its gradients
# ---------------------------------------------------------------------------


class TestNll:
    """log det + quadratic form, without the constant term."""

    def test_unit_matrix_label_two(self):
        state = fit_matrix(np.array([[1.0]]), np.array([0.0]), np.array([2.0]))
        assert nll(state, np.array([2.0])) == pytest.approx(4.0, abs=1e-12)

    def test_unit_matrix_label_one(self):
        state = fit_matrix(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
        assert nll(state, np.array([1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = make_rng(41)
        X = rng.random((8, 1))
        K = build_kernel_matrix(KernelParams(1.3, 0.4), X)
        sigma = 0.2 + rng.random(8)
        y = normals(rng, 8)
        state = fit_matrix(K, sigma, y)
        Kt = K + np.diag(sigma)
        direct = float(np.linalg.slogdet(Kt)[1] + y @ np.linalg.solve(Kt, y))
        assert nll(state, y) == pytest.approx(direct, rel=1e-10)


class TestOtherLabels:
    """Readers given labels other than the fitted ones solve for them."""

    def _problem(self):
        rng = make_rng(48)
        n = 12
        K = build_kernel_matrix(KernelParams(1.1, 0.5), 2.0 * rng.random((n, 2)) - 1.0)
        sigma = 0.1 + rng.random(n)
        state = fit_matrix(K, sigma, normals(rng, n))
        other = normals(rng, n)
        Kt = K + np.diag(sigma)
        return state, other, Kt, np.linalg.inv(Kt)

    def test_nll(self):
        state, other, Kt, _ = self._problem()
        direct = float(np.linalg.slogdet(Kt)[1] + other @ np.linalg.solve(Kt, other))
        assert nll(state, other) == pytest.approx(direct, rel=1e-10)

    def test_grad_sigma(self):
        state, other, _, kinv = self._problem()
        a = kinv @ other
        assert np.allclose(grad_sigma(state, other), np.diag(kinv) - a * a, rtol=1e-9, atol=1e-12)

    def test_loocv(self):
        state, other, _, kinv = self._problem()
        a = kinv @ other
        res = loocv(state, other)
        assert np.allclose(res.errors, a / np.diag(kinv), rtol=1e-9, atol=1e-12)
        assert np.allclose(res.stds, 1.0 / np.sqrt(np.diag(kinv)), rtol=1e-9)


class TestGradients:
    """Per-label noise gradient and hyperparameter gradient."""

    def test_hand_value_single_point(self):
        state = fit_matrix(np.array([[1.0]]), np.array([0.0]), np.array([2.0]))
        g = grad_sigma(state, np.array([2.0]))
        assert g[0] == pytest.approx(-3.0, abs=1e-12)

    def test_full_matrix_diagonal_is_bitwise_equal(self):
        rng = make_rng(42)
        X = 2.0 * rng.random((11, 2)) - 1.0
        K = build_kernel_matrix(KernelParams(1.0, 0.5), X)
        sigma = 0.1 + rng.random(11)
        y = normals(rng, 11)
        state = fit_matrix(K, sigma, y)
        full = grad_sigma_full_matrix(state, y)
        assert np.array_equal(np.diag(full), grad_sigma(state, y))
        assert np.allclose(full, full.T, atol=1e-14)

    def test_grad_theta_matches_finite_differences(self):
        rng = make_rng(43)
        X = 2.0 * rng.random((9, 2)) - 1.0
        params = KernelParams(1.2, 0.7)
        sigma = 0.3 + rng.random(9)
        y = normals(rng, 9)
        state = fit(params, sigma, X, y)
        g = grad_theta(state, y, kernel_grad_theta(params, X))
        log0 = params.log_vector()
        h = 1e-5
        for idx in range(2):
            step = np.zeros(2)
            step[idx] = h
            up = fit(KernelParams.from_log(log0 + step), sigma, X, y)
            dn = fit(KernelParams.from_log(log0 - step), sigma, X, y)
            fd = (nll(up, y) - nll(dn, y)) / (2.0 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-6), f"component {idx}"


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


class TestPredict:
    """Posterior mean/variance at new inputs."""

    def _interpolation_state(self):
        params = KernelParams(2.0, 0.25)
        X = np.linspace(-1.0, 1.0, 8).reshape(-1, 1)
        y = normals(make_rng(0), 8)
        return fit(params, np.zeros(8), X, y), X, y, params

    def test_noise_free_fit_interpolates(self):
        state, X, y, _ = self._interpolation_state()
        mean, var = predict_batch(state, X)
        assert np.max(np.abs(mean - y)) < 1e-10
        assert np.all(var > -1e-10)
        assert np.max(var) < 1e-8

    def test_far_point_reverts_to_prior(self):
        state, _, _, params = self._interpolation_state()
        post = predict(state, np.array([25.0]))
        assert post.mean == pytest.approx(0.0, abs=1e-12)
        assert post.variance == pytest.approx(params.signal_variance, rel=1e-12)

    def test_single_matches_batch(self):
        state, X, _, _ = self._interpolation_state()
        grid = np.linspace(-1.2, 1.2, 7).reshape(-1, 1)
        mean, var = predict_batch(state, grid)
        for i in range(7):
            post = predict(state, grid[i])
            assert post.mean == pytest.approx(mean[i], rel=1e-12, abs=1e-12)
            assert post.variance == pytest.approx(var[i], rel=1e-12, abs=1e-12)

    def test_matrix_only_state_cannot_predict(self):
        state = fit_matrix(np.eye(2), np.zeros(2), np.ones(2))
        with pytest.raises(InvalidInputError):
            predict(state, np.array([0.0]))


# ---------------------------------------------------------------------------
# leave-one-out cross-validation
# ---------------------------------------------------------------------------


class TestLoocv:
    """Closed-form held-out residuals and predictive standard deviations."""

    def test_hand_value_single_point(self):
        state = fit_matrix(np.array([[1.0]]), np.array([1.0]), np.array([3.0]))
        res = loocv(state, np.array([3.0]))
        assert res.errors[0] == pytest.approx(3.0, rel=1e-12)
        assert res.stds[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_matches_brute_force_retraining(self):
        rng = make_rng(44)
        n = 8
        X = np.sort(2.0 * rng.random(n) - 1.0).reshape(-1, 1)
        params = KernelParams(1.5, 0.4)
        sigma = 0.1 + 0.3 * rng.random(n)
        y = normals(rng, n)
        state = fit(params, sigma, X, y)
        res = loocv(state, y)
        for i in range(n):
            mask = np.arange(n) != i
            sub = fit(params, sigma[mask], X[mask], y[mask])
            post = predict(sub, X[i])
            err = y[i] - post.mean
            std = np.sqrt(post.variance + sigma[i])
            assert res.errors[i] == pytest.approx(err, rel=1e-9, abs=1e-12)
            assert res.stds[i] == pytest.approx(std, rel=1e-9)
