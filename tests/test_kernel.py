"""Tests for the RBF kernel: pointwise values, matrices, gradients, heuristics."""

import tracemalloc

import numpy as np
import pytest

from gplabelnoise import (
    EmptyDatasetError,
    InvalidInputError,
    KernelParams,
    build_kernel_matrix,
    cross_kernel,
    eval_kernel,
    heuristic_params,
    kernel_grad_theta,
)
from gplabelnoise.kernel import rbf_from_sq_dists, rbf_grad_from_sq_dists, sq_dists
from gplabelnoise.rng import make_rng, normals

# ---------------------------------------------------------------------------
# parameter container
# ---------------------------------------------------------------------------


class TestKernelParams:
    """Validation and log-space helpers."""

    @pytest.mark.parametrize(
        "sv,ell",
        [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (np.nan, 1.0), (1.0, np.inf)],
    )
    def test_rejects_nonpositive_or_nonfinite(self, sv, ell):
        with pytest.raises(InvalidInputError):
            KernelParams(sv, ell)

    def test_log_vector_round_trip(self):
        params = KernelParams(2.0, 0.7)
        back = KernelParams.from_log(params.log_vector())
        assert back.signal_variance == pytest.approx(2.0, rel=1e-15)
        assert back.length_scale == pytest.approx(0.7, rel=1e-15)

    def test_log_vector_values(self):
        params = KernelParams(np.e, np.e**2)
        assert np.allclose(params.log_vector(), [1.0, 2.0], atol=1e-14)


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


class TestEvalKernel:
    """Closed-form values of the squared-exponential covariance."""

    @pytest.mark.parametrize("sv", [1.0, 4.0])
    def test_identical_points_give_signal_variance(self, sv):
        params = KernelParams(sv, 0.3)
        assert eval_kernel(params, [0.5], [0.5]) == sv

    def test_unit_params_at_distance_sqrt2(self):
        # |a-b|^2 = 2, ell = 1  ->  exp(-2 / (2*1)) = 1/e
        params = KernelParams(1.0, 1.0)
        assert eval_kernel(params, [0.0], [np.sqrt(2.0)]) == pytest.approx(
            np.exp(-1.0), rel=1e-14
        )

    def test_symmetric_in_arguments(self):
        params = KernelParams(1.7, 0.6)
        a, b = [0.2, -0.4], [1.1, 0.3]
        assert eval_kernel(params, a, b) == eval_kernel(params, b, a)

    def test_decays_with_distance(self):
        params = KernelParams(1.0, 0.5)
        values = [eval_kernel(params, [0.0], [d]) for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(u > v for u, v in zip(values, values[1:])), f"not decaying: {values}"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class TestKernelMatrices:
    """Gram and cross-covariance construction."""

    def _instance(self, seed=7, n=12, d=2):
        rng = make_rng(seed)
        X = 2.0 * rng.random((n, d)) - 1.0
        return X, KernelParams(1.5, 0.6)

    def test_diagonal_is_exactly_signal_variance(self):
        X, params = self._instance()
        K = build_kernel_matrix(params, X)
        assert np.all(np.diag(K) == params.signal_variance)

    def test_bitwise_symmetric(self):
        X, params = self._instance()
        K = build_kernel_matrix(params, X)
        assert np.array_equal(K, K.T)

    def test_matches_pointwise_evaluation(self):
        X, params = self._instance(n=6)
        K = build_kernel_matrix(params, X)
        for i in range(6):
            for j in range(6):
                assert K[i, j] == pytest.approx(
                    eval_kernel(params, X[i], X[j]), rel=1e-14
                )

    def test_positive_semidefinite(self):
        X, params = self._instance(n=20)
        K = build_kernel_matrix(params, X)
        w = np.linalg.eigvalsh(K)
        assert w.min() >= -1e-10, f"negative eigenvalue {w.min()}"

    def test_cross_kernel_shape_and_values(self):
        X, params = self._instance(n=5)
        B = np.array([[0.0, 0.0], [0.3, -0.2], [1.0, 1.0]])
        C = cross_kernel(params, X, B)
        assert C.shape == (5, 3)
        for i in range(5):
            for j in range(3):
                assert C[i, j] == pytest.approx(
                    eval_kernel(params, X[i], B[j]), rel=1e-14
                )

    def test_cross_kernel_of_train_equals_gram(self):
        X, params = self._instance(n=8)
        assert np.allclose(
            cross_kernel(params, X, X), build_kernel_matrix(params, X), atol=1e-15
        )


# ---------------------------------------------------------------------------
# gradients with respect to log hyperparameters
# ---------------------------------------------------------------------------


class TestKernelGradTheta:
    """d K / d log(signal_variance) and d K / d log(length_scale)."""

    def test_signal_variance_gradient_is_gram_matrix(self):
        rng = make_rng(21)
        X = rng.random((9, 2))
        params = KernelParams(2.3, 0.5)
        d_sv, _ = kernel_grad_theta(params, X)
        assert np.array_equal(d_sv, build_kernel_matrix(params, X))

    def test_length_scale_gradient_zero_on_diagonal(self):
        rng = make_rng(22)
        X = rng.random((7, 3))
        _, d_ell = kernel_grad_theta(params := KernelParams(1.0, 0.8), X)
        assert np.all(np.diag(d_ell) == 0.0)
        assert np.all(d_ell >= 0.0)

    def test_matches_finite_differences(self):
        rng = make_rng(23)
        X = 2.0 * rng.random((8, 2)) - 1.0
        params = KernelParams(1.4, 0.6)
        grads = kernel_grad_theta(params, X)
        log0 = params.log_vector()
        h = 1e-6
        for idx in range(2):
            step = np.zeros(2)
            step[idx] = h
            K_plus = build_kernel_matrix(KernelParams.from_log(log0 + step), X)
            K_minus = build_kernel_matrix(KernelParams.from_log(log0 - step), X)
            fd = (K_plus - K_minus) / (2.0 * h)
            rel = np.max(np.abs(grads[idx] - fd)) / max(np.max(np.abs(fd)), 1.0)
            assert rel < 1e-8, f"component {idx}: rel err {rel:.2e}"


class TestSquaredDistanceCache:
    """Kernel matrices and their gradients from precomputed squared distances."""

    PARAMS = [KernelParams(1.5, 0.6), KernelParams(0.02, 3e-3), KernelParams(40.0, 250.0)]

    @pytest.mark.parametrize("params", PARAMS)
    def test_helper_is_bitwise_the_kernel_expression(self, params):
        X = 2.0 * make_rng(24).random((30, 3)) - 1.0
        d2 = sq_dists(X)
        ell = params.length_scale
        direct = params.signal_variance * np.exp(-d2 / (2.0 * ell * ell))
        K = rbf_from_sq_dists(params, d2)
        assert np.array_equal(K, direct)
        assert np.array_equal(K, build_kernel_matrix(params, X))
        assert np.array_equal(sq_dists(X), d2)  # the input is left alone

    @pytest.mark.parametrize("params", PARAMS)
    def test_gradient_helper_matches_kernel_grad_theta(self, params):
        X = 2.0 * make_rng(25).random((30, 2)) - 1.0
        d2 = sq_dists(X)
        K = rbf_from_sq_dists(params, d2)
        d_sv, d_ell = rbf_grad_from_sq_dists(params, K, d2)
        ref_sv, ref_ell = kernel_grad_theta(params, X)
        assert np.array_equal(d_sv, ref_sv)
        assert np.array_equal(d_ell, ref_ell)
        ell = params.length_scale
        assert np.array_equal(d_ell, K * d2 / (ell * ell))

    def test_rejects_empty_and_nonfinite_inputs(self):
        with pytest.raises(EmptyDatasetError):
            sq_dists(np.zeros((0, 2)))
        with pytest.raises(InvalidInputError):
            sq_dists(np.array([[0.0, np.nan]]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_build_kernel_matrix_peak_memory(self, d):
        """(d+1) N^2 doubles: the coordinate differences and the squared
        distances while those are formed, then the distances and the kernel.
        Evaluating the kernel must not add a temporary on top (at d=1 an
        extra N x N array would push the peak to 3 N^2)."""
        n = 500
        X = make_rng(26).random((n, d))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            K = build_kernel_matrix(KernelParams(1.3, 0.4), X)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert K.shape == (n, n)
        assert peak <= 8 * (d + 1) * n * n + 64 * 1024, f"peak {peak / (8 * n * n):.3f} N^2 doubles"


# ---------------------------------------------------------------------------
# data-driven starting values
# ---------------------------------------------------------------------------


class TestHeuristicParams:
    """Variance of labels and median pairwise distance, with fallbacks."""

    def test_hand_computed_median_distance(self):
        X = np.array([[0.0], [1.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0])
        params = heuristic_params(X, y)
        # pairwise distances {1, 3, 2} -> median 2; var(y) = 2/3
        assert params.length_scale == 2.0
        assert params.signal_variance == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_constant_inputs_fall_back_to_unit_length_scale(self):
        params = heuristic_params(np.zeros((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]))
        assert params.length_scale == 1.0
        assert params.signal_variance == pytest.approx(1.25, rel=1e-14)

    def test_constant_labels_fall_back_to_unit_variance(self):
        params = heuristic_params(np.arange(4.0).reshape(-1, 1), np.full(4, 2.0))
        assert params.signal_variance == 1.0
        assert params.length_scale == 1.5

    def test_positive_on_random_data(self):
        rng = make_rng(31)
        params = heuristic_params(rng.random((15, 3)), normals(rng, 15))
        assert params.signal_variance > 0.0
        assert params.length_scale > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        X = np.array([[0.0], [1.0], [bad]])
        with pytest.raises(InvalidInputError):
            heuristic_params(X, np.array([0.0, 1.0, 2.0]))
