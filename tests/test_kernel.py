"""Tests for the RBF kernel: pointwise values, matrices, gradients, heuristics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gplabelnoise import (
    EmptyDatasetError,
    InvalidInputError,
    KernelParams,
    build_kernel_matrix,
    cross_kernel,
    gen_example1,
    heuristic_params,
    kernel_grad_theta,
)
from gplabelnoise.kernel import _sq_dists, rbf_from_sq_dists, sq_dists
from gplabelnoise.rng import make_rng, normals
from memtrace import peak_nn
from oracles import eval_kernel, sq_dists_one_einsum

SRC = Path(__file__).resolve().parents[1] / "src"

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

    def test_fortran_ordered_and_the_kernel_expression(self):
        """The Gram matrix is laid out column-major, as a fit copies it, and
        is bitwise the kernel of the squared distances."""
        X, params = self._instance(n=30, d=3)
        K = build_kernel_matrix(params, X)
        assert K.flags.f_contiguous
        assert np.array_equal(K, rbf_from_sq_dists(params, sq_dists(X)))

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
        d_sv, _ = kernel_grad_theta(params, build_kernel_matrix(params, X), sq_dists(X))
        assert np.array_equal(d_sv, build_kernel_matrix(params, X))

    def test_length_scale_gradient_zero_on_diagonal(self):
        rng = make_rng(22)
        X = rng.random((7, 3))
        params = KernelParams(1.0, 0.8)
        _, d_ell = kernel_grad_theta(params, build_kernel_matrix(params, X), sq_dists(X))
        assert np.all(np.diag(d_ell) == 0.0)
        assert np.all(d_ell >= 0.0)

    def test_matches_finite_differences(self):
        rng = make_rng(23)
        X = 2.0 * rng.random((8, 2)) - 1.0
        params = KernelParams(1.4, 0.6)
        grads = kernel_grad_theta(params, build_kernel_matrix(params, X), sq_dists(X))
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
        """kernel_grad_theta on a cached K and squared distances is bitwise
        the derivative expression: d/d(sv) is K, d/d(ell) is K * d2 / ell^2."""
        X = 2.0 * make_rng(25).random((30, 2)) - 1.0
        d2 = sq_dists(X)
        K = rbf_from_sq_dists(params, d2)
        d_sv, d_ell = kernel_grad_theta(params, K, d2)
        assert np.array_equal(d_sv, K)
        ell = params.length_scale
        assert np.array_equal(d_ell, K * d2 / (ell * ell))

    def test_rejects_empty_and_nonfinite_inputs(self):
        with pytest.raises(EmptyDatasetError):
            sq_dists(np.zeros((0, 2)))
        with pytest.raises(InvalidInputError):
            sq_dists(np.array([[0.0, np.nan]]))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_blocked_differences_equal_one_einsum_bitwise(self, d):
        """The differences are formed in blocks of rows, but every entry is
        still one sum over the coordinates: the bits match the single
        expression, on square inputs and on ragged ones (one row, fewer rows
        than coordinates, m != n)."""
        rng = make_rng(40 + d)
        X = rng.random((50, d))
        assert np.array_equal(sq_dists(X), sq_dists_one_einsum(X, X))
        B = rng.random((23, d))
        for m in (1, max(1, d - 1), d, d + 1, 37):
            A = rng.random((m, d))
            assert np.array_equal(_sq_dists(A, B), sq_dists_one_einsum(A, B)), m
            assert np.array_equal(_sq_dists(B, A), sq_dists_one_einsum(B, A)), m

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_build_kernel_matrix_peak_memory(self, d):
        """Two N x N arrays for any d: the squared distances and one block of
        coordinate differences (m // d rows) while those are formed, then
        the distances and the kernel. Evaluating the kernel must not add a
        temporary on top (at d=1 an extra N x N array would push the peak to
        3 N^2). From d=2 the result exists while the later blocks are
        formed, so the 128 KiB buffer of the subtraction that forms a block
        adds to it; at d=1 the one block is formed before the result."""
        n = 500
        X = make_rng(26).random((n, d))
        K, peak = peak_nn(lambda: build_kernel_matrix(KernelParams(1.3, 0.4), X), n)
        assert K.shape == (n, n)
        slack = (64 if d == 1 else 256) * 1024
        assert peak <= 2 + slack / (8 * n * n), f"peak {peak:.3f} N^2 doubles"


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

    @pytest.mark.parametrize(
        "edit",
        [lambda y: y * 1e154, lambda y: y * 1e300, lambda y: np.r_[y[:-1], np.nan]],
        ids=["1e154", "1e300", "nan-label"],
    )
    def test_labels_without_finite_variance_rejected(self, edit):
        """var(y) overflows from label magnitudes of about 1e154, and NaN has
        none: both raise, as make_dataset does, instead of falling back to a
        unit signal variance (the suite turns a RuntimeWarning into an
        error, so none is emitted on the way)."""
        data = gen_example1(0)
        with pytest.raises(InvalidInputError, match="^labels must be finite with a finite variance"):
            heuristic_params(data.X, edit(data.y))

    def test_large_labels_with_finite_variance_accepted(self):
        data = gen_example1(0)
        y = data.y * 1e153
        params = heuristic_params(data.X, y)
        assert params.signal_variance == float(np.var(y))
        assert params.length_scale == heuristic_params(data.X, data.y).length_scale

    def test_label_count_must_match_inputs(self):
        with pytest.raises(InvalidInputError, match=r"^y must have shape \(3,\)"):
            heuristic_params(np.arange(3.0), np.arange(2.0))

    def test_peak_memory(self):
        """The peak is that of the squared distances, two N x N arrays plus
        the subtraction's buffer: the upper triangle is picked by a boolean
        mask (N^2 / 8 doubles), not by two N^2 / 2 index arrays, and the
        distance matrix is released before the median of the picked half
        is taken."""
        n = 400
        rng = make_rng(27)
        X, y = rng.random((n, 2)), normals(rng, n)
        _, peak = peak_nn(lambda: heuristic_params(X, y), n)
        assert peak <= 2 + 256 * 1024 / (8 * n * n), f"peak {peak:.3f} N^2 doubles"

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 59, 160, 200, 1000])
    def test_length_scale_is_numpys_median_bitwise(self, n):
        """The median is taken in place, and is ``np.median``'s value bit for
        bit on odd and even counts of distances (n(n-1)/2 of them), with
        ties (points on an integer grid) and without."""
        rng = make_rng(50 + n)
        for X in (rng.random((n, 2)), rng.integers(0, 5, (n, 1)).astype(float)):
            d2 = sq_dists(X)
            expected = float(np.median(np.sqrt(d2[np.triu_indices(n, 1)])))
            assert heuristic_params(X, np.arange(float(n))).length_scale == expected

    def test_median_loads_no_masked_arrays(self):
        """``np.median`` imports ``numpy.ma`` on first use; the heuristic
        does not, so a process that only fits never loads it."""
        code = ("import sys, numpy as np, gplabelnoise as gpl\n"
                "gpl.heuristic_params(np.arange(10.0).reshape(5, 2), np.arange(5.0))\n"
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]
