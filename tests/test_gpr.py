"""Tests for GP regression: fitting, prediction, likelihood, gradients, LOOCV."""

import logging

import numpy as np
import pytest
import scipy.linalg

from gplabelnoise import (
    EmptyDatasetError,
    InvalidInputError,
    KernelParams,
    NumericalError,
    build_kernel_matrix,
    fit_matrix,
    gen_gp,
    grad_sigma,
    grad_theta,
    kernel_grad_theta,
    loocv,
    nll,
    predict_batch,
    sq_dists,
)
from gplabelnoise import gpr
from gplabelnoise.gpr import cholesky_with_jitter
from gplabelnoise.rng import make_rng, normals
from memtrace import peak_nn
from oracles import diagonal_solution, fit, grad_sigma_full_matrix

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
        assert np.allclose(np.diag(gpr._kinv(state)), direct, rtol=1e-9)

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
        kinv = gpr._kinv(state)
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

    def test_a_fitted_states_labels_are_shared(self):
        """Labels that are a fit's ``state.y`` go into the next fit as they
        are; any other labels, read-only ones included, are copied."""
        K = build_kernel_matrix(KernelParams(1.0, 0.5), np.array([[0.0], [1.0]]))
        y = np.array([1.0, -1.0])
        y.flags.writeable = False
        first = fit_matrix(K, np.ones(2), y)
        assert first.y is not y and not first.y.flags.writeable
        assert fit_matrix(2.0 * K, np.zeros(2), first.y).y is first.y

    @pytest.mark.parametrize("relabel", ["read-only", "mutated", "other size"])
    def test_labels_not_a_fits_own_are_checked(self, relabel):
        """Sharing needs the very array a fit made, still read-only and of
        the matrix's size: read-only NaN labels, a state's labels changed
        after its fit and labels of another size are rejected."""
        first = fit_matrix(np.eye(2), np.ones(2), np.array([1.0, -1.0]))
        K, y = np.eye(2), first.y
        if relabel == "read-only":
            y = np.array([1.0, np.nan])
            y.flags.writeable = False
        elif relabel == "mutated":
            y.flags.writeable = True
            y[0] = np.nan
        else:
            K = np.eye(3)
        with pytest.raises(InvalidInputError, match="^y "):
            fit_matrix(K, np.ones(K.shape[0]), y)

    def test_overflowing_diagonal_rejected(self):
        """diag(K) + sigma is checked finite, with no overflow warning."""
        with pytest.raises(InvalidInputError, match="^matrix to factor must be finite$"):
            fit_matrix(np.diag([1e308, 1.0]), np.array([1e308, 0.0]), np.ones(2))

    def test_large_entries_on_different_labels_fit(self):
        """max diag(K) + max sigma overflows although no entry of
        diag(K) + sigma does: the fit goes ahead on that diagonal."""
        state = fit_matrix(np.diag([1e308, 1.0]), np.array([0.0, 1e308]), np.ones(2))
        assert np.array_equal(state.chol.diagonal(), np.sqrt([1e308, 1e308]))

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
            cholesky_with_jitter(M, np.zeros(M.shape[0]))

    @pytest.mark.parametrize(
        "K,sigma",
        [
            (np.eye(2), np.zeros(3)),                  # sigma length mismatch
            (np.eye(2), np.array([0.0, -1.0])),        # negative noise
            (np.eye(2), np.array([np.nan, 0.0])),      # NaN noise
            (np.array([[1e308, 0.0], [0.0, 1.0]]), np.array([1e308, 0.0])),  # K + diag(sigma) overflows
        ],
    )
    def test_cholesky_with_jitter_rejects_bad_sigma(self, K, sigma):
        with pytest.raises(InvalidInputError):
            cholesky_with_jitter(K, sigma)

    def test_cholesky_with_jitter_rejects_an_empty_matrix(self):
        with pytest.raises(EmptyDatasetError):
            cholesky_with_jitter(np.zeros((0, 0)), np.zeros(0))


class TestLapackContract:
    """The factor path calls LAPACK directly; it must return what the SciPy
    wrappers around the same routines return, bit for bit."""

    def _gram(self, n, seed, duplicate=False):
        X = make_rng(seed).random((n, 2))
        if duplicate:
            X[1] = X[0]
        return build_kernel_matrix(KernelParams(1.3, 0.4), X)

    @staticmethod
    def _first_rung(M):
        """1e-10 * mean(diag M), computed as the ladder computes it."""
        return 1e-10 * float(np.add.reduce(np.diag(M)) / M.shape[0])

    def test_factor_of_pd_matrix_equals_scipy_cholesky(self):
        """The ladder is the fallback of a fit whose matrix failed to factor,
        so it never factors without jitter: a positive definite matrix gets
        the first rung too. ``test_fit_matches_scipy_wrappers`` pins the
        unjittered factor of a fit."""
        M = self._gram(40, 50) + 0.1 * np.eye(40)
        L, jitter = cholesky_with_jitter(M, np.zeros(40))
        assert jitter == self._first_rung(M) > 0.0
        assert np.array_equal(L, scipy.linalg.cholesky(M + jitter * np.eye(40), lower=True))
        assert np.all(np.triu(L, 1) == 0.0)

    def test_duplicate_inputs_get_first_ladder_rung(self):
        M = self._gram(30, 51, duplicate=True)
        L, jitter = cholesky_with_jitter(M, np.zeros(30))
        assert jitter == self._first_rung(M) == 1.2999999999999996e-10
        # the rung factors exactly M + jitter * I
        assert np.array_equal(L, scipy.linalg.cholesky(M + jitter * np.eye(30), lower=True))
        assert np.all(np.triu(L, 1) == 0.0)

    def test_rung_adds_sigma_and_jitter_to_the_diagonal(self):
        rng = make_rng(59)
        M = self._gram(30, 51, duplicate=True)
        sigma = 0.1 + rng.random(30)
        sigma[:2] = 0.0
        L, jitter = cholesky_with_jitter(M, sigma)
        assert jitter == self._first_rung(M)
        Kt = M.copy()
        np.fill_diagonal(Kt, (np.diag(M) + sigma) + jitter)
        assert np.array_equal(L, scipy.linalg.cholesky(Kt, lower=True))

    def test_indefinite_matrix_reports_smallest_eigenvalue(self):
        M = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 3.0]])
        with pytest.raises(NumericalError) as info:
            cholesky_with_jitter(M, np.zeros(3))
        assert info.value.smallest_pivot == float(np.min(scipy.linalg.eigvalsh(M)))
        assert info.value.smallest_pivot < 0.0

    def test_failed_fit_factors_its_matrix_once(self, monkeypatch):
        """A fit whose matrix fails to factor goes straight to the ladder's
        first jittered rung: LAPACK sees the unjittered matrix once."""
        infos = []
        potrf = gpr._potrf

        def spy(*args, **kwargs):
            L, info = potrf(*args, **kwargs)
            infos.append(info)
            return L, info

        monkeypatch.setattr(gpr, "_potrf", spy)
        M = self._gram(30, 51, duplicate=True)
        state = fit_matrix(M, np.zeros(30), normals(make_rng(60), 30))
        assert infos == [2, 0]
        assert state.jitter == self._first_rung(M)

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
        (_, jitter), peak = peak_nn(lambda: cholesky_with_jitter(M, np.zeros(n)), n)
        assert jitter > 0.0
        assert peak <= 1 + 64 * 1024 / (8 * n * n), f"peak {peak:.3f} N^2 doubles"


class TestLazyReads:
    """A fit factors Kt and solves for alpha; log det Kt and diag(Kt^-1) are
    computed from the factor by their first reader, and Kt^-1 by each
    ``grad_theta`` call, which drops it."""

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
        kinv = gpr._kinv(state)
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
        state, peak = peak_nn(lambda: fit_matrix(K, sigma, y), n)
        assert state.jitter == 0.0
        assert peak <= 2 + 64 * 1024 / (8 * n * n), f"peak {peak:.3f} N^2 doubles"

    def test_jittered_fit_holds_one_rung(self):
        """A fit whose matrix fails to factor releases that attempt before the
        ladder copies K for its first rung, and the ladder checks K before it
        copies: the peak is one copy of Kt or a rung (K's N^2-byte finiteness
        mask is released before either is made), as for a fit that needs no
        jitter."""
        n = 300
        X = make_rng(58).random((n, 2))
        X[1] = X[0]
        K = build_kernel_matrix(KernelParams(1.0, 0.3), X)
        y = normals(make_rng(59), n)
        state, peak = peak_nn(lambda: fit_matrix(K, np.zeros(n), y), n)
        assert state.jitter > 0.0
        assert peak <= 1 + 1 / 8 + 64 * 1024 / (8 * n * n), f"peak {peak:.3f} N^2 doubles"

    def test_state_holds_only_its_factor_after_every_reader(self):
        """The full inverse ``grad_theta`` reads is dropped on return: after
        every reader has run, the factor is the state's only N x N array."""
        rng = make_rng(57)
        n = 40
        X = rng.random((n, 2))
        params = KernelParams(1.3, 0.4)
        state = fit(params, 0.1 + rng.random(n), X, normals(rng, n))
        nll(state, state.y)
        grad_sigma(state, state.y)
        grad_theta(state, state.y, kernel_grad_theta(params, build_kernel_matrix(params, X), sq_dists(X)))
        loocv(state, state.y)
        assert [name for name, value in vars(state).items() if np.ndim(value) == 2] == ["chol"]


class TestTriangularInverse:
    """diag(Kt^-1) from dtrtri up to order 64 and from recursive blocked
    inversion (two dtrmm calls per halving) above it."""

    @staticmethod
    def _state(n, seed=61, duplicate=False):
        rng = make_rng(seed)
        X = rng.random((n, 2))
        sigma = 0.1 + rng.random(n)
        if duplicate:
            X[1] = X[0]
            sigma[:2] = 0.0
        K = build_kernel_matrix(KernelParams(1.0, 0.5), X)
        return K, sigma, fit_matrix(K, sigma, normals(rng, n))

    @staticmethod
    def _assert_inverts(L):
        """|L X - I| <= n u |L| |X| entrywise, the bound of the usual
        triangular inversion methods, and X lower triangular."""
        n = L.shape[0]
        X = gpr._tri_inv(L)
        assert np.all(np.triu(X, 1) == 0.0)
        bound = n * np.finfo(float).eps * (np.abs(L) @ np.abs(X))
        assert np.all(np.abs(L @ X - np.eye(n)) <= bound)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 200, 333])
    def test_matches_full_inverse(self, n):
        K, sigma, state = self._state(n)
        assert state.jitter == 0.0
        direct = np.diag(np.linalg.inv(K + np.diag(sigma)))
        assert np.allclose(state.kinv_diag, direct, rtol=1e-9, atol=0.0)
        self._assert_inverts(state.chol)

    def test_order_64_is_dtrtri_bitwise(self):
        _, _, state = self._state(gpr._TRTRI_MAX_N)
        linv = scipy.linalg.lapack.dtrtri(state.chol, lower=1)[0]
        assert np.array_equal(state.kinv_diag, np.einsum("ij,ij->j", linv, linv))

    def test_nll_alone_calls_neither_routine(self, monkeypatch):
        calls = []
        for name in ("_trtri", "_trmm"):
            routine = getattr(gpr, name)

            def counting(*args, _name=name, _routine=routine, **kwargs):
                calls.append(_name)
                return _routine(*args, **kwargs)

            monkeypatch.setattr(gpr, name, counting)
        _, _, state = self._state(200)
        nll(state, state.y)
        assert calls == []
        state.kinv_diag
        # 200 halves into two blocks of 100; each halves into two dtrtri
        # leaves of 50 and takes 2 dtrmm calls, and the top takes 2 more
        assert calls.count("_trtri") == 4 and calls.count("_trmm") == 6

    def test_jittered_duplicate_inputs(self):
        K, sigma, state = self._state(100, seed=62, duplicate=True)
        assert state.jitter > 0.0
        same_factor = np.diag(scipy.linalg.cho_solve((state.chol, True), np.eye(100)))
        assert np.allclose(state.kinv_diag, same_factor, rtol=1e-9, atol=0.0)
        self._assert_inverts(state.chol)

    def test_factor_is_not_written(self):
        _, _, state = self._state(200)
        before = state.chol.tobytes()
        state.kinv_diag
        assert state.chol.tobytes() == before


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

    def test_equal_copy_of_the_fitted_labels_reads_the_same_bytes(self):
        """A copy of ``state.y`` is solved for, not matched to the cache,
        and gives the bytes that the cached alpha gives."""
        state = self._problem()[0]
        copy = state.y.copy()
        assert nll(state, copy) == nll(state, state.y)
        assert grad_sigma(state, copy).tobytes() == grad_sigma(state, state.y).tobytes()
        got, expected = loocv(state, copy), loocv(state, state.y)
        assert got.errors.tobytes() == expected.errors.tobytes()
        assert got.stds.tobytes() == expected.stds.tobytes()
        assert got.kkt_residual == expected.kkt_residual


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
        g = grad_theta(state, y, kernel_grad_theta(params, build_kernel_matrix(params, X), sq_dists(X)))
        log0 = params.log_vector()
        h = 1e-5
        for idx in range(2):
            step = np.zeros(2)
            step[idx] = h
            up = fit(KernelParams.from_log(log0 + step), sigma, X, y)
            dn = fit(KernelParams.from_log(log0 - step), sigma, X, y)
            fd = (nll(up, y) - nll(dn, y)) / (2.0 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-6), f"component {idx}"

    @pytest.mark.parametrize("n", [24, 200])
    def test_grad_theta_matches_dense_formula(self, n):
        """The temporary-free trace and quadratic form agree with the dense
        tr(Kt^-1 dK) - a' dK a."""
        rng = make_rng(44)
        X = 2.0 * rng.random((n, 2)) - 1.0
        params = KernelParams(1.3, 0.4)
        sigma = 0.05 + 0.2 * rng.random(n)
        y = normals(rng, n)
        state = fit(params, sigma, X, y)
        K = build_kernel_matrix(params, X)
        matrices = kernel_grad_theta(params, K, sq_dists(X))
        g = grad_theta(state, y, matrices)
        Kt = K + np.diag(sigma)
        a = np.linalg.solve(Kt, y)
        dense = [np.trace(np.linalg.inv(Kt) @ dK) - a @ dK @ a for dK in matrices]
        np.testing.assert_allclose(g, dense, rtol=1e-10)


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
        state, X, y, params = self._interpolation_state()
        mean, var = predict_batch(params, X, state, X)
        assert np.max(np.abs(mean - y)) < 1e-10
        assert np.all(var > -1e-10)
        assert np.max(var) < 1e-8

    def test_far_point_reverts_to_prior(self):
        state, X, _, params = self._interpolation_state()
        mean, var = predict_batch(params, X, state, np.array([[25.0]]))
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        assert var[0] == pytest.approx(params.signal_variance, rel=1e-12)

    def test_single_matches_batch(self):
        state, X, _, params = self._interpolation_state()
        grid = np.linspace(-1.2, 1.2, 7).reshape(-1, 1)
        mean, var = predict_batch(params, X, state, grid)
        for i in range(7):
            one_mean, one_var = predict_batch(params, X, state, grid[i : i + 1])
            assert one_mean[0] == pytest.approx(mean[i], rel=1e-12, abs=1e-12)
            assert one_var[0] == pytest.approx(var[i], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("rows", [7, 9])
    def test_inputs_must_match_the_fitted_labels(self, rows):
        state, _, _, params = self._interpolation_state()
        X = np.linspace(-1.0, 1.0, rows).reshape(-1, 1)
        with pytest.raises(InvalidInputError, match="X must have 8 rows"):
            predict_batch(params, X, state, np.array([[0.0]]))

    @pytest.mark.parametrize(
        "query",
        [
            np.zeros((3, 1)),           # broadcast against 2-D inputs
            np.array([0.1, -0.2]),      # read as two 1-D points
            np.zeros((3, 3)),
            np.float64(0.5),            # a scalar is not a point
            np.zeros((3, 2, 1)),        # axis 1 matches, but 3-D
        ],
        ids=["3x1", "flat-2", "3x3", "0-d", "3-d"],
    )
    def test_query_must_have_the_inputs_dimension(self, query):
        rng = make_rng(49)
        params = KernelParams(1.0, 0.5)
        X = rng.random((6, 2))
        state = fit(params, np.full(6, 0.1), X, normals(rng, 6))
        with pytest.raises(InvalidInputError, match="coordinates"):
            predict_batch(params, X, state, query)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        state, X, _, params = self._interpolation_state()
        with pytest.raises(InvalidInputError, match="finite"):
            predict_batch(params, X, state, np.array([[0.0], [bad]]))

    def test_zero_query_points(self):
        state, X, _, params = self._interpolation_state()
        mean, var = predict_batch(params, X, state, np.zeros((0, 1)))
        assert mean.shape == var.shape == (0,)

    def test_negative_variances_are_clamped_and_logged(self, caplog):
        """A noise-free fit under a length scale far longer than the data's
        is ill-conditioned: k' Kt^-1 k exceeds the prior variance by more
        than round-off, and those points are clamped to 0 with a warning."""
        data = gen_gp(KernelParams(1.0, 0.3), 7, d=1, seed=17)
        params = KernelParams(1.0, 2.8)
        state = fit(params, np.zeros(7), data.X, data.y_centered)
        with caplog.at_level(logging.WARNING, logger="gplabelnoise.gpr"):
            _, var = predict_batch(params, data.X, state, np.linspace(-1.0, 1.0, 41))
        assert "posterior variance clamped to 0 at 7 points" in caplog.messages
        assert np.all(var >= 0.0)


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

    @pytest.mark.parametrize(
        "sigma, y, residual",
        # p = 1 / (1 + sigma), a = p y, g = p - a^2
        [(1.0, 3.0, 3.5),  # sigma > 0: |g| / p = |1 - y^2 / 2|
         (0.0, 3.0, 8.0),  # at the boundary a negative g violates: -g / p = y^2 - 1
         (0.0, 0.5, 0.0)],  # and a positive one does not
        ids=["interior", "boundary-violated", "boundary-met"],
    )
    def test_kkt_residual_hand_values(self, sigma, y, residual):
        state = fit_matrix(np.array([[1.0]]), np.array([sigma]), np.array([y]))
        assert loocv(state, np.array([y])).kkt_residual == pytest.approx(residual, rel=1e-12, abs=1e-15)

    def test_kkt_residual_is_the_containment_gap(self):
        """q = (errors / stds)^2: the residual is |1 - q| on sigma > 0 and
        (q - 1)+ at sigma = 0, and it vanishes at the diagonal optimum."""
        rng = make_rng(45)
        n = 12
        K_diag = 0.5 + rng.random(n)
        y = 2.0 * normals(rng, n)
        sigma = diagonal_solution(K_diag, y)
        assert 0 < np.count_nonzero(sigma) < n  # both kinds of label
        state = fit_matrix(np.diag(K_diag), sigma, y)
        res = loocv(state, y)
        assert res.kkt_residual < 1e-12
        sigma = 0.3 * sigma
        state = fit_matrix(np.diag(K_diag), sigma, y)
        res = loocv(state, y)
        q = (res.errors / res.stds) ** 2
        gap = np.where(sigma > 0.0, np.abs(1.0 - q), np.maximum(q - 1.0, 0.0))
        assert res.kkt_residual == pytest.approx(float(np.max(gap)), rel=1e-12)

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
            mean, var = predict_batch(params, X[mask], sub, X[i : i + 1])
            err = y[i] - mean[0]
            std = np.sqrt(var[0] + sigma[i])
            assert res.errors[i] == pytest.approx(err, rel=1e-9, abs=1e-12)
            assert res.stds[i] == pytest.approx(std, rel=1e-9)
