"""Acceptance gate: eleven numbered end-to-end checks, one printed line each.

Every check prints ``[criterion N] label: PASS`` or ``FAIL`` so a full run
shows the scoreboard even under pytest's output capture. Tolerances, instance
counts, and runtime budgets are pinned; the random instances are seeded and
reproduce exactly.
"""

import time

import numpy as np
import pytest

from gplabelnoise import (
    KernelParams,
    MultUpdateConfig,
    NoiseInjectionSpec,
    PgdConfig,
    build_kernel_matrix,
    cli,
    cv_mae,
    fit_matrix,
    gen_example1,
    gen_gp,
    grad_sigma,
    grad_theta,
    heuristic_params,
    inject_noise,
    joint_optimize,
    kernel_grad_theta,
    loocv,
    mult_update_step,
    nll,
    optimize_sigma,
    optimize_sigma_matrix,
    predict_batch,
    projected_gradient_baseline_matrix,
    roc_auc,
    sq_dists,
)
from gplabelnoise.rng import make_rng, normals
from oracles import diagonal_solution, fit, grad_sigma_full_matrix


@pytest.fixture()
def announce(capfd):
    def _announce(num, label, ok):
        with capfd.disabled():
            print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}")

    return _announce


# Criterion 8 floor on the median over 20 seeds of roc_auc(sigma, corrupted).
# It is set from the no-skill null, not from what the estimator scores: with
# 10 corrupted and 14 clean labels a random ranking gives a Mann-Whitney AUC
# of mean 0.5 and sd sqrt((10 + 14 + 1) / (12 * 10 * 14)) = sqrt(25 / 1680)
# = 0.122 per seed, so the median of 20 has sd about 0.034. Of 200,000
# simulated no-skill medians the 99.999th percentile is 0.643 and the largest
# about 0.65, so the floor rejects chance at about 4.4 sd. A constant score
# (0.5) and the sign-flipped score -sigma both fail it. It replaces a floor of
# 0.90, which no theta choice, restart rule or sigma start of the per-label
# maximum-likelihood estimator reaches at N = 24 (README, "Testing").
DETECTION_AUC_FLOOR = 0.65


def _nll_at(K, sigma, y):
    state = fit_matrix(K, sigma, y)
    return nll(state, y)


class TestAcceptance:
    """Numbered acceptance checks over the whole pipeline."""

    def test_criterion_01_gradients_match_finite_differences(self, announce):
        t0 = time.perf_counter()
        worst_sigma = 0.0
        worst_theta = 0.0
        for i in range(50):
            rng = make_rng(100 + i)
            n = 4 + int(rng.random() * 29)  # 4..32
            d = 1 + int(rng.random() * 3)
            X = 2.0 * rng.random((n, d)) - 1.0
            params = KernelParams(0.5 + 2.0 * rng.random(), 0.3 + rng.random())
            sigma = 0.05 + rng.random(n)
            y = normals(rng, n)
            K = build_kernel_matrix(params, X)
            state = fit_matrix(K, sigma, y)

            g = grad_sigma(state, y)
            fd = np.empty(n)
            for j in range(n):
                h = 1e-6 * (1.0 + sigma[j])
                up = sigma.copy()
                up[j] += h
                dn = sigma.copy()
                dn[j] = max(dn[j] - h, 0.0)
                fd[j] = (_nll_at(K, up, y) - _nll_at(K, dn, y)) / (up[j] - dn[j])
            err = float(np.max(np.abs(g - fd)) / max(1.0, float(np.max(np.abs(fd)))))
            worst_sigma = max(worst_sigma, err)

            gt = grad_theta(state, y, kernel_grad_theta(params, K, sq_dists(X)))
            log0 = params.log_vector()
            fd_t = np.empty(2)
            for j in range(2):
                step = np.zeros(2)
                step[j] = 1e-5
                up_p = KernelParams.from_log(log0 + step)
                dn_p = KernelParams.from_log(log0 - step)
                fd_t[j] = (
                    _nll_at(build_kernel_matrix(up_p, X), sigma, y)
                    - _nll_at(build_kernel_matrix(dn_p, X), sigma, y)
                ) / (2.0 * 1e-5)
            err_t = float(
                np.max(np.abs(gt - fd_t)) / max(1.0, float(np.max(np.abs(fd_t))))
            )
            worst_theta = max(worst_theta, err_t)
        elapsed = time.perf_counter() - t0
        ok = worst_sigma < 1e-5 and worst_theta < 1e-5 and elapsed < 10.0
        announce(1, "gradients match finite differences", ok)
        assert ok, (
            f"worst rel err: sigma {worst_sigma:.2e}, theta {worst_theta:.2e} "
            f"(bound 1e-5); elapsed {elapsed:.1f}s (budget 10s)"
        )

    def test_criterion_02_full_gradient_diagonal_is_bitwise(self, announce):
        all_equal = True
        for i in range(20):
            rng = make_rng(200 + i)
            n = 4 + int(rng.random() * 29)
            X = 2.0 * rng.random((n, 2)) - 1.0
            sigma = 0.05 + rng.random(n)
            y = normals(rng, n)
            K = build_kernel_matrix(KernelParams(1.0, 0.5), X)
            state = fit_matrix(K, sigma, y)
            full = grad_sigma_full_matrix(state, y)
            if not np.array_equal(np.diag(full), grad_sigma(state, y)):
                all_equal = False
        announce(2, "full-matrix gradient diagonal is bitwise equal", all_equal)
        assert all_equal

    def test_criterion_03_loocv_matches_brute_force(self, announce):
        t0 = time.perf_counter()
        worst_err = 0.0
        worst_std = 0.0
        for i in range(20):
            rng = make_rng(300 + i)
            n = 6 + int(rng.random() * 10)  # 6..15
            X = np.sort(2.0 * rng.random(n) - 1.0).reshape(-1, 1)
            params = KernelParams(1.0 + rng.random(), 0.3 + 0.3 * rng.random())
            sigma = 0.05 + 0.5 * rng.random(n)
            y = normals(rng, n)
            state = fit(params, sigma, X, y)
            res = loocv(state, y)
            for j in range(n):
                mask = np.arange(n) != j
                sub = fit(params, sigma[mask], X[mask], y[mask])
                mean, var = predict_batch(params, X[mask], sub, X[j : j + 1])
                brute_err = y[j] - mean[0]
                brute_std = np.sqrt(var[0] + sigma[j])
                worst_err = max(
                    worst_err,
                    abs(res.errors[j] - brute_err) / max(1.0, abs(brute_err)),
                )
                worst_std = max(worst_std, abs(res.stds[j] - brute_std) / brute_std)
        elapsed = time.perf_counter() - t0
        ok = worst_err < 1e-8 and worst_std < 1e-8 and elapsed < 5.0
        announce(3, "closed-form LOOCV matches retraining", ok)
        assert ok, (
            f"worst rel err: errors {worst_err:.2e}, stds {worst_std:.2e} "
            f"(bound 1e-8); elapsed {elapsed:.1f}s (budget 5s)"
        )

    def test_criterion_04_diagonal_kernel_oracle(self, announce):
        config = MultUpdateConfig(
            max_iters=5000, tol_sigma=1e-14, tol_nll=0.0, zero_clip=0.0
        )
        worst_gap = 0.0
        for i in range(200):
            rng = make_rng(400 + i)
            n = 2 + int(rng.random() * 49)
            k = 0.5 + 1.5 * rng.random(n)
            interior = rng.random(n) < 0.5
            y = np.where(
                interior,
                np.sqrt(k) * (1.5 + rng.random(n)),
                np.sqrt(k) * 0.7 * rng.random(n),
            )
            sigma, _ = optimize_sigma_matrix(np.diag(k), y, config)
            gap = float(np.max(np.abs(sigma - diagonal_solution(k, y))))
            worst_gap = max(worst_gap, gap)

        # per-iteration contraction toward the interior optimum
        worst_ratio_dev = 0.0
        step_config = MultUpdateConfig(zero_clip=0.0)
        for i in range(20):
            rng = make_rng(400 + i)
            n = 2 + int(rng.random() * 49)
            k = 0.5 + 1.5 * rng.random(n)
            interior = rng.random(n) < 0.5
            y = np.where(
                interior,
                np.sqrt(k) * (1.5 + rng.random(n)),
                np.sqrt(k) * 0.7 * rng.random(n),
            )
            if not interior.any():
                continue
            star = diagonal_solution(k, y)
            sigma = np.full(n, 0.1 * float(np.var(y)))
            for _ in range(3):
                state = fit_matrix(np.diag(k), sigma, y)
                new = mult_update_step(state, step_config)
                ratio = (1.0 / new[interior] - 1.0 / star[interior]) / (
                    1.0 / sigma[interior] - 1.0 / star[interior]
                )
                dev = float(np.max(np.abs(ratio - k[interior] / y[interior] ** 2)))
                worst_ratio_dev = max(worst_ratio_dev, dev)
                sigma = new
        ok = worst_gap < 1e-6 and worst_ratio_dev < 1e-3
        announce(4, "diagonal-kernel closed form and contraction", ok)
        assert ok, (
            f"worst optimum gap {worst_gap:.2e} (bound 1e-6); "
            f"worst contraction deviation {worst_ratio_dev:.2e} (bound 1e-3)"
        )

    def test_criterion_05_held_out_optimality_at_convergence(self, announce):
        tight = MultUpdateConfig(max_iters=200000, tol_sigma=1e-12, tol_nll=1e-14)
        worst = 0.0
        checked = 0

        data = gen_example1(3)
        params = KernelParams(float(np.var(data.y_centered)), 0.2)
        sigma, trace = optimize_sigma(params, data, tight)
        if trace.converged:
            state = fit(params, sigma, data.X, data.y_centered)
            res = loocv(state, data.y_centered)
            worst = max(worst, float(np.max((res.errors / res.stds) ** 2)))
            checked += 1

        for i in range(10):
            rng = make_rng(600 + i)
            n = 8 + int(rng.random() * 17)
            X = 2.0 * rng.random((n, 2)) - 1.0
            params = KernelParams(1.0, 0.4)
            y = normals(rng, n)
            spikes = rng.random(n) < 0.3
            y = y + np.where(spikes, normals(rng, n, std=2.0), 0.0)
            K = build_kernel_matrix(params, X)
            sigma, trace = optimize_sigma_matrix(K, y, tight)
            if not trace.converged:
                continue
            state = fit_matrix(K, sigma, y)
            res = loocv(state, y)
            worst = max(worst, float(np.max((res.errors / res.stds) ** 2)))
            checked += 1

        ok = checked >= 10 and worst <= 1.0 + 1e-6
        announce(5, "held-out error bounded by held-out spread", ok)
        assert ok, (
            f"worst (error/std)^2 = {worst!r} over {checked} converged runs "
            f"(bound 1 + 1e-6)"
        )

    def test_criterion_06_objective_never_increases(self, announce):
        violations = []
        for i in range(100):
            rng = make_rng(500 + i)
            n = 4 + int(rng.random() * 61)  # 4..64
            d = 1 + int(rng.random() * 2)
            X = 2.0 * rng.random((n, d)) - 1.0
            params = KernelParams(0.5 + 2.0 * rng.random(), 0.2 + 0.8 * rng.random())
            y = normals(rng, n) * (0.5 + rng.random())
            spikes = rng.random(n) < 0.2
            y = y + np.where(spikes, normals(rng, n, std=2.0), 0.0)
            K = build_kernel_matrix(params, X)
            _, trace = optimize_sigma_matrix(K, y)
            increases = np.diff(np.asarray(trace.nll_per_iter))
            if not trace.monotone or np.any(increases > 1e-10):
                violations.append(500 + i)

        data = gen_example1(0)
        _, trace = optimize_sigma(heuristic_params(data.X, data.y_centered), data)
        fixture_ok = trace.monotone
        ok = not violations and fixture_ok
        announce(6, "objective trace is non-increasing", ok)
        if violations:
            print(f"monotonicity violated for seeds: {violations}")
        assert ok, f"violating seeds {violations}; fixture monotone={fixture_ok}"

    def test_criterion_07_optimizers_agree_and_multiplicative_is_cheaper(
        self, announce
    ):
        agree = 0
        cheaper = 0
        worst_gap = 0.0
        for s in range(20):
            rng = make_rng(300 + s)
            n = 8 + int(rng.random() * 7)
            params = KernelParams(1.0, 0.25)
            clean = gen_gp(params, n, d=2, seed=400 + s)
            y = clean.y + normals(rng, n, std=2.0)
            K = build_kernel_matrix(params, clean.X)
            _, mult_trace = optimize_sigma_matrix(K, y)
            _, pgd_trace = projected_gradient_baseline_matrix(
                K, y, PgdConfig(max_iters=20000)
            )
            gap = abs(mult_trace.final_nll - pgd_trace.final_nll)
            worst_gap = max(worst_gap, gap)
            if gap < 1e-4:
                agree += 1
            if mult_trace.func_evals < pgd_trace.func_evals:
                cheaper += 1
        ok = agree == 20 and cheaper >= 18
        announce(7, "optimizer agreement with fewer evaluations", ok)
        assert ok, (
            f"agreement {agree}/20 (worst NLL gap {worst_gap:.2e}, bound 1e-4); "
            f"multiplicative cheaper on {cheaper}/20 (need >= 18)"
        )

    def test_criterion_08_detection_auc_on_synthetic_example(self, announce):
        """Seeds 0-19, and held out 1000-1019: the floor's chance argument
        holds for any 20 draws of the generator, so it does not move."""
        failures = []
        for first in (0, 1000):
            seeds = range(first, first + 20)
            aucs = []
            for seed in seeds:
                data = gen_example1(seed)
                _, sigma, _ = joint_optimize(data)
                aucs.append(roc_auc(sigma, data.truth.corrupted))
            median = float(np.median(aucs))
            if median < DETECTION_AUC_FLOOR:
                failures.append(f"median AUC {median:.4f} over seeds {first}-{first + 19}; per-seed AUCs "
                                + ", ".join(f"{seed}: {auc:.3f}" for seed, auc in zip(seeds, aucs)))
        ok = not failures
        announce(8, f"median detection AUC at least {DETECTION_AUC_FLOOR:.2f}", ok)
        assert ok, f"floor {DETECTION_AUC_FLOOR:.2f}: " + "; ".join(failures)

    def test_criterion_09_noise_aware_validation_ordering(self, announce):
        t0 = time.perf_counter()
        params = KernelParams(1.0, 0.8)
        base = gen_gp(params, 200, d=3, seed=42)
        failures = []
        for rate in (0.1, 0.3, 0.5):
            for level in (0.5, 1.0):
                noisy = inject_noise(
                    base, NoiseInjectionSpec(rate=rate, level=level, seed=7)
                )
                maes = cv_mae(noisy, params, folds=5, seed=0)
                if not maes["full"] < maes["basic"] < maes["plain"]:
                    failures.append((rate, level, maes))
        elapsed = time.perf_counter() - t0
        ok = not failures and elapsed < 120.0
        announce(9, "per-label noise improves cross-validation in every cell", ok)
        assert ok, f"cells violating full < basic < plain: {failures}; {elapsed:.0f}s"

    def test_criterion_10_penalty_shrinks_noise_mass(self, announce):
        data = gen_example1(0)
        params = heuristic_params(data.X, data.y_centered)
        plain, _ = optimize_sigma(params, data)
        penalized, _ = optimize_sigma(
            params, data, MultUpdateConfig(penalty_lambda=0.5, penalty_p=1.0)
        )
        ok = float(np.sum(penalized)) <= float(np.sum(plain))
        announce(10, "sparsity penalty does not grow total noise", ok)
        assert ok, f"penalized l1 {np.sum(penalized):.4f} > plain {np.sum(plain):.4f}"

    def test_criterion_11_benchmark_is_deterministic(self, announce, tmp_path):
        base = tmp_path / "base.csv"
        code_gen = cli.main(["gen", "--grid", "--n", "40", "--rate", "0", "--seed", "5", "--out", str(base)])
        argv = [
            "benchmark", "--data", str(base), "--rates", "0.1,0.3",
            "--levels", "0.5,1.0", "--seed", "5",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        code_a = cli.main(argv + ["--out", str(first)])
        code_b = cli.main(argv + ["--out", str(second)])
        ok = code_gen == code_a == code_b == 0 and first.read_bytes() == second.read_bytes()
        announce(11, "benchmark output is byte-identical across runs", ok)
        assert ok
