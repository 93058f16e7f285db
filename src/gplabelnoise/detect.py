"""Turning fitted noise variances into noisy-label calls, plus the metrics
used to judge them.

A label's score is its fitted noise variance sigma_i. Detection is a
threshold on that score; the default threshold is median + 3 * MAD, which
stays put when a minority of labels carries large variances. Ranking quality
is measured threshold-free by ROC AUC (Mann-Whitney form, from mid-ranks
computed in NumPy, so ties get half credit) and by precision at fixed recall
levels; calibration of the fitted variances against the actually injected
noise by an R^2; and end-to-end regression benefit by cross-validated MAE of
the GP predictor with the noise model switched off (``plain``), shared
(``basic``), or per-label (``full``): one call scores all three on the same
folds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, InvalidInputError, NumericalError, UndefinedMetricError
from .gpr import _check_sigma, fit_matrix, predict_batch
from .kernel import KernelParams, build_kernel_matrix
from .noiseopt import MultUpdateConfig, optimize_sigma_matrix, optimize_sigma_uniform_matrix
from .rng import _check_count, make_rng

__all__ = [
    "DetectionReport",
    "default_threshold",
    "flag_noisy",
    "roc_auc",
    "precision_at_recall",
    "r2_noise",
    "cv_mae",
]

CV_MODES = ("plain", "basic", "full")


@dataclass(frozen=True)
class DetectionReport:
    """The threshold applied and the flags.

    The fitted variances are the scores: flags[i] = (sigma[i] > threshold)
    for the vector given to ``flag_noisy``, which the caller keeps.
    """

    threshold: float
    flags: np.ndarray

    @property
    def n_flagged(self) -> int:
        return int(np.sum(self.flags))


def default_threshold(scores) -> float:
    """median(scores) + 3 * median(|scores - median|)."""
    scores = np.asarray(scores, dtype=float)
    med = float(np.median(scores))
    return med + 3.0 * float(np.median(np.abs(scores - med)))


def flag_noisy(sigma, threshold: float | None = None) -> DetectionReport:
    """Flag labels whose noise variance exceeds the threshold (strictly).

    With ``threshold=None`` the median + 3 MAD default is used. Variances
    must be finite and non-negative, and the threshold non-negative (not NaN).
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.shape[0] == 0:
        raise InvalidInputError("sigma must be a non-empty vector")
    _check_sigma(sigma, sigma.shape[0])
    if threshold is None:
        threshold = default_threshold(sigma)
    if not threshold >= 0.0:
        raise InvalidInputError(f"threshold must be non-negative, got {threshold}")
    return DetectionReport(threshold=float(threshold), flags=sigma > threshold)


def _check_binary_truth(scores: np.ndarray, truth) -> np.ndarray:
    truth = np.asarray(truth)
    if truth.shape != scores.shape:
        raise InvalidInputError("scores and truth must have matching shapes")
    return truth.astype(bool)


def _midranks(scores: np.ndarray) -> np.ndarray:
    """Ranks from 1, ties given the mean of the ranks they span; all NaN if
    any score is NaN. Bitwise equal to ``scipy.stats.rankdata(scores)``."""
    if np.isnan(scores).any():
        return np.full(scores.shape, np.nan)
    order = np.argsort(scores, kind="mergesort")
    ordered = scores[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]  # starts a tie group
    dense = np.empty(scores.shape[0], dtype=np.intp)
    dense[order] = first.cumsum()
    count = np.r_[np.nonzero(first)[0], scores.shape[0]]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def roc_auc(scores, truth) -> float:
    """Probability that a random corrupted label outscores a random clean
    one, ties counted half — the Mann-Whitney statistic, computed from
    mid-ranks in NumPy."""
    scores = np.asarray(scores, dtype=float)
    truth = _check_binary_truth(scores, truth)
    n_pos = int(np.sum(truth))
    n_neg = truth.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one corrupted and one clean label")
    ranks = _midranks(scores)
    return float((np.sum(ranks[truth]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def precision_at_recall(scores, truth, levels) -> dict[float, float]:
    """Precision at the smallest flagged set reaching each recall level.

    The threshold sweeps the distinct score values downward; for each
    requested level the first operating point with recall >= level wins.
    Flagging everything always reaches recall 1, so every level in (0, 1]
    gets an answer. Raises ``InvalidInputError`` for a NaN score, which no
    threshold flags; infinite scores are valid.
    """
    scores = np.asarray(scores, dtype=float)
    truth = _check_binary_truth(scores, truth)
    if np.isnan(scores).any():
        raise InvalidInputError("scores must not be NaN")
    levels = [float(v) for v in np.atleast_1d(levels)]
    _check_recall_levels(levels)
    n_pos = int(np.sum(truth))
    if n_pos == 0:
        raise UndefinedMetricError("precision@recall needs at least one corrupted label")

    points = []  # (recall, precision), recall non-decreasing
    for v in sorted(set(scores.tolist()), reverse=True):  # np.unique would import numpy.ma
        flagged = scores >= v
        tp = int(np.sum(truth & flagged))
        points.append((tp / n_pos, tp / int(np.sum(flagged))))
    out = {}
    for level in levels:
        out[level] = next(prec for rec, prec in points if rec >= level)
    return out


def _check_recall_levels(levels: list[float]) -> None:
    if any(not (0.0 < v <= 1.0) for v in levels):
        raise InvalidInputError(f"recall levels must lie in (0, 1], got {levels}")


def r2_noise(sigma, injected_sq) -> float:
    """R^2 of fitted variances against squared injected perturbations."""
    sigma = np.asarray(sigma, dtype=float)
    target = np.asarray(injected_sq, dtype=float)
    if target.shape != sigma.shape:
        raise InvalidInputError("sigma and injected_sq must have matching shapes")
    ss_tot = float(np.sum((target - np.mean(target)) ** 2))
    if ss_tot == 0.0:
        raise UndefinedMetricError("R^2 is undefined for constant injected noise")
    return 1.0 - float(np.sum((target - sigma) ** 2)) / ss_tot


def _check_folds(folds: int, n: int) -> None:
    _check_count("folds", folds, 2)
    if n < folds:
        raise ConfigError(f"need at least {folds} samples for {folds}-fold CV, got {n}")


def cv_mae(
    data: Dataset,
    params: KernelParams,
    folds: int = 5,
    seed: int = 0,
    config: MultUpdateConfig | None = None,
) -> dict[str, float]:
    """K-fold cross-validated mean absolute error of the GP predictor, keyed
    by noise model in ``CV_MODES`` order: ``plain`` fixes sigma = 0, ``basic``
    fits one shared variance, ``full`` the per-label vector. The models share
    the folds, one seeded permutation split into near-equal parts, and each
    fold's kernel matrix; each MAE is the unweighted mean over the folds.
    """
    _check_folds(folds, data.n)
    config = config or MultUpdateConfig()
    X, y = data.X, data.y_centered
    perm = make_rng(seed).permutation(data.n)
    maes: dict[str, list[float]] = {mode: [] for mode in CV_MODES}
    for fold_id, test_idx in enumerate(np.array_split(perm, folds)):
        train_idx = np.delete(np.arange(data.n), test_idx)  # ascending, as the rows are stored
        X_train, y_train = X[train_idx], y[train_idx]
        K = build_kernel_matrix(params, X_train)
        try:
            basic, _ = optimize_sigma_uniform_matrix(K, y_train, config)
            full, _ = optimize_sigma_matrix(K, y_train, config)
            for errors, sigma in zip(maes.values(), (np.zeros(y_train.shape[0]), basic, full)):
                # one refit alive at a time: each is dropped once it has predicted
                mean, _ = predict_batch(params, X_train, fit_matrix(K, sigma, y_train), X[test_idx])
                errors.append(float(np.mean(np.abs(mean - y[test_idx]))))
        except NumericalError as e:
            raise NumericalError(f"fold {fold_id}: {e.args[0]}", smallest_pivot=e.smallest_pivot) from e
    return {mode: float(np.mean(values)) for mode, values in maes.items()}
