"""Tests for detection scoring: thresholds, ROC AUC, precision at recall,
noise R², and cross-validated MAE."""

import numpy as np
import pytest
from scipy.stats import rankdata

from gplabelnoise import (
    ConfigError,
    InvalidInputError,
    KernelParams,
    NoiseInjectionSpec,
    NumericalError,
    UndefinedMetricError,
    cv_mae,
    default_threshold,
    flag_noisy,
    gen_gp,
    inject_noise,
    loocv,
    precision_at_recall,
    r2_noise,
    roc_auc,
)
from gplabelnoise import detect
from gplabelnoise.detect import CV_MODES
from gplabelnoise.rng import make_rng, normals
from oracles import fit

# ---------------------------------------------------------------------------
# thresholding and flags
# ---------------------------------------------------------------------------


class TestDefaultThreshold:
    """Median plus three median absolute deviations."""

    def test_hand_value(self):
        # median 3, MAD 1  ->  6
        assert default_threshold([1.0, 2.0, 3.0, 4.0, 100.0]) == 6.0

    def test_constant_scores_collapse_to_their_value(self):
        assert default_threshold([2.0, 2.0, 2.0]) == 2.0


class TestFlagNoisy:
    """Strict thresholding of noise scores."""

    def test_flags_above_threshold_only(self):
        report = flag_noisy([1.0, 2.0, 3.0, 4.0, 100.0], threshold=6.0)
        assert report.flags.tolist() == [False, False, False, False, True]
        assert report.n_flagged == 1
        assert report.threshold == 6.0

    def test_threshold_itself_is_not_flagged(self):
        report = flag_noisy([1.0, 2.0, 3.0], threshold=3.0)
        assert report.n_flagged == 0

    def test_default_threshold_used_when_omitted(self):
        sigma = [1.0, 2.0, 3.0, 4.0, 100.0]
        report = flag_noisy(sigma)
        assert report.threshold == default_threshold(sigma)
        assert report.n_flagged == 1

    def test_invariant_under_common_rescaling(self):
        sigma = np.array([0.1, 5.0, 0.4, 2.0])
        base = flag_noisy(sigma, threshold=1.0)
        scaled = flag_noisy(7.5 * sigma, threshold=7.5)
        assert np.array_equal(base.flags, scaled.flags)

    @pytest.mark.parametrize(
        "sigma,threshold",
        [
            ([1.0, 2.0], -1.0),              # negative threshold
            ([], None),                      # empty scores
            ([[1.0, 2.0]], None),            # not one-dimensional
            pytest.param([1.0, 2.0], np.nan, id="nan-threshold"),
            pytest.param([np.nan, 1.0, 2.0], None, id="nan-default"),  # default threshold NaN
            pytest.param([np.nan, 1.0, 2.0], 1.5, id="nan-given"),
            pytest.param([-1.0, 2.0], None, id="negative"),
            pytest.param([np.inf, 1.0, 2.0], None, id="inf"),
            pytest.param([-np.inf, 1.0], 0.5, id="minus-inf"),
        ],
    )
    def test_invalid_inputs_rejected(self, sigma, threshold):
        with pytest.raises(InvalidInputError):
            flag_noisy(sigma, threshold=threshold)

    def test_infinite_threshold_flags_nothing(self):
        assert flag_noisy([1.0, 2.0], threshold=np.inf).n_flagged == 0


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------


def _pairwise_auc(scores, truth):
    """Brute-force average of pairwise win/tie outcomes."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    pos = scores[truth]
    neg = scores[~truth]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestRocAuc:
    """Pairwise ranking probability with half credit for ties."""

    @pytest.mark.parametrize(
        "scores,truth,expected",
        [
            ([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], 1.0),
            ([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0], 0.0),
            ([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0], 0.5),
            ([0.9, 0.1, 0.8, 0.2], [1, 1, 0, 0], 0.5),
            ([0.9, 0.1, 0.8, 0.2], [1, 0, 0, 1], 0.75),
        ],
    )
    def test_hand_values(self, scores, truth, expected):
        assert roc_auc(scores, truth) == pytest.approx(expected, abs=1e-14)
        assert _pairwise_auc(scores, truth) == pytest.approx(expected, abs=1e-14)

    def test_matches_pairwise_oracle_on_random_instances(self):
        for seed in range(20):
            rng = make_rng(700 + seed)
            n = 6 + int(rng.random() * 20)
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            truth = rng.random(n) < 0.4
            if truth.all() or not truth.any():
                continue
            assert roc_auc(scores, truth) == pytest.approx(
                _pairwise_auc(scores, truth), abs=1e-12
            ), f"seed {seed}"

    def test_invariant_under_increasing_transform(self):
        rng = make_rng(71)
        scores = rng.random(30)
        truth = rng.random(30) < 0.5
        assert roc_auc(scores, truth) == roc_auc(np.exp(4.0 * scores), truth)

    @pytest.mark.parametrize("truth", [[1, 1, 1], [0, 0, 0]])
    def test_single_class_truth_rejected(self, truth):
        with pytest.raises(UndefinedMetricError):
            roc_auc([1.0, 2.0, 3.0], truth)

    @pytest.mark.parametrize("truth", [[1, 0], [[1, 0, 1]], [1, 0, 1, 0]])
    def test_truth_of_another_shape_rejected(self, truth):
        with pytest.raises(InvalidInputError, match="matching shapes"):
            roc_auc([1.0, 2.0, 3.0], truth)


def _tied_scores(rng, n):
    """Scores on a coarse grid (ties) with infinities and signed zeros."""
    grid = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 2.0, np.inf])
    return np.where(rng.random(n) < 0.5, grid[rng.integers(0, grid.size, n)], rng.standard_normal(n))


class TestMidRanks:
    """The NumPy mid-ranks against ``scipy.stats.rankdata``, bit for bit."""

    def test_ranks_bitwise_equal_rankdata(self):
        rng = np.random.default_rng(90)
        for n in [1, 2, 3, 7, 24, 200]:
            for _ in range(50):
                scores = _tied_scores(rng, n)
                ranks = detect._midranks(scores)
                assert ranks.dtype == np.float64
                assert ranks.tobytes() == rankdata(scores).tobytes(), scores

    def test_auc_bitwise_equal_rankdata_formula(self):
        rng = np.random.default_rng(91)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 60))
            scores, truth = _tied_scores(rng, n), rng.random(n) < 0.4
            n_pos = int(truth.sum())
            n_neg = n - n_pos
            if n_pos == 0 or n_neg == 0:
                continue
            ranks = rankdata(scores)
            expected = float((np.sum(ranks[truth]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
            assert roc_auc(scores, truth).hex() == expected.hex(), scores
            checked += 1
        assert checked > 250

    def test_any_nan_gives_nan_ranks_and_auc(self):
        scores = np.array([0.3, np.nan, 0.1, 0.3])
        assert np.isnan(detect._midranks(scores)).all()
        assert np.isnan(rankdata(scores)).all()
        assert np.isnan(roc_auc(scores, [1, 0, 0, 1]))


class TestPrecisionAtRecall:
    """First operating point of the descending threshold sweep meeting recall."""

    def test_hand_value(self):
        # top-3 cut is the first with recall >= 0.7; it holds 2 of 3 positives
        out = precision_at_recall([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0], [0.7])
        assert out[0.7] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_low_recall_level_stops_at_top_score(self):
        out = precision_at_recall([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0], [0.5])
        assert out[0.5] == 1.0

    def test_tied_scores_enter_together(self):
        out = precision_at_recall([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0], [1.0])
        assert out[1.0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_multiple_levels_in_one_call(self):
        out = precision_at_recall([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0], [0.5, 0.7, 1.0])
        assert set(out) == {0.5, 0.7, 1.0}
        assert out[0.7] == out[1.0]

    @pytest.mark.parametrize("level", [0.0, 1.2, -0.5])
    def test_out_of_range_level_rejected(self, level):
        with pytest.raises(InvalidInputError):
            precision_at_recall([1.0, 0.5], [1, 0], [level])

    def test_no_positives_rejected(self):
        with pytest.raises(UndefinedMetricError):
            precision_at_recall([1.0, 0.5], [0, 0], [0.5])

    @pytest.mark.parametrize("scores", [[np.nan, 0.5, 0.2], [0.9, np.nan, 0.2], [np.nan] * 3])
    def test_nan_score_rejected(self, scores):
        # no threshold flags a NaN score, so the sweep would end on an empty
        # flagged set
        with pytest.raises(InvalidInputError, match="NaN"):
            precision_at_recall(scores, [1, 0, 1], [0.5, 1.0])

    def test_infinite_scores_are_valid(self):
        out = precision_at_recall([np.inf, 0.5, -np.inf, 0.2], [1, 0, 1, 0], [0.5, 1.0])
        assert out == {0.5: 1.0, 1.0: 0.5}


class TestR2Noise:
    """Coefficient of determination of σ against squared injected noise."""

    def test_hand_value_can_be_negative(self):
        # SS_res = 4, SS_tot = 8/3  ->  1 - 3/2
        assert r2_noise([0.0, 0.0, 4.0], [0.0, 0.0, 2.0]) == pytest.approx(
            -0.5, abs=1e-12
        )

    def test_exact_match_gives_one(self):
        target = np.array([0.0, 1.0, 4.0, 0.25])
        assert r2_noise(target.copy(), target) == 1.0

    def test_constant_target_rejected(self):
        with pytest.raises(UndefinedMetricError):
            r2_noise([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            r2_noise([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# cross-validated mean absolute error
# ---------------------------------------------------------------------------


class TestCvMae:
    """Fold-based predictive error under the three noise-handling modes."""

    def test_mode_names_exported(self):
        assert CV_MODES == ("plain", "basic", "full")

    def test_scores_every_mode_in_order(self):
        data = gen_gp(KernelParams(1.0, 0.5), 12, d=1, seed=0)
        maes = cv_mae(data, KernelParams(1.0, 0.5), folds=3)
        assert tuple(maes) == CV_MODES
        assert all(np.isfinite(v) for v in maes.values())

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(folds=1),
            dict(folds=50),  # more folds than points
            # a fold count must be an integer: NaN reached np.array_split,
            # inf the sample-count message, and 2.5 ran 2 folds
            dict(folds=float("nan")),
            dict(folds=float("inf")),
            dict(folds=2.5),
            dict(folds=2.0),
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        data = gen_gp(KernelParams(1.0, 0.5), 12, d=1, seed=0)
        with pytest.raises(ConfigError):
            cv_mae(data, KernelParams(1.0, 0.5), **kwargs)

    def test_numpy_integer_fold_count_accepted(self):
        data = gen_gp(KernelParams(1.0, 0.5), 12, d=1, seed=0)
        assert cv_mae(data, KernelParams(1.0, 0.5), folds=np.int64(5)) == cv_mae(data, KernelParams(1.0, 0.5), folds=5)

    def test_leave_one_out_matches_closed_form(self):
        params = KernelParams(1.5, 0.15)
        data = gen_gp(params, 10, d=1, seed=5, base_noise_std=0.3)
        via_cv = cv_mae(data, params, folds=10)["plain"]
        state = fit(params, np.zeros(10), data.X, data.y_centered)
        via_loocv = float(np.mean(np.abs(loocv(state, data.y_centered).errors)))
        assert via_cv == pytest.approx(via_loocv, rel=1e-8)

    def test_noise_aware_mode_beats_plain_on_corrupted_data(self):
        clean = gen_gp(KernelParams(1.0, 0.4), 60, d=2, seed=3)
        noisy = inject_noise(clean, NoiseInjectionSpec(rate=0.3, level=1.5, seed=2))
        maes = cv_mae(noisy, KernelParams(1.0, 0.4), folds=5, seed=0)
        assert maes["full"] < maes["plain"]
        assert maes["plain"] > 5.0
        assert maes["full"] < 1.5

    def test_clean_data_has_small_error(self):
        data = gen_gp(KernelParams(1.0, 0.5), 40, d=1, seed=9)
        mae = cv_mae(data, KernelParams(1.0, 0.5), folds=5, seed=0)["plain"]
        assert mae <= 0.05 * float(np.std(data.y))

    def test_deterministic_for_fixed_seed(self):
        data = gen_gp(KernelParams(1.0, 0.5), 20, d=1, seed=6, base_noise_std=0.2)
        params = KernelParams(1.0, 0.5)
        a = cv_mae(data, params, folds=4, seed=11)["basic"]
        b = cv_mae(data, params, folds=4, seed=11)["basic"]
        assert a == b
        c = cv_mae(data, params, folds=4, seed=12)["basic"]
        assert np.isfinite(c)

    @pytest.mark.parametrize(
        "failing", ["fit_matrix", "optimize_sigma_uniform_matrix", "optimize_sigma_matrix"],
        ids=["plain", "basic", "full"],
    )
    def test_failed_fit_names_its_fold(self, failing, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise NumericalError("factorization failed", smallest_pivot=-1.0)

        monkeypatch.setattr(detect, failing, failing_fit)
        data = gen_gp(KernelParams(1.0, 0.5), 12, d=1, seed=0)
        with pytest.raises(NumericalError, match="^fold 0: factorization failed$") as info:
            cv_mae(data, KernelParams(1.0, 0.5))
        assert info.value.smallest_pivot == -1.0
