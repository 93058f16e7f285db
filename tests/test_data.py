"""Tests for data generation, noise injection, CSV persistence, and the
deterministic random-number helpers."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gplabelnoise import (
    ConfigError,
    EmptyDatasetError,
    InvalidInputError,
    KernelParams,
    LabelTruth,
    NoiseInjectionSpec,
    ParseError,
    build_kernel_matrix,
    gen_example1,
    gen_gp,
    gen_heteroscedastic,
    inject_noise,
    make_dataset,
    read_dataset,
    write_dataset,
)
from gplabelnoise.rng import choose_subset, make_rng, normals

# ---------------------------------------------------------------------------
# random-number helpers
# ---------------------------------------------------------------------------


class TestRngHelpers:
    """Counter-based generator plus explicit transforms."""

    def test_same_seed_same_stream(self):
        a = normals(make_rng(17), 64)
        b = normals(make_rng(17), 64)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(normals(make_rng(1), 8), normals(make_rng(2), 8))

    def test_normals_are_standardized(self):
        draws = normals(make_rng(0), 100_000)
        assert abs(float(np.mean(draws))) < 0.02
        assert abs(float(np.std(draws)) - 1.0) < 0.02

    def test_std_is_an_exact_scale_factor(self):
        unit = normals(make_rng(5), 1000)
        doubled = normals(make_rng(5), 1000, std=2.0)
        assert np.array_equal(doubled, 2.0 * unit)

    def test_choose_subset_properties(self):
        rng = make_rng(9)
        idx = choose_subset(rng, 30, 12)
        assert idx.shape == (12,)
        assert np.array_equal(idx, np.sort(idx))
        assert len(np.unique(idx)) == 12
        assert idx.min() >= 0 and idx.max() < 30

    def test_choose_subset_edge_sizes(self):
        assert choose_subset(make_rng(3), 5, 0).shape == (0,)
        assert np.array_equal(choose_subset(make_rng(3), 5, 5), np.arange(5))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.9, "3"])
    def test_seed_outside_the_key_range_rejected(self, seed):
        with pytest.raises(ConfigError):
            make_rng(seed)

    def test_largest_seed_accepted(self):
        assert normals(make_rng(2**64 - 1), 2).shape == (2,)

    def test_overflowing_scale_gives_infinite_draws_without_a_warning(self):
        # the suite turns numpy's RuntimeWarning into an error
        draws = normals(make_rng(0), 50, std=1e308)
        assert np.isinf(draws).any() and not np.isnan(draws).any()


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------


class TestMakeDataset:
    """Label centering bookkeeping."""

    def test_center_is_label_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        data = make_dataset(np.zeros((3, 1)), y)
        assert data.y_center == pytest.approx(3.0, rel=1e-15)
        assert abs(float(np.mean(data.y_centered))) < 1e-12
        assert np.array_equal(data.y, y)

    @pytest.mark.parametrize(
        "epsilon,corrupted",
        [
            (np.zeros(3), np.array([True, False, True])),  # epsilon short
            (np.zeros(4), np.array([True, False])),        # corrupted short
            (np.zeros(4), np.zeros((4, 1), dtype=bool)),   # corrupted not a vector
        ],
    )
    def test_truth_of_wrong_shape_rejected(self, epsilon, corrupted):
        with pytest.raises(InvalidInputError):
            make_dataset(np.arange(4.0), np.arange(4.0), LabelTruth(epsilon, corrupted))

    @pytest.mark.parametrize(
        "y",
        [np.array([-1.0, 0.0, 1.0, 1.7]) * 1e154,  # var(y) overflows
         np.array([-1.0, 0.0, 1.0, 1.7]) * 1e300,
         np.array([1.7e308, 1.7e308, 1.0])],  # so does the mean
        ids=["1e154", "1e300", "mean"],
    )
    def test_labels_without_a_finite_variance_rejected(self, y):
        # the suite turns numpy's RuntimeWarning into an error
        message = r"^labels must be finite with a finite variance, largest \|y\| 1.7e\+(154|300|308)$"
        with pytest.raises(InvalidInputError, match=message):
            make_dataset(np.zeros((y.shape[0], 1)), y)

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyDatasetError):
            make_dataset(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("y", [np.zeros(2), np.zeros(4), np.zeros((3, 1))], ids=["short", "long", "column"])
    def test_labels_must_match_the_inputs(self, y):
        with pytest.raises(InvalidInputError, match=r"y must have shape \(3,\)"):
            make_dataset(np.zeros((3, 2)), y)

    @pytest.mark.parametrize("where", ["X", "y"])
    def test_nan_entry_rejected(self, where):
        X, y = np.zeros((3, 2)), np.zeros(3)
        (X if where == "X" else y)[1] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            make_dataset(X, y)

    def test_labels_just_below_the_overflow_accepted(self):
        y = np.array([-1.0, 0.0, 1.0, 1.7]) * 1e153
        assert np.isfinite(make_dataset(np.zeros((4, 1)), y).y_center)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


class TestGenExample1:
    """Grid data from a fixed smooth target with a contaminated subset."""

    def test_shape_and_grid(self):
        data = gen_example1(0)
        assert data.X.shape == (24, 1)
        assert np.allclose(data.X[:, 0], np.linspace(-1.0, 1.0, 24), atol=1e-15)

    def test_contaminated_subset_size(self):
        data = gen_example1(0)
        assert int(data.truth.corrupted.sum()) == 10
        assert np.array_equal(data.truth.epsilon != 0.0, data.truth.corrupted)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_labels_decompose_into_target_plus_noise(self, seed):
        data = gen_example1(seed)
        x = data.X[:, 0]
        target = np.cos(3.0 * np.pi * x) + np.sin(np.pi * x) + 2.0 * x**2
        residual = data.y - target - data.truth.epsilon
        # what remains is the small dense perturbation on every label
        assert np.max(np.abs(residual)) < 0.25
        assert 0.02 < float(np.std(residual)) < 0.1

    def test_deterministic_and_seed_sensitive(self):
        assert np.array_equal(gen_example1(2).y, gen_example1(2).y)
        assert not np.array_equal(gen_example1(2).y, gen_example1(3).y)


class TestGenHeteroscedastic:
    """Fixed one-dimensional benchmark families."""

    def test_first_family_ranges(self):
        data = gen_heteroscedastic("goldberg", 30, 5, seed=0)
        assert data.X.shape == (30, 1)
        assert data.X.min() >= 0.0 and data.X.max() <= 1.0
        assert int(data.truth.corrupted.sum()) == 5

    def test_second_family_ranges(self):
        data = gen_heteroscedastic("le", 30, 3, seed=1)
        assert data.X.min() >= 0.0 and data.X.max() <= np.pi

    @pytest.mark.parametrize(
        "name,n,n_corrupt",
        [
            ("bogus", 10, 2),      # unknown family
            ("goldberg", 10, 11),  # more corrupt than points
            ("goldberg", 10, -1),  # negative count
            ("goldberg", 0, 0),    # no points
            ("le", 10, 2.5),       # fractional count
            ("le", 10.0, 2),       # float size
        ],
    )
    def test_bad_arguments_rejected(self, name, n, n_corrupt):
        with pytest.raises(ConfigError):
            gen_heteroscedastic(name, n, n_corrupt, seed=0)


class TestGenGp:
    """Samples from a zero-mean GP prior."""

    def test_shapes_and_no_truth(self):
        data = gen_gp(KernelParams(1.0, 0.5), 20, d=3, seed=0)
        assert data.X.shape == (20, 3)
        assert data.y.shape == (20,)
        assert data.truth is None

    def test_input_range(self):
        data = gen_gp(KernelParams(1.0, 0.5), 50, d=2, seed=1)
        assert data.X.min() >= -1.0 and data.X.max() <= 1.0

    def test_observation_noise_perturbs_labels(self):
        clean = gen_gp(KernelParams(1.0, 0.5), 16, d=1, seed=4)
        noisy = gen_gp(KernelParams(1.0, 0.5), 16, d=1, seed=4, base_noise_std=0.3)
        assert np.array_equal(clean.X, noisy.X)
        assert not np.array_equal(clean.y, noisy.y)

    def test_deterministic(self):
        a = gen_gp(KernelParams(2.0, 0.3), 12, d=2, seed=7)
        b = gen_gp(KernelParams(2.0, 0.3), 12, d=2, seed=7)
        assert np.array_equal(a.y, b.y)

    def test_singular_prior_takes_the_first_jitter_rung(self):
        """At length scale 2 the 40 x 40 prior covariance does not factor as
        it is; the draw uses the factor of K + 1e-10 * mean(diag K) * I."""
        params = KernelParams(1.0, 2.0)
        data = gen_gp(params, 40, seed=3)
        K = build_kernel_matrix(params, data.X)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(K)
        rng = make_rng(3)
        rng.random((40, 1))  # the inputs
        L = scipy.linalg.cholesky(K + 1e-10 * np.eye(40), lower=True)
        assert np.array_equal(data.y, L @ normals(rng, 40))

    def test_no_points_is_a_config_error(self):
        with pytest.raises(ConfigError):
            gen_gp(KernelParams(1.0, 0.5), 0, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(d=0), dict(d=-1), dict(base_noise_std=-1.0), dict(base_noise_std=float("nan")),
         dict(base_noise_std=float("inf")), dict(n=2.5), dict(d=1.5), dict(n=float("nan"))],
        ids=["d-zero", "d-negative", "noise-negative", "noise-nan", "noise-inf", "n-fractional",
             "d-fractional", "n-nan"],
    )
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            gen_gp(KernelParams(1.0, 0.5), **{"n": 8, "seed": 0, **kwargs})

    def test_base_noise_without_finite_labels_is_invalid_input(self):
        # 1e308 times some of the 50 unit draws overflows
        with pytest.raises(InvalidInputError, match="finite"):
            gen_gp(KernelParams(1.0, 0.3), 50, seed=0, base_noise_std=1e308)


# ---------------------------------------------------------------------------
# noise injection
# ---------------------------------------------------------------------------


class TestInjectNoise:
    """Seeded sparse corruption on top of a clean dataset."""

    def _clean(self, n, seed=0):
        return gen_gp(KernelParams(1.0, 0.5), n, d=1, seed=seed)

    @pytest.mark.parametrize(
        "rate,n,expected",
        [(0.5, 3, 2), (0.25, 2, 1), (0.1, 24, 2), (0.0, 10, 0), (1.0, 10, 10)],
    )
    def test_corrupted_count_rounds_half_up(self, rate, n, expected):
        noisy = inject_noise(self._clean(n), NoiseInjectionSpec(rate=rate, level=1.0))
        assert int(noisy.truth.corrupted.sum()) == expected

    def test_labels_shift_by_recorded_epsilon(self):
        clean = self._clean(20)
        noisy = inject_noise(clean, NoiseInjectionSpec(rate=0.3, level=1.0, seed=5))
        assert np.array_equal(noisy.X, clean.X)
        assert np.array_equal(noisy.y, clean.y + noisy.truth.epsilon)
        clean_mask = ~noisy.truth.corrupted
        assert np.all(noisy.truth.epsilon[clean_mask] == 0.0)

    def test_zero_rate_keeps_labels_bitwise(self):
        clean = self._clean(10)
        noisy = inject_noise(clean, NoiseInjectionSpec(rate=0.0, level=2.0))
        assert np.array_equal(noisy.y, clean.y)

    def test_deterministic_in_spec_seed(self):
        clean = self._clean(15)
        a = inject_noise(clean, NoiseInjectionSpec(rate=0.4, level=1.0, seed=3))
        b = inject_noise(clean, NoiseInjectionSpec(rate=0.4, level=1.0, seed=3))
        c = inject_noise(clean, NoiseInjectionSpec(rate=0.4, level=1.0, seed=4))
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rate=1.1, level=1.0),
            dict(rate=-0.1, level=1.0),
            dict(rate=0.5, level=-1.0),
            dict(rate=0.5, level=float("nan")),
            # seed 2.9 used to inject exactly the noise of seed 2
            *(dict(rate=0.3, level=1.0, seed=seed) for seed in (-1, 2**64, 2.9, "3")),
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            NoiseInjectionSpec(**kwargs)

    @pytest.mark.parametrize("level", [float("inf"), float("-inf")])
    def test_infinite_level_rejected(self, level):
        with pytest.raises(ConfigError, match="noise level must be non-negative and finite"):
            NoiseInjectionSpec(rate=0.5, level=level)

    @pytest.mark.parametrize("seed", range(4))
    def test_level_without_finite_labels_is_invalid_input(self, seed):
        """A finite level whose draws overflow, or whose labels have no finite
        variance, fails as invalid input, not with a floating-point warning."""
        with pytest.raises(InvalidInputError, match="finite"):
            inject_noise(self._clean(20, seed), NoiseInjectionSpec(rate=0.5, level=1e308))


# ---------------------------------------------------------------------------
# the documented draw order, rebuilt from the rng helpers
# ---------------------------------------------------------------------------


def _corrupted_reference(rng, X, y, count, std):
    """Draw the corrupted indices, then one N(0, std^2) perturbation each."""
    n = y.shape[0]
    idx = choose_subset(rng, n, count)
    eps = np.zeros(n)
    eps[idx] = normals(rng, count, std=std)
    return X, y + eps, eps, np.isin(np.arange(n), idx)


def _assert_same(data, reference):
    X, y, eps, corrupted = reference
    assert np.array_equal(data.X, X)
    assert np.array_equal(data.y, y)
    assert np.array_equal(data.truth.epsilon, eps)
    assert np.array_equal(data.truth.corrupted, corrupted)


class TestDrawOrder:
    """Each generator equals its documented recipe, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_example1(self, seed):
        x = np.linspace(-1.0, 1.0, 24)
        f = np.cos(3.0 * np.pi * x) + np.sin(np.pi * x) + 2.0 * x * x
        rng = make_rng(seed)
        base = normals(rng, 24, std=0.05)
        _assert_same(gen_example1(seed), _corrupted_reference(rng, x[:, None], f + base, 10, 0.75))

    @pytest.mark.parametrize("n,n_corrupt,seed", [(30, 6, 0), (7, 0, 3), (5, 5, 2)])
    def test_goldberg(self, n, n_corrupt, seed):
        rng = make_rng(seed)
        x = np.sort(rng.random(n))
        y = 2.0 * np.sin(2.0 * np.pi * x) + (0.5 + x) * normals(rng, n)
        reference = _corrupted_reference(rng, x[:, None], y, n_corrupt, 4.0)
        _assert_same(gen_heteroscedastic("goldberg", n, n_corrupt, seed), reference)

    @pytest.mark.parametrize("n,n_corrupt,seed", [(30, 6, 0), (7, 0, 3), (5, 5, 2)])
    def test_le(self, n, n_corrupt, seed):
        rng = make_rng(seed)
        x = np.sort(np.pi * rng.random(n))
        noise_std = 0.01 + 0.25 * (1.0 - np.sin(2.5 * x)) ** 2
        y = np.sin(2.5 * x) * np.sin(1.5 * x) + noise_std * normals(rng, n)
        reference = _corrupted_reference(rng, x[:, None], y, n_corrupt, 1.0)
        _assert_same(gen_heteroscedastic("le", n, n_corrupt, seed), reference)

    @pytest.mark.parametrize("rate,level,seed", [(0.1, 1.0, 0), (0.5, 0.5, 4), (1.0, 2.0, 9)])
    def test_inject_noise(self, rate, level, seed):
        clean = gen_gp(KernelParams(1.0, 0.5), 25, d=2, seed=3)
        count = int(np.floor(rate * 25 + 0.5))
        std = level * float(np.std(clean.y))
        reference = _corrupted_reference(make_rng(seed), clean.X, clean.y, count, std)
        _assert_same(inject_noise(clean, NoiseInjectionSpec(rate=rate, level=level, seed=seed)), reference)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


class TestCsvRoundTrip:
    """Bit-exact save and reload."""

    def test_with_truth(self, tmp_path):
        data = gen_example1(4)
        path = tmp_path / "d.csv"
        write_dataset(data, path)
        back = read_dataset(path)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)
        assert back.y_center == data.y_center
        assert np.array_equal(back.truth.epsilon, data.truth.epsilon)
        assert np.array_equal(back.truth.corrupted, data.truth.corrupted)

    def test_without_truth(self, tmp_path):
        data = gen_gp(KernelParams(1.0, 0.5), 9, d=2, seed=2, base_noise_std=0.1)
        path = tmp_path / "d.csv"
        write_dataset(data, path)
        back = read_dataset(path)
        assert back.truth is None
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included


@st.composite
def _dataset_arrays(draw):
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    X = np.array(draw(st.lists(_FINITE, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(_FINITE, min_size=n, max_size=n)))
    truth = None
    if draw(st.booleans()):
        epsilon = np.array(draw(st.lists(_FINITE, min_size=n, max_size=n)))
        corrupted = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        truth = LabelTruth(epsilon, corrupted)
    return X, y, truth


def _bits(a: np.ndarray) -> tuple:
    return a.shape, a.dtype.str, a.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arrays=_dataset_arrays())
def test_csv_round_trip_is_bitwise(tmp_path, arrays):
    """Any finite dataset either is refused because its labels have no finite
    variance or comes back from its CSV bit for bit."""
    X, y, truth = arrays
    try:
        data = make_dataset(X, y, truth)
    except InvalidInputError:
        # var(y) overflows only from about |y| = 1e153 at N <= 12
        assert float(np.max(np.abs(y))) > 1e153
        return
    path = tmp_path / "d.csv"
    write_dataset(data, path)
    back = read_dataset(path)
    assert _bits(back.X) == _bits(data.X)
    assert _bits(back.y) == _bits(data.y)
    assert (back.truth is None) == (truth is None)
    if truth is not None:
        assert _bits(back.truth.epsilon) == _bits(data.truth.epsilon)
        assert np.array_equal(back.truth.corrupted, data.truth.corrupted)


class TestReadDatasetErrors:
    """Malformed files are rejected with the offending location."""

    def _valid_lines(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_dataset(gen_example1(0), path)
        return path.read_text().splitlines()

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_dataset(tmp_path / "absent.csv")

    def test_bad_header(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(["totally,wrong,header"] + lines[1:]) + "\n")
        with pytest.raises(ParseError):
            read_dataset(bad)

    def test_header_with_an_unknown_column_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y,foo\n1.0,2.0,3.0\n")
        with pytest.raises(ParseError, match="malformed header"):
            read_dataset(bad)

    def test_empty_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        with pytest.raises(ParseError, match="empty file"):
            read_dataset(bad)

    def test_non_numeric_value_reports_line(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        fields = lines[3].split(",")
        fields[0] = "abc"
        lines[3] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-numeric x0 'abc'") as info:
            read_dataset(bad)
        assert "line 4" in str(info.value)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y\n0.1,1.0\n\n0.2,abc\n")
        with pytest.raises(ParseError, match="non-numeric label 'abc'") as info:
            read_dataset(bad)
        assert "line 4" in str(info.value)

    def test_header_without_inputs_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,epsilon,corrupted\n1.0,0.0,0\n")
        with pytest.raises(ParseError, match="x0"):
            read_dataset(bad)

    def test_ragged_row_reports_line(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        lines[2] = lines[2] + ",0.0"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 3"):
            read_dataset(bad)

    def test_non_finite_value_rejected(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        fields = lines[1].split(",")
        fields[1] = "nan"
        lines[1] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            read_dataset(bad)

    def test_bad_corrupted_flag_rejected(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        fields = lines[1].split(",")
        fields[-1] = "2"
        lines[1] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            read_dataset(bad)

    def test_header_only_file_rejected(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        bad = tmp_path / "empty.csv"
        bad.write_text(lines[0] + "\n")
        with pytest.raises(EmptyDatasetError):
            read_dataset(bad)
