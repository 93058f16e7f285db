"""Tests for data generation, noise injection, CSV persistence, and the
deterministic random-number helpers."""

import numpy as np
import pytest

from gplabelnoise import (
    ConfigError,
    EmptyDatasetError,
    InvalidInputError,
    KernelParams,
    LabelTruth,
    NoiseInjectionSpec,
    ParseError,
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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_range_rejected(self, seed):
        with pytest.raises(ConfigError):
            make_rng(seed)

    def test_largest_seed_accepted(self):
        assert normals(make_rng(2**64 - 1), 2).shape == (2,)


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

    def test_no_points_is_a_config_error(self):
        with pytest.raises(ConfigError):
            gen_gp(KernelParams(1.0, 0.5), 0, seed=0)


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
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            NoiseInjectionSpec(**kwargs)


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
