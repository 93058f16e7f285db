"""Synthetic dataset generation, noise injection, and CSV round-tripping.

Datasets keep the labels exactly as generated or read from disk; ``y_center``
stores the label mean and ``y_centered`` is the zero-mean view every fitting
routine consumes (the GP prior mean is zero). Storing raw labels keeps the
CSV round trip bit-exact: floats are serialized with ``repr``, the shortest
representation that reparses to the identical double.

All generators draw from the seeded Philox/Box-Muller policy in ``rng``; a
generator is a pure function of its seed and parameters.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyDatasetError, InvalidInputError, ParseError
from .gpr import cholesky_with_jitter
from .kernel import KernelParams, build_kernel_matrix
from .rng import choose_subset, make_rng, normals

__all__ = [
    "LabelTruth",
    "Dataset",
    "NoiseInjectionSpec",
    "make_dataset",
    "gen_example1",
    "gen_heteroscedastic",
    "gen_gp",
    "inject_noise",
    "read_dataset",
    "write_dataset",
]


@dataclass(frozen=True)
class LabelTruth:
    """Injected corruption record: perturbation added to each label and flags."""

    epsilon: np.ndarray  # label units; 0 for clean labels
    corrupted: np.ndarray  # bool


@dataclass(frozen=True)
class Dataset:
    """Inputs, labels, stored centering offset, optional corruption truth.

    ``y`` holds the labels exactly as generated or parsed; ``y_center`` is
    their mean. Fitting code uses ``y_centered``; predictions are un-centered
    by adding ``y_center`` back.
    """

    X: np.ndarray  # (N, d)
    y: np.ndarray  # (N,)
    y_center: float
    truth: LabelTruth | None = None

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def y_centered(self) -> np.ndarray:
        return self.y - self.y_center


def make_dataset(X, y, truth: LabelTruth | None = None) -> Dataset:
    """Validate arrays and build a Dataset with its centering offset."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise EmptyDatasetError("dataset must contain at least one sample")
    if y.shape != (X.shape[0],):
        raise InvalidInputError(f"y must have shape ({X.shape[0]},), got {y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise InvalidInputError("dataset entries must be finite")
    if truth is not None and not (np.shape(truth.epsilon) == np.shape(truth.corrupted) == y.shape):
        raise InvalidInputError("truth must have one entry per label")
    return Dataset(X=X, y=y, y_center=float(np.mean(y)), truth=truth)


@dataclass(frozen=True)
class NoiseInjectionSpec:
    """Corruption protocol: rate = fraction of labels corrupted, level =
    ratio of the corruption std to the pristine-label std. Noise on every
    label belongs to the clean data, e.g. ``gen_gp(base_noise_std=...)``."""

    rate: float
    level: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.rate <= 1.0):
            raise ConfigError(f"noise rate must be in [0, 1], got {self.rate}")
        if self.level < 0.0:
            raise ConfigError(f"noise level must be non-negative, got {self.level}")

    def corrupted_count(self, n: int) -> int:
        # round-half-up, so the count is exact for every rate/N combination
        return int(math.floor(self.rate * n + 0.5))


def gen_example1(seed: int) -> Dataset:
    """24-point 1-D benchmark: cos(3 pi x) + sin(pi x) + 2 x^2 on a uniform
    grid over [-1, 1], mild noise (std 0.05) on every label and strong
    contamination (std 0.75) on a seeded subset of 10."""
    n = 24
    x = np.linspace(-1.0, 1.0, n)
    f = np.cos(3.0 * np.pi * x) + np.sin(np.pi * x) + 2.0 * x * x
    rng = make_rng(seed)
    return _corrupt(rng, x[:, None], f + normals(rng, n, std=0.05), 10, 0.75)


def gen_heteroscedastic(name: str, n: int, n_corrupt: int, seed: int) -> Dataset:
    """Heteroscedastic 1-D benchmark with ``n_corrupt`` contaminated labels.

    The shapes are reconstructions of the classic benchmarks, not values
    taken from any table. ``name`` picks the family:

    - 'goldberg': 2 sin(2 pi x) with x uniform on [0, 1], base-noise std
      0.5 + x, contamination std 4;
    - 'le': sin(2.5 x) sin(1.5 x) with x uniform on [0, pi], base-noise std
      0.01 + 0.25 (1 - sin(2.5 x))^2, contamination std 1.
    """
    if name not in ("goldberg", "le"):
        raise ConfigError(f"unknown generator {name!r}; expected 'goldberg' or 'le'")
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    if n_corrupt > n or n_corrupt < 0:
        raise ConfigError(f"n_corrupt must lie in [0, {n}], got {n_corrupt}")
    rng = make_rng(seed)
    if name == "goldberg":
        x = np.sort(rng.random(n))
        mean = 2.0 * np.sin(2.0 * np.pi * x)
        noise_std = 0.5 + x
        contamination_std = 4.0
    else:
        x = np.sort(float(np.pi) * rng.random(n))
        mean = np.sin(2.5 * x) * np.sin(1.5 * x)
        noise_std = 0.01 + 0.25 * (1.0 - np.sin(2.5 * x)) ** 2
        contamination_std = 1.0
    y = mean + noise_std * normals(rng, n)
    return _corrupt(rng, x[:, None], y, n_corrupt, contamination_std)


def gen_gp(
    params: KernelParams,
    n: int,
    d: int = 1,
    seed: int = 0,
    base_noise_std: float = 0.0,
) -> Dataset:
    """Pristine draw from an RBF GP prior over inputs uniform on [-1, 1]^d.

    No truth record: the result plays the role of clean data that
    ``inject_noise`` corrupts. ``base_noise_std`` adds iid observation noise.
    """
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    rng = make_rng(seed)
    X = -1.0 + 2.0 * rng.random((n, d))
    K = build_kernel_matrix(params, X)
    L, _ = cholesky_with_jitter(K, diag_ref=float(np.mean(np.diag(K))))
    y = L @ normals(rng, n)
    if base_noise_std > 0.0:
        y = y + normals(rng, n, std=base_noise_std)
    return make_dataset(X, y)


def inject_noise(clean: Dataset, spec: NoiseInjectionSpec) -> Dataset:
    """Corrupt a seeded subset of labels with N(0, (level * std(y))^2) noise.

    Exactly round-half-up(rate * N) labels are hit; the rest are untouched.
    Any existing truth record is replaced.
    """
    std = spec.level * float(np.std(clean.y))
    return _corrupt(make_rng(spec.seed), clean.X, clean.y, spec.corrupted_count(clean.n), std)


def _corrupt(rng: np.random.Generator, X: np.ndarray, y: np.ndarray, count: int, std: float) -> Dataset:
    """The corruption protocol every generator shares: draw ``count`` label
    indices, then one N(0, std^2) perturbation for each, in that order."""
    n = y.shape[0]
    idx = choose_subset(rng, n, count)
    eps = np.zeros(n)
    eps[idx] = normals(rng, count, std=std)
    corrupted = np.zeros(n, dtype=bool)
    corrupted[idx] = True
    return make_dataset(X, y + eps, LabelTruth(eps, corrupted))


def _header(d: int, with_truth: bool) -> list[str]:
    cols = [f"x{i}" for i in range(d)] + ["y"]
    if with_truth:
        cols += ["epsilon", "corrupted"]
    return cols


def write_dataset(dataset: Dataset, path) -> None:
    """Write the CSV form: header x0,...,x{d-1},y[,epsilon,corrupted]."""
    with_truth = dataset.truth is not None
    lines = [",".join(_header(dataset.d, with_truth))]
    for i in range(dataset.n):
        cells = [repr(float(v)) for v in dataset.X[i]] + [repr(float(dataset.y[i]))]
        if with_truth:
            cells.append(repr(float(dataset.truth.epsilon[i])))
            cells.append("1" if dataset.truth.corrupted[i] else "0")
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``, so a reader never sees a half-written file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _parse_float(cell: str, line_no: int, what: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise ParseError(f"non-numeric {what} {cell!r}", line=line_no) from None
    if not np.isfinite(v):
        raise ParseError(f"non-finite {what} {cell!r}", line=line_no)
    return v


def read_dataset(path) -> Dataset:
    """Parse the CSV form back into a Dataset (strict: exact header, no
    ragged rows, finite numeric cells)."""
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split(",")
    if "y" not in header:
        raise ParseError("header must contain a y column", line=1)
    d = header.index("y")
    with_truth = header[d + 1 :] == ["epsilon", "corrupted"]
    if header != _header(d, with_truth):
        raise ParseError(f"malformed header {lines[0]!r}", line=1)

    rows = [ln for ln in lines[1:] if ln != ""]
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    n = len(rows)
    X = np.empty((n, d))
    y = np.empty(n)
    eps = np.zeros(n)
    corrupted = np.zeros(n, dtype=bool)
    for i, row in enumerate(rows):
        line_no = i + 2
        cells = row.split(",")
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, got {len(cells)}", line=line_no
            )
        for j in range(d):
            X[i, j] = _parse_float(cells[j], line_no, f"x{j}")
        y[i] = _parse_float(cells[d], line_no, "label")
        if with_truth:
            eps[i] = _parse_float(cells[d + 1], line_no, "epsilon")
            if cells[d + 2] not in ("0", "1"):
                raise ParseError(f"corrupted flag must be 0 or 1, got {cells[d + 2]!r}", line=line_no)
            corrupted[i] = cells[d + 2] == "1"
    truth = LabelTruth(eps, corrupted) if with_truth else None
    return make_dataset(X, y, truth)
