"""Deterministic random-number policy.

Every stochastic routine in this package draws from a Philox 4x64 counter-based
generator (numpy's ``np.random.Philox``) keyed directly by the user-supplied
seed, and converts uniforms to normals with the Box-Muller transform below.
Both algorithms are pinned here so that fixtures can be regenerated, and
reimplemented in other languages, from the seed alone:

* uniforms: Philox 4x64 with 10 rounds, counter starting at zero, key = seed;
  each double is the top 53 bits of one 64-bit word divided by 2**53.
* normals: Box-Muller, z = sqrt(-2 ln(1 - u1)) * cos(2 pi u2), consuming two
  uniforms per draw in array order.
* subset selection: first k entries of a Fisher-Yates permutation as
  implemented by ``numpy.random.Generator.permutation``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["make_rng", "normals", "choose_subset"]


def make_rng(seed: int) -> np.random.Generator:
    """Philox-backed generator for the given seed, an integer in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def normals(rng: np.random.Generator, size, std: float = 1.0) -> np.ndarray:
    """Seeded N(0, std^2) draws via the Box-Muller transform.

    Uses only ``rng.random`` so the stream consumed is exactly two uniforms
    per normal, independent of numpy's internal ziggurat tables.
    """
    u1 = rng.random(size)
    u2 = rng.random(size)
    # 1 - u1 lies in (0, 1], keeping the log argument nonzero.
    z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    return std * z


def choose_subset(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """First k indices of a seeded permutation of range(n), sorted."""
    return np.sort(rng.permutation(n)[:k])
