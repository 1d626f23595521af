"""Reproducible random sampling of the three measures the library draws from.

All draws go through numpy's counter-based Philox generator keyed by a 64-bit
seed, so a (seed, trial) pair pins every sample exactly, independent of
execution order.  Chebyshev points use the exact inverse CDF
z = cos(pi*u), kept inside the open interval (-1, 1), and uniform points
2u - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import checked
from .polynomials import Measure

_MASK64 = (1 << 64) - 1
# The largest float below 1: the edge of the Chebyshev draws.
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split_stream(seed: int, trial: int) -> int:
    """Derive an independent 64-bit stream key for one trial.

    The map is a bijection composition, so distinct trials under the same
    seed never collide.
    """
    seed, trial = checked("seed", seed, int), checked("trial", trial, int)
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    return _splitmix64(_splitmix64(seed & _MASK64) ^ (trial & _MASK64))


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Points drawn i.i.d. from one measure."""

    measure: Measure
    points: np.ndarray = field(repr=False)  # (N, d)

    def __post_init__(self):
        checked("measure", self.measure, Measure)
        # A float64 array is kept as is, without a copy.
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-d array")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleBatch):
            return NotImplemented
        return (self.measure == other.measure
                and np.array_equal(self.points, other.points, equal_nan=True))

    def __hash__(self) -> int:
        return hash((self.measure, self.points.shape))  # stays valid if the points are written to

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def subset(self, count: int) -> "SampleBatch":
        """First ``count`` points as a batch of the same measure."""
        if not 0 < checked("count", count, int) <= len(self):
            raise ValueError("subset size out of range")
        return SampleBatch(self.measure, self.points[:count])


def sample(measure: Measure, dim: int, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` i.i.d. points of dimension ``dim`` from ``measure``.

    Supported measures: chebyshev (arcsine), uniform and the standard gaussian.
    """
    checked("measure", measure, Measure)
    if checked("dim", dim, int) < 1:
        raise ValueError("dimension must be at least 1")
    if checked("count", count, int) < 1:
        raise ValueError("sample count must be at least 1")
    rng = generator(checked("seed", seed, int))
    if measure == Measure.gaussian():
        pts = rng.standard_normal((count, dim))
    elif measure == Measure.chebyshev():
        # The arcsine law gives +-1 probability zero, but cos(pi*u) rounds to +-1
        # for u within ~3.4e-9 of 0 or 1. Such a draw moves to the nearest float
        # inside, where a basis density that vanishes at the ends still gives
        # the point a positive row weight.
        pts = np.cos(math.pi * rng.random((count, dim)))
        pts.clip(-_BELOW_ONE, _BELOW_ONE, out=pts)
    elif measure == Measure.uniform():
        pts = 2.0 * rng.random((count, dim)) - 1.0
    else:
        raise ValueError(f"sample draws chebyshev, uniform or gaussian, got {measure.label}")
    return SampleBatch(measure, pts)
