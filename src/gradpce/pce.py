"""Tensor-product polynomial chaos bases over total-degree multi-index sets.

A basis is the value (measure, dim, degree); its univariate family table and
its multi-indices are details it derives from those three fields.  They are
built once per value in a process, after the fields are checked, and every
equal basis shares them read-only.  A design's blocks are gathered row by row
from degree-major tables.

Multi-indices are ordered graded-lexicographically (by total degree, then by
lexicographic comparison of the index tuple), so the zero index always comes
first and the ordering is reproducible across runs and platforms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .checks import checked
from .polynomials import Measure, PolynomialFamily

# Refuse to materialize index sets larger than this.
INDEX_CAP = 5_000_000


def _all_indices(dim: int, degree: int) -> np.ndarray:
    """All multi-indices with total degree <= degree, in lexicographic order.

    Grows the array one dimension at a time: every partial index with budget
    left gets one block of rows per admissible value of the next coordinate.
    """
    idx = np.arange(degree + 1, dtype=np.int32)[:, None]
    sums = np.arange(degree + 1, dtype=np.int64)
    for _ in range(dim - 1):
        counts = degree - sums + 1
        total = int(counts.sum())
        idx = np.repeat(idx, counts, axis=0)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        new_col = (np.arange(total, dtype=np.int64) - offsets).astype(np.int32)
        idx = np.hstack((idx, new_col[:, None]))
        sums = np.repeat(sums, counts) + new_col
    return idx


def total_degree_set(dim: int, degree: int) -> np.ndarray:
    """The (size, dim) int32 array of {k : |k| <= degree} in graded-lexicographic order."""
    if checked("dim", dim, int) < 1:
        raise ValueError("dimension must be at least 1")
    if checked("degree", degree, int) < 0:
        raise ValueError("degree must be nonnegative")
    size = math.comb(dim + degree, degree)
    if size > INDEX_CAP:
        raise ValueError(f"index set of size {size} exceeds the cap {INDEX_CAP}")
    idx = _all_indices(dim, degree)
    # A stable sort by total degree keeps the lexicographic order within each degree.
    return idx[np.argsort(idx.sum(axis=1), kind="stable")]


@functools.lru_cache(maxsize=32)
def _derived(measure: Measure, dim: int, degree: int) -> tuple[np.ndarray, PolynomialFamily]:
    """The read-only index set and the family of a basis, built once per value in a process."""
    indices = total_degree_set(dim, degree)
    indices.flags.writeable = False
    return indices, PolynomialFamily(measure, degree)


@dataclass(frozen=True)
class PceBasis:
    """Tensor-product orthonormal basis over a total-degree index set.

    A basis is the value (measure, dim, degree): it compares and hashes by
    those three fields.  Every dimension uses the measure's univariate
    family, tabulated up to ``degree``; ``indices`` holds the multi-indices
    of the columns, one row each, from :func:`total_degree_set`.  Both are
    derived from the fields, once per value in a process, and are read-only.
    """

    measure: Measure
    dim: int
    degree: int
    indices: np.ndarray = field(init=False, repr=False, compare=False)
    family: PolynomialFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Check the fields before the cache lookup: True == 1 and 2.0 == 2 hash alike.
        key = (checked("measure", self.measure, Measure), checked("dim", self.dim, int),
               checked("degree", self.degree, int))
        indices, family = _derived(*key)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "family", family)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_measure(measure: Measure, dim: int, degree: int) -> "PceBasis":
        """Alias of the constructor, kept only because the benchmark's set-up statement calls it."""
        return PceBasis(measure, dim, degree)

    @staticmethod
    def legendre(dim: int, degree: int) -> "PceBasis":
        return PceBasis(Measure.uniform(), dim, degree)

    # -- properties --------------------------------------------------------

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    # -- evaluation --------------------------------------------------------

    def _point_array(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (N, {self.dim})")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        return pts

    def matrices(self, points, axes) -> np.ndarray:
        """One matrix per entry of ``axes``, all from one pass over the 1-D tables.

        Entry None gives the basis matrix, with entry (n, k) = psi_k(points[n]);
        an integer gives the partial derivatives of the basis along that axis.
        The matrices are the blocks of one C-contiguous (len(axes), N, size)
        array, so stacking them is a reshape.
        """
        for axis in axes:
            if axis is not None and not 0 <= checked("axis", axis, int) < self.dim:
                raise ValueError(f"axis {axis} out of range for dimension {self.dim}")
        pts = self._point_array(points)
        n = pts.shape[0]
        # Degree-major tables from one call, row k * dim + j holding p_k (or p_k') at
        # coordinate j of every point: the recurrence acts on each coordinate alone,
        # so they equal one call per dimension bitwise.
        values, derivs = self.family.eval_table(pts.T.ravel())
        shape = ((self.degree + 1) * self.dim, n)
        values, derivs = values.T.reshape(shape), derivs.T.reshape(shape)
        rows = self.indices.T * self.dim + np.arange(self.dim)[:, None]
        blocks = np.empty((len(axes), n, self.size))
        product = np.empty((self.size, n))
        for block, axis in zip(blocks, axes):
            # Each factor is gathered by rows into the block's own buffer, seen as
            # (size, N), and multiplied into ``product`` in dimension order.
            factor = block.reshape(self.size, n)
            np.take(derivs if axis == 0 else values, rows[0], axis=0, out=product, mode="clip")
            for j in range(1, self.dim):
                np.take(derivs if j == axis else values, rows[j], axis=0, out=factor, mode="clip")
                product *= factor
            block[...] = product.T
        return blocks

    def matrix(self, points) -> np.ndarray:
        """Basis matrix with entry (n, k) = psi_k(points[n])."""
        return self.matrices(points, (None,))[0]

    def gradient_matrix(self, points, axis: int) -> np.ndarray:
        """Matrix of partial derivatives of the basis along one coordinate."""
        return self.matrices(points, (axis,))[0]
