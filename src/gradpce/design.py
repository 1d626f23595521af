"""Assembly and diagnostics of gradient-enhanced measurement systems.

A gradient-enhanced design stacks the basis matrix with the partial-derivative
matrices of the included directions, then applies a diagonal row weighting W
(square root of the ratio between each block's natural density and the
sampling density) and a diagonal column normalization P chosen so that the
expected Gram matrix of the weighted system is the identity.  For Hermite
bases under Gaussian sampling W is the identity and only P acts.  The system
depends on the sample points and the gradient directions only; sampled data
are its right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .checks import checked, checked_entries
from .pce import PceBasis
from .polynomials import Measure, density_ratio_to_chebyshev, derivative_constant, tensor_gauss_rule
from .sampling import SampleBatch, sample

# Guard for exact second-moment computation: tensor rules grow as (n+1)^d.
_QUADRATURE_DIM_CAP = 4
# Relative singular-value cut-off of the numeric nullspace checks.
_NULLSPACE_TOL = 1e-10


def sampling_measure(basis_measure: Measure) -> Measure:
    """Sampling distribution paired with a basis measure."""
    if checked("basis_measure", basis_measure, Measure).kind == "gaussian":
        return Measure.gaussian()
    return Measure.chebyshev()


def draw(basis: PceBasis, count: int, seed: int) -> SampleBatch:
    """``count`` points from the sampling measure paired with the basis."""
    measure = sampling_measure(checked("basis", basis, PceBasis).measure)
    return sample(measure, basis.dim, count, seed)


def _check_pairing(basis: PceBasis, batch: SampleBatch) -> None:
    if checked("basis", basis, PceBasis).dim != checked("batch", batch, SampleBatch).dim:
        raise ValueError("basis and sample batch dimensions differ")
    paired = sampling_measure(basis.measure)
    if batch.measure != paired:
        name = "Jacobi" if basis.measure.kind == "jacobi" else "Hermite"
        raise ValueError(
            f"{name} designs require {paired.label.capitalize()} sampling, "
            f"got {batch.measure.label}"
        )


def _normalize_directions(dim: int, directions) -> tuple[int, ...]:
    if directions is None:
        return tuple(range(dim))
    dirs = tuple(sorted(checked_entries("directions", directions, int)))
    if len(set(dirs)) != len(dirs):
        raise ValueError("duplicate gradient directions")
    if dirs and not (0 <= dirs[0] and dirs[-1] < dim):
        raise ValueError("gradient direction out of range")
    return dirs


def _row_weights(basis: PceBasis, points: np.ndarray, directions: tuple[int, ...]) -> np.ndarray:
    """Stacked diagonal of W: one block for values, one per direction."""
    n = points.shape[0]
    measure = basis.measure
    if measure.kind != "jacobi":
        return np.ones(n * (1 + len(directions)))
    # The basis evaluation has rejected points beyond the clamp; clip the rest as it does.
    clipped = np.clip(points, -1.0, 1.0)
    ratios = density_ratio_to_chebyshev(measure, clipped.T)
    blocks = [np.sqrt(np.prod(ratios, axis=0))]
    for axis in directions:
        # The raised family's ratio enters only the block of its own direction.
        raised = density_ratio_to_chebyshev(measure.raised(), clipped[:, axis])
        parts = [raised if j == axis else ratios[j] for j in range(basis.dim)]
        blocks.append(np.sqrt(np.prod(parts, axis=0)))
    weights = np.concatenate(blocks)
    zero = (weights == 0.0).reshape(len(blocks), n).any(axis=0)
    # A zero weight at an interior point is an underflow, not the density's own zero.
    if np.any(zero & (np.abs(clipped).max(axis=1) < 1.0)):
        raise ValueError(
            f"Jacobi parameters alpha={measure.alpha}, beta={measure.beta} are too large for "
            "these sample points: a row weight underflows to 0"
        )
    if np.any(zero):
        i = int(np.argmax(zero))
        raise ValueError(
            f"row weights must be strictly positive: sample point {i}, {points[i].tolist()}, "
            "has a coordinate on the boundary ±1, where a row weight is 0"
        )
    return weights


def column_normalizer(basis: PceBasis, directions=None) -> np.ndarray:
    """Diagonal of P: unit expected stacked column energy per basis function.

    Entry k is (1 + sum over included directions of c(k_j)^2)^(-1/2), where c
    is the derivative constant of the basis measure (sqrt(k_j) for Hermite).
    """
    dirs = _normalize_directions(checked("basis", basis, PceBasis).dim, directions)
    idx = basis.indices
    consts = np.array([derivative_constant(basis.measure, n) for n in range(basis.degree + 1)])
    energy = np.ones(basis.size)
    for axis in dirs:
        energy += consts[idx[:, axis]] ** 2
    return 1.0 / np.sqrt(energy)


def design_matrices(
    basis: PceBasis, batch: SampleBatch, directions=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw stacked system and its weights: (phi, phi_tilde, w, p).

    phi is the value block of phi_tilde, a view that shares its memory.
    """
    _check_pairing(basis, batch)
    dirs = _normalize_directions(basis.dim, directions)
    blocks = basis.matrices(batch.points, (None,) + dirs)
    phi_tilde = blocks.reshape(-1, basis.size)  # a view: the blocks are stacked in place
    phi = blocks[0]
    w = _row_weights(basis, batch.points, dirs)
    p = column_normalizer(basis, dirs)
    return phi, phi_tilde, w, p


@dataclass(frozen=True)
class GradientDesign:
    """Weighted gradient-enhanced measurement system of one sample batch.

    It holds no data: :meth:`stack` orders sampled values and gradients to
    match its rows.
    """

    basis: PceBasis
    batch: SampleBatch
    directions: tuple[int, ...]
    phi_tilde: np.ndarray = field(repr=False)  # (N*(1+q), M) stacked raw system
    w: np.ndarray = field(repr=False)          # stacked diagonal of W
    p: np.ndarray = field(repr=False)          # diagonal of P

    def __post_init__(self):
        checked("basis", self.basis, PceBasis)
        rows = len(checked("batch", self.batch, SampleBatch)) * (1 + len(self.directions))
        shape = (len(self.w), len(self.p))
        if self.phi_tilde.shape != shape:
            raise ValueError(f"phi_tilde must have shape (len(w), len(p)) = {shape}, "
                             f"got {self.phi_tilde.shape}")
        if len(self.p) != self.basis.size:
            raise ValueError(f"p must hold one entry per basis function ({self.basis.size}), "
                             f"got {len(self.p)}")
        if len(self.w) != rows:
            raise ValueError(f"w must hold one entry per stacked row, n_samples * "
                             f"(1 + len(directions)) = {rows}, got {len(self.w)}")
        if not np.all(self.w > 0.0):
            raise ValueError("row weights must be strictly positive")
        if not np.all((self.p > 0.0) & (self.p <= 1.0)):
            raise ValueError("column normalizers must lie in (0, 1]")

    @property
    def n_samples(self) -> int:
        return len(self.batch)

    @cached_property
    def phi_hat(self) -> np.ndarray:
        """The preconditioned system W * phi_tilde * P, in one buffer of its own.

        The row weighting makes the buffer and P scales its columns in place,
        so no second full-size temporary is made; ``phi_tilde`` is unchanged.
        """
        hat = self.w[:, None] * self.phi_tilde
        hat *= self.p
        return hat

    def stack(self, values, gradients=None) -> np.ndarray:
        """Raw stacked data [values, gradients along each direction] of the rows.

        ``gradients`` holds one column per basis dimension (columns of excluded
        directions are ignored); it may be omitted only when no directions are
        included.
        """
        n = self.n_samples
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.shape[0] != n:
            raise ValueError("one value per sample required")
        if not self.directions:
            return values
        if gradients is None:
            raise ValueError("gradient data required for the included directions")
        gradients = np.asarray(gradients, dtype=float)
        if gradients.shape != (n, self.basis.dim):
            raise ValueError(f"gradients must have shape ({n}, {self.basis.dim})")
        return np.concatenate([values] + [gradients[:, a] for a in self.directions])

    def values_only(self) -> "GradientDesign":
        """The value-only system of the same points: W keeps its value block, P is 1."""
        n = self.n_samples
        return GradientDesign(self.basis, self.batch, (), self.phi_tilde[:n], self.w[:n],
                              np.ones(self.basis.size))

    def unscale(self, scaled_coefficients: np.ndarray) -> np.ndarray:
        """Map coefficients of the P-scaled system back to basis coefficients."""
        return self.p * scaled_coefficients


def assemble_gradient_enhanced(
    basis: PceBasis, batch: SampleBatch, directions=None
) -> GradientDesign:
    """Build the weighted stacked system of a sample batch.

    ``directions`` lists the gradient directions (None: all of them). With no
    directions this is the value-only system: W keeps its value block and P
    is 1.
    """
    dirs = _normalize_directions(checked("basis", basis, PceBasis).dim, directions)
    _, phi_tilde, w, p = design_matrices(basis, batch, dirs)
    return GradientDesign(basis, batch, dirs, phi_tilde, w, p)


def assemble_standard(basis: PceBasis, batch: SampleBatch) -> tuple[np.ndarray, np.ndarray]:
    """Value-only preconditioned design W phi and the diagonal of W.

    The stacked design with no gradient directions: its rows are scaled by
    the square root of the ratio between the basis measure's density and the
    sampling density, making the expected Gram matrix the identity.
    """
    design = assemble_gradient_enhanced(basis, batch, ())
    return design.phi_hat, design.w


# -- coherence diagnostics -------------------------------------------------


def mic(matrix: np.ndarray) -> float:
    """Mutual incoherence: largest |cosine| between distinct columns.

    The cosines come from one symmetric product m^T m of the input itself:
    its diagonal holds the squared column norms, and scaling its rows and
    columns by their reciprocal square roots turns it into the cosine matrix.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[1] < 2:
        raise ValueError("need a 2-d matrix with at least two columns")
    # One operand on both sides: BLAS runs the symmetric product on m itself. An
    # overflowing square needs no warning: the finite check below raises on it.
    with np.errstate(over="ignore"):
        gram = m.T @ m
    squares = gram.diagonal().copy()
    if not np.all(np.isfinite(squares)):
        raise ValueError("matrix has a non-finite entry or a column norm that overflows")
    if np.any(squares == 0.0):
        raise ValueError("matrix has a zero column")
    scale = 1.0 / np.sqrt(squares)
    gram *= scale
    gram *= scale[:, None]
    np.fill_diagonal(gram, 0.0)
    return float(np.abs(gram, out=gram).max())


def recovery_guarantee(mic_value: float, sparsity: int) -> bool:
    """Sufficient condition mic < 1/(2s - 1) for unique s-sparse recovery."""
    if checked("sparsity", sparsity, int) < 1:
        raise ValueError("sparsity must be at least 1")
    if not 0.0 <= checked("mic_value", mic_value, float) <= 1.0:
        raise ValueError("mic must lie in [0, 1]")
    return mic_value < 1.0 / (2.0 * sparsity - 1.0)


def coherence_bound(measure: Measure, dim: int) -> tuple[float, float]:
    """Product bound on the weighted suprema of a Jacobi basis and its growth ratio.

    Returns (bound, growth) where bound is the product over the ``dim``
    dimensions of 2e(2 + sqrt(alpha^2 + beta^2)) and growth is the ratio
    between the raised measure's factor and this one; growth lies in
    [1, 1 + sqrt(2)/2].
    """
    if checked("measure", measure, Measure).kind != "jacobi":
        raise ValueError(
            f"coherence bound is defined for Jacobi measures only, got {measure.label}")
    if checked("dim", dim, int) < 1:
        raise ValueError("dimension must be at least 1")
    base = 2.0 + math.hypot(measure.alpha, measure.beta)
    growth = (2.0 + math.hypot(measure.alpha + 1.0, measure.beta + 1.0)) / base
    return math.prod([2.0 * math.e * base] * dim), growth


@dataclass(frozen=True)
class CoherenceReport:
    """Incoherence numbers of one design plus their analytic bounds."""

    mic: float
    value_coherence: float    # sup of squared entries of the weighted value block
    stacked_coherence: float  # sup of squared stacked, normalized column energy
    coherence_bound: float    # product bound for value_coherence (nan for Hermite)
    bound_growth: float       # ratio constant extending the bound to the stack

    @property
    def stacked_bound(self) -> float:
        return self.bound_growth * self.coherence_bound


def coherence_suprema(basis: PceBasis, directions=None, grid_points: int = 2001) -> tuple[float, float]:
    """Grid-scanned suprema (value, stacked) of the weighted squared basis.

    Sample-free counterpart of the suprema in :func:`coherence_params`; limited
    to Jacobi bases of dimension <= 2, where a tensor grid is affordable.
    """
    if checked("grid_points", grid_points, int) < 2:
        raise ValueError("grid_points must be >= 2")
    measure = checked("basis", basis, PceBasis).measure
    if measure.kind != "jacobi":
        raise ValueError("grid scan is defined for Jacobi bases on [-1, 1] only")
    if basis.dim > 2:
        raise ValueError("grid scan supported for dimension <= 2 only")
    dirs = _normalize_directions(basis.dim, directions)
    p = column_normalizer(basis, dirs)
    grid = np.linspace(-1.0, 1.0, grid_points)
    table, derivs = basis.family.eval_table(grid)
    # Tables of ratio * p_n^2 and raised-ratio * p_n'^2, shared by every dimension.
    value_table = density_ratio_to_chebyshev(measure, grid)[:, None] * table**2
    deriv_table = density_ratio_to_chebyshev(measure.raised(), grid)[:, None] * derivs**2
    mu_sup = 0.0
    beta_sup = 0.0
    for col, index in enumerate(basis.indices.tolist()):
        values = [value_table[:, k] for k in index]
        # Value term factorizes, so its sup is the product of the 1-d sups.
        mu_sup = max(mu_sup, math.prod(float(v.max()) for v in values))
        total = reduce(np.multiply.outer, values)
        for j in dirs:
            factors = values[:j] + [deriv_table[:, index[j]]] + values[j + 1:]
            total = total + reduce(np.multiply.outer, factors)
        beta_sup = max(beta_sup, float(p[col] ** 2 * total.max()))
    return mu_sup, beta_sup


def coherence_params(design: GradientDesign, grid_points: int | None = None) -> CoherenceReport:
    """Coherence diagnostics of an assembled design.

    The suprema are taken over the realized sample set; pass ``grid_points``
    to additionally scan a dense tensor grid (dimension <= 2).  The analytic
    bounds apply to Jacobi bases and are nan for Hermite designs.
    """
    n = checked("design", design, GradientDesign).n_samples
    weighted = design.w[:, None] * design.phi_tilde  # stack without P
    value_sq = weighted[:n] ** 2
    mu = float(value_sq.max())
    stacked_sq = value_sq.copy()
    for j in range(1, 1 + len(design.directions)):
        stacked_sq += weighted[j * n : (j + 1) * n] ** 2
    beta = float((stacked_sq * design.p[None, :] ** 2).max())
    if grid_points is not None:
        g_mu, g_beta = coherence_suprema(design.basis, design.directions, grid_points)
        mu = max(mu, g_mu)
        beta = max(beta, g_beta)
    if design.basis.measure.kind == "jacobi":
        bound, growth = coherence_bound(design.basis.measure, design.basis.dim)
    else:
        bound, growth = math.nan, math.nan
    # mic is invariant under positive column scaling, so P need not be applied.
    return CoherenceReport(mic(weighted), mu, beta, bound, growth)


# -- second-moment (isotropy) checks ---------------------------------------


def expected_gram(basis: PceBasis, directions=None) -> np.ndarray:
    """Exact expectation of the weighted Gram matrix phi_hat^T phi_hat / N.

    Each block's expectation reduces to an integral against its own Jacobi
    (or Gaussian) measure, evaluated with an exact tensor Gauss rule, so the
    result is the per-block Gramian identity up to quadrature roundoff.
    """
    if checked("basis", basis, PceBasis).dim > _QUADRATURE_DIM_CAP:
        raise ValueError(
            f"exact second moments limited to dimension <= {_QUADRATURE_DIM_CAP}"
        )
    dirs = _normalize_directions(basis.dim, directions)
    m = basis.degree + 1
    p = column_normalizer(basis, dirs)
    measures = [basis.measure] * basis.dim
    pts, w = tensor_gauss_rule(measures, m)
    mat = basis.matrix(pts)
    gram = (mat * w[:, None]).T @ mat
    raised = basis.measure.raised()
    for axis in dirs:
        pts, w = tensor_gauss_rule(measures[:axis] + [raised] + measures[axis + 1:], m)
        grad = basis.gradient_matrix(pts, axis)
        gram += (grad * w[:, None]).T @ grad
    return (gram * p[None, :]) * p[:, None]


def isotropy_gap(basis: PceBasis, directions=None) -> float:
    """Max-entry deviation of :func:`expected_gram` from the identity."""
    gram = expected_gram(basis, directions)
    return float(np.abs(gram - np.eye(basis.size)).max())


# -- nullspace comparison ---------------------------------------------------


def numeric_nullspace_dim(matrix) -> int:
    """Column count minus the numeric rank: singular values above 1e-10 times the largest."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {matrix.shape}")
    return int(matrix.shape[1] - np.linalg.matrix_rank(matrix, rtol=_NULLSPACE_TOL))


def nullspace_containment(phi: np.ndarray, phi_hat: np.ndarray) -> bool:
    """Whether the numeric nullspace of phi_hat lies inside that of phi.

    Every right-singular vector of phi_hat with singular value <= 1e-10 times
    the largest must be mapped by phi to a vector of norm <= 1e-10 * ||phi||.
    """
    phi = np.asarray(phi, dtype=float)
    phi_hat = np.asarray(phi_hat, dtype=float)
    for name, matrix in (("phi", phi), ("phi_hat", phi_hat)):
        if matrix.ndim != 2:
            raise ValueError(f"{name} must be 2-d, got shape {matrix.shape}")
    if phi.shape[1] != phi_hat.shape[1]:
        raise ValueError("matrices must share their column count")
    _, s, vt = np.linalg.svd(phi_hat, full_matrices=True)
    smax = s[0] if s.size else 0.0
    null_mask = np.ones(phi_hat.shape[1], dtype=bool)
    null_mask[: s.size] = ~(s > _NULLSPACE_TOL * smax)
    basis_vectors = vt[null_mask]
    if basis_vectors.size == 0:
        return True
    phi_norm = np.linalg.norm(phi, 2)
    images = phi @ basis_vectors.T
    return bool(np.all(np.linalg.norm(images, axis=0) <= _NULLSPACE_TOL * phi_norm))
