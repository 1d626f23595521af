"""Parametric 1-D diffusion problem with adjoint quantity-of-interest gradients.

Solves -(a(y, xi) u')' = g(y) on (0, 1) with homogeneous Dirichlet data by a
conservative second-order finite-difference scheme, where the log of the
diffusion coefficient is a truncated trigonometric expansion in the random
parameters xi. One extra linear solve per parameter point yields the exact
gradient of the discrete quantity of interest with respect to all parameters,
which feeds the gradient-enhanced recovery pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .harness import ResultTable, check_modes, fit_sparse_expansion, mode_data, sampling_measure
from .pce import PceBasis
from .polynomials import Measure, PolynomialFamily
from .sampling import sample, split_stream

_MAX_MESH_WIDTH = 1.0 / 64.0
_RESIDUAL_TOL = 1e-12
_QUADRATURE_POINTS = 20
_QUADRATURE_DIM_CAP = 3
QOI_KINDS = ("average", "midpoint")


def _default_load(y: np.ndarray) -> np.ndarray:
    return np.cos(y) * np.sin(y)


@dataclass(frozen=True)
class DiffusionModel:
    """Random diffusion coefficient on [0, 1] and the mesh it is solved on.

    The coefficient is 0.5 + exp(1 + sum_i xi_i * profile_i(y)) with profile
    amplitudes decaying in the oscillation frequency, controlled by the
    correlation length. ``constant_value`` replaces the whole coefficient by
    a constant, which makes the solution independent of the parameters.
    """

    dim: int
    corr_length: float = 1.0 / 12.0
    cells: int = 256
    qoi: str = "average"
    load: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    constant_value: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.corr_length <= 0.0:
            raise ValueError("corr_length must be positive")
        if self.cells < round(1.0 / _MAX_MESH_WIDTH):
            raise ValueError("mesh must have at least 64 cells")
        if self.qoi not in QOI_KINDS:
            raise ValueError(f"unknown qoi kind {self.qoi!r}")
        if self.qoi == "midpoint" and self.cells % 2:
            raise ValueError("midpoint qoi needs an even cell count")
        if self.constant_value is not None and self.constant_value <= 0.0:
            raise ValueError("constant coefficient must be positive")

    @staticmethod
    def constant(value: float = 1.0, dim: int = 1, **kw) -> "DiffusionModel":
        """Degenerate model with coefficient identically equal to ``value``."""
        return DiffusionModel(dim=dim, constant_value=value, **kw)

    @property
    def mesh_width(self) -> float:
        return 1.0 / self.cells

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.cells + 1)

    def load_values(self, y: np.ndarray) -> np.ndarray:
        fn = self.load if self.load is not None else _default_load
        return np.asarray(fn(y), dtype=float)

    def decay_weights(self) -> np.ndarray:
        """Profile amplitudes for parameters 2..dim (one per frequency use)."""
        ell = self.corr_length
        k = np.arange(2, self.dim + 1) // 2
        return math.sqrt(math.sqrt(math.pi) * ell) * np.exp(-((k * math.pi * ell) ** 2) / 8.0)

    def profiles(self, y: np.ndarray) -> np.ndarray:
        """Rows: the factor multiplying each parameter inside the exponent."""
        y = np.asarray(y, dtype=float)
        out = np.zeros((self.dim, y.shape[0]))
        out[0] = math.sqrt(math.sqrt(math.pi) * self.corr_length / 2.0)
        weights = self.decay_weights()
        for row in range(1, self.dim):
            index = row + 1
            k = index // 2
            wave = np.sin(k * math.pi * y) if index % 2 == 0 else np.cos(k * math.pi * y)
            out[row] = weights[row - 1] * wave
        return out

    def coefficient(self, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.constant_value is not None:
            return np.full(y.shape, self.constant_value)
        exponent = 1.0 + self.profiles(y).T @ np.asarray(xi, dtype=float)
        return 0.5 + np.exp(exponent)

    def coefficient_sensitivity(self, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """d a / d xi_i at the given points, one column per parameter."""
        y = np.asarray(y, dtype=float)
        if self.constant_value is not None:
            return np.zeros((y.shape[0], self.dim))
        return (self.coefficient(y, xi) - 0.5)[:, None] * self.profiles(y).T


@dataclass(frozen=True)
class BvpSolution:
    """Discrete solution, quantity of interest, and its parameter gradient."""

    mesh: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    qoi: float
    gradient: np.ndarray

    def __post_init__(self):
        if self.u[0] != 0.0 or self.u[-1] != 0.0:
            raise ValueError("boundary values must be exactly zero")


def _check_parameters(model: DiffusionModel, xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != model.dim:
        raise ValueError(f"expected {model.dim} parameters, got {xi.shape[0]}")
    if np.abs(xi).max(initial=0.0) > 1.0 + 1e-12:
        raise ValueError("parameters must lie in [-1, 1]")
    return xi


def _qoi_weights(model: DiffusionModel) -> np.ndarray:
    # Weights against the interior nodes; boundary values are zero.
    if model.qoi == "average":
        return np.full(model.cells - 1, model.mesh_width)
    weights = np.zeros(model.cells - 1)
    weights[model.cells // 2 - 1] = 1.0
    return weights


def solve_bvp(model: DiffusionModel, xi) -> BvpSolution:
    """Solve the diffusion problem and differentiate the QoI by one adjoint.

    The flux coefficient is the harmonic average of the nodal coefficient at
    each cell face, which keeps the scheme conservative and second order.
    """
    xi = _check_parameters(model, xi)
    nodes = model.nodes()
    h = model.mesh_width
    a_nodes = model.coefficient(nodes, xi)
    faces = 2.0 * a_nodes[:-1] * a_nodes[1:] / (a_nodes[:-1] + a_nodes[1:])
    diag = (faces[:-1] + faces[1:]) / h**2
    off = -faces[1:-1] / h**2
    banded = np.zeros((2, model.cells - 1))
    banded[0, 1:] = off
    banded[1] = diag
    factor = cholesky_banded(banded, lower=False)
    rhs = model.load_values(nodes[1:-1])
    interior = cho_solve_banded((factor, False), rhs)
    residual = diag * interior - rhs
    residual[1:] += off * interior[:-1]
    residual[:-1] += off * interior[1:]
    # Relative residual in the backward-error sense; the matrix rows scale
    # like 1/h^2, so a plain division by ||rhs|| would never pass.
    matrix_norm = float(np.abs(diag).max() + 2.0 * np.abs(off).max(initial=0.0))
    scale = matrix_norm * float(np.abs(interior).max(initial=0.0)) + float(
        np.abs(rhs).max(initial=0.0)
    )
    if float(np.abs(residual).max()) > _RESIDUAL_TOL * max(scale, 1e-300):
        raise ArithmeticError("linear solve failed the residual check")
    weights = _qoi_weights(model)
    adjoint = cho_solve_banded((factor, False), weights)
    u = np.concatenate([[0.0], interior, [0.0]])
    lam = np.concatenate([[0.0], adjoint, [0.0]])
    # dQ/dxi through the faces: Q depends on xi only via the stiffness
    # entries, and each face contributes a_f * (du_f)(dlam_f) / h^2.
    du = np.diff(u)
    dlam = np.diff(lam)
    pair = du * dlam / h**2
    sums = a_nodes[:-1] + a_nodes[1:]
    dface_left = 2.0 * (a_nodes[1:] / sums) ** 2
    dface_right = 2.0 * (a_nodes[:-1] / sums) ** 2
    sens = model.coefficient_sensitivity(nodes, xi)
    gradient = -((dface_left * pair) @ sens[:-1] + (dface_right * pair) @ sens[1:])
    qoi = float(weights @ interior)
    return BvpSolution(nodes, u, qoi, gradient)


def qoi_and_gradient(model: DiffusionModel, xi) -> tuple[float, np.ndarray]:
    solution = solve_bvp(model, xi)
    return solution.qoi, solution.gradient


@dataclass(frozen=True)
class SurrogateResult:
    """Sparse expansion of the QoI over the parameters, with its moments."""

    coefficients: np.ndarray
    mean: float
    std: float
    n_samples: int
    mode: str


def _evaluate_batch(model: DiffusionModel, points: np.ndarray, directions=()):
    """QoI values at the points and, for non-empty directions, their gradients."""
    results = [qoi_and_gradient(model, row) for row in points]
    values = np.array([q for q, _ in results])
    grads = np.array([g for _, g in results]) if directions else None
    return values, grads


def build_surrogate(model: DiffusionModel, degree: int, n_samples: int,
                    mode: str = "gradient-enhanced", seed: int = 0) -> SurrogateResult:
    """Fit a sparse expansion of the QoI from sampled solves.

    The parameters are uniform on [-1, 1], so the expansion uses the
    orthonormal uniform-measure basis with arcsine-distributed sample points.
    ``standard-double`` spends the gradient budget on extra value samples:
    (1 + dim) times as many solves without adjoint data.
    """
    basis = PceBasis.legendre(model.dim, degree)
    measure = sampling_measure(Measure.uniform())
    full = sample(measure, model.dim, (1 + model.dim) * n_samples, seed)
    fit = mode_data(mode, full, n_samples, range(model.dim), partial(_evaluate_batch, model))
    coeffs = fit_sparse_expansion(basis, *fit, epsilon=None, opt_tol=1e-8)
    mean = float(coeffs[0])
    std = math.sqrt(max(float(coeffs[1:] @ coeffs[1:]), 0.0))
    return SurrogateResult(coeffs, mean, std, n_samples, mode)


def reference_moments(model: DiffusionModel) -> tuple[float, float]:
    """Mean and standard deviation of the QoI by tensor Gauss quadrature."""
    if model.dim > _QUADRATURE_DIM_CAP:
        raise ValueError(f"quadrature reference capped at dim {_QUADRATURE_DIM_CAP}")
    family = PolynomialFamily.legendre(_QUADRATURE_POINTS - 1)
    points_1d, weights_1d = family.gauss_quadrature(_QUADRATURE_POINTS)
    grids = np.meshgrid(*([points_1d] * model.dim), indexing="ij")
    nodes = np.column_stack([g.reshape(-1) for g in grids])
    weights = weights_1d
    for _ in range(model.dim - 1):
        weights = np.multiply.outer(weights, weights_1d)
    weights = weights.reshape(-1)
    values, _ = _evaluate_batch(model, nodes)
    mean = float(weights @ values)
    second = float(weights @ (values * values))
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def run_bvp_benchmark(model: DiffusionModel, degree: int, sample_grid,
                      modes=("standard", "gradient-enhanced"), seed: int = 0,
                      trials: int = 1) -> ResultTable:
    """Surrogate moment errors against the quadrature reference per (mode, N)."""
    modes = tuple(modes)
    check_modes(modes)
    sample_grid = tuple(int(n) for n in sample_grid)
    if not sample_grid or any(n < 1 for n in sample_grid):
        raise ValueError("sample_grid must be non-empty with positive entries")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ref_mean, ref_std = reference_moments(model)
    rows = []
    for mode in modes:
        for gi, n in enumerate(sample_grid):
            mean_errors = []
            std_errors = []
            for trial in range(trials):
                run_seed = split_stream(split_stream(seed, trial), gi + 1)
                result = build_surrogate(model, degree, n, mode, run_seed)
                mean_errors.append(abs(result.mean - ref_mean))
                std_errors.append(abs(result.std - ref_std))
            rows.append((mode, n, float(np.median(mean_errors)),
                         float(np.median(std_errors))))
    return ResultTable(("mode", "N", "mean_error", "std_error"), tuple(rows))
