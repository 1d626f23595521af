"""Parametric 1-D diffusion problem with adjoint quantity-of-interest gradients.

Solves -(a(y, xi) u')' = g(y) on (0, 1) with homogeneous Dirichlet data by a
conservative second-order finite-difference scheme, where the log of the
diffusion coefficient is a truncated trigonometric expansion in the random
parameters xi. One extra linear solve per parameter point yields the exact
gradient of the discrete quantity of interest with respect to all parameters,
which feeds the gradient-enhanced recovery pipeline.

In one dimension the scheme is solved in closed form from its face fluxes,
with no elimination: across each interior node the flux falls by h times
the load there, and the flux through the first face is the value that makes
the cell increments of u sum to zero, as u vanishes at both ends. All
parameter points of a call are solved together by a few whole-array
operations, and each point's sums run along its own row in an order that
depends on the mesh alone, so a point's QoI and gradient are bitwise the
same in any batch. Every point still passes a positivity check on its face
coefficients and a backward-error residual check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .checks import checked, checked_entries
from .harness import (DEFAULT_MODES, SURROGATE_OPT_TOL, ResultTable, check_modes, checked_grid,
                      fit_grid, fit_modes, grid_table, trial_streams)
from .pce import PceBasis
from .polynomials import Measure, tensor_gauss_rule

_MAX_MESH_WIDTH = 1.0 / 64.0
_RESIDUAL_TOL = 1e-12
_QUADRATURE_POINTS = 20
_QUADRATURE_DIM_CAP = 3
# Points per solve of the reference quadrature. Batching leaves every value
# bitwise unchanged, and small batches keep the solve's arrays small.
_REFERENCE_BATCH = 512
# Distinct models whose reference moments a process keeps.
_REFERENCE_CACHE_SIZE = 8
# Correlation length of the coefficient's expansion: the profile amplitudes
# decay with the oscillation frequency on this scale.
_CORR_LENGTH = 1.0 / 12.0
QOI_KINDS = ("average", "midpoint")


def _default_load(y: np.ndarray) -> np.ndarray:
    return np.cos(y) * np.sin(y)


@dataclass(frozen=True)
class DiffusionModel:
    """Random diffusion coefficient on [0, 1] and the mesh it is solved on.

    The coefficient is 0.5 + exp(1 + sum_i xi_i * profile_i(y)) with profile
    amplitudes decaying in the oscillation frequency on the scale of a fixed
    correlation length. ``constant_value`` replaces the whole coefficient by
    a constant, which makes the solution independent of the parameters.
    ``load`` takes part in equality and hashing as an object, so two models
    with different load functions are different models.
    """

    dim: int
    cells: int = 256
    qoi: str = "average"
    load: Callable[[np.ndarray], np.ndarray] | None = None
    constant_value: float | None = None

    def __post_init__(self):
        if checked("dim", self.dim, int) < 1:
            raise ValueError("dim must be >= 1")
        if checked("cells", self.cells, int) < round(1.0 / _MAX_MESH_WIDTH):
            raise ValueError("mesh must have at least 64 cells")
        if self.load is not None and not callable(self.load):
            raise ValueError(f"load must be callable or None, got {self.load!r}")
        if self.qoi not in QOI_KINDS:
            raise ValueError(f"unknown qoi kind {self.qoi!r}")
        if self.qoi == "midpoint" and self.cells % 2:
            raise ValueError("midpoint qoi needs an even cell count")
        if (self.constant_value is not None
                and not 0.0 < checked("constant_value", self.constant_value, float) < math.inf):
            raise ValueError("constant coefficient must be positive and finite")

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
        ell = _CORR_LENGTH
        k = np.arange(2, self.dim + 1) // 2
        return math.sqrt(math.sqrt(math.pi) * ell) * np.exp(-((k * math.pi * ell) ** 2) / 8.0)

    def profiles(self, y: np.ndarray) -> np.ndarray:
        """Rows: the factor multiplying each parameter inside the exponent."""
        y = np.asarray(y, dtype=float)
        out = np.zeros((self.dim, y.shape[0]))
        out[0] = math.sqrt(math.sqrt(math.pi) * _CORR_LENGTH / 2.0)
        weights = self.decay_weights()
        for row in range(1, self.dim):
            index = row + 1
            k = index // 2
            wave = np.sin(k * math.pi * y) if index % 2 == 0 else np.cos(k * math.pi * y)
            out[row] = weights[row - 1] * wave
        return out

    def coefficient(self, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Coefficient at the points y for xi of shape (dim,) or (dim, batch).

        A batch of parameter columns gives one column of values per point.
        The exponent is summed term by term rather than by a matrix product,
        so a point's coefficient is bitwise the same in any batch.
        """
        y = np.asarray(y, dtype=float)
        xi = np.asarray(xi, dtype=float)
        exponent = np.ones(y.shape + xi.shape[1:])
        if self.constant_value is not None:
            return np.full(exponent.shape, self.constant_value)
        for row, x in zip(self.profiles(y), xi):
            exponent += np.multiply.outer(row, x)
        return 0.5 + np.exp(exponent)


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


def _check_parameters(model: DiffusionModel, points: np.ndarray) -> np.ndarray:
    """Parameter rows as a (points, dim) array, every entry in [-1, 1]."""
    checked("model", model, DiffusionModel)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"expected a (points, {model.dim}) array, got shape {points.shape}")
    if points.shape[1] != model.dim:
        raise ValueError(f"expected {model.dim} parameters, got {points.shape[1]}")
    # Written so that NaN fails it too.
    if not np.all(np.abs(points) <= 1.0 + 1e-12):
        raise ValueError("parameters must lie in [-1, 1]")
    return points


def _qoi_weights(model: DiffusionModel) -> np.ndarray:
    # Weights against the interior nodes; boundary values are zero.
    if model.qoi == "average":
        return np.full(model.cells - 1, model.mesh_width)
    weights = np.zeros(model.cells - 1)
    weights[model.cells // 2 - 1] = 1.0
    return weights


def _face_solve(faces: np.ndarray, rhs: np.ndarray, h: float) -> np.ndarray:
    """Cell increments u_{k+1} - u_k of the scheme's solution for one load.

    ``faces`` (batch x cells) holds each point's face coefficients and
    ``rhs`` the load at the interior nodes, shared by every point. The flux
    faces_k (u_{k+1} - u_k) / h through face k is the first face's flux less
    h times the load summed over the nodes before face k; the first flux
    makes the increments sum to zero.
    """
    drop = h * np.concatenate(([0.0], np.cumsum(rhs)))
    step = h / faces
    first = (step * drop).sum(axis=1) / step.sum(axis=1)
    return step * (first[:, None] - drop)


def _solve_batch(model: DiffusionModel, points, gradients: bool):
    """QoIs, their gradients (or None) and the interior states of a batch.

    Arrays are laid out point by point (batch x nodes), so each point's sums
    run along one contiguous row. The flux coefficient is the harmonic
    average of the nodal coefficient at each cell face, which keeps the
    scheme conservative and second order. Gradients cost one more solve with
    the QoI weights as right-hand side.
    """
    points = _check_parameters(model, points)
    nodes = model.nodes()
    h = model.mesh_width
    h2 = h * h
    a = np.ascontiguousarray(model.coefficient(nodes, points.T).T)
    sums = a[:, :-1] + a[:, 1:]
    faces = 2.0 * a[:, :-1] * a[:, 1:] / sums
    # Written so that NaN fails it too. Positive faces make the stiffness
    # matrix symmetric positive definite.
    if not np.all((faces > 0.0) & (faces < np.inf)):
        raise ArithmeticError("stiffness matrix is not positive definite")
    load = model.load_values(nodes[1:-1])
    steps = _face_solve(faces, load, h)
    interior = np.cumsum(steps[:, :-1], axis=1)
    # The scheme's residual at each interior node is the fall of the state's
    # face flux across it, less the load.
    flux = faces * np.diff(np.pad(interior, ((0, 0), (1, 1))), axis=1) / h
    residual = (flux[:, :-1] - flux[:, 1:]) / h - load
    # Relative residual in the backward-error sense, per point; the matrix
    # rows scale like 1/h^2, so a plain division by ||rhs|| would never pass.
    # Stiffness row k has absolute sum 2 (faces_k + faces_{k+1}) / h^2.
    matrix_norm = 2.0 * (faces[:, :-1] + faces[:, 1:]).max(axis=1) / h2
    scale = matrix_norm * np.abs(interior).max(axis=1) + np.abs(load).max()
    # Written so that a NaN residual or scale fails it.
    if not np.all(np.abs(residual).max(axis=1) <= _RESIDUAL_TOL * np.maximum(scale, 1e-300)):
        raise ArithmeticError("linear solve failed the residual check")
    weights = _qoi_weights(model)
    qoi = (interior * weights).sum(axis=1)
    if not gradients:
        return qoi, None, interior
    if model.constant_value is not None:
        return qoi, np.zeros(points.shape), interior
    # dQ/dxi through the faces: Q depends on xi only via the stiffness
    # entries, and each face contributes a_f * (du_f)(dlam_f) / h^2. Each
    # face coefficient moves with both of its nodal coefficients, and
    # d a / d xi_i = (a - 0.5) * profile_i.
    pair = steps * _face_solve(faces, weights, h) / h2
    node_weight = np.zeros_like(a)
    node_weight[:, :-1] = 2.0 * (a[:, 1:] / sums) ** 2 * pair
    node_weight[:, 1:] += 2.0 * (a[:, :-1] / sums) ** 2 * pair
    node_weight *= a - 0.5
    gradient = np.column_stack([-(node_weight * row).sum(axis=1) for row in model.profiles(nodes)])
    return qoi, gradient, interior


def solve_bvp(model: DiffusionModel, xi) -> BvpSolution:
    """Solve the diffusion problem at one point and differentiate the QoI."""
    qoi, gradient, interior = _solve_batch(
        model, np.asarray(xi, dtype=float).reshape(1, -1), gradients=True
    )
    u = np.concatenate([[0.0], interior[0], [0.0]])
    return BvpSolution(model.nodes(), u, float(qoi[0]), gradient[0])


def qoi_and_gradient(model: DiffusionModel, xi) -> tuple[float, np.ndarray]:
    solution = solve_bvp(model, xi)
    return solution.qoi, solution.gradient


@dataclass(frozen=True)
class SurrogateResult:
    """Sparse expansion of the QoI over the parameters, with its moments."""

    coefficients: np.ndarray
    mean: float
    std: float


def _evaluate_batch(model: DiffusionModel, points: np.ndarray, directions=()):
    """QoI values at the points and, for non-empty directions, their gradients."""
    values, grads, _ = _solve_batch(model, points, gradients=bool(directions))
    return values, grads


def _design_data(model: DiffusionModel, design):
    """The stacked QoI data of a design's rows."""
    return design.stack(*_evaluate_batch(model, design.batch.points, design.directions))


def _surrogate(coeffs: np.ndarray) -> SurrogateResult:
    return SurrogateResult(coeffs, float(coeffs[0]),
                           math.sqrt(max(float(coeffs[1:] @ coeffs[1:]), 0.0)))


def build_surrogate(model: DiffusionModel, degree: int, n_samples: int,
                    mode: str = "gradient-enhanced", seed: int = 0) -> SurrogateResult:
    """Fit a sparse expansion of the QoI from sampled solves.

    The parameters are uniform on [-1, 1], so the expansion uses the
    orthonormal uniform-measure basis with arcsine-distributed sample points.
    ``standard-double`` spends the gradient budget on extra value samples:
    (1 + dim) times as many solves without adjoint data.
    """
    checked("model", model, DiffusionModel)
    checked("n_samples", n_samples, int)
    (coeffs,) = fit_modes(PceBasis.legendre(model.dim, degree), (mode,), n_samples,
                          range(model.dim), seed, partial(_design_data, model), None,
                          SURROGATE_OPT_TOL)
    return _surrogate(coeffs)


@lru_cache(maxsize=_REFERENCE_CACHE_SIZE)
def reference_moments(model: DiffusionModel) -> tuple[float, float]:
    """Mean and standard deviation of the QoI by tensor Gauss quadrature.

    The two numbers depend on the model alone, so they are computed once per
    model in a process and every later call with an equal model returns the
    same floats. A call that raises is not remembered.
    """
    checked("model", model, DiffusionModel)
    if model.dim > _QUADRATURE_DIM_CAP:
        raise ValueError(f"quadrature reference capped at dim {_QUADRATURE_DIM_CAP}")
    nodes, weights = tensor_gauss_rule([Measure.uniform()] * model.dim, _QUADRATURE_POINTS)
    values = np.concatenate([_evaluate_batch(model, nodes[start:start + _REFERENCE_BATCH])[0]
                             for start in range(0, len(nodes), _REFERENCE_BATCH)])
    mean = float(weights @ values)
    second = float(weights @ (values * values))
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def run_bvp_benchmark(model: DiffusionModel, degree: int, sample_grid,
                      modes=DEFAULT_MODES, seed: int = 0,
                      trials: int = 1) -> ResultTable:
    """Surrogate moment errors against the quadrature reference per (mode, N)."""
    modes = checked_entries("modes", modes, str)
    check_modes(modes)
    sample_grid = checked_grid(sample_grid, trials, degree, seed)
    ref_mean, ref_std = reference_moments(model)
    evaluate = partial(_design_data, model)

    def errors(coeffs):
        result = _surrogate(coeffs)
        return abs(result.mean - ref_mean), abs(result.std - ref_std)

    # Every grid point fits all dim directions: direction_count(1.0, dim) is dim.
    per_trial = fit_grid(PceBasis.legendre(model.dim, degree), modes,
                         trial_streams(seed, trials, model.dim, 1.0, len(sample_grid)),
                         lambda rng: ((n, evaluate, errors) for n in sample_grid), None,
                         SURROGATE_OPT_TOL)
    return grid_table(("mode", "N", "mean_error", "std_error"), modes, sample_grid, per_trial,
                      lambda pairs: tuple(float(np.median(errors)) for errors in zip(*pairs)))
