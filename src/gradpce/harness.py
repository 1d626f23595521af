"""Experiment drivers: coherence sweeps, recovery rates, approximation error.

Every run is reproducible: the configuration seed is split into one stream
per trial and, within a trial, one stream per grid point, so results do not
depend on trial order or on which grid points are requested together.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .design import GradientDesign, assemble_gradient_enhanced, draw, mic
from .l1solver import SolveSpec, solve
from .pce import PceBasis
from .polynomials import Measure
from .sampling import generator, sample, split_stream

SUCCESS_TOL = 1e-3
MODES = ("standard", "gradient-enhanced", "standard-double")
KINDS = ("mic-sweep", "recovery-vs-N", "recovery-vs-s", "rmse")
MATRIX_IDS = ("values", "stacked", "preconditioned")

_DEFAULT_TRIALS = {"mic-sweep": 10, "recovery-vs-N": 100, "recovery-vs-s": 100, "rmse": 10}
_RELATIVE_EPSILON = 1e-8
_VALIDATION_STREAM = 0x56414C
_VALIDATION_POINTS = 10_000
_RECOVERY_OPT_TOL = 1e-6
# The type of each scalar config field outside checked_grid; epsilon may also be None.
_FIELD_TYPES = {"kind": str, "dim": int, "measure": str, "sparsity": int, "sample_count": int,
                "gradient_fraction": float, "target": str, "epsilon": float}
# Solver tolerance of a surrogate fit: the rmse benchmark and the bvp surrogates.
SURROGATE_OPT_TOL = 1e-8


# -- test functions ----------------------------------------------------------


@dataclass(frozen=True)
class TargetFunction:
    """Benchmark function on [-1, 1]^dim with an analytic gradient."""

    values: Callable[[np.ndarray], np.ndarray]
    gradients: Callable[[np.ndarray], np.ndarray]


def _sum_of_squares(points: np.ndarray) -> np.ndarray:
    return np.sum(points * points, axis=1)


def _sum_of_squares_gradient(points: np.ndarray) -> np.ndarray:
    return 2.0 * points


def _gaussian_bump(points: np.ndarray) -> np.ndarray:
    z = 0.5 * (points + 1.0) - 0.375
    return np.exp(-np.sum(0.01 * z * z, axis=1))


def _gaussian_bump_gradient(points: np.ndarray) -> np.ndarray:
    z = 0.5 * (points + 1.0) - 0.375
    return -0.01 * z * _gaussian_bump(points)[:, None]


_SIN_FREQUENCY = 16.0 / 15.0
_SIN_SHIFT = 0.7


def _sinusoids(points: np.ndarray) -> np.ndarray:
    u = _SIN_FREQUENCY * points - _SIN_SHIFT
    s = np.sin(u)
    return np.sum(0.3 + s + s * s, axis=1)


def _sinusoids_gradient(points: np.ndarray) -> np.ndarray:
    u = _SIN_FREQUENCY * points - _SIN_SHIFT
    return _SIN_FREQUENCY * np.cos(u) * (1.0 + 2.0 * np.sin(u))


TARGETS = {
    "f1": TargetFunction(_sum_of_squares, _sum_of_squares_gradient),
    "f2": TargetFunction(_gaussian_bump, _gaussian_bump_gradient),
    "f3": TargetFunction(_sinusoids, _sinusoids_gradient),
}


# -- configuration -----------------------------------------------------------


def check_modes(modes: tuple[str, ...]) -> None:
    """Reject an empty mode list, unknown modes and duplicates."""
    if not modes or len(set(modes)) != len(modes):
        raise ValueError("modes must be non-empty and free of duplicates")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")


def direction_count(fraction: float, dim: int) -> int:
    """Number of gradient directions for a fraction of the dimensions.

    Rounds fraction * dim to the nearest integer when it is one up to
    floating-point noise, otherwise takes the ceiling.
    """
    exact = fraction * dim
    nearest = round(exact)
    if abs(exact - nearest) <= 1e-9:
        return int(nearest)
    return int(math.ceil(exact))


def checked(name: str, value, cls: type):
    """``value`` as a ``cls``; a boolean or a value of another type raises ValueError."""
    abc, what = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
                 str: (str, "a string")}[cls]
    if isinstance(value, bool) or not isinstance(value, abc):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return cls(value)


def checked_entries(name: str, values, cls: type) -> tuple:
    """``values`` as a tuple of ``cls``; a non-list or an ill-typed entry raises ValueError."""
    try:
        return tuple(checked(f"{name} entries", v, cls) for v in values)
    except TypeError:
        raise ValueError(f"{name} must be a list, got {values!r}") from None


def checked_grid(sample_grid, trials, degree, seed) -> tuple[int, ...]:
    """The sample grid of a grid benchmark as a tuple, after checking it and its run.

    The grid must be a non-empty list of positive integers, ``trials`` an
    integer >= 1, ``degree`` an integer >= 0 and ``seed`` an integer.
    """
    checked("seed", seed, int)
    for name, value, least in (("trials", trials, 1), ("degree", degree, 0)):
        if checked(name, value, int) < least:
            raise ValueError(f"{name} must be >= {least}")
    grid = checked_entries("sample_grid", sample_grid, int)
    if not grid or any(n < 1 for n in grid):
        raise ValueError("sample_grid must be non-empty with positive entries")
    return grid


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one benchmark run.

    ``epsilon`` bounds the residual of every l1 fit. Left at None, the
    recovery benchmarks solve exact basis pursuit (epsilon 0), while the rmse
    benchmark hands None to ``fit_sparse_expansion``, which fits each mode to
    1e-8 times the norm of that mode's stacked data (values, then gradients),
    before the row weights.
    """

    kind: str
    dim: int = 2
    degree: int = 20
    measure: str = "legendre"
    sample_grid: tuple[int, ...] = (20, 35, 50, 65, 80)
    sparsity: int = 8
    sparsity_grid: tuple[int, ...] = (2, 4, 6, 8, 10, 12)
    sample_count: int = 50
    trials: int | None = None
    gradient_fraction: float = 1.0
    modes: tuple[str, ...] = ("standard", "gradient-enhanced")
    target: str = "f1"
    epsilon: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name, cls in _FIELD_TYPES.items():
            if getattr(self, name) is not None or name != "epsilon":
                checked(name, getattr(self, name), cls)
        for name, cls in (("sparsity_grid", int), ("modes", str)):
            object.__setattr__(self, name, checked_entries(name, getattr(self, name), cls))
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        object.__setattr__(self, "sample_grid", checked_grid(
            self.sample_grid, self.effective_trials, self.degree, self.seed))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        Measure.parse(self.measure)
        if self.kind == "recovery-vs-s":
            if not self.sparsity_grid or any(s < 0 for s in self.sparsity_grid):
                raise ValueError("sparsity_grid must be non-empty with entries >= 0")
        if self.sparsity < 0 or self.sample_count < 1:
            raise ValueError("sparsity must be >= 0 and sample_count >= 1")
        if not 0.0 <= self.gradient_fraction <= 1.0:
            raise ValueError("gradient_fraction must lie in [0, 1]")
        check_modes(self.modes)
        if self.kind == "rmse" and self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.epsilon is not None and not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")

    @property
    def effective_trials(self) -> int:
        return self.trials if self.trials is not None else _DEFAULT_TRIALS[self.kind]

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**data)


# -- result tables -----------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


@dataclass(frozen=True)
class ResultTable:
    """Column-named rows with deterministic CSV and JSON renderings."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(",".join(_cell(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "columns": list(self.columns),
            "rows": [[v if isinstance(v, str) else _json_value(v) for v in row]
                     for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"

    def write(self, path, fmt: str = "csv") -> None:
        if fmt == "csv":
            text = self.to_csv()
        elif fmt == "json":
            text = self.to_json()
        else:
            raise ValueError(f"unknown format {fmt!r}")
        with open(path, "w") as handle:
            handle.write(text)


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def grid_table(columns, keys, grid, per_trial, reduce) -> ResultTable:
    """Rows (key, grid value, *reduce(outcomes over trials)), keys outermost.

    ``per_trial[t][gi][k]`` is trial t's outcome at grid point gi for key k.
    """
    return ResultTable(tuple(columns), tuple(
        (key, int(gval), *reduce([outcome[gi][k] for outcome in per_trial]))
        for k, key in enumerate(keys) for gi, gval in enumerate(grid)
    ))


# -- fitting -----------------------------------------------------------------


def fit_sparse_expansion(
    design: GradientDesign, data, epsilon: float | None = 0.0, opt_tol: float = 1e-6
) -> np.ndarray:
    """Recover expansion coefficients from sampled data by l1 minimization.

    ``data`` is the raw stacked data of the design's rows, as
    :meth:`GradientDesign.stack` returns it. The fit solves the weighted
    system against W times the data and maps the result back through the
    column normalizer. ``epsilon=None`` applies the default denoising level of
    1e-8 times the norm of the data.
    """
    data = np.asarray(data, dtype=float)
    if data.shape != design.w.shape:
        raise ValueError("one datum per design row required")
    if epsilon is None:
        epsilon = _RELATIVE_EPSILON * float(np.linalg.norm(data))
    result = solve(SolveSpec(design.phi_hat, design.w * data, epsilon=float(epsilon),
                             opt_tol=opt_tol))
    return design.unscale(result.coefficients)


def mode_data(basis: PceBasis, modes, n: int, directions, seed: int, evaluate):
    """The (design, data) of each mode at one grid point, in mode order.

    Draws the grid point's (1 + q) * n points, where q is the number of
    gradient directions, from the sampling measure paired with the basis on
    the stream ``seed``. ``standard`` fits the values at the first n points,
    ``gradient-enhanced`` adds the gradients along ``directions`` there, and
    ``standard-double`` spends the gradient budget on values at all
    (1 + q) * n points. ``evaluate(design)`` returns the stacked data of a
    design's rows. At most two systems are built and evaluated: one on the
    first n points, whose value-only system and data the standard mode cuts
    from it, and one on the whole draw.
    """
    check_modes(modes)
    full = draw(basis, (1 + len(directions)) * n, seed)
    fits = {}
    if "standard" in modes or "gradient-enhanced" in modes:
        dirs = tuple(directions) if "gradient-enhanced" in modes else ()
        design = assemble_gradient_enhanced(basis, full.subset(n), dirs)
        data = evaluate(design)
        fits["gradient-enhanced"] = (design, data)
        fits["standard"] = (design.values_only(), data[:n])
    if "standard-double" in modes:
        design = assemble_gradient_enhanced(basis, full, ())
        fits["standard-double"] = (design, evaluate(design))
    return [fits[mode] for mode in modes]


def _mode_scores(fits, score, epsilon, opt_tol) -> list[float]:
    """``score`` of each mode's fitted coefficients."""
    return [score(fit_sparse_expansion(design, data, epsilon=epsilon, opt_tol=opt_tol))
            for design, data in fits]


# -- recovery benchmarks -----------------------------------------------------


def _choose_directions(rng: np.random.Generator, dim: int, count: int) -> tuple[int, ...]:
    if count == 0:
        return ()
    return tuple(sorted(int(a) for a in rng.choice(dim, size=count, replace=False)))


def _trial_start(config: ExperimentConfig, trial: int):
    """A trial's seed, generator and gradient directions."""
    trial_seed = split_stream(config.seed, trial)
    rng = generator(split_stream(trial_seed, 0))
    count = direction_count(config.gradient_fraction, config.dim)
    return trial_seed, rng, _choose_directions(rng, config.dim, count)


def _recovery_trial(config: ExperimentConfig, basis: PceBasis, grid, trial: int):
    trial_seed, rng, dirs = _trial_start(config, trial)
    s_values = [config.sparsity] * len(grid) if config.kind == "recovery-vs-N" else list(grid)
    s_max = max(s_values)
    support = rng.choice(basis.size, size=s_max, replace=False) if s_max else np.empty(0, int)
    spikes = rng.standard_normal(s_max)
    epsilon = 0.0 if config.epsilon is None else config.epsilon
    errors = []
    for gi, gval in enumerate(grid):
        n = gval if config.kind == "recovery-vs-N" else config.sample_count
        s = s_values[gi]
        coeffs = np.zeros(basis.size)
        coeffs[support[:s]] = spikes[:s]
        fits = mode_data(basis, config.modes, n, dirs, split_stream(trial_seed, gi + 1),
                         lambda design: design.phi_tilde @ coeffs)
        errors.append(_mode_scores(
            fits, lambda estimate: float(np.abs(estimate - coeffs).max()),
            epsilon, _RECOVERY_OPT_TOL,
        ))
    return errors


def run_recovery_benchmark(config: ExperimentConfig) -> ResultTable:
    """Success fraction per (mode, grid point) over seeded random trials."""
    if config.kind not in ("recovery-vs-N", "recovery-vs-s"):
        raise ValueError("config kind must be recovery-vs-N or recovery-vs-s")
    basis = PceBasis.from_measure(Measure.parse(config.measure), config.dim, config.degree)
    grid = config.sample_grid if config.kind == "recovery-vs-N" else config.sparsity_grid
    max_s = config.sparsity if config.kind == "recovery-vs-N" else max(config.sparsity_grid)
    if max_s > basis.size:
        raise ValueError("sparsity exceeds the basis size")
    per_trial = [_recovery_trial(config, basis, grid, t) for t in range(config.effective_trials)]
    grid_label = "N" if config.kind == "recovery-vs-N" else "s"
    return grid_table(("mode", grid_label, "success_fraction"), config.modes, grid, per_trial,
                      lambda errors: (sum(e <= SUCCESS_TOL for e in errors) / len(errors),))


# -- coherence sweep ---------------------------------------------------------


def _mic_trial(config: ExperimentConfig, basis: PceBasis, trial: int):
    trial_seed, _, dirs = _trial_start(config, trial)
    out = []
    for gi, n in enumerate(config.sample_grid):
        batch = draw(basis, n, split_stream(trial_seed, gi + 1))
        design = assemble_gradient_enhanced(basis, batch, dirs)
        # mic is invariant under positive column scaling: W * phi_tilde has the mic of phi_hat.
        out.append((mic(design.phi_tilde[:n]), mic(design.phi_tilde),
                    mic(design.w[:, None] * design.phi_tilde)))
    return out


def run_mic_sweep(config: ExperimentConfig) -> ResultTable:
    """Average mutual coherence of the value, stacked, and weighted systems."""
    if config.kind != "mic-sweep":
        raise ValueError("config kind must be mic-sweep")
    basis = PceBasis.from_measure(Measure.parse(config.measure), config.dim, config.degree)
    per_trial = [_mic_trial(config, basis, t) for t in range(config.effective_trials)]
    return grid_table(("matrix_id", "N", "mic"), MATRIX_IDS, config.sample_grid, per_trial,
                      lambda mics: (sum(mics) / len(mics),))


# -- approximation benchmark -------------------------------------------------


def _rmse_trial(config, basis, target: TargetFunction, val_matrix, val_truth, trial: int):
    trial_seed, _, dirs = _trial_start(config, trial)
    scale = math.sqrt(val_matrix.shape[0])

    def evaluate(design):
        points = design.batch.points
        gradients = target.gradients(points) if design.directions else None
        return design.stack(target.values(points), gradients)

    def rmse(estimate):
        return float(np.linalg.norm(val_matrix @ estimate - val_truth)) / scale

    out = []
    for gi, n in enumerate(config.sample_grid):
        fits = mode_data(basis, config.modes, n, dirs, split_stream(trial_seed, gi + 1), evaluate)
        out.append(_mode_scores(fits, rmse, config.epsilon, SURROGATE_OPT_TOL))
    return out


def run_rmse_benchmark(config: ExperimentConfig) -> ResultTable:
    """Median validation error per (mode, N) against a held-out uniform grid."""
    if config.kind != "rmse":
        raise ValueError("config kind must be rmse")
    basis = PceBasis.from_measure(Measure.parse(config.measure), config.dim, config.degree)
    if basis.kind != "jacobi":
        raise ValueError("approximation targets are defined on [-1, 1]^dim")
    fn = TARGETS[config.target]
    validation = sample(
        Measure.uniform(), config.dim, _VALIDATION_POINTS,
        split_stream(config.seed, _VALIDATION_STREAM),
    )
    val_matrix = basis.matrix(validation.points)
    val_truth = fn.values(validation.points)
    per_trial = [_rmse_trial(config, basis, fn, val_matrix, val_truth, t)
                 for t in range(config.effective_trials)]
    return grid_table(("mode", "N", "rmse"), config.modes, config.sample_grid, per_trial,
                      lambda errors: (float(np.median(errors)),))
