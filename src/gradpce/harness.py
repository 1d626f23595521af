"""Experiment drivers: coherence sweeps, recovery rates, approximation error.

Every run is reproducible: ``trial_streams`` splits the seed into one stream
per trial and one per grid point within it, so results depend neither on trial
order, nor on which grid points run together, nor on which thread runs a grid
point. The coherence sweep runs its grid points on the standard library's
thread pool; the fits run one after another. ``fit_modes`` is the one fit site.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .checks import checked, checked_entries
from .design import GradientDesign, assemble_gradient_enhanced, draw, mic
from .l1solver import SolveSpec, solve
from .pce import PceBasis
from .polynomials import Measure
from .sampling import generator, sample, split_stream

SUCCESS_TOL = 1e-3
MODES = ("standard", "gradient-enhanced", "standard-double")
DEFAULT_MODES = MODES[:2]
KINDS = ("mic-sweep", "recovery-vs-N", "recovery-vs-s", "rmse")
MATRIX_IDS = ("values", "stacked", "preconditioned")
# Each format names a ResultTable.to_<format> rendering.
FORMATS = ("csv", "json")

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
# Each target maps points on [-1, 1]^dim to (values, gradients), the pair
# GradientDesign.stack takes.


def _sum_of_squares(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.sum(points * points, axis=1), 2.0 * points


def _gaussian_bump(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = 0.5 * (points + 1.0) - 0.375
    bump = np.exp(-np.sum(0.01 * z * z, axis=1))
    return bump, -0.01 * z * bump[:, None]


_SIN_FREQUENCY = 16.0 / 15.0
_SIN_SHIFT = 0.7


def _sinusoids(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = _SIN_FREQUENCY * points - _SIN_SHIFT
    s = np.sin(u)
    return np.sum(0.3 + s + s * s, axis=1), _SIN_FREQUENCY * np.cos(u) * (1.0 + 2.0 * s)


TARGETS = {"f1": _sum_of_squares, "f2": _gaussian_bump, "f3": _sinusoids}


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
    modes: tuple[str, ...] = DEFAULT_MODES
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
        unknown = set(checked("data", data, dict)) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**data)


# -- result tables -----------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, str):
        return value
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
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        text = getattr(self, f"to_{fmt}")()
        with open(path, "w") as handle:
            handle.write(text)


def _json_value(value):
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


# -- fitting and seeded trials ------------------------------------------------


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
    if data.shape != checked("design", design, GradientDesign).w.shape:
        raise ValueError("one datum per design row required")
    if epsilon is None:
        epsilon = _RELATIVE_EPSILON * float(np.linalg.norm(data))
    result = solve(SolveSpec(design.phi_hat, design.w * data, epsilon=epsilon,
                             opt_tol=opt_tol))
    return design.unscale(result.coefficients)


def fit_modes(basis: PceBasis, modes, n: int, directions, seed: int, evaluate,
              epsilon: float | None, opt_tol: float) -> list[np.ndarray]:
    """The fitted coefficients of each mode at one grid point, in mode order.

    Draws the grid point's (1 + q) * n points, where q is the number of
    gradient directions, from the sampling measure paired with the basis on
    the stream ``seed``. ``standard`` fits the values at the first n points,
    ``gradient-enhanced`` adds the gradients along ``directions`` there, and
    ``standard-double`` spends the gradient budget on values at all
    (1 + q) * n points. ``evaluate(design)`` returns the stacked data of a
    design's rows. At most two systems are built and evaluated: one on the
    first n points, whose value-only system and data the standard mode cuts
    from it, and one on the whole draw. Each mode is fitted by
    :func:`fit_sparse_expansion` at ``epsilon`` and ``opt_tol``.
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
    return [fit_sparse_expansion(*fits[mode], epsilon=epsilon, opt_tol=opt_tol)
            for mode in modes]


def trial_streams(seed: int, trials: int, dim: int, fraction: float, points: int):
    """Each trial's generator, gradient directions and grid-point seeds.

    Trial t runs on the stream ``split_stream(seed, t)``. Its generator is
    keyed by that stream's split 0 and first draws ``direction_count(fraction,
    dim)`` directions; grid point gi draws on split gi + 1.
    """
    count = direction_count(fraction, dim)
    for trial in range(trials):
        trial_seed = split_stream(seed, trial)
        rng = generator(split_stream(trial_seed, 0))
        picked = rng.choice(dim, size=count, replace=False) if count else ()
        yield (rng, tuple(sorted(int(a) for a in picked)),
               [split_stream(trial_seed, gi + 1) for gi in range(points)])


def fit_grid(basis: PceBasis, modes, trials, points, epsilon: float | None, opt_tol: float):
    """``per_trial[t][gi][k]``: the score of mode k's fit at grid point gi of trial t.

    ``trials`` yields what :func:`trial_streams` does. ``points(rng)`` runs once
    per trial, after the directions are drawn, and yields each grid point's
    (n, evaluate, score): the data of a design's rows and the score of a fit.
    """
    return [[[score(c) for c in fit_modes(basis, modes, n, dirs, seed, evaluate, epsilon, opt_tol)]
             for (n, evaluate, score), seed in zip(points(rng), seeds)]
            for rng, dirs, seeds in trials]


# -- recovery benchmarks -----------------------------------------------------


def run_recovery_benchmark(config: ExperimentConfig) -> ResultTable:
    """Success fraction per (mode, grid point) over seeded random trials."""
    if checked("config", config, ExperimentConfig).kind not in ("recovery-vs-N", "recovery-vs-s"):
        raise ValueError("config kind must be recovery-vs-N or recovery-vs-s")
    basis = PceBasis(Measure.parse(config.measure), config.dim, config.degree)
    by_n = config.kind == "recovery-vs-N"
    grid = config.sample_grid if by_n else config.sparsity_grid
    max_s = config.sparsity if by_n else max(config.sparsity_grid)
    if max_s > basis.size:
        raise ValueError("sparsity exceeds the basis size")

    def points(rng):
        # One planted support and spike draw per trial; grid point s keeps its first s.
        support = rng.choice(basis.size, size=max_s, replace=False) if max_s else np.empty(0, int)
        spikes = rng.standard_normal(max_s)
        for gval in grid:
            n, s = (gval, config.sparsity) if by_n else (config.sample_count, gval)
            coeffs = np.zeros(basis.size)
            coeffs[support[:s]] = spikes[:s]
            yield (n, lambda design: design.phi_tilde @ coeffs,
                   lambda estimate: float(np.abs(estimate - coeffs).max()))

    epsilon = 0.0 if config.epsilon is None else config.epsilon
    trials = trial_streams(config.seed, config.effective_trials, config.dim,
                           config.gradient_fraction, len(grid))
    per_trial = fit_grid(basis, config.modes, trials, points, epsilon, _RECOVERY_OPT_TOL)
    return grid_table(("mode", "N" if by_n else "s", "success_fraction"), config.modes, grid,
                      per_trial,
                      lambda errors: (sum(e <= SUCCESS_TOL for e in errors) / len(errors),))


# -- coherence sweep ---------------------------------------------------------


def _mics(basis: PceBasis, n: int, seed: int, dirs) -> tuple[float, float, float]:
    design = assemble_gradient_enhanced(basis, draw(basis, n, seed), dirs)
    stacked = design.phi_tilde
    values, unweighted = mic(stacked[:n]), mic(stacked)
    # The design is not used again, so W weights its one stacked buffer in place. mic is
    # invariant under positive column scaling: W * phi_tilde has the mic of phi_hat.
    stacked *= design.w[:, None]
    return values, unweighted, mic(stacked)


def _blas_threads(cpus: int) -> int:
    """The thread count OpenBLAS takes from the environment when it loads.

    The first positive integer among OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS, else ``cpus``.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            count = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if count > 0:
            return count
    return cpus


def _sweep_workers(tasks: int) -> int:
    """Threads for ``tasks`` grid points: the CPUs over the BLAS thread count, 1 to ``tasks``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(tasks, cpus // _blas_threads(cpus)))


def run_mic_sweep(config: ExperimentConfig) -> ResultTable:
    """Average mutual coherence of the value, stacked, and weighted systems.

    The grid points run largest N first on a thread pool of ``_sweep_workers``
    threads, one pool thread when there is one worker, while the caller waits.
    Each result goes to its own slot, so the table does not depend on which
    thread ran a grid point or when. When grid points raise, whatever the
    exception, the sweep waits for the grid points before the first failing
    one in (trial, grid point) order, drops those not yet started and raises
    its exception. The thread-pool module is imported on the first call, not
    with the package.
    """
    # Imported here: concurrent.futures loads logging, which would slow `import gradpce`.
    from concurrent.futures import ThreadPoolExecutor

    if checked("config", config, ExperimentConfig).kind != "mic-sweep":
        raise ValueError("config kind must be mic-sweep")
    basis = PceBasis(Measure.parse(config.measure), config.dim, config.degree)
    trials = trial_streams(config.seed, config.effective_trials, config.dim,
                           config.gradient_fraction, len(config.sample_grid))
    tasks = [(n, seed, dirs) for _, dirs, seeds in trials
             for n, seed in zip(config.sample_grid, seeds)]
    futures = [None] * len(tasks)
    with ThreadPoolExecutor(_sweep_workers(len(tasks))) as pool:
        try:
            # Sorting is stable: grid points of equal N keep (trial, grid point) order.
            for i in sorted(range(len(tasks)), key=lambda i: -tasks[i][0]):
                futures[i] = pool.submit(_mics, basis, *tasks[i])
            results = [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    points = len(config.sample_grid)
    per_trial = [results[t:t + points] for t in range(0, len(results), points)]
    return grid_table(("matrix_id", "N", "mic"), MATRIX_IDS, config.sample_grid, per_trial,
                      lambda mics: (sum(mics) / len(mics),))


# -- approximation benchmark -------------------------------------------------


def run_rmse_benchmark(config: ExperimentConfig) -> ResultTable:
    """Median validation error per (mode, N) against a held-out uniform grid."""
    if checked("config", config, ExperimentConfig).kind != "rmse":
        raise ValueError("config kind must be rmse")
    basis = PceBasis(Measure.parse(config.measure), config.dim, config.degree)
    if basis.measure.kind != "jacobi":
        raise ValueError("approximation targets are defined on [-1, 1]^dim")
    fn = TARGETS[config.target]
    validation = sample(
        Measure.uniform(), config.dim, _VALIDATION_POINTS,
        split_stream(config.seed, _VALIDATION_STREAM),
    )
    val_matrix = basis.matrix(validation.points)
    val_truth = fn(validation.points)[0]
    scale = math.sqrt(_VALIDATION_POINTS)

    def evaluate(design):
        return design.stack(*fn(design.batch.points))

    def rmse(estimate):
        return float(np.linalg.norm(val_matrix @ estimate - val_truth)) / scale

    trials = trial_streams(config.seed, config.effective_trials, config.dim,
                           config.gradient_fraction, len(config.sample_grid))
    per_trial = fit_grid(basis, config.modes, trials,
                         lambda rng: ((n, evaluate, rmse) for n in config.sample_grid),
                         config.epsilon, SURROGATE_OPT_TOL)
    return grid_table(("mode", "N", "rmse"), config.modes, config.sample_grid, per_trial,
                      lambda errors: (float(np.median(errors)),))
