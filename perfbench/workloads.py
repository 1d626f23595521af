"""The benchmark's workloads: one seeded public driver call per operation.

An operation is one call with ``trials=1`` on the operation's own seed. The
drivers are looked up on their modules at call time, so a traced run sees
the wrapped names. Each workload also says how to check a result table and
how to score the quality of a run's first ``quality_ops`` operations; the
quality scores are exact functions of the seeds, so they guard against a
change that buys speed with accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from gradpce import adjoint_bvp, harness
from gradpce.harness import ExperimentConfig, ResultTable

from stats import gmean

MODES = ("standard", "gradient-enhanced")
# Errors are absolute errors of O(1) quantities; an exact zero (a measure-zero
# event) is scored as double precision resolution rather than as -inf digits.
_ERROR_FLOOR = 1e-16


@dataclass(frozen=True)
class Workload:
    name: str
    operation: Callable[[int], ResultTable]
    setup: str  # statements timed after ``import gradpce`` in a fresh interpreter
    quality_ops: int  # operations every untraced run completes and scores
    trace_ops: int  # operations a traced run runs untraced, then traced
    check_table: Callable[[ResultTable], list[str]]  # per operation; a problem fails it
    check_run: Callable[[list[ResultTable]], list[str]]  # across operations
    quality: Callable[[list[ResultTable]], dict[str, float]]  # higher is better


def _by_mode(tables, column, modes=MODES):
    """Values of one column per mode, keyed by (mode, N), across tables."""
    col = tables[0].columns.index(column)
    out = {mode: {} for mode in modes}
    for table in tables:
        for row in table.rows:
            if row[0] in out:
                out[row[0]].setdefault(row[1], []).append(float(row[col]))
    return out


def _expect_rows(table, columns, keys) -> list[str]:
    if table.columns != columns:
        return [f"columns {table.columns} != {columns}"]
    got = [(row[0], row[1]) for row in table.rows]
    return [] if got == list(keys) else [f"rows {got} != {list(keys)}"]


def _digits(errors) -> float:
    """Correct decimal digits: -log10 of the geometric mean error."""
    return -math.log10(gmean(max(e, _ERROR_FLOOR) for e in errors))


# -- recovery-bp ---------------------------------------------------------------

RECOVERY = ExperimentConfig(
    kind="recovery-vs-N", dim=2, degree=20, measure="legendre",
    sample_grid=(20, 35, 50, 65, 80), sparsity=8, trials=1, modes=MODES, epsilon=0.0,
)


def recovery_operation(seed: int) -> ResultTable:
    return harness.run_recovery_benchmark(replace(RECOVERY, seed=seed))


def recovery_check_table(table) -> list[str]:
    keys = [(m, n) for m in MODES for n in RECOVERY.sample_grid]
    problems = _expect_rows(table, ("mode", "N", "success_fraction"), keys)
    problems += [f"success fraction {row} outside [0, 1]"
                 for row in table.rows if not 0.0 <= row[2] <= 1.0]
    return problems


def recovery_check_run(tables) -> list[str]:
    rates = _by_mode(tables, "success_fraction")
    return [
        f"N={n}: gradient-enhanced success {_mean(rates['gradient-enhanced'][n]):.3f}"
        f" < standard {_mean(rates['standard'][n]):.3f}"
        for n in RECOVERY.sample_grid
        if _mean(rates["gradient-enhanced"][n]) < _mean(rates["standard"][n])
    ]


def recovery_quality(tables) -> dict[str, float]:
    """Mean success fraction over N and operations."""
    rates = _by_mode(tables, "success_fraction")
    return {mode: _mean([v for vals in rates[mode].values() for v in vals]) for mode in MODES}


# -- bvp-adjoint ---------------------------------------------------------------

BVP_DIM = 3
BVP_DEGREE = 4
BVP_GRID = (10, 20, 40)


def bvp_operation(seed: int) -> ResultTable:
    return adjoint_bvp.run_bvp_benchmark(
        adjoint_bvp.DiffusionModel(dim=BVP_DIM), BVP_DEGREE, BVP_GRID,
        modes=MODES, seed=seed, trials=1,
    )


def bvp_check_table(table) -> list[str]:
    keys = [(m, n) for m in MODES for n in BVP_GRID]
    problems = _expect_rows(table, ("mode", "N", "mean_error", "std_error"), keys)
    problems += [f"moment errors {row} not finite and >= 0" for row in table.rows
                 if not all(math.isfinite(v) and v >= 0.0 for v in row[2:])]
    return problems


def bvp_quality(tables) -> dict[str, float]:
    """Digits of the geometric mean of mean and std errors over N and operations."""
    means, stds = _by_mode(tables, "mean_error"), _by_mode(tables, "std_error")
    return {
        mode: _digits([v for vals in means[mode].values() for v in vals]
                      + [v for vals in stds[mode].values() for v in vals])
        for mode in MODES
    }


# -- coherence-sweep -----------------------------------------------------------

COHERENCE = ExperimentConfig(
    kind="mic-sweep", dim=3, degree=10, measure="legendre",
    sample_grid=(50, 100, 200, 400), trials=1, gradient_fraction=1.0,
)
# Quality mode -> the matrix whose coherence scores it.
_COHERENCE_MATRIX = {"standard": "values", "gradient-enhanced": "preconditioned"}


def coherence_operation(seed: int) -> ResultTable:
    return harness.run_mic_sweep(replace(COHERENCE, seed=seed))


def coherence_check_table(table) -> list[str]:
    keys = [(m, n) for m in harness.MATRIX_IDS for n in COHERENCE.sample_grid]
    problems = _expect_rows(table, ("matrix_id", "N", "mic"), keys)
    if problems:
        return problems
    problems = [f"mic {row} outside [0, 1]" for row in table.rows if not 0.0 <= row[2] <= 1.0]
    mic = {(row[0], row[1]): row[2] for row in table.rows}
    problems += [
        f"N={n}: preconditioned mic {mic['preconditioned', n]} >= stacked {mic['stacked', n]}"
        for n in COHERENCE.sample_grid if not mic["preconditioned", n] < mic["stacked", n]
    ]
    return problems


def coherence_quality(tables) -> dict[str, float]:
    """Reciprocal of the mean mutual coherence over N and operations."""
    mics = _by_mode(tables, "mic", modes=tuple(_COHERENCE_MATRIX.values()))
    return {
        mode: 1.0 / _mean([v for vals in mics[matrix].values() for v in vals])
        for mode, matrix in _COHERENCE_MATRIX.items()
    }


# -----------------------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


def _no_run_check(tables) -> list[str]:
    return []


def _basis_setup(config: ExperimentConfig) -> str:
    return (f"gradpce.PceBasis.from_measure(gradpce.Measure.parse({config.measure!r}), "
            f"{config.dim}, {config.degree})")


# On a 2-vCPU Xeon host running at half its quiet speed (a recovery-bp
# operation in 2.0 s), quality_ops take 65-95% of a 30 s run: as many as a run
# completes anyway, so the quality scores are as steady as the run allows
# while a slower host lengthens only recovery-bp runs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("recovery-bp", recovery_operation, _basis_setup(RECOVERY),
                 quality_ops=14, trace_ops=8, check_table=recovery_check_table,
                 check_run=recovery_check_run, quality=recovery_quality),
        Workload("bvp-adjoint", bvp_operation,
                 f"gradpce.DiffusionModel(dim={BVP_DIM}); "
                 f"gradpce.PceBasis.legendre({BVP_DIM}, {BVP_DEGREE})",
                 quality_ops=6, trace_ops=4, check_table=bvp_check_table,
                 check_run=_no_run_check, quality=bvp_quality),
        Workload("coherence-sweep", coherence_operation, _basis_setup(COHERENCE),
                 quality_ops=200, trace_ops=120, check_table=coherence_check_table,
                 check_run=_no_run_check, quality=coherence_quality),
    )
}
