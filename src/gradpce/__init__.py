"""Gradient-enhanced l1 recovery of sparse polynomial chaos expansions.

What only the benchmark's tracer reaches by name stays in its module, unexported."""

from .adjoint_bvp import (
    DiffusionModel,
    qoi_and_gradient,
    reference_moments,
    run_bvp_benchmark,
)
from .design import (
    CoherenceReport,
    GradientDesign,
    coherence_bound,
    coherence_params,
    coherence_suprema,
    draw,
    expected_gram,
    isotropy_gap,
    mic,
    nullspace_containment,
    recovery_guarantee,
)
from .harness import (
    ExperimentConfig,
    ResultTable,
    fit_sparse_expansion,
    run_mic_sweep,
    run_recovery_benchmark,
    run_rmse_benchmark,
)
from .l1solver import RecoveryResult, SolveSpec, solve
from .pce import PceBasis, total_degree_set
from .polynomials import Measure
from .sampling import SampleBatch, sample, split_stream

__version__ = "0.1.0"

__all__ = [
    "CoherenceReport",
    "DiffusionModel",
    "ExperimentConfig",
    "GradientDesign",
    "Measure",
    "PceBasis",
    "RecoveryResult",
    "ResultTable",
    "SampleBatch",
    "SolveSpec",
    "coherence_bound",
    "coherence_params",
    "coherence_suprema",
    "draw",
    "expected_gram",
    "fit_sparse_expansion",
    "isotropy_gap",
    "mic",
    "nullspace_containment",
    "qoi_and_gradient",
    "recovery_guarantee",
    "reference_moments",
    "run_bvp_benchmark",
    "run_mic_sweep",
    "run_recovery_benchmark",
    "run_rmse_benchmark",
    "sample",
    "solve",
    "split_stream",
    "total_degree_set",
]
