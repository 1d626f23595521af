"""Gradient-enhanced l1 recovery of sparse polynomial chaos expansions."""

from .adjoint_bvp import (
    DiffusionModel,
    build_surrogate,
    qoi_and_gradient,
    reference_moments,
    run_bvp_benchmark,
    solve_bvp,
)
from .design import (
    CoherenceReport,
    GradientDesign,
    assemble_gradient_enhanced,
    assemble_standard,
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
from .l1solver import RecoveryResult, SolveSpec, project_l1_ball, solve
from .pce import PceBasis, total_degree_set
from .polynomials import JacobiParams, Measure, PolynomialFamily
from .sampling import SampleBatch, sample, split_stream

__version__ = "0.1.0"

__all__ = [
    "CoherenceReport",
    "DiffusionModel",
    "ExperimentConfig",
    "GradientDesign",
    "JacobiParams",
    "Measure",
    "PceBasis",
    "PolynomialFamily",
    "RecoveryResult",
    "ResultTable",
    "SampleBatch",
    "SolveSpec",
    "assemble_gradient_enhanced",
    "assemble_standard",
    "build_surrogate",
    "coherence_bound",
    "coherence_params",
    "coherence_suprema",
    "draw",
    "expected_gram",
    "fit_sparse_expansion",
    "isotropy_gap",
    "mic",
    "nullspace_containment",
    "project_l1_ball",
    "qoi_and_gradient",
    "recovery_guarantee",
    "reference_moments",
    "run_bvp_benchmark",
    "run_mic_sweep",
    "run_recovery_benchmark",
    "run_rmse_benchmark",
    "sample",
    "solve",
    "solve_bvp",
    "split_stream",
    "total_degree_set",
]
