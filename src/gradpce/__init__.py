"""Gradient-enhanced l1 recovery of sparse polynomial chaos expansions.

``import gradpce`` loads no module of the package: each exported name loads
its module when it is first used, so building a basis loads neither the
solver nor the drivers. The name is looked up in its module on every use,
never copied here, so a name rebound in its module reads the same from the
package. What only the benchmark's tracer reaches by name stays in its
module, unexported."""

from importlib import import_module

__version__ = "0.1.0"

# Each module of the package with the names it exports.
_EXPORTS = {
    "adjoint_bvp": ("DiffusionModel", "qoi_and_gradient", "reference_moments",
                    "run_bvp_benchmark"),
    "design": ("CoherenceReport", "GradientDesign", "coherence_bound", "coherence_params",
               "coherence_suprema", "draw", "expected_gram", "isotropy_gap", "mic",
               "nullspace_containment", "recovery_guarantee"),
    "harness": ("ExperimentConfig", "ResultTable", "fit_sparse_expansion", "run_mic_sweep",
                "run_recovery_benchmark", "run_rmse_benchmark"),
    "l1solver": ("RecoveryResult", "SolveSpec", "solve"),
    "pce": ("PceBasis", "total_degree_set"),
    "polynomials": ("Measure",),
    "sampling": ("SampleBatch", "sample", "split_stream"),
}

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


def __getattr__(name):
    # Only names missing from the package's globals reach here. A submodule's
    # name raises too, so `from gradpce import harness` imports the submodule.
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | set(__all__))
