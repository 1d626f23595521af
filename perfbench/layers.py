"""Which gradpce functions the traced run wraps, and the per-layer metrics.

A layer is one module of the package. Spans are named ``<module>.<function>``
so a layer's self time is the summed self time of the spans named after it.
Spans are recorded around public functions only, from outside ``src/``; work a
module does inside an unwrapped private helper is charged to the nearest
wrapped caller (for example the trial loops and validation scoring of
``harness``).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import numpy as np

from stats import percentile
from tracing import Tracer, self_times

# Per-layer metric -> unit; BENCHMARK.json lists the same names and units.
# Each group's comment names the end-to-end metric it should move, and where.
PER_LAYER = {
    # trial_ref_p50 and trials_per_ref on recovery-bp, a little on bvp-adjoint;
    # unconverged_frac and budget_exhausted move the quality scores.
    "l1solver.solves": "count",
    "l1solver.self_s": "s",
    "l1solver.solve_ms_p50": "ms",
    "l1solver.solve_ms_p90": "ms",
    "l1solver.inner_iters": "count",
    "l1solver.outer_steps": "count",
    "l1solver.projections": "count",
    "l1solver.projection_self_s": "s",
    "l1solver.budget_exhausted": "count",
    "l1solver.unconverged_frac": "frac",
    "l1solver.exceptions": "count",
    # trials_per_ref on coherence-sweep; no visible change on recovery-bp.
    "design.assemble_calls": "count",
    "design.self_s": "s",
    "design.stacked_rows": "count",
    "design.bytes_computed": "bytes",
    "design.mic_calls": "count",
    "design.mic_self_s": "s",
    # trials_per_ref on coherence-sweep.
    "pce.matrix_calls": "count",
    "pce.gradient_matrix_calls": "count",
    "pce.self_s": "s",
    "pce.entries": "count",
    # family_build_s: setup_s on every workload; the eval-table metrics:
    # trials_per_ref on coherence-sweep.
    "polynomials.eval_table_calls": "count",
    "polynomials.eval_table_self_s": "s",
    "polynomials.family_build_s": "s",
    # trials_per_ref on coherence-sweep.
    "sampling.calls": "count",
    "sampling.points": "count",
    "sampling.self_s": "s",
    # trial_ref_p50 on bvp-adjoint.
    "adjoint_bvp.solves": "count",
    "adjoint_bvp.self_s": "s",
    "adjoint_bvp.solve_us_p50": "us",
    "adjoint_bvp.reference_s": "s",
    # Driver glue (trial generation, synthetic gradients, scoring): a small
    # share of trials_per_ref on recovery-bp.
    "harness.self_s": "s",
    # Traced over untraced wall time of the same operations, minus 1.
    "trace.overhead_frac": "frac",
}

LAYERS = ("harness", "adjoint_bvp", "l1solver", "design", "pce", "polynomials", "sampling")
_FLOAT_BYTES = 8


def _observe_solve(counts, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    counts["l1solver.inner_iters"] += result.iterations
    counts["l1solver.outer_steps"] += len(result.curve_trace)
    counts["l1solver.budget_exhausted"] += result.iterations >= spec.max_iters
    counts["l1solver.unconverged"] += not result.converged


def _observe_design_matrices(counts, args, kwargs, result):
    # Computed, not measured: phi, phi_tilde and the phi_hat every caller
    # forms from phi_tilde, in float64.
    phi, phi_tilde, _, _ = result
    counts["design.stacked_rows"] += phi_tilde.shape[0]
    counts["design.bytes_computed"] += _FLOAT_BYTES * (phi.size + 2 * phi_tilde.size)


def _observe_assemble_standard(counts, args, kwargs, result):
    matrix, _ = result
    counts["design.stacked_rows"] += matrix.shape[0]
    counts["design.bytes_computed"] += _FLOAT_BYTES * 2 * matrix.size  # phi and W phi


def _observe_entries(counts, args, kwargs, result):
    counts["pce.entries"] += result.size


def _observe_sample(counts, args, kwargs, result):
    counts["sampling.points"] += len(result)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, in all modules that hold them."""
    from gradpce import adjoint_bvp, design, harness, l1solver, sampling
    from gradpce.pce import PceBasis
    from gradpce.polynomials import PolynomialFamily

    modules = [m for key, m in sys.modules.items()
               if key == "gradpce" or key.startswith("gradpce.")]
    functions = [
        (harness, "run_recovery_benchmark", None),
        (harness, "run_mic_sweep", None),
        (harness, "fit_sparse_expansion", None),
        (adjoint_bvp, "run_bvp_benchmark", None),
        (adjoint_bvp, "reference_moments", None),
        (adjoint_bvp, "build_surrogate", None),
        (adjoint_bvp, "solve_bvp", None),
        (l1solver, "solve", _observe_solve),
        (l1solver, "project_l1_ball", None),
        (design, "design_matrices", _observe_design_matrices),
        (design, "assemble_gradient_enhanced", None),
        (design, "assemble_standard", _observe_assemble_standard),
        (design, "mic", None),
        (sampling, "sample", _observe_sample),
    ]
    for module, attr, observe in functions:
        layer = module.__name__.rsplit(".", 1)[-1]
        tracer.install(module, attr, f"{layer}.{attr}", observe, aliases=modules)
    methods = [
        (PceBasis, "pce", "matrix", _observe_entries),
        (PceBasis, "pce", "gradient_matrix", _observe_entries),
        (PolynomialFamily, "polynomials", "eval_table", None),
        (PolynomialFamily, "polynomials", "__init__", None),
    ]
    for cls, layer, attr, observe in methods:
        tracer.install(cls, attr, f"{layer}.{cls.__name__}.{attr}", observe)


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    try:
        install(tracer)
        yield tracer
    finally:
        tracer.uninstall()


def summarize(tracer: Tracer, overhead_frac: float) -> tuple[dict[str, float], dict[str, float]]:
    """Every per-layer metric of one traced run, and each layer's share of self time."""
    ids = np.frombuffer(tracer.name, dtype=np.int64)
    names = np.array(tracer.names, dtype=str)[ids]
    layer = np.array([n.split(".", 1)[0] for n in tracer.names], dtype=str)[ids]
    parents = np.frombuffer(tracer.parent, dtype=np.int64)
    parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], "")
    duration = (np.frombuffer(tracer.end, dtype=np.int64)
                - np.frombuffer(tracer.start, dtype=np.int64)) * 1e-9
    own = np.array(self_times(tracer.parent, tracer.start, tracer.end), dtype=float) * 1e-9
    counts = tracer.counts

    def calls(name):
        return int(np.count_nonzero(names == name))

    def self_s(mask):
        return float(own[mask].sum())

    def percentile_of(name, q, scale):
        picked = duration[names == name] * scale
        return percentile(picked, q) if picked.size else 0.0

    solves = calls("l1solver.solve")
    init = "polynomials.PolynomialFamily.__init__"
    outer_init = (names == init) & (parent_names != init)
    metrics = {
        "l1solver.solves": solves,
        "l1solver.self_s": self_s(layer == "l1solver"),
        "l1solver.solve_ms_p50": percentile_of("l1solver.solve", 50, 1e3),
        "l1solver.solve_ms_p90": percentile_of("l1solver.solve", 90, 1e3),
        "l1solver.inner_iters": int(counts["l1solver.inner_iters"]),
        "l1solver.outer_steps": int(counts["l1solver.outer_steps"]),
        "l1solver.projections": calls("l1solver.project_l1_ball"),
        "l1solver.projection_self_s": self_s(names == "l1solver.project_l1_ball"),
        "l1solver.budget_exhausted": int(counts["l1solver.budget_exhausted"]),
        "l1solver.unconverged_frac": counts["l1solver.unconverged"] / solves if solves else 0.0,
        "l1solver.exceptions": int(counts["l1solver.solve.raised"]),
        "design.assemble_calls": calls("design.design_matrices") + calls("design.assemble_standard"),
        "design.self_s": self_s(layer == "design"),
        "design.stacked_rows": int(counts["design.stacked_rows"]),
        "design.bytes_computed": int(counts["design.bytes_computed"]),
        "design.mic_calls": calls("design.mic"),
        "design.mic_self_s": self_s(names == "design.mic"),
        "pce.matrix_calls": calls("pce.PceBasis.matrix"),
        "pce.gradient_matrix_calls": calls("pce.PceBasis.gradient_matrix"),
        "pce.self_s": self_s(layer == "pce"),
        "pce.entries": int(counts["pce.entries"]),
        "polynomials.eval_table_calls": calls("polynomials.PolynomialFamily.eval_table"),
        "polynomials.eval_table_self_s": self_s(names == "polynomials.PolynomialFamily.eval_table"),
        "polynomials.family_build_s": float(duration[outer_init].sum()),
        "sampling.calls": calls("sampling.sample"),
        "sampling.points": int(counts["sampling.points"]),
        "sampling.self_s": self_s(layer == "sampling"),
        "adjoint_bvp.solves": calls("adjoint_bvp.solve_bvp"),
        "adjoint_bvp.self_s": self_s(layer == "adjoint_bvp"),
        "adjoint_bvp.solve_us_p50": percentile_of("adjoint_bvp.solve_bvp", 50, 1e6),
        "adjoint_bvp.reference_s": float(duration[names == "adjoint_bvp.reference_moments"].sum()),
        "harness.self_s": self_s(layer == "harness"),
        "trace.overhead_frac": float(overhead_frac),
    }
    total = own.sum()
    share = {name: float(own[layer == name].sum() / total) if total else 0.0 for name in LAYERS}
    return metrics, share
