"""Arguments of the wrong type are refused by name, never converted.

Each call below once ran on a silently converted argument (a float or a
boolean as an integer, a string as a number), accepted an argument that failed
only later, or failed deep inside with an AttributeError, IndexError or
TypeError. Each must now raise one ValueError whose message starts with the
name of the offending argument.
"""

import json
import re

import numpy as np
import pytest

from gradpce.adjoint_bvp import (
    DiffusionModel,
    build_surrogate,
    qoi_and_gradient,
    reference_moments,
    run_bvp_benchmark,
    solve_bvp,
)
from gradpce.cli import main
from gradpce.design import (
    GradientDesign,
    assemble_gradient_enhanced,
    coherence_bound,
    coherence_params,
    coherence_suprema,
    column_normalizer,
    design_matrices,
    draw,
    expected_gram,
    isotropy_gap,
    nullspace_containment,
    numeric_nullspace_dim,
    recovery_guarantee,
    sampling_measure,
)
from gradpce.harness import (
    ExperimentConfig,
    fit_sparse_expansion,
    run_mic_sweep,
    run_recovery_benchmark,
    run_rmse_benchmark,
)
from gradpce.pce import PceBasis
from gradpce.polynomials import (
    Measure,
    PolynomialFamily,
    density_ratio_to_chebyshev,
    derivative_constant,
    gauss_rule,
    tensor_gauss_rule,
)
from gradpce.sampling import SampleBatch

BASIS = PceBasis.legendre(2, 3)


def _batch():
    return draw(BASIS, 10, 0)


def _fit(epsilon):
    design = assemble_gradient_enhanced(BASIS, _batch(), ())
    return fit_sparse_expansion(design, np.ones(design.n_samples), epsilon=epsilon)


CASES = [
    ("directions", lambda: assemble_gradient_enhanced(BASIS, _batch(), (1.7,))),
    ("directions", lambda: assemble_gradient_enhanced(BASIS, _batch(), (True,))),
    ("directions", lambda: assemble_gradient_enhanced(BASIS, _batch(), ("1",))),
    ("directions", lambda: assemble_gradient_enhanced(BASIS, _batch(), 5)),
    ("epsilon", lambda: _fit("0.1")),
    ("epsilon", lambda: _fit(True)),
    ("n", lambda: derivative_constant(Measure.uniform(), 2.5)),
    ("n", lambda: derivative_constant(Measure.uniform(), True)),
    ("n", lambda: derivative_constant(Measure.uniform(), "2")),
    ("n_samples", lambda: build_surrogate(DiffusionModel(dim=1), 2, True)),
    ("n_samples", lambda: build_surrogate(DiffusionModel(dim=1), 2, 2.5)),
    ("count", lambda: _batch().subset(2.5)),
    ("count", lambda: _batch().subset(True)),
    ("sparsity", lambda: recovery_guarantee(0.1, 2.5)),
    ("sparsity", lambda: recovery_guarantee(0.1, True)),
    ("mic_value", lambda: recovery_guarantee("x", 2)),
    ("model", lambda: run_bvp_benchmark("x", 4, (10,))),
    ("model", lambda: reference_moments("x")),
    ("model", lambda: solve_bvp("x", [0.1])),
    ("model", lambda: qoi_and_gradient(None, [0.1])),
    ("model", lambda: build_surrogate("x", 2, 5)),
    ("matrix", lambda: numeric_nullspace_dim([1, 2])),
    ("phi", lambda: nullspace_containment([1, 2], [1, 2])),
    ("measure", lambda: derivative_constant("x", 2)),
    ("measure", lambda: gauss_rule("x", 3)),
    ("measure", lambda: density_ratio_to_chebyshev("x", 0.1)),
    ("measure", lambda: PolynomialFamily("x", 3)),
    ("measure", lambda: coherence_bound("x", 2)),
    ("basis_measure", lambda: sampling_measure("x")),
    ("basis", lambda: column_normalizer("x")),
    ("basis", lambda: expected_gram("x")),
    ("basis", lambda: isotropy_gap("x")),
    ("basis", lambda: coherence_suprema("x")),
    ("basis", lambda: draw("x", 5, 0)),
    ("basis", lambda: assemble_gradient_enhanced("x", _batch())),
    ("batch", lambda: assemble_gradient_enhanced(BASIS, _batch().points)),
    ("batch", lambda: design_matrices(BASIS, "x")),
    ("measure", lambda: SampleBatch("x", _batch().points)),
    ("design", lambda: fit_sparse_expansion("x", [1.0])),
    ("design", lambda: coherence_params("x")),
    ("config", lambda: run_mic_sweep("x")),
    ("config", lambda: run_recovery_benchmark("x")),
    ("config", lambda: run_rmse_benchmark(None)),
    ("data", lambda: ExperimentConfig.from_dict([])),
    ("m", lambda: gauss_rule(Measure.uniform(), 2.5)),
    ("m", lambda: gauss_rule(Measure.uniform(), True)),
    ("m", lambda: tensor_gauss_rule([Measure.uniform()], 2.5)),
    ("load", lambda: DiffusionModel(dim=2, cells=64, load=3)),
    ("basis", lambda: GradientDesign("x", _batch(), (0,))),
    ("directions", lambda: GradientDesign(BASIS, _batch(), 5)),
    ("directions", lambda: GradientDesign(BASIS, _batch(), (1.7,))),
]

IDS = [
    "directions-1.7", "directions-True", "directions-str", "directions-int",
    "fit-epsilon-str", "fit-epsilon-True",
    "derivative_constant-2.5", "derivative_constant-True", "derivative_constant-str",
    "build_surrogate-n_samples-True", "build_surrogate-n_samples-2.5",
    "subset-2.5", "subset-True",
    "recovery_guarantee-sparsity-2.5", "recovery_guarantee-sparsity-True",
    "recovery_guarantee-mic-str",
    "run_bvp_benchmark-model", "reference_moments-model", "solve_bvp-model",
    "qoi_and_gradient-model", "build_surrogate-model",
    "numeric_nullspace_dim-1d", "nullspace_containment-1d",
    "derivative_constant-measure", "gauss_rule-measure", "density_ratio-measure",
    "PolynomialFamily-measure", "coherence_bound-measure", "sampling_measure-measure",
    "column_normalizer-basis", "expected_gram-basis", "isotropy_gap-basis",
    "coherence_suprema-basis", "draw-basis", "assemble-basis",
    "assemble-points-as-batch", "design_matrices-batch", "SampleBatch-measure",
    "fit-design", "coherence_params-design",
    "run_mic_sweep-config", "run_recovery_benchmark-config", "run_rmse_benchmark-config",
    "from_dict-list", "gauss_rule-m-2.5", "gauss_rule-m-True", "tensor_gauss_rule-m-2.5",
    "DiffusionModel-load", "GradientDesign-basis", "GradientDesign-directions-int",
    "GradientDesign-directions-1.7",
]


@pytest.mark.parametrize("name, call", CASES, ids=IDS)
def test_ill_typed_argument_raises_one_named_error(name, call):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        call()


@pytest.mark.parametrize("directions", [(1, 0), [0, 1], range(2), np.array([1, 0]),
                                        (np.int64(0), np.int32(1))],
                         ids=["tuple", "list", "range", "array", "numpy-integers"])
def test_integer_directions_of_any_container_are_accepted(directions):
    design = assemble_gradient_enhanced(BASIS, _batch(), directions)
    assert design.directions == (0, 1)
    np.testing.assert_array_equal(column_normalizer(BASIS, directions),
                                  column_normalizer(BASIS, (0, 1)))


def test_numeric_nullspace_dim_takes_an_array_like():
    assert numeric_nullspace_dim([[1, 2], [2, 4]]) == 1


@pytest.mark.parametrize("call", [
    lambda: ExperimentConfig("recovery-vs-N", modes="standard"),
    lambda: run_bvp_benchmark(DiffusionModel(dim=1, cells=64), 2, (5,), modes="standard"),
], ids=["ExperimentConfig", "run_bvp_benchmark"])
def test_a_string_is_not_a_list_of_modes(call):
    # Split into characters, a string once ended in the duplicate-modes message.
    with pytest.raises(ValueError, match="^modes must be a list, got 'standard'$"):
        call()


def test_a_string_of_modes_in_a_config_file_is_not_a_list(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "recovery-vs-N", "modes": "standard"}))
    assert main(["recover", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: modes must be a list, got 'standard'\n"
