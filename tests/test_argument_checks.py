"""Arguments of the wrong type are refused by name, never converted.

Each call below once ran on a silently converted argument (a float or a
boolean as an integer, a string as a number) or failed deep inside with an
AttributeError or TypeError. Each must now raise one ValueError whose message
starts with the name of the offending argument.
"""

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
from gradpce.design import (
    assemble_gradient_enhanced,
    column_normalizer,
    draw,
    numeric_nullspace_dim,
    recovery_guarantee,
)
from gradpce.harness import fit_sparse_expansion
from gradpce.pce import PceBasis
from gradpce.polynomials import Measure, derivative_constant

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
