import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradpce import polynomials
from gradpce.adjoint_bvp import DiffusionModel, reference_moments
from gradpce.design import isotropy_gap
from gradpce.pce import PceBasis
from gradpce.polynomials import (
    Measure,
    PolynomialFamily,
    _recurrence,
    density_ratio_to_chebyshev,
    derivative_constant,
    gauss_rule,
)

from _oracles import (
    central_difference,
    density,
    gram_schmidt_values,
    hermite_rule,
    jacobi_rule,
    precise_hermite_rule,
    precise_jacobi_rule,
    tridiagonal_eigenvalues,
)

PARAM_GRID = [(-0.5, -0.5), (0.0, 0.0), (-0.5, 1.0), (0.5, 0.5), (1.0, 2.5), (2.5, 0.0)]


def degree_column(fam, n, x):
    """Value and derivative of the degree-n polynomial: column n of the table."""
    values, derivs = fam.eval_table(x)
    return values[:, n], derivs[:, n]


class TestEvaluation:
    @pytest.mark.parametrize("max_degree", [2.5, True, "3"])
    def test_ill_typed_max_degree_raises_one_named_error(self, max_degree):
        message = f"max_degree must be an integer, got {re.escape(repr(max_degree))}"
        with pytest.raises(ValueError, match=message):
            PolynomialFamily(Measure.uniform(), max_degree)

    def test_negative_max_degree_raises(self):
        with pytest.raises(ValueError, match="max_degree must be nonnegative"):
            PolynomialFamily(Measure.uniform(), -1)

    def test_legendre_degree_one_hand_value(self):
        fam = PolynomialFamily(Measure.uniform(), 4)
        value, deriv = degree_column(fam, 1, 1.0)
        # Orthonormal under the uniform probability measure: p_1(x) = sqrt(3) x.
        assert value[0] == pytest.approx(math.sqrt(3.0), abs=1e-14)
        assert deriv[0] == pytest.approx(math.sqrt(3.0), abs=1e-14)

    def test_chebyshev_degree_one_hand_value(self):
        fam = PolynomialFamily(Measure.chebyshev(), 4)
        value, _ = degree_column(fam, 1, 0.5)
        assert value[0] == pytest.approx(math.sqrt(2.0) * 0.5, abs=1e-14)

    @pytest.mark.parametrize("alpha,beta", PARAM_GRID)
    def test_matches_gram_schmidt_oracle(self, alpha, beta):
        deg = 10
        fam = PolynomialFamily(Measure.jacobi(alpha, beta), deg)
        x = np.linspace(-0.95, 0.95, 17)
        expected = gram_schmidt_values(jacobi_rule(alpha, beta, 4 * deg), deg, x)
        values, _ = fam.eval_table(x)
        np.testing.assert_allclose(values, expected, atol=1e-8)

    def test_hermite_matches_gram_schmidt_oracle(self):
        deg = 10
        fam = PolynomialFamily(Measure.gaussian(), deg)
        x = np.linspace(-2.5, 2.5, 11)
        expected = gram_schmidt_values(hermite_rule(60), deg, x)
        values, _ = fam.eval_table(x)
        np.testing.assert_allclose(values, expected, atol=1e-8)

    def test_constant_is_one(self):
        for measure in (Measure.jacobi(1.0, 2.5), Measure.gaussian()):
            fam = PolynomialFamily(measure, 2)
            value, deriv = degree_column(fam, 0, np.array([-0.3, 0.9]))
            np.testing.assert_array_equal(value, 1.0)
            np.testing.assert_array_equal(deriv, 0.0)

    def test_clamps_roundoff_overshoot(self):
        fam = PolynomialFamily(Measure.uniform(), 3)
        value, _ = degree_column(fam, 2, 1.0 + 1e-14)
        exact, _ = degree_column(fam, 2, 1.0)
        assert value[0] == exact[0]

    def test_rejects_points_outside_support(self):
        fam = PolynomialFamily(Measure.uniform(), 3)
        with pytest.raises(ValueError):
            degree_column(fam, 2, 1.1)

    def test_hermite_unbounded_support(self):
        fam = PolynomialFamily(Measure.gaussian(), 6)
        value, _ = degree_column(fam, 6, 8.0)
        assert np.isfinite(value[0])


class TestOrthonormality:
    @pytest.mark.parametrize("alpha,beta", PARAM_GRID)
    def test_jacobi_gramian_identity(self, alpha, beta):
        deg = 30
        fam = PolynomialFamily(Measure.jacobi(alpha, beta), deg)
        nodes, weights = jacobi_rule(alpha, beta, deg + 1)
        values, _ = fam.eval_table(nodes)
        gram = (values * weights[:, None]).T @ values
        np.testing.assert_allclose(gram, np.eye(deg + 1), atol=1e-10)

    def test_hermite_gramian_identity(self):
        deg = 30
        fam = PolynomialFamily(Measure.gaussian(), deg)
        nodes, weights = hermite_rule(deg + 1)
        values, _ = fam.eval_table(nodes)
        gram = (values * weights[:, None]).T @ values
        np.testing.assert_allclose(gram, np.eye(deg + 1), atol=1e-10)


class TestDerivatives:
    def test_constant_values(self):
        assert derivative_constant(Measure.jacobi(1.0, 2.0), 0) == 0.0
        assert derivative_constant(Measure.uniform(), 1) == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert derivative_constant(Measure.chebyshev(), 1) == pytest.approx(
            math.sqrt(2.0), rel=1e-15)
        assert derivative_constant(Measure.gaussian(), 4) == 2.0
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            derivative_constant(Measure.uniform(), -1)

    @pytest.mark.parametrize("alpha,beta", PARAM_GRID)
    def test_derivative_maps_to_raised_family(self, alpha, beta):
        """d/dx p_n = c(n) q_{n-1} with q orthonormal under the raised measure."""
        deg = 12
        fam = PolynomialFamily(Measure.jacobi(alpha, beta), deg)
        raised = PolynomialFamily(fam.measure.raised(), deg)
        x = np.linspace(-0.9, 0.9, 13)
        _, derivs = fam.eval_table(x)
        raised_vals, _ = raised.eval_table(x)
        for n in range(1, deg + 1):
            c = derivative_constant(fam.measure, n)
            scale = max(1.0, np.abs(derivs[:, n]).max())
            np.testing.assert_allclose(
                derivs[:, n], c * raised_vals[:, n - 1], atol=1e-10 * scale
            )

    def test_derivative_matches_finite_difference(self):
        fam = PolynomialFamily(Measure.jacobi(0.5, 1.5), 8)
        x = np.linspace(-0.8, 0.8, 9)
        for n in (1, 4, 8):
            fd = central_difference(lambda t: degree_column(fam, n, t)[0], x)
            _, deriv = degree_column(fam, n, x)
            np.testing.assert_allclose(deriv, fd, rtol=1e-7, atol=1e-7)

    def test_hermite_derivative_identity(self):
        fam = PolynomialFamily(Measure.gaussian(), 10)
        x = np.linspace(-3.0, 3.0, 11)
        values, derivs = fam.eval_table(x)
        for n in range(1, 11):
            np.testing.assert_allclose(
                derivs[:, n], math.sqrt(n) * values[:, n - 1], atol=1e-10 * 3**n
            )

    def test_tampered_constant_detected_by_quadrature_check(self, monkeypatch):
        fam = PolynomialFamily(Measure.jacobi(0.0, 0.0), 6)
        monkeypatch.setattr(polynomials, "derivative_constant",
                            lambda measure, n: 0.9 * derivative_constant(measure, n))
        with pytest.raises(ValueError, match="derivative constant"):
            fam._check_derivative_constants()

    @pytest.mark.parametrize("alpha,beta,deg", [(10.0, 10.0, 100), (5.0, 0.0, 150)])
    def test_large_parameter_families_pass_quadrature_check(self, alpha, beta, deg):
        """The self-check needs a rule whose tail weights are accurate."""
        fam = PolynomialFamily(Measure.jacobi(alpha, beta), deg)
        assert fam.max_degree == deg

    def test_tampered_constant_detected_at_high_degree(self, monkeypatch):
        fam = PolynomialFamily(Measure.jacobi(10.0, 10.0), 100)
        monkeypatch.setattr(polynomials, "derivative_constant",
                            lambda measure, n: derivative_constant(measure, n)
                            * (1.0 + 1e-8 * (n == 100)))
        with pytest.raises(ValueError, match="derivative constant mismatch .* degree 100"):
            fam._check_derivative_constants()


class TestQuadrature:
    def test_single_node_rule(self):
        nodes, weights = gauss_rule(Measure.uniform(), 1)
        np.testing.assert_array_equal(nodes, [0.0])
        np.testing.assert_array_equal(weights, [1.0])
        with pytest.raises(ValueError, match="^quadrature needs at least one node$"):
            gauss_rule(Measure.uniform(), 0)

    def test_legendre_integrates_quartic(self):
        nodes, weights = gauss_rule(Measure.uniform(), 5)
        assert np.sum(weights * nodes**4) == pytest.approx(0.2, abs=1e-14)

    def test_chebyshev_second_moment(self):
        nodes, weights = gauss_rule(Measure.chebyshev(), 3)
        assert np.sum(weights * nodes**2) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize(
        "alpha,beta,m", [(0.0, 0.0, 10), (-0.5, -0.5, 9), (0.5, 1.5, 12), (2.5, 0.0, 7)]
    )
    def test_matches_scipy_rule(self, alpha, beta, m):
        nodes, weights = gauss_rule(Measure.jacobi(alpha, beta), m)
        ref_nodes, ref_weights = jacobi_rule(alpha, beta, m)
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-12)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-12)

    def test_hermite_matches_scipy_rule(self):
        nodes, weights = gauss_rule(Measure.gaussian(), 10)
        ref_nodes, ref_weights = hermite_rule(10)
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-10)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-12)

    @pytest.mark.parametrize("alpha,beta", PARAM_GRID)
    def test_weights_sum_to_one_and_exactness(self, alpha, beta):
        m = 9
        fam = PolynomialFamily(Measure.jacobi(alpha, beta), 2 * m - 1)
        nodes, weights = gauss_rule(fam.measure, m)
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)
        # Exact up to degree 2m-1: orthonormal moments vanish except degree 0.
        values, _ = fam.eval_table(nodes)
        moments = weights @ values
        expected = np.zeros(2 * m)
        expected[0] = 1.0
        np.testing.assert_allclose(moments, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "measure,m,precise",
        [
            (Measure.gaussian(), 40, False),
            (Measure.gaussian(), 60, False),
            (Measure.gaussian(), 80, True),
            (Measure.jacobi(10.0, 10.0), 100, False),
            (Measure.jacobi(5.0, 0.0), 150, True),
        ],
        ids=["hermite-40", "hermite-60", "hermite-80", "jacobi(10,10)-100", "jacobi(5,0)-150"],
    )
    def test_large_rules_keep_tail_weights(self, measure, m, precise):
        """Weights far below machine epsilon stay accurate to relative precision.

        The rule must integrate the Gramian exactly and match a reference
        rule, whose tail weights only a relative tolerance resolves. The
        largest rule of each family is checked against a 40-digit rule:
        scipy's own jacobi(5,0) rule at m=150 is accurate only to 2.1e-11,
        too close to the tolerance to tell the program's error apart.
        """
        nodes, weights = gauss_rule(measure, m)
        values, _ = PolynomialFamily(measure, m - 1).eval_table(nodes)
        gram = (values * weights[:, None]).T @ values
        assert np.abs(gram - np.eye(m)).max() <= 1e-12
        if measure.kind == "gaussian":
            ref_nodes, ref_weights = precise_hermite_rule(nodes) if precise else hermite_rule(m)
        else:
            alpha, beta = measure.alpha, measure.beta
            ref_nodes, ref_weights = (precise_jacobi_rule(alpha, beta, nodes) if precise
                                      else jacobi_rule(alpha, beta, m))
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "measure,m",
        [(Measure.gaussian(), 80), (Measure.jacobi(5.0, 0.0), 150)],
        ids=["hermite-80", "jacobi(5,0)-150"],
    )
    def test_nodes_match_tridiagonal_eigensolver(self, measure, m):
        nodes, _ = gauss_rule(measure, m)
        a, sqrt_b = _recurrence(measure, m)
        ref = tridiagonal_eigenvalues(a, sqrt_b[1:])
        # The largest |eigenvalue| of the symmetric Jacobi matrix is its 2-norm.
        np.testing.assert_allclose(nodes, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=-0.5, max_value=3.0),
        st.floats(min_value=-0.5, max_value=3.0),
    )
    def test_random_parameters_match_scipy(self, alpha, beta):
        nodes, weights = gauss_rule(Measure.jacobi(alpha, beta), 8)
        ref_nodes, ref_weights = jacobi_rule(alpha, beta, 8)
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-11)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-11)


def test_rules_build_no_family(monkeypatch):
    """A basis builds its one family; rules for isotropy and the reference build none."""
    calls = []
    init = PolynomialFamily.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolynomialFamily, "__init__", counting_init)
    basis = PceBasis(Measure.jacobi(0.5, 1.5), 2, 3)
    assert len(calls) == 1
    isotropy_gap(basis)
    # The cache's wrapped function: the model's moments are computed afresh.
    reference_moments.__wrapped__(DiffusionModel(dim=1))
    assert len(calls) == 1


class TestDensities:
    def test_hand_values(self):
        assert density(Measure.chebyshev(), 0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
        assert density(Measure.uniform(), 0.7) == pytest.approx(0.5, abs=1e-15)
        assert density(Measure.jacobi(1.0, 1.0), 0.0) == pytest.approx(0.75, abs=1e-15)
        assert density(Measure.gaussian(), 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-16
        )

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, 1.5), (2.5, 0.0)])
    def test_integrates_to_one(self, alpha, beta):
        x = np.linspace(-1.0, 1.0, 200001)
        rho = density(Measure.jacobi(alpha, beta), x)
        assert np.trapezoid(rho, x) == pytest.approx(1.0, abs=1e-5)

    def test_ratio_matches_density_quotient(self):
        measure = Measure.jacobi(0.5, 1.5)
        x = np.linspace(-0.99, 0.99, 101)
        quotient = density(measure, x) / density(Measure.chebyshev(), x)
        np.testing.assert_allclose(
            density_ratio_to_chebyshev(measure, x), quotient, rtol=1e-12
        )

    def test_ratio_finite_on_closed_interval(self):
        edges = np.array([-1.0, 1.0])
        assert np.all(np.isfinite(density_ratio_to_chebyshev(Measure.jacobi(-0.5, 0.5), edges)))
        np.testing.assert_array_equal(
            density_ratio_to_chebyshev(Measure.jacobi(0.5, 0.5), edges), 0.0
        )

    def test_chebyshev_ratio_is_exactly_one(self):
        x = np.linspace(-1.0, 1.0, 33)
        np.testing.assert_array_equal(
            density_ratio_to_chebyshev(Measure.jacobi(-0.5, -0.5), x), 1.0
        )

    def test_weighted_square_bound_moderate_degrees(self):
        # sup_x (rho/rho_c)(x) p_n(x)^2 <= 2e(2 + sqrt(alpha^2 + beta^2))
        x = np.linspace(-1.0, 1.0, 501)
        for alpha, beta in PARAM_GRID:
            fam = PolynomialFamily(Measure.jacobi(alpha, beta), 20)
            ratio = density_ratio_to_chebyshev(fam.measure, x)
            values, _ = fam.eval_table(x)
            bound = 2.0 * math.e * (2.0 + math.hypot(alpha, beta))
            assert float((ratio[:, None] * values**2).max()) <= bound


class TestMeasure:
    def test_parse_roundtrip(self):
        for label in ("chebyshev", "uniform", "gaussian", "jacobi(0.5,1.5)"):
            assert Measure.parse(Measure.parse(label).label) == Measure.parse(label)

    def test_raised(self):
        assert Measure.jacobi(0.5, 1.5).raised() == Measure.jacobi(1.5, 2.5)
        assert Measure.chebyshev().raised() == Measure.jacobi(0.5, 0.5)
        assert Measure.gaussian().raised() == Measure.gaussian()

    def test_parse_aliases(self):
        assert Measure.parse("legendre") == Measure.uniform()
        assert Measure.parse("hermite") == Measure.gaussian()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Measure.parse("lognormal")

    @pytest.mark.parametrize("label", [5, None, "jacobi(a,b)", "jacobi(1,)", "jacobi(1,2,3)",
                                       "jacobi()"])
    def test_parse_failure_names_the_label(self, label):
        message = re.escape(f"cannot parse measure id {label!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Measure.parse(label)

    def test_rejects_parameters_below_range(self):
        with pytest.raises(ValueError):
            Measure.jacobi(-0.6, 0.0)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0)])
    def test_rejects_non_finite_parameters(self, alpha, beta):
        with pytest.raises(ValueError, match="finite"):
            Measure.jacobi(alpha, beta)

    @pytest.mark.parametrize("field, args", [("alpha", ("a", 0)), ("beta", (0, None)),
                                             ("alpha", (True, 0))])
    def test_ill_typed_parameters_name_the_field(self, field, args):
        with pytest.raises(ValueError, match=field):
            Measure.jacobi(*args)

    def test_numpy_numbers_accepted(self):
        assert Measure.jacobi(np.float64(0.5), np.int64(1)) == Measure.jacobi(0.5, 1.0)

    @pytest.mark.parametrize("args, message", [
        (("beta",), "unknown measure kind 'beta'"),
        (("jacobi",), "alpha must be a number, got None"),
        (("jacobi", 0.5), "beta must be a number, got None"),
        (("gaussian", 0.5), "gaussian measure takes no parameters"),
        (("gaussian", None, 0.0), "gaussian measure takes no parameters"),
    ])
    def test_invalid_measure_names_the_problem(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Measure(*args)

    def test_parameters_are_fields(self):
        measure = Measure.jacobi(0.5, 1.5)
        assert (measure.kind, measure.alpha, measure.beta) == ("jacobi", 0.5, 1.5)
        assert Measure.gaussian() == Measure("gaussian", None, None)
        assert Measure.jacobi(-0.5, -0.5).label == "chebyshev"
        assert Measure.jacobi(0, 0).label == "uniform"
