import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradpce.polynomials import (
    JacobiParams,
    Measure,
    PolynomialFamily,
    density,
    density_ratio_to_chebyshev,
    derivative_constant,
)

from _oracles import (
    central_difference,
    gram_schmidt_values,
    hermite_rule,
    jacobi_rule,
    precise_hermite_rule,
    precise_jacobi_rule,
    tridiagonal_eigenvalues,
)

PARAM_GRID = [(-0.5, -0.5), (0.0, 0.0), (-0.5, 1.0), (0.5, 0.5), (1.0, 2.5), (2.5, 0.0)]


class TestEvaluation:
    def test_legendre_degree_one_hand_value(self):
        fam = PolynomialFamily.legendre(4)
        value, deriv = fam.eval(1, 1.0)
        # Orthonormal under the uniform probability measure: p_1(x) = sqrt(3) x.
        assert value[0] == pytest.approx(math.sqrt(3.0), abs=1e-14)
        assert deriv[0] == pytest.approx(math.sqrt(3.0), abs=1e-14)

    def test_chebyshev_degree_one_hand_value(self):
        fam = PolynomialFamily.chebyshev(4)
        value, _ = fam.eval(1, 0.5)
        assert value[0] == pytest.approx(math.sqrt(2.0) * 0.5, abs=1e-14)

    @pytest.mark.parametrize("alpha,beta", PARAM_GRID)
    def test_matches_gram_schmidt_oracle(self, alpha, beta):
        deg = 10
        fam = PolynomialFamily.jacobi(alpha, beta, deg)
        x = np.linspace(-0.95, 0.95, 17)
        expected = gram_schmidt_values(jacobi_rule(alpha, beta, 4 * deg), deg, x)
        values, _ = fam.eval_table(x, deg)
        np.testing.assert_allclose(values, expected, atol=1e-8)

    def test_hermite_matches_gram_schmidt_oracle(self):
        deg = 10
        fam = PolynomialFamily.hermite(deg)
        x = np.linspace(-2.5, 2.5, 11)
        expected = gram_schmidt_values(hermite_rule(60), deg, x)
        values, _ = fam.eval_table(x, deg)
        np.testing.assert_allclose(values, expected, atol=1e-8)

    def test_constant_is_one(self):
        for fam in (PolynomialFamily.jacobi(1.0, 2.5, 2), PolynomialFamily.hermite(2)):
            value, deriv = fam.eval(0, np.array([-0.3, 0.9]))
            np.testing.assert_array_equal(value, 1.0)
            np.testing.assert_array_equal(deriv, 0.0)

    def test_clamps_roundoff_overshoot(self):
        fam = PolynomialFamily.legendre(3)
        value, _ = fam.eval(2, 1.0 + 1e-14)
        exact, _ = fam.eval(2, 1.0)
        assert value[0] == exact[0]

    def test_rejects_points_outside_support(self):
        fam = PolynomialFamily.legendre(3)
        with pytest.raises(ValueError):
            fam.eval(2, 1.1)

    def test_rejects_degree_overflow(self):
        fam = PolynomialFamily.legendre(5)
        with pytest.raises(ValueError):
            fam.eval(6, 0.0)

    def test_hermite_unbounded_support(self):
        fam = PolynomialFamily.hermite(6)
        value, _ = fam.eval(6, 8.0)
        assert np.isfinite(value[0])


class TestOrthonormality:
    @pytest.mark.parametrize("alpha,beta", PARAM_GRID)
    def test_jacobi_gramian_identity(self, alpha, beta):
        deg = 30
        fam = PolynomialFamily.jacobi(alpha, beta, deg)
        nodes, weights = jacobi_rule(alpha, beta, deg + 1)
        values, _ = fam.eval_table(nodes, deg)
        gram = (values * weights[:, None]).T @ values
        np.testing.assert_allclose(gram, np.eye(deg + 1), atol=1e-10)

    def test_hermite_gramian_identity(self):
        deg = 30
        fam = PolynomialFamily.hermite(deg)
        nodes, weights = hermite_rule(deg + 1)
        values, _ = fam.eval_table(nodes, deg)
        gram = (values * weights[:, None]).T @ values
        np.testing.assert_allclose(gram, np.eye(deg + 1), atol=1e-10)


class TestDerivatives:
    def test_constant_values(self):
        assert derivative_constant(0, JacobiParams(1.0, 2.0)) == 0.0
        assert derivative_constant(1, JacobiParams(0.0, 0.0)) == pytest.approx(
            math.sqrt(3.0), rel=1e-15
        )
        assert derivative_constant(1, JacobiParams(-0.5, -0.5)) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )
        assert PolynomialFamily.hermite(5).derivative_constant(4) == 2.0

    @pytest.mark.parametrize("alpha,beta", PARAM_GRID)
    def test_derivative_maps_to_raised_family(self, alpha, beta):
        """d/dx p_n = c(n) q_{n-1} with q orthonormal under the raised measure."""
        deg = 12
        fam = PolynomialFamily.jacobi(alpha, beta, deg)
        raised = fam.raised()
        x = np.linspace(-0.9, 0.9, 13)
        _, derivs = fam.eval_table(x, deg)
        raised_vals, _ = raised.eval_table(x, deg)
        for n in range(1, deg + 1):
            c = fam.derivative_constant(n)
            scale = max(1.0, np.abs(derivs[:, n]).max())
            np.testing.assert_allclose(
                derivs[:, n], c * raised_vals[:, n - 1], atol=1e-10 * scale
            )

    def test_derivative_matches_finite_difference(self):
        fam = PolynomialFamily.jacobi(0.5, 1.5, 8)
        x = np.linspace(-0.8, 0.8, 9)
        for n in (1, 4, 8):
            fd = central_difference(lambda t: fam.eval(n, t)[0], x)
            _, deriv = fam.eval(n, x)
            np.testing.assert_allclose(deriv, fd, rtol=1e-7, atol=1e-7)

    def test_hermite_derivative_identity(self):
        fam = PolynomialFamily.hermite(10)
        x = np.linspace(-3.0, 3.0, 11)
        values, derivs = fam.eval_table(x, 10)
        for n in range(1, 11):
            np.testing.assert_allclose(
                derivs[:, n], math.sqrt(n) * values[:, n - 1], atol=1e-10 * 3**n
            )

    def test_tampered_constant_detected_by_quadrature_check(self):
        fam = PolynomialFamily.jacobi(0.0, 0.0, 6)
        fam.derivative_constant = lambda n: 0.9 * derivative_constant(n, fam.params)
        with pytest.raises(ValueError, match="derivative constant"):
            fam._check_derivative_constants()

    @pytest.mark.parametrize("alpha,beta,deg", [(10.0, 10.0, 100), (5.0, 0.0, 150)])
    def test_large_parameter_families_pass_quadrature_check(self, alpha, beta, deg):
        """The self-check needs a rule whose tail weights are accurate."""
        fam = PolynomialFamily.jacobi(alpha, beta, deg)
        assert fam.max_degree == deg

    def test_tampered_constant_detected_at_high_degree(self):
        fam = PolynomialFamily.jacobi(10.0, 10.0, 100)
        fam.derivative_constant = lambda n: derivative_constant(n, fam.params) * (
            1.0 + 1e-8 * (n == 100)
        )
        with pytest.raises(ValueError, match="derivative constant mismatch .* degree 100"):
            fam._check_derivative_constants()


class TestQuadrature:
    def test_single_node_rule(self):
        nodes, weights = PolynomialFamily.legendre(4).gauss_quadrature(1)
        np.testing.assert_array_equal(nodes, [0.0])
        np.testing.assert_array_equal(weights, [1.0])

    def test_legendre_integrates_quartic(self):
        nodes, weights = PolynomialFamily.legendre(8).gauss_quadrature(5)
        assert np.sum(weights * nodes**4) == pytest.approx(0.2, abs=1e-14)

    def test_chebyshev_second_moment(self):
        nodes, weights = PolynomialFamily.chebyshev(8).gauss_quadrature(3)
        assert np.sum(weights * nodes**2) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize(
        "alpha,beta,m", [(0.0, 0.0, 10), (-0.5, -0.5, 9), (0.5, 1.5, 12), (2.5, 0.0, 7)]
    )
    def test_matches_scipy_rule(self, alpha, beta, m):
        fam = PolynomialFamily.jacobi(alpha, beta, 4)
        nodes, weights = fam.gauss_quadrature(m)
        ref_nodes, ref_weights = jacobi_rule(alpha, beta, m)
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-12)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-12)

    def test_hermite_matches_scipy_rule(self):
        nodes, weights = PolynomialFamily.hermite(4).gauss_quadrature(10)
        ref_nodes, ref_weights = hermite_rule(10)
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-10)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-12)

    @pytest.mark.parametrize("alpha,beta", PARAM_GRID)
    def test_weights_sum_to_one_and_exactness(self, alpha, beta):
        m = 9
        fam = PolynomialFamily.jacobi(alpha, beta, 20)
        nodes, weights = fam.gauss_quadrature(m)
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)
        # Exact up to degree 2m-1: orthonormal moments vanish except degree 0.
        values, _ = fam.eval_table(nodes, 2 * m - 1)
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

        The rule is taken from a short table (extended on demand) and from a
        full one; both must agree, integrate the Gramian exactly and match a
        reference rule, whose tail weights only a relative tolerance resolves.
        The largest rule of each family is checked against a 40-digit rule:
        scipy's own jacobi(5,0) rule at m=150 is accurate only to 2.1e-11,
        too close to the tolerance to tell the program's error apart.
        """
        fam = PolynomialFamily(measure, m - 1)
        nodes, weights = fam.gauss_quadrature(m)
        short_nodes, short_weights = PolynomialFamily(measure, 4).gauss_quadrature(m)
        np.testing.assert_array_equal(short_nodes, nodes)
        np.testing.assert_array_equal(short_weights, weights)
        values, _ = fam.eval_table(nodes)
        gram = (values * weights[:, None]).T @ values
        assert np.abs(gram - np.eye(m)).max() <= 1e-12
        if measure.kind == "gaussian":
            ref_nodes, ref_weights = precise_hermite_rule(nodes) if precise else hermite_rule(m)
        else:
            alpha, beta = measure.params.alpha, measure.params.beta
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
        fam = PolynomialFamily(measure, m - 1)
        nodes, _ = fam.gauss_quadrature(m)
        ref = tridiagonal_eigenvalues(fam._rec_a[:m], fam._rec_sqrt_b[1:m])
        # The largest |eigenvalue| of the symmetric Jacobi matrix is its 2-norm.
        np.testing.assert_allclose(nodes, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=-0.5, max_value=3.0),
        st.floats(min_value=-0.5, max_value=3.0),
    )
    def test_random_parameters_match_scipy(self, alpha, beta):
        fam = PolynomialFamily.jacobi(alpha, beta, 4)
        nodes, weights = fam.gauss_quadrature(8)
        ref_nodes, ref_weights = jacobi_rule(alpha, beta, 8)
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-11)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-11)


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
        params = JacobiParams(0.5, 1.5)
        x = np.linspace(-0.99, 0.99, 101)
        quotient = density(Measure("jacobi", params), x) / density(Measure.chebyshev(), x)
        np.testing.assert_allclose(
            density_ratio_to_chebyshev(params, x), quotient, rtol=1e-12
        )

    def test_ratio_finite_on_closed_interval(self):
        edges = np.array([-1.0, 1.0])
        assert np.all(np.isfinite(density_ratio_to_chebyshev(JacobiParams(-0.5, 0.5), edges)))
        np.testing.assert_array_equal(
            density_ratio_to_chebyshev(JacobiParams(0.5, 0.5), edges), 0.0
        )

    def test_chebyshev_ratio_is_exactly_one(self):
        x = np.linspace(-1.0, 1.0, 33)
        np.testing.assert_array_equal(
            density_ratio_to_chebyshev(JacobiParams(-0.5, -0.5), x), 1.0
        )

    def test_weighted_square_bound_moderate_degrees(self):
        # sup_x (rho/rho_c)(x) p_n(x)^2 <= 2e(2 + sqrt(alpha^2 + beta^2))
        x = np.linspace(-1.0, 1.0, 501)
        for alpha, beta in PARAM_GRID:
            fam = PolynomialFamily.jacobi(alpha, beta, 20)
            ratio = density_ratio_to_chebyshev(fam.params, x)
            values, _ = fam.eval_table(x, 20)
            bound = 2.0 * math.e * (2.0 + math.hypot(alpha, beta))
            assert float((ratio[:, None] * values**2).max()) <= bound


class TestMeasure:
    def test_parse_roundtrip(self):
        for label in ("chebyshev", "uniform", "gaussian", "jacobi(0.5,1.5)"):
            assert Measure.parse(Measure.parse(label).label) == Measure.parse(label)

    def test_parse_aliases(self):
        assert Measure.parse("legendre") == Measure.uniform()
        assert Measure.parse("hermite") == Measure.gaussian()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Measure.parse("lognormal")

    def test_rejects_parameters_below_range(self):
        with pytest.raises(ValueError):
            JacobiParams(-0.6, 0.0)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0)])
    def test_rejects_non_finite_parameters(self, alpha, beta):
        with pytest.raises(ValueError, match="finite"):
            JacobiParams(alpha, beta)
