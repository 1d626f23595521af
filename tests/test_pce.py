import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradpce import pce
from gradpce.pce import PceBasis, total_degree_set
from gradpce.polynomials import Measure

from _oracles import central_difference, jacobi_rule


def index_of(indices, index):
    """Position of a multi-index in the rows of an index array; KeyError if it is absent."""
    return {tuple(k): i for i, k in enumerate(indices.tolist())}[tuple(index)]


class TestTotalDegreeSet:
    def test_small_set_ordering(self):
        got = total_degree_set(2, 2)
        assert got.dtype == np.int32 and got.flags.c_contiguous
        assert got.tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]

    def test_zero_index_first(self):
        assert total_degree_set(4, 3)[0].tolist() == [0, 0, 0, 0]

    def test_sizes_match_binomial(self):
        for d, n in [(1, 0), (1, 12), (2, 20), (3, 7), (10, 3), (12, 4)]:
            assert len(total_degree_set(d, n)) == math.comb(d + n, n)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=8))
    def test_size_and_order_properties(self, d, n):
        s = total_degree_set(d, n)
        assert len(s) == math.comb(d + n, n)
        keys = [(sum(k), tuple(k)) for k in s.tolist()]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert all(sum(k) <= n for k in s.tolist())

    def test_cap_guard(self, monkeypatch):
        # 9,657,700 terms: refused before any index array is built.
        assert math.comb(12 + 14, 14) > pce.INDEX_CAP
        with monkeypatch.context() as patch:
            patch.setattr(pce, "_all_indices", lambda dim, degree: pytest.fail("array built"))
            with pytest.raises(ValueError, match="exceeds the cap"):
                total_degree_set(12, 14)
        assert len(total_degree_set(12, 12)) == math.comb(24, 12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            total_degree_set(0, 3)
        with pytest.raises(ValueError):
            total_degree_set(2, -1)


class TestPceBasis:
    def test_benchmark_scale_sizes(self):
        assert PceBasis.legendre(2, 20).size == 231
        assert PceBasis.legendre(10, 3).size == 286

    def test_product_structure_hand_value(self):
        # Legendre degree (1,1) at (1,1): sqrt(3)*sqrt(3) = 3.
        basis = PceBasis.legendre(2, 2)
        value = basis.matrix(np.array([[1.0, 1.0]]))[:, index_of(basis.indices, (1, 1))]
        assert value[0] == pytest.approx(3.0, abs=1e-13)

    def test_matrix_matches_univariate_products(self):
        rng = np.random.default_rng(42)
        basis = PceBasis(Measure.jacobi(0.5, 1.5), 3, 4)
        pts = rng.uniform(-1, 1, size=(7, 3))
        mat = basis.matrix(pts)
        for col, k in enumerate(basis.indices.tolist()):
            expected = np.ones(7)
            for j in range(basis.dim):
                expected *= basis.family.eval_table(pts[:, j])[0][:, k[j]]
            np.testing.assert_allclose(mat[:, col], expected, rtol=1e-13)

    def test_gradient_matrix_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        basis = PceBasis.legendre(3, 5)
        pts = rng.uniform(-0.9, 0.9, size=(5, 3))
        for axis in range(3):
            grad = basis.gradient_matrix(pts, axis)

            def f(t):
                shifted = pts.copy()
                shifted[:, axis] = t
                return basis.matrix(shifted)

            fd = central_difference(f, pts[:, axis])
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7)

    def test_hermite_gradient_closed_form(self):
        basis = PceBasis(Measure.gaussian(), 2, 3)
        pts = np.array([[0.3, -1.2], [2.0, 0.5]])
        grad = basis.gradient_matrix(pts, 0)
        for col, k in enumerate(basis.indices.tolist()):
            n0 = k[0]
            expected = np.zeros(2)
            if n0 > 0:
                expected = (
                    math.sqrt(n0)
                    * basis.family.eval_table(pts[:, 0])[0][:, n0 - 1]
                    * basis.family.eval_table(pts[:, 1])[0][:, k[1]]
                )
            np.testing.assert_allclose(grad[:, col], expected, atol=1e-12)

    def test_multivariate_orthonormality_by_quadrature(self):
        basis = PceBasis(Measure.jacobi(0.5, 0.0), 2, 4)
        nodes, weights = jacobi_rule(0.5, 0.0, 6)
        g1, g2 = np.meshgrid(nodes, nodes, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
        w = np.outer(weights, weights).ravel()
        mat = basis.matrix(pts)
        gram = (mat * w[:, None]).T @ mat
        np.testing.assert_allclose(gram, np.eye(basis.size), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["legendre", "chebyshev", "jacobi(0.5,1.5)", "hermite"]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=12),
        st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=3)), max_size=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matrices_match_per_column_tables(self, measure, dim, degree, n, axes, seed):
        basis = PceBasis(Measure.parse(measure), dim, degree)
        axes = [a if a is None else a % dim for a in axes]
        rng = np.random.default_rng(seed)
        if basis.measure.kind == "jacobi":
            pts = rng.uniform(-1.0, 1.0, size=(n, dim))
        else:
            pts = rng.normal(size=(n, dim))
        idx = basis.indices
        tables = [basis.family.eval_table(pts[:, j]) for j in range(dim)]
        blocks = basis.matrices(pts, axes)
        assert blocks.shape == (len(axes), n, basis.size)
        assert blocks.flags.c_contiguous
        for axis, block in zip(axes, blocks):
            expected = np.ones((n, basis.size))
            for j, (values, derivs) in enumerate(tables):
                expected *= (derivs if j == axis else values)[:, idx[:, j]]
            np.testing.assert_array_equal(block, expected)

    @pytest.mark.parametrize("field, args", [("degree", (2, 2.5)), ("dim", (2.5, 2)),
                                             ("degree", (2, "3")), ("dim", (True, 2))])
    def test_ill_typed_sizes_name_the_field(self, field, args):
        with pytest.raises(ValueError, match=field):
            PceBasis.legendre(*args)

    def test_sizes_checked_before_the_cache(self):
        # True == 1 and 2.0 == 2 hash alike, so a lookup before the checks
        # would hand these the cached bases of the first two.
        PceBasis.legendre(1, 2)
        PceBasis(Measure.uniform(), 2, 3)
        for field, build in [("dim", lambda: PceBasis.legendre(True, 2)),
                             ("dim", lambda: PceBasis(Measure.uniform(), 2.0, 3)),
                             ("degree", lambda: PceBasis(Measure.uniform(), 2, 3.0))]:
            with pytest.raises(ValueError, match=field):
                build()

    def test_equal_bases_share_read_only_parts(self):
        basis = PceBasis(Measure.jacobi(0.5, 1.5), 2, 3)
        equal = PceBasis(Measure.jacobi(0.5, 1.5), 2, 3)
        assert equal.indices is basis.indices and equal.family is basis.family
        family = basis.family
        for shared in (basis.indices, family.derivative_constants, family._rec_a,
                       family._rec_sqrt_b):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 7

    def test_numpy_integer_sizes_accepted(self):
        basis = PceBasis.legendre(np.int64(2), np.int32(3))
        np.testing.assert_array_equal(basis.indices, total_degree_set(2, 3))

    @pytest.mark.parametrize("measure", ["legendre", None, 3])
    def test_non_measure_names_the_field(self, measure):
        message = re.escape(f"measure must be a Measure, got {measure!r}")
        for build in (PceBasis, PceBasis.from_measure):
            with pytest.raises(ValueError, match=message):
                build(measure, 2, 3)

    def test_basis_is_a_value(self):
        measure = Measure.jacobi(0.5, 1.5)
        basis = PceBasis(measure, 2, 3)
        alias = PceBasis.from_measure(Measure.jacobi(0.5, 1.5), 2, 3)
        assert basis == alias and hash(basis) == hash(alias)
        assert basis != PceBasis(Measure.uniform(), 2, 3)
        assert basis != PceBasis(measure, 2, 4)
        assert repr(basis) == f"PceBasis(measure={measure!r}, dim=2, degree=3)"
        # The derived fields follow the fields they come from.
        wider = dataclasses.replace(basis, degree=5)
        assert wider == PceBasis(measure, 2, 5)
        np.testing.assert_array_equal(wider.indices, total_degree_set(2, 5))
        assert (wider.family.measure, wider.family.max_degree) == (measure, 5)

    def test_rejects_wrong_point_shape(self):
        basis = PceBasis.legendre(2, 2)
        with pytest.raises(ValueError):
            basis.matrix(np.zeros((4, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, value):
        with pytest.raises(ValueError, match="^points must be finite$"):
            PceBasis.legendre(1, 3).matrix([[value]])

    def test_rejects_unknown_index(self):
        basis = PceBasis.legendre(2, 2)
        with pytest.raises(KeyError):
            index_of(basis.indices, (3, 0))

    def test_rejects_bad_axis(self):
        basis = PceBasis.legendre(2, 2)
        with pytest.raises(ValueError):
            basis.gradient_matrix(np.zeros((1, 2)), 2)

    @pytest.mark.parametrize("axis", [True, 1.0, "1"])
    def test_rejects_ill_typed_axis(self, axis):
        basis = PceBasis.legendre(2, 2)
        message = f"axis must be an integer, got {re.escape(repr(axis))}"
        with pytest.raises(ValueError, match=message):
            basis.gradient_matrix(np.zeros((1, 2)), axis)
