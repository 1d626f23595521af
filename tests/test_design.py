import math
import tracemalloc
import warnings

import numpy as np
import pytest
from _oracles import pairwise_cosine_mic
from hypothesis import given, settings
from hypothesis import strategies as st

from gradpce import design
from gradpce.design import (
    CoherenceReport,
    GradientDesign,
    assemble_gradient_enhanced,
    assemble_standard,
    coherence_bound,
    coherence_params,
    coherence_suprema,
    column_normalizer,
    design_matrices,
    expected_gram,
    isotropy_gap,
    mic,
    nullspace_containment,
    numeric_nullspace_dim,
    recovery_guarantee,
)
from gradpce.pce import PceBasis
from gradpce.polynomials import (
    JACOBI_CLAMP,
    Measure,
    PolynomialFamily,
    density_ratio_to_chebyshev,
)
from gradpce.sampling import SampleBatch, sample


def chebyshev_batch(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return SampleBatch(Measure.chebyshev(), pts)


def synthesize(basis, batch, coeffs):
    values = basis.matrix(batch.points) @ coeffs
    grads = np.column_stack(
        [basis.gradient_matrix(batch.points, a) @ coeffs for a in range(basis.dim)]
    )
    return values, grads


class TestAssembly:
    def test_legendre_design_builds_only_its_raised_measure(self, monkeypatch):
        # The named measures are shared values: pairing, sampling and W
        # compare against them without building one. What remains is the
        # raised measure of the gradient blocks' density ratio.
        basis = PceBasis.legendre(2, 4)
        batch = design.draw(basis, 10, 3)
        raised = Measure.jacobi(1.0, 1.0)
        built = []
        post_init = Measure.__post_init__
        monkeypatch.setattr(Measure, "__post_init__",
                            lambda self: (built.append(self), post_init(self))[1])
        GradientDesign(basis, batch, (0, 1))
        assert built == [raised]

    def test_single_point_hand_example(self):
        # Legendre in one dimension, degree 1, sampled at the origin.
        basis = PceBasis.legendre(1, 1)
        batch = chebyshev_batch([[0.0]])
        design = assemble_gradient_enhanced(basis, batch)
        expected = np.array(
            [
                [math.sqrt(math.pi / 2.0), 0.0],
                [0.0, 0.5 * math.sqrt(3.0) * math.sqrt(3.0 * math.pi / 4.0)],
            ]
        )
        np.testing.assert_allclose(design.phi_hat, expected, rtol=1e-14)
        np.testing.assert_allclose(design.p, [1.0, 0.5], rtol=1e-15)

    def test_reassembly_identity(self):
        basis = PceBasis(Measure.jacobi(0.5, 1.0), 2, 4)
        batch = sample(Measure.chebyshev(), 2, 15, seed=3)
        coeffs = np.zeros(basis.size)
        coeffs[3] = 1.0
        values, grads = synthesize(basis, batch, coeffs)
        design = assemble_gradient_enhanced(basis, batch)
        rebuilt = (design.w[:, None] * design.phi_tilde) * design.p[None, :]
        assert np.abs(design.phi_hat - rebuilt).max() <= 1e-14
        assert design.phi_hat.shape == (45, basis.size)
        assert design.stack(values, grads).shape == (45,)

    def test_rhs_applies_row_weights(self):
        basis = PceBasis.legendre(2, 3)
        batch = sample(Measure.chebyshev(), 2, 8, seed=5)
        coeffs = np.zeros(basis.size)
        coeffs[1] = 2.0
        values, grads = synthesize(basis, batch, coeffs)
        design = assemble_gradient_enhanced(basis, batch)
        data = design.stack(values, grads)
        np.testing.assert_array_equal(data, np.concatenate([values, grads[:, 0], grads[:, 1]]))
        # Consistency: the scaled system reproduces the weighted data exactly.
        np.testing.assert_allclose(
            design.phi_hat @ (coeffs / design.p), design.w * data, rtol=1e-12, atol=1e-12
        )

    def test_unscale_round_trip(self):
        basis = PceBasis.legendre(2, 2)
        batch = sample(Measure.chebyshev(), 2, 10, seed=6)
        design = assemble_gradient_enhanced(basis, batch)
        scaled = np.arange(basis.size, dtype=float)
        np.testing.assert_allclose(design.unscale(scaled), design.p * scaled, rtol=0)

    def test_partial_directions(self):
        basis = PceBasis.legendre(3, 2)
        batch = sample(Measure.chebyshev(), 3, 7, seed=8)
        values, grads = synthesize(basis, batch, np.ones(basis.size))
        design = assemble_gradient_enhanced(basis, batch, directions=(1,))
        assert design.directions == (1,)
        np.testing.assert_array_equal(
            design.stack(values, grads), np.concatenate([values, grads[:, 1]])
        )
        assert design.phi_hat.shape == (14, basis.size)
        # P only accounts for the included direction.
        expected_p = column_normalizer(basis, (1,))
        np.testing.assert_array_equal(design.p, expected_p)
        np.testing.assert_array_equal(
            assemble_gradient_enhanced(basis, batch, (2, 0)).stack(values, grads),
            np.concatenate([values, grads[:, 0], grads[:, 2]]),
        )

    def test_value_only_design_needs_no_gradients(self):
        basis = PceBasis.legendre(2, 2)
        batch = sample(Measure.chebyshev(), 2, 5, seed=9)
        design = assemble_gradient_enhanced(basis, batch, ())
        assert design.stack(np.ones(5)).shape == (5,)
        assert design.phi_hat.shape == (5, basis.size)
        np.testing.assert_array_equal(design.p, 1.0)

    def test_chebyshev_sampling_of_chebyshev_basis_leaves_rows_unweighted(self):
        basis = PceBasis(Measure.chebyshev(), 2, 3)
        batch = sample(Measure.chebyshev(), 2, 9, seed=11)
        design = assemble_gradient_enhanced(basis, batch)
        np.testing.assert_array_equal(design.w[:9], 1.0)

    @pytest.mark.parametrize("edge", [1.0, 1.0 + JACOBI_CLAMP / 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_boundary_points_weighted_as_the_edge(self, edge, sign):
        # Points within the clamp past the edge are the edge itself, as in
        # eval_table: the Legendre value weight vanishes there (no NaN, no
        # warning) and the Chebyshev one is 1.
        batch = chebyshev_batch([[sign * edge, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row weights must be strictly positive"):
                assemble_gradient_enhanced(PceBasis.legendre(2, 3), batch, ())
            design = assemble_gradient_enhanced(
                PceBasis(Measure.chebyshev(), 2, 3), batch, ())
        np.testing.assert_array_equal(design.w, 1.0)

    def test_boundary_point_is_named(self):
        batch = chebyshev_batch([[1.0, 0.2], [0.1, 0.3]])
        with pytest.raises(ValueError, match=r"sample point 0, \[1\.0, 0\.2\], .*boundary ±1, "
                                             r"where a row weight is 0"):
            assemble_gradient_enhanced(PceBasis.legendre(2, 3), batch)

    @pytest.mark.parametrize("basis, value", [
        (PceBasis(Measure.gaussian(), 1, 3), np.nan),
        (PceBasis(Measure.gaussian(), 1, 3), np.inf),
        (PceBasis.legendre(1, 3), np.nan),
    ])
    def test_non_finite_point_raises_before_any_table(self, basis, value):
        # No NaN design, no recurrence warning, and no row-weight message.
        batch = SampleBatch(design.sampling_measure(basis.measure), np.array([[value], [0.1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^points must be finite$"):
                assemble_gradient_enhanced(basis, batch)

    def test_phi_hat_is_one_buffer(self):
        basis = PceBasis.legendre(3, 10)
        design_ = assemble_gradient_enhanced(basis, sample(Measure.chebyshev(), 3, 400, seed=5))
        expected = (design_.w[:, None] * design_.phi_tilde) * design_.p[None, :]
        tracemalloc.start()
        try:
            hat = design_.phi_hat
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(hat, expected)
        assert peak < 1.1 * hat.nbytes

    @pytest.mark.parametrize("directions, measure", [
        ((), Measure.jacobi(1.0, 0.5)), ((1,), Measure.jacobi(1.0, 0.5)),
        ((0, 1, 2), Measure.jacobi(1.0, 0.5)), ((0, 2), Measure.jacobi(1.0, 0.5)),
        ((), Measure.uniform()), ((0, 2), Measure.uniform()), ((0, 1, 2), Measure.uniform()),
    ], ids=["directions0", "directions1", "directions2", "directions3",
            "legendre-none", "legendre-0-2", "legendre-all"])
    def test_one_table_pass_per_design(self, monkeypatch, directions, measure):
        basis = PceBasis(measure, 3, 4)
        batch = sample(Measure.chebyshev(), 3, 9, seed=4)
        points = batch.points
        idx = basis.indices

        def block(axis):
            # One table pass per block and column, as the matrices were assembled before.
            out = np.ones((points.shape[0], basis.size))
            for j in range(basis.dim):
                values, derivs = basis.family.eval_table(points[:, j])
                out *= (derivs if j == axis else values)[:, idx[:, j]]
            return out

        ratios = [density_ratio_to_chebyshev(measure, points[:, j]) for j in range(basis.dim)]
        w_blocks = [np.sqrt(np.prod(ratios, axis=0))]
        for axis in directions:
            raised = density_ratio_to_chebyshev(measure.raised(), points[:, axis])
            w_blocks.append(np.sqrt(np.prod(
                [raised if j == axis else ratios[j] for j in range(basis.dim)], axis=0)))

        tables, densities = [], []
        eval_table = PolynomialFamily.eval_table

        def counting_table(fam, x):
            tables.append(len(x))
            return eval_table(fam, x)

        def counting_density(measure, x):
            densities.append(measure)
            return density_ratio_to_chebyshev(measure, x)

        monkeypatch.setattr(PolynomialFamily, "eval_table", counting_table)
        monkeypatch.setattr(design, "density_ratio_to_chebyshev", counting_density)
        phi, phi_tilde, w, _ = design_matrices(basis, batch, directions)
        assert len(tables) == 1
        # One ratio call for the basis measure, one for the raised measure of every direction.
        assert len(densities) == 1 + bool(directions)
        np.testing.assert_array_equal(phi, block(None))
        np.testing.assert_array_equal(phi_tilde, np.vstack([block(None)] + [block(a) for a in directions]))
        # One stacked buffer: phi is its value block, not a copy.
        assert phi_tilde.flags.c_contiguous
        assert np.shares_memory(phi, phi_tilde[: len(batch)])
        np.testing.assert_array_equal(w, np.concatenate(w_blocks))

    @pytest.mark.parametrize("measure", ["legendre", "chebyshev", "jacobi(0.5,1.5)", "hermite"])
    def test_values_only_cuts_the_value_only_system(self, monkeypatch, measure):
        basis = PceBasis(Measure.parse(measure), 2, 5)
        batch = design.draw(basis, 12, seed=7)
        full = assemble_gradient_enhanced(basis, batch)

        def no_table_pass(*args):
            raise AssertionError("values_only made a table pass")

        assert full.phi_hat.shape == (36, basis.size)  # cached before the cut
        monkeypatch.setattr(PolynomialFamily, "eval_table", no_table_pass)
        cut = full.values_only()
        monkeypatch.undo()
        direct = assemble_gradient_enhanced(basis, batch, ())
        assert cut.directions == ()
        np.testing.assert_array_equal(cut.phi_hat, direct.phi_hat)
        np.testing.assert_array_equal(cut.w, direct.w)
        np.testing.assert_array_equal(cut.p, direct.p)
        # The cut is the value (basis, batch, ()): the same arrays, bit for bit,
        # and a phi_hat of its own, not the full design's.
        value = GradientDesign(basis, batch, ())
        for name in ("phi_tilde", "w", "p", "phi_hat"):
            assert getattr(cut, name).tobytes() == getattr(value, name).tobytes()
        assert cut.phi_hat is not full.phi_hat
        assert not np.shares_memory(cut.phi_hat, full.phi_hat)

    @pytest.mark.parametrize("measure", ["legendre", "chebyshev", "jacobi(0.5,1.5)", "hermite"])
    @pytest.mark.parametrize("directions", [None, (), (1,)])
    def test_design_derives_its_arrays(self, measure, directions):
        basis = PceBasis(Measure.parse(measure), 2, 5)
        batch = design.draw(basis, 12, seed=7)
        value = GradientDesign(basis, batch, directions)
        _, phi_tilde, w, p = design_matrices(basis, batch, directions)
        assert value.directions == ((0, 1) if directions is None else directions)
        for got, want in ((value.phi_tilde, phi_tilde), (value.w, w), (value.p, p)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_hermite_weights_are_identity(self):
        basis = PceBasis(Measure.gaussian(), 2, 3)
        batch = sample(Measure.gaussian(), 2, 9, seed=12)
        design = assemble_gradient_enhanced(basis, batch)
        np.testing.assert_array_equal(design.w, 1.0)

    def test_hermite_normalizer_hand_value(self):
        basis = PceBasis(Measure.gaussian(), 3, 3)
        p = column_normalizer(basis)
        pos = basis.indices.tolist().index([2, 1, 0])
        assert p[pos] == pytest.approx(0.5, abs=1e-15)

    def test_pairing_errors(self):
        basis = PceBasis.legendre(2, 2)
        uniform_batch = sample(Measure.uniform(), 2, 5, seed=1)
        with pytest.raises(ValueError, match="Chebyshev"):
            design_matrices(basis, uniform_batch)
        hermite_basis = PceBasis(Measure.gaussian(), 2, 2)
        cheb_batch = sample(Measure.chebyshev(), 2, 5, seed=1)
        with pytest.raises(ValueError, match="Gaussian"):
            design_matrices(hermite_basis, cheb_batch)

    def test_dimension_mismatch(self):
        basis = PceBasis.legendre(2, 2)
        batch = sample(Measure.chebyshev(), 3, 5, seed=1)
        with pytest.raises(ValueError, match="dimension"):
            design_matrices(basis, batch)

    def test_direction_validation(self):
        basis = PceBasis.legendre(2, 2)
        batch = sample(Measure.chebyshev(), 2, 5, seed=1)
        values = np.ones(5)
        grads = np.zeros((5, 2))
        with pytest.raises(ValueError, match="duplicate"):
            assemble_gradient_enhanced(basis, batch, directions=(0, 0))
        with pytest.raises(ValueError, match="out of range"):
            assemble_gradient_enhanced(basis, batch, directions=(2,))
        with pytest.raises(ValueError, match="gradient direction out of range"):
            GradientDesign(basis, batch, (7,))
        design = assemble_gradient_enhanced(basis, batch)
        with pytest.raises(ValueError, match="gradient data"):
            design.stack(values)
        with pytest.raises(ValueError, match="shape"):
            design.stack(values, np.zeros((5, 3)))
        with pytest.raises(ValueError, match="one value per sample"):
            design.stack(values[:4], grads)

    def test_standard_assembly_preconditioning(self):
        basis = PceBasis.legendre(2, 4)
        batch = sample(Measure.chebyshev(), 2, 20, seed=4)
        pre, w = assemble_standard(basis, batch)
        np.testing.assert_allclose(pre, w[:, None] * basis.matrix(batch.points), rtol=0)
        with pytest.raises(ValueError, match="Jacobi designs require Chebyshev sampling"):
            assemble_standard(basis, sample(Measure.gaussian(), 2, 5, seed=1))


class TestMic:
    def test_hand_value(self):
        assert mic(np.array([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-15
        )

    def test_orthogonal_columns(self):
        assert mic(np.eye(4)) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError, match="zero column"):
            mic(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="two columns"):
            mic(np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        m = np.random.default_rng(0).standard_normal((6, 4))
        m[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            mic(m)

    def test_matches_pairwise_oracle_at_sweep_scale(self):
        # The largest system of the coherence sweep: d=3, degree 10, N=400, all gradients.
        basis = PceBasis.legendre(3, 10)
        design_ = assemble_gradient_enhanced(basis, sample(Measure.chebyshev(), 3, 400, seed=split(7)))
        assert design_.phi_tilde.shape == (1600, 286)
        for matrix in (design_.phi_tilde, design_.phi_hat):
            assert mic(matrix) == pytest.approx(pairwise_cosine_mic(matrix), rel=0, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_column_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((12, 6))
        scales = np.exp(rng.uniform(-3, 3, 6))
        assert mic(m * scales) == pytest.approx(mic(m), abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.standard_normal((5, 8))
            assert 0.0 <= mic(m) <= 1.0 + 1e-12

    def test_parallel_columns_give_exactly_one(self):
        # Unclipped, rounding gives 1.0000000000000002 here, outside recovery_guarantee's range.
        value = mic(np.array([[0.1, 0.3], [0.7, 2.1]]))
        assert value == 1.0
        assert recovery_guarantee(value, 1) is False

    @pytest.mark.parametrize("n", [50, 400])
    def test_matches_pairwise_oracle_on_each_sweep_matrix(self, n):
        # The three matrices one coherence-sweep grid point passes to mic.
        basis = PceBasis.legendre(3, 10)
        batch = sample(Measure.chebyshev(), 3, n, seed=split(n))
        design_ = assemble_gradient_enhanced(basis, batch)
        for matrix in (design_.phi_tilde[:n], design_.phi_tilde,
                       design_.w[:, None] * design_.phi_tilde):
            assert mic(matrix) == pytest.approx(pairwise_cosine_mic(matrix), rel=0, abs=1e-14)

    def test_column_scaling_invariance_across_decades(self):
        m = np.random.default_rng(3).standard_normal((12, 6))
        scales = np.logspace(-100, 100, 6)
        assert mic(m * scales) == pytest.approx(mic(m), rel=0, abs=1e-12)

    def test_column_whose_squared_norm_overflows_raises(self):
        m = np.random.default_rng(4).standard_normal((6, 4))
        m[:, 2] = 1e160 * (1.0 + m[:, 2] ** 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="overflows"):
                mic(m)
        assert caught == []

    def test_column_whose_squares_underflow_is_a_zero_column(self):
        m = np.random.default_rng(5).standard_normal((6, 4))
        m[:, 1] = 1e-170 * (1.0 + m[:, 1] ** 2)
        with pytest.raises(ValueError, match="zero column"):
            mic(m)

    def test_leaves_its_input_unmodified(self):
        m = np.random.default_rng(6).standard_normal((9, 5))
        before = m.copy()
        mic(m)
        assert np.array_equal(m, before)


class TestRecoveryGuarantee:
    def test_boundary_is_strict(self):
        assert not recovery_guarantee(0.2, 3)
        assert recovery_guarantee(0.19, 3)
        assert recovery_guarantee(0.99, 1)
        assert not recovery_guarantee(0.4, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            recovery_guarantee(1.2, 2)
        with pytest.raises(ValueError):
            recovery_guarantee(0.5, 0)


class TestCoherence:
    def test_bound_growth_constants(self):
        _, growth_cheb = coherence_bound(Measure.chebyshev(), 2)
        assert growth_cheb == 1.0
        bound_leg, growth_leg = coherence_bound(Measure.uniform(), 1)
        assert bound_leg == pytest.approx(4.0 * math.e, rel=1e-15)
        assert growth_leg == (2.0 + math.sqrt(2.0)) / 2.0
        assert growth_leg == pytest.approx(1.0 + math.sqrt(2.0) / 2.0, abs=1e-15)

    def test_growth_range(self):
        for a in (-0.5, 0.0, 0.5, 1.0, 2.5):
            for b in (-0.5, 0.0, 0.5, 1.0, 2.5):
                _, growth = coherence_bound(Measure.jacobi(a, b), 1)
                assert 1.0 <= growth <= 1.0 + math.sqrt(2.0) / 2.0 + 1e-15

    def test_bound_is_a_power_of_the_one_dimensional_bound(self):
        measure = Measure.jacobi(0.5, 1.5)
        bound_1, growth_1 = coherence_bound(measure, 1)
        bound_3, growth_3 = coherence_bound(measure, 3)
        assert bound_3 == bound_1 * bound_1 * bound_1
        assert growth_3 == growth_1

    @pytest.mark.parametrize("measure, dim, message", [
        (Measure.gaussian(), 2,
         "coherence bound is defined for Jacobi measures only, got gaussian"),
        (Measure.uniform(), 0, "dimension must be at least 1"),
        (Measure.uniform(), 2.0, "dim must be an integer, got 2.0"),
    ])
    def test_bound_rejects_invalid_input(self, measure, dim, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            coherence_bound(measure, dim)

    def test_report_respects_bounds(self):
        basis = PceBasis.legendre(2, 8)
        batch = sample(Measure.chebyshev(), 2, 50, seed=21)
        design = assemble_gradient_enhanced(basis, batch)
        report = coherence_params(design, grid_points=301)
        assert report.value_coherence <= report.coherence_bound
        assert report.stacked_coherence <= report.stacked_bound
        assert 0.0 <= report.mic <= 1.0

    def test_one_dimensional_grid_suprema(self):
        basis = PceBasis.legendre(1, 30)
        value_sup, stacked_sup = coherence_suprema(basis, grid_points=2001)
        bound, growth = coherence_bound(Measure.uniform(), 1)
        assert value_sup <= bound
        assert stacked_sup <= growth * bound
        # The scan must reach at least the constant function's weighted sup.
        assert value_sup >= math.pi / 2.0 - 1e-12

    def test_stacked_suprema_equal_the_per_block_sums(self):
        # The block energies summed one block at a time, in stacking order.
        basis = PceBasis(Measure.jacobi(0.5, 1.5), 3, 5)
        design_ = assemble_gradient_enhanced(basis, sample(Measure.chebyshev(), 3, 40, seed=8))
        n = design_.n_samples
        weighted = design_.w[:, None] * design_.phi_tilde
        value_sq = weighted[:n] ** 2
        stacked_sq = value_sq.copy()
        for j in range(1, 4):
            stacked_sq += weighted[j * n : (j + 1) * n] ** 2
        report = coherence_params(design_)
        assert report.value_coherence == float(value_sq.max())
        assert report.stacked_coherence == float((stacked_sq * design_.p[None, :] ** 2).max())

    def test_hermite_report_has_nan_bounds(self):
        basis = PceBasis(Measure.gaussian(), 2, 3)
        batch = sample(Measure.gaussian(), 2, 30, seed=2)
        report = coherence_params(assemble_gradient_enhanced(basis, batch))
        assert math.isnan(report.coherence_bound)
        assert report.stacked_coherence > 0.0

    def test_grid_scan_dim_cap(self):
        basis = PceBasis.legendre(3, 2)
        with pytest.raises(ValueError, match="dimension"):
            coherence_suprema(basis, grid_points=11)

    @pytest.mark.parametrize("grid_points", [1, 0, 2.5, True])
    def test_grid_scan_needs_two_integer_points(self, grid_points):
        # One point would report the values at x = -1 as a supremum.
        with pytest.raises(ValueError, match="grid_points"):
            coherence_suprema(PceBasis.legendre(1, 3), None, grid_points)

    def test_grid_scan_accepts_numpy_integers(self):
        basis = PceBasis.legendre(1, 3)
        assert coherence_suprema(basis, None, np.int64(11)) == coherence_suprema(basis, None, 11)

    def test_grid_scan_rejects_hermite(self):
        # The scan's grid and density ratios live on [-1, 1].
        with pytest.raises(ValueError, match="Jacobi bases"):
            coherence_suprema(PceBasis(Measure.gaussian(), 1, 3), grid_points=11)


class TestIsotropy:
    def test_quadrature_gap_legendre(self):
        gap = isotropy_gap(PceBasis.legendre(2, 5))
        assert gap <= 1e-10

    def test_quadrature_gap_hermite(self):
        gap = isotropy_gap(PceBasis(Measure.gaussian(), 2, 3))
        assert gap <= 1e-10

    @pytest.mark.parametrize("degree", [40, 50])
    def test_quadrature_gap_hermite_high_degree(self, degree):
        gap = isotropy_gap(PceBasis(Measure.gaussian(), 1, degree))
        assert gap <= 1e-10

    def test_quadrature_gap_general_jacobi(self):
        gap = isotropy_gap(PceBasis(Measure.jacobi(0.5, 1.5), 2, 4))
        assert gap <= 1e-10

    def test_quadrature_gap_partial_directions(self):
        gap = isotropy_gap(PceBasis.legendre(2, 4), directions=(0,))
        assert gap <= 1e-10

    def test_quadrature_dim_cap(self):
        with pytest.raises(ValueError, match="dimension"):
            expected_gram(PceBasis.legendre(5, 1))

    def test_column_energy_clt(self):
        basis = PceBasis.legendre(2, 4)
        n = 100_000
        batch = sample(Measure.chebyshev(), 2, n, seed=23)
        _, phi_tilde, w, p = design_matrices(basis, batch)
        weighted = (w[:, None] * phi_tilde) * p[None, :]
        contrib = (weighted.reshape(3, n, basis.size) ** 2).sum(axis=0)
        means = contrib.mean(axis=0)
        stderr = contrib.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(means - 1.0) <= 3.0 * stderr)


class TestMicOrdering:
    def test_weighting_reduces_stacked_mic(self):
        """Median over seeds: mic(phi_hat) below mic(phi_tilde) for a wide basis."""
        basis = PceBasis.legendre(2, 30)
        for n in (50, 200):
            hat, tilde = [], []
            for seed in range(20):
                batch = sample(Measure.chebyshev(), 2, n, seed=split(seed))
                _, phi_tilde, w, p = design_matrices(basis, batch)
                tilde.append(mic(phi_tilde))
                hat.append(mic((w[:, None] * phi_tilde) * p[None, :]))
            assert np.median(hat) < np.median(tilde)

    def test_value_block_mic_matches_plain_for_chebyshev(self):
        basis = PceBasis(Measure.chebyshev(), 2, 10)
        batch = sample(Measure.chebyshev(), 2, 40, seed=31)
        phi, phi_tilde, w, p = design_matrices(basis, batch)
        phi_hat = (w[:, None] * phi_tilde) * p[None, :]
        assert mic(phi_hat[:40]) == pytest.approx(mic(phi), abs=1e-12)


def split(seed):
    from gradpce.sampling import split_stream

    return split_stream(1000, seed)


class TestNullspace:
    def test_containment_of_value_block(self):
        basis = PceBasis.legendre(2, 10)
        batch = sample(Measure.chebyshev(), 2, 10, seed=41)
        design = assemble_gradient_enhanced(basis, batch)
        assert nullspace_containment(design.phi_hat[:design.n_samples], design.phi_hat)

    def test_strict_shrinkage_when_undersampled(self):
        basis = PceBasis.legendre(2, 10)
        batch = sample(Measure.chebyshev(), 2, 10, seed=43)
        design = assemble_gradient_enhanced(basis, batch)
        values = design.phi_hat[:design.n_samples]
        assert numeric_nullspace_dim(design.phi_hat) < numeric_nullspace_dim(values)

    def test_unrelated_matrices_fail(self):
        rng = np.random.default_rng(5)
        phi = rng.standard_normal((4, 10))
        phi_hat = rng.standard_normal((6, 10))
        assert not nullspace_containment(phi, phi_hat)

    def test_full_rank_is_vacuous(self):
        rng = np.random.default_rng(6)
        phi_hat = rng.standard_normal((12, 5))
        phi = rng.standard_normal((3, 5))
        assert nullspace_containment(phi, phi_hat)

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            nullspace_containment(np.ones((2, 3)), np.ones((2, 4)))
