import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradpce import adjoint_bvp
from gradpce.adjoint_bvp import (
    QOI_KINDS,
    BvpSolution,
    DiffusionModel,
    build_surrogate,
    qoi_and_gradient,
    reference_moments,
    run_bvp_benchmark,
    solve_bvp,
)
from gradpce.checks import MODES
from gradpce.polynomials import Measure, tensor_gauss_rule
from gradpce.sampling import generator, split_stream

from _oracles import diffusion_qoi_and_gradient, precise_diffusion_qoi_and_gradient


@pytest.fixture
def solves(monkeypatch):
    """(point count, gradients flag) of each diffusion kernel call, in call order."""
    seen = []
    original = adjoint_bvp._solve_batch

    def counting(model, points, gradients):
        seen.append((len(points), gradients))
        return original(model, points, gradients)

    monkeypatch.setattr(adjoint_bvp, "_solve_batch", counting)
    return seen


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="dim"):
            DiffusionModel(dim=0)
        with pytest.raises(ValueError, match="64 cells"):
            DiffusionModel(dim=1, cells=32)
        with pytest.raises(ValueError, match="qoi"):
            DiffusionModel(dim=1, qoi="max")
        with pytest.raises(ValueError, match="even cell count"):
            DiffusionModel(dim=1, cells=65, qoi="midpoint")
        with pytest.raises(ValueError, match="constant"):
            DiffusionModel(dim=1, constant_value=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("dim", 2.5), ("dim", True), ("cells", 100.5),
        ("constant_value", math.nan), ("constant_value", math.inf), ("constant_value", "1"),
    ])
    def test_ill_typed_or_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match="constant" if field == "constant_value" else field):
            DiffusionModel(**{"dim": 1, field: value})

    def test_decay_weights_strictly_decreasing_in_frequency(self):
        model = DiffusionModel(dim=9)
        weights = model.decay_weights()
        # Parameters 2..9 use frequencies 1,1,2,2,3,3,4,4.
        per_frequency = weights[::2]
        assert np.all(np.diff(per_frequency) < 0.0)
        assert np.array_equal(weights[::2][: len(weights[1::2])], weights[1::2])

    def test_coefficient_above_half(self):
        model = DiffusionModel(dim=4, cells=64)
        nodes = model.nodes()
        rng = generator(99)
        for _ in range(1000):
            xi = rng.uniform(-1.0, 1.0, size=4)
            assert model.coefficient(nodes, xi).min() > 0.5

    def test_constant_model_coefficient(self):
        model = DiffusionModel(dim=3, cells=64, constant_value=2.5)
        nodes = model.nodes()
        xi = np.array([0.3, -0.9, 0.5])
        np.testing.assert_array_equal(model.coefficient(nodes, xi), 2.5)

    def test_profiles_first_parameter_constant(self):
        model = DiffusionModel(dim=3)
        rows = model.profiles(np.linspace(0.0, 1.0, 7))
        expected = math.sqrt(math.sqrt(math.pi) * adjoint_bvp._CORR_LENGTH / 2.0)
        np.testing.assert_allclose(rows[0], expected)
        # Second parameter: lowest sine mode, zero at both ends.
        assert abs(rows[1][0]) < 1e-15 and abs(rows[1][-1]) < 1e-15
        # Third parameter: lowest cosine mode, +/- amplitude at the ends.
        np.testing.assert_allclose(rows[2][0], -rows[2][-1])

    def test_load_takes_part_in_equality(self):
        def ones(y):
            return np.ones_like(y)

        def ramp(y):
            return y

        first = DiffusionModel(dim=2, cells=64, load=ones)
        second = DiffusionModel(dim=2, cells=64, load=ramp)
        assert first != second
        assert first != DiffusionModel(dim=2, cells=64)
        assert reference_moments(first) != reference_moments(second)
        same = DiffusionModel(dim=2, cells=64, load=ones)
        assert same == first and hash(same) == hash(first)


class TestSolve:
    def test_analytic_constant_case(self):
        # a = 1, g = 1: u = y(1-y)/2, average = 1/12 up to the trapezoid bias.
        model = DiffusionModel(dim=1, cells=4096, load=lambda y: np.ones_like(y),
                               constant_value=1.0)
        solution = solve_bvp(model, [0.0])
        nodes = model.nodes()
        np.testing.assert_allclose(solution.u, nodes * (1.0 - nodes) / 2.0, atol=1e-12)
        assert abs(solution.qoi - 1.0 / 12.0) <= 1e-8
        np.testing.assert_array_equal(solution.gradient, 0.0)

    def test_midpoint_qoi_constant_case(self):
        model = DiffusionModel(dim=1, cells=1024, qoi="midpoint", load=lambda y: np.ones_like(y),
                               constant_value=1.0)
        solution = solve_bvp(model, [0.0])
        assert abs(solution.qoi - 1.0 / 8.0) <= 1e-12

    def test_boundary_values_exact_zero(self):
        model = DiffusionModel(dim=3, cells=64)
        solution = solve_bvp(model, [0.4, -0.2, 0.9])
        assert solution.u[0] == 0.0 and solution.u[-1] == 0.0

    def test_deterministic(self):
        model = DiffusionModel(dim=2, cells=128)
        first = solve_bvp(model, [0.1, -0.7])
        second = solve_bvp(model, [0.1, -0.7])
        assert first.qoi == second.qoi
        np.testing.assert_array_equal(first.gradient, second.gradient)

    def test_parameter_validation(self):
        model = DiffusionModel(dim=2, cells=64)
        with pytest.raises(ValueError, match="expected 2 parameters"):
            solve_bvp(model, [0.1])
        with pytest.raises(ValueError, match="lie in"):
            solve_bvp(model, [0.0, 1.5])

    def test_mesh_convergence_second_order(self):
        xi = np.array([0.37, -0.81, 0.52])
        values = {}
        for cells in (64, 128, 256, 512):
            model = DiffusionModel(dim=3, cells=cells)
            values[cells] = solve_bvp(model, xi).qoi
        coarse = values[64] - values[128]
        fine = values[128] - values[256]
        finest = values[256] - values[512]
        assert coarse / fine == pytest.approx(4.0, rel=0.2)
        assert fine / finest == pytest.approx(4.0, rel=0.2)

    def test_adjoint_gradient_matches_finite_differences(self):
        rng = generator(7)
        step = 1e-5
        for trial in range(20):
            dim = int(rng.integers(1, 5))
            cells = int(rng.choice([64, 128]))
            qoi = "average" if trial % 2 == 0 else "midpoint"
            model = DiffusionModel(dim=dim, cells=cells, qoi=qoi)
            xi = rng.uniform(-0.99, 0.99, size=dim)
            _, gradient = qoi_and_gradient(model, xi)
            fd = np.zeros(dim)
            for axis in range(dim):
                shift = np.zeros(dim)
                shift[axis] = step
                plus = solve_bvp(model, xi + shift).qoi
                minus = solve_bvp(model, xi - shift).qoi
                fd[axis] = (plus - minus) / (2.0 * step)
            assert np.linalg.norm(gradient - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_nan_load_raises(self):
        model = DiffusionModel(dim=2, cells=64, load=lambda y: np.where(y > 0.5, np.nan, 1.0))
        with pytest.raises(ArithmeticError, match="residual"):
            solve_bvp(model, [0.1, 0.2])
        with pytest.raises(ArithmeticError, match="residual"):
            adjoint_bvp._evaluate_batch(model, np.zeros((3, 2)))

    def test_zero_residual_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(adjoint_bvp, "_RESIDUAL_TOL", 0.0)
        model = DiffusionModel(dim=2, cells=64)
        with pytest.raises(ArithmeticError, match="residual"):
            solve_bvp(model, [0.1, 0.2])
        with pytest.raises(ArithmeticError, match="residual"):
            adjoint_bvp._evaluate_batch(model, np.zeros((3, 2)), (0,))

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0])
    def test_nonpositive_face_coefficients_raise(self, monkeypatch, bad):
        # One node of one point gets a bad coefficient, so its two faces do.
        model = DiffusionModel(dim=2, cells=64)
        points = generator(45).uniform(-1.0, 1.0, size=(4, 2))
        adjoint_bvp._solve_batch(model, points, gradients=True)
        original = DiffusionModel.coefficient

        def spoiled(self, y, xi):
            values = original(self, y, xi)
            values[17, 2] = bad
            return values

        monkeypatch.setattr(DiffusionModel, "coefficient", spoiled)
        with pytest.raises(ArithmeticError, match="positive definite"):
            adjoint_bvp._solve_batch(model, points, gradients=True)

    def test_batch_parameter_validation(self):
        model = DiffusionModel(dim=2, cells=64)
        points = np.array([[0.1, 0.2], [0.3, -1.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="lie in"):
            adjoint_bvp._evaluate_batch(model, points)
        with pytest.raises(ValueError, match="lie in"):
            adjoint_bvp._evaluate_batch(model, np.array([[0.1, np.nan]]))
        with pytest.raises(ValueError, match="expected 2 parameters"):
            adjoint_bvp._evaluate_batch(model, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="array"):
            adjoint_bvp._evaluate_batch(model, np.zeros(2))

    @pytest.mark.parametrize("qoi", ["average", "midpoint"])
    def test_matches_banded_oracle_at_harness_scale(self, qoi):
        model = DiffusionModel(dim=3, cells=256, qoi=qoi)
        points = generator(41).uniform(-1.0, 1.0, size=(512, 3))
        values, gradients = adjoint_bvp._evaluate_batch(model, points, (0, 1, 2))
        for point, value, gradient in zip(points, values, gradients):
            ref_value, ref_gradient = diffusion_qoi_and_gradient(model, point)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.linalg.norm(gradient - ref_gradient) <= 1e-12 * np.linalg.norm(ref_gradient)

    @pytest.mark.parametrize("qoi", QOI_KINDS)
    def test_matches_precise_oracle(self, qoi):
        # A 40-digit solve of the same scheme: the flux solve is accurate to
        # about 1e-15 here, where elimination in double precision loses ~3e-13.
        model = DiffusionModel(dim=3, cells=256, qoi=qoi)
        points = generator(47).uniform(-1.0, 1.0, size=(3, 3))
        values, gradients = adjoint_bvp._evaluate_batch(model, points, (0, 1, 2))
        for point, value, gradient in zip(points, values, gradients):
            ref_value, ref_gradient = precise_diffusion_qoi_and_gradient(model, point)
            assert abs(value - ref_value) <= 1e-14 * abs(ref_value)
            assert np.linalg.norm(gradient - ref_gradient) <= 1e-14 * np.linalg.norm(ref_gradient)

    def test_batch_equals_batches_of_one(self):
        model = DiffusionModel(dim=3, cells=128, qoi="midpoint")
        points = generator(43).uniform(-1.0, 1.0, size=(24, 3))
        values, gradients = adjoint_bvp._evaluate_batch(model, points, (0, 1, 2))
        for point, value, gradient in zip(points, values, gradients):
            single = solve_bvp(model, point)
            assert single.qoi == value
            assert np.array_equal(single.gradient, gradient)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(QOI_KINDS), st.sets(st.integers(1, 39), max_size=6))
    def test_any_split_of_a_batch_gives_the_same_bits(self, qoi, cuts):
        model = DiffusionModel(dim=3, cells=64, qoi=qoi)
        points = generator(44).uniform(-1.0, 1.0, size=(40, 3))
        values, gradients = adjoint_bvp._evaluate_batch(model, points, (0, 1, 2))
        pieces = [adjoint_bvp._evaluate_batch(model, part, (0, 1, 2))
                  for part in np.split(points, sorted(cuts))]
        assert np.array_equal(np.concatenate([v for v, _ in pieces]), values)
        assert np.array_equal(np.concatenate([g for _, g in pieces]), gradients)

    def test_solution_type_guards_boundaries(self):
        with pytest.raises(ValueError, match="boundary"):
            BvpSolution(np.linspace(0, 1, 3), np.array([0.1, 0.2, 0.0]), 0.0, np.zeros(1))


class TestSurrogate:
    def test_constant_model_has_zero_std(self):
        model = DiffusionModel(dim=2, cells=64, constant_value=1.0)
        result = build_surrogate(model, degree=3, n_samples=15, seed=3)
        assert result.std <= 1e-10
        # The denoising epsilon shrinks the constant term by up to ~1e-9.
        assert result.mean == pytest.approx(solve_bvp(model, [0.0, 0.0]).qoi, abs=1e-8)

    def test_gradient_enhanced_matches_reference_moments(self):
        model = DiffusionModel(dim=2, cells=64)
        ref_mean, ref_std = reference_moments(model)
        result = build_surrogate(model, degree=4, n_samples=12, seed=11)
        assert result.mean == pytest.approx(ref_mean, abs=5e-4)
        assert result.std == pytest.approx(ref_std, abs=5e-3)

    def test_mode_guard(self):
        model = DiffusionModel(dim=1, cells=64)
        with pytest.raises(ValueError, match="mode"):
            build_surrogate(model, 2, 5, mode="turbo")

    def test_reference_moments_match_monte_carlo(self):
        model = DiffusionModel(dim=2, cells=64)
        mean, std = reference_moments(model)
        rng = generator(123)
        points = rng.uniform(-1.0, 1.0, size=(20_000, 2))
        values, _ = adjoint_bvp._evaluate_batch(model, points)
        standard_error = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - mean) <= 3.0 * standard_error
        assert std == pytest.approx(values.std(ddof=1), rel=0.05)

    def test_reference_moments_pinned_at_dim3(self):
        # Values of the per-point banded Cholesky solver the batched solves replaced.
        mean, std = reference_moments(DiffusionModel(dim=3))
        assert mean == pytest.approx(0.009883876083098368, rel=1e-12, abs=0.0)
        assert std == pytest.approx(0.0014842137688418687, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reference_rule_is_converged(self, dim):
        # The 20-point rule's moments agree with those of a 10- and a 26-point
        # rule, so the benchmark's errors measure the surrogate, not the reference.
        model = DiffusionModel(dim=dim)
        moments = {}
        for m in (10, 20, 26):
            nodes, weights = tensor_gauss_rule([Measure.uniform()] * dim, m)
            values = np.concatenate([adjoint_bvp._evaluate_batch(model, nodes[start:start + 512])[0]
                                     for start in range(0, len(nodes), 512)])
            mean = weights @ values
            moments[m] = (mean, math.sqrt(max(weights @ (values * values) - mean * mean, 0.0)))
        assert moments[20] == reference_moments(model)
        for m in (10, 26):
            assert moments[m] == pytest.approx(moments[20], rel=0, abs=1e-15)

    def test_reference_moments_dim_cap(self):
        with pytest.raises(ValueError, match="capped"):
            reference_moments(DiffusionModel(dim=4, cells=64))

    def test_reference_moments_raise_on_every_call(self, solves):
        capped = DiffusionModel(dim=4, cells=64)
        nan_load = DiffusionModel(dim=1, cells=64, load=lambda y: np.where(y > 0.5, np.nan, 1.0))
        for call in (1, 2):
            with pytest.raises(ValueError, match="capped"):
                reference_moments(capped)
            with pytest.raises(ArithmeticError, match="residual"):
                reference_moments(nan_load)
            assert solves == [(adjoint_bvp._QUADRATURE_POINTS, False)] * call


class TestBenchmark:
    def test_table_layout_and_improvement(self):
        model = DiffusionModel(dim=2, cells=64)
        table = run_bvp_benchmark(model, degree=4, sample_grid=(6, 12), seed=5)
        assert table.columns == ("mode", "N", "mean_error", "std_error")
        assert len(table.rows) == 4
        errors = {(row[0], row[1]): row[2] for row in table.rows}
        assert errors[("gradient-enhanced", 12)] <= errors[("standard", 12)]

    def test_input_guards(self):
        model = DiffusionModel(dim=1, cells=64)
        with pytest.raises(ValueError, match="sample_grid"):
            run_bvp_benchmark(model, 2, ())
        with pytest.raises(ValueError, match="trials"):
            run_bvp_benchmark(model, 2, (5,), trials=0)

    def test_modes_checked_before_any_solve(self, solves):
        # An equal model cached by an earlier test would make no solves.
        reference_moments.cache_clear()
        model = DiffusionModel(dim=1, cells=64)
        for modes in ((), ("bogus",), ("standard", "standard")):
            with pytest.raises(ValueError, match="mode"):
                run_bvp_benchmark(model, 2, (5,), modes=modes)
        assert solves == []
        reference_moments(model)
        assert solves == [(adjoint_bvp._QUADRATURE_POINTS, False)]
        reference_moments(DiffusionModel(dim=1, cells=64))
        assert solves == [(adjoint_bvp._QUADRATURE_POINTS, False)]

    @pytest.mark.parametrize("field,value", [
        ("sample_grid", (10.7,)), ("sample_grid", 10), ("trials", 1.5), ("seed", 1.5),
        ("degree", True), ("degree", -1), ("modes", 5),
    ])
    def test_run_inputs_checked_before_any_solve(self, solves, field, value):
        reference_moments.cache_clear()
        args = {"degree": 2, "sample_grid": (5,), field: value}
        with pytest.raises(ValueError, match=field):
            run_bvp_benchmark(DiffusionModel(dim=1, cells=64), **args)
        assert solves == []

    def test_one_diffusion_batch_per_grid_point(self, solves):
        # Standard and gradient-enhanced fit the same first N points, so one
        # solve with adjoints serves both; standard-double adds the whole
        # (1 + dim) * N batch, values only.
        model = DiffusionModel(dim=2, cells=64)
        reference_moments(model)
        for modes, calls in ((("standard", "gradient-enhanced"), [(6, True)]),
                             (MODES, [(6, True), (18, False)])):
            solves.clear()
            run_bvp_benchmark(model, 3, (6,), modes=modes, seed=2)
            assert solves == calls

    def test_build_surrogate_reproduces_each_benchmark_row(self):
        # build_surrogate is the one-(mode, N) case of the benchmark's path:
        # on trial 0's seed for grid point 0 it gives each row bit for bit.
        model = DiffusionModel(dim=2, cells=64)
        ref_mean, ref_std = reference_moments(model)
        table = run_bvp_benchmark(model, 3, (6,), modes=MODES, seed=2, trials=1)
        assert [row[0] for row in table.rows] == list(MODES)
        for mode, n, mean_error, std_error in table.rows:
            result = build_surrogate(model, 3, n, mode, split_stream(split_stream(2, 0), 1))
            assert mean_error == abs(result.mean - ref_mean)
            assert std_error == abs(result.std - ref_std)

    def test_deterministic(self):
        model = DiffusionModel(dim=1, cells=64)
        first = run_bvp_benchmark(model, 3, (8,), seed=2).to_csv()
        second = run_bvp_benchmark(model, 3, (8,), seed=2).to_csv()
        assert first == second
