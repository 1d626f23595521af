import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from _oracles import NoSparseFit, basis_pursuit_dual, brute_force_l0
from hypothesis import given, settings
from hypothesis import strategies as st

import gradpce
from gradpce import adjoint_bvp, harness, l1solver
from gradpce.checks import DEFAULT_MODES, MODES
from gradpce.design import mic, recovery_guarantee
from gradpce.harness import ExperimentConfig
from gradpce.l1solver import RecoveryResult, SolveSpec, project_l1_ball, solve

SOLVER_PINS = Path(__file__).resolve().parent / "data" / "solver_pins.json"
# As the CLI pins: loose enough for a BLAS thread-count difference, tight
# enough to fail on a change of the solver's arithmetic.
PIN_RTOL = 1e-12


def pinned_runs():
    """The runs whose solves ``tests/data/solver_pins.json`` pins, in order.

    Two criterion-07 trials (dim 2, degree 20, s = 8, N 20-80, both modes:
    exact basis pursuit on 20 x 231 up to 240 x 231) and one bvp grid point
    (dim 3, degree 4, N = 10, both modes: epsilon > 0 on 35 columns).
    """
    harness.run_recovery_benchmark(ExperimentConfig(kind="recovery-vs-N", trials=2))
    adjoint_bvp.run_bvp_benchmark(adjoint_bvp.DiffusionModel(dim=3), 4, (10,))


def solve_pin(spec, result) -> dict:
    """One solve's pinned record: its shape, its telemetry and its nonzeros."""
    support = np.flatnonzero(result.coefficients)
    return {"shape": list(spec.matrix.shape), "epsilon_positive": spec.epsilon > 0.0,
            "iterations": result.iterations, "converged": result.converged,
            "support": support.tolist(), "values": result.coefficients[support].tolist()}


def same_result(x, y) -> bool:
    """Bitwise equality of two solver results, telemetry included."""
    return (x.coefficients.tobytes() == y.coefficients.tobytes()
            and (x.iterations, x.converged) == (y.iterations, y.converged)
            and np.array([x.residual_norm, *np.ravel(x.curve_trace)]).tobytes()
            == np.array([y.residual_norm, *np.ravel(y.curve_trace)]).tobytes())


def incoherent_instance(rng, s, m=12):
    """Random instance in the regime where s-sparse recovery is guaranteed."""
    n = {1: 40, 2: 160, 3: 320}[s]
    for _ in range(100):
        a = rng.standard_normal((n, m))
        if recovery_guarantee(mic(a), s):
            coeffs = np.zeros(m)
            support = rng.choice(m, size=s, replace=False)
            coeffs[support] = rng.standard_normal(s)
            return a, coeffs
    raise RuntimeError("failed to draw an incoherent instance")


class TestProjection:
    def test_hand_value(self):
        np.testing.assert_allclose(project_l1_ball(np.array([2.0, 1.0]), 1.0), [1.0, 0.0])

    def test_interior_points_unchanged(self):
        v = np.array([0.2, -0.3, 0.1])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_zero_radius(self):
        np.testing.assert_array_equal(project_l1_ball(np.array([3.0, -4.0]), 0.0), 0.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            project_l1_ball(np.array([1.0]), -0.5)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=10.0))
    def test_projection_properties(self, seed, radius):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(8) * 3.0
        p = project_l1_ball(v, radius)
        assert np.abs(p).sum() <= radius + 1e-12
        # No feasible point is closer than the projection.
        z = project_l1_ball(rng.standard_normal(8), radius)
        assert np.linalg.norm(v - p) <= np.linalg.norm(v - z) + 1e-12


class TestSolve:
    def test_hand_instance(self):
        a = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        b = np.array([1.0, 0.0])
        result = solve(SolveSpec(a, b, opt_tol=1e-10))
        assert result.converged
        np.testing.assert_allclose(result.coefficients, [1.0, 0.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(result.coefficients, basis_pursuit_dual(a, b), atol=1e-8)

    def test_zero_rhs(self):
        result = solve(SolveSpec(np.eye(3), np.zeros(3)))
        assert result.converged
        assert result.iterations == 0
        np.testing.assert_array_equal(result.coefficients, 0.0)

    def test_large_epsilon_returns_zero(self):
        result = solve(SolveSpec(np.eye(2), np.array([0.3, 0.4]), epsilon=1.0))
        assert result.converged
        np.testing.assert_array_equal(result.coefficients, 0.0)
        assert result.residual_norm == pytest.approx(0.5)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_l0_oracle_in_guarantee_regime(self, s):
        rng = np.random.default_rng(100 + s)
        for _ in range(5):
            a, coeffs = incoherent_instance(rng, s)
            b = a @ coeffs
            result = solve(SolveSpec(a, b, opt_tol=1e-9))
            oracle = brute_force_l0(a, b, s_max=3)
            assert result.converged
            np.testing.assert_allclose(result.coefficients, oracle, atol=1e-6)
            np.testing.assert_allclose(oracle, coeffs, atol=1e-8)

    def test_matches_lp_oracle_on_underdetermined_systems(self):
        # Both exits of the LASSO path meet the same accuracy check: the exact
        # one (epsilon = 0) and the residual crossing at a tiny epsilon.
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.standard_normal((15, 40))
            coeffs = np.zeros(40)
            coeffs[rng.choice(40, 3, replace=False)] = rng.standard_normal(3)
            b = a @ coeffs
            exact = SolveSpec(a, b, opt_tol=1e-9)
            denoised = SolveSpec(a, b, epsilon=1e-12 * np.linalg.norm(b), opt_tol=1e-9)
            lp = basis_pursuit_dual(a, b)
            for result in (solve(exact), solve(denoised)):
                assert result.converged
                assert np.abs(result.coefficients).sum() <= np.abs(lp).sum() + 1e-6
                np.testing.assert_allclose(result.coefficients, lp, atol=2e-5)

    def test_residual_contract_on_convergence(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((30, 60))
        b = a @ project_l1_ball(rng.standard_normal(60), 3.0)
        for eps in (0.0, 1e-3, 1e-1):
            spec = SolveSpec(a, b, epsilon=eps)
            result = solve(spec)
            assert result.converged
            assert result.residual_norm <= eps + spec.opt_tol * np.linalg.norm(b)
            np.testing.assert_allclose(
                np.linalg.norm(a @ result.coefficients - b), result.residual_norm, atol=1e-12
            )

    def test_denoised_solution_has_smaller_l1(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 50))
        coeffs = np.zeros(50)
        coeffs[[4, 17, 31]] = [1.5, -2.0, 0.75]
        b = a @ coeffs
        exact = solve(SolveSpec(a, b, opt_tol=1e-8))
        relaxed = solve(SolveSpec(a, b, epsilon=0.1 * np.linalg.norm(b), opt_tol=1e-8))
        assert relaxed.converged
        assert np.abs(relaxed.coefficients).sum() < np.abs(exact.coefficients).sum()

    def test_pareto_trace_monotone(self):
        # A positive epsilon keeps the instance on the LASSO path, which
        # traces the Pareto curve: over its breakpoints ||c||_1 never falls
        # and the residual never rises. A solve with a budget of k steps ends
        # at the k-th breakpoint, so replaying the budgets 1 ... iterations
        # visits every breakpoint; the last replay is the full solve. A column
        # that drops at a breakpoint is exactly 0 there, not a rounding residue.
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((10, 25))
            b = rng.standard_normal(10)
            spec = dict(epsilon=1e-6 * np.linalg.norm(b), opt_tol=1e-8)
            result = solve(SolveSpec(a, b, **spec))
            assert result.converged
            replays = [solve(SolveSpec(a, b, max_iters=k, **spec))
                       for k in range(1, result.iterations + 1)]
            assert [r.iterations for r in replays] == list(range(1, result.iterations + 1))
            assert same_result(replays[-1], result)
            for replay in replays:
                c = np.abs(replay.coefficients)
                assert c[c > 0].min() > 1e-12 * c.max()
            taus, phis = zip(result.curve_trace[0], *(r.curve_trace[-1] for r in replays))
            assert list(taus) == sorted(taus)
            assert all(p1 >= p2 - 1e-12 for p1, p2 in zip(phis, phis[1:]))
            assert taus[-1] == np.abs(result.coefficients).sum()

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((40, 15))
        coeffs = np.zeros(15)
        coeffs[[2, 9]] = [1.0, -0.5]
        b = a @ coeffs
        gamma = 37.5
        base = solve(SolveSpec(a, b, opt_tol=1e-10)).coefficients
        scaled = solve(SolveSpec(a, gamma * b, opt_tol=1e-10)).coefficients
        np.testing.assert_allclose(scaled, gamma * base, atol=1e-8 * gamma)

    def test_iteration_cap_reports_unconverged(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((10, 30))
        b = rng.standard_normal(10)
        result = solve(SolveSpec(a, b, max_iters=3))
        assert not result.converged
        assert result.iterations <= 3

    def test_exact_instance_reports_path_telemetry(self):
        # An exact solve reports the path's two ends: its start (0, ||b||) and
        # its exit (||c||_1, residual).
        rng = np.random.default_rng(31)
        a = rng.standard_normal((15, 40))
        b = a @ project_l1_ball(rng.standard_normal(40), 2.0)
        result = solve(SolveSpec(a, b))
        l1 = float(np.abs(result.coefficients).sum())
        bnorm = float(np.linalg.norm(b))
        assert result.converged
        assert 0 < result.iterations <= 10_000
        assert result.curve_trace == ((0.0, bnorm), (l1, result.residual_norm))

    def test_every_exit_reports_the_paths_two_ends(self, monkeypatch):
        # The zero answer reports the start (0, ||b||) alone. Every other exit
        # adds its end (||c||_1, residual_norm), with residual_norm = ||b - A c||:
        # the exact stop, the residual crossing (epsilon > 0), the least-squares
        # exit of a tall system, the step budget, and the break where the
        # active columns turn linearly dependent.
        breaks = []
        linalg_solve = np.linalg.solve

        def recording(matrix, rhs):
            try:
                return linalg_solve(matrix, rhs)
            except np.linalg.LinAlgError:
                breaks.append(np.ndim(rhs))  # the path solves for [p, d], the probe for x
                raise

        monkeypatch.setattr(np.linalg, "solve", recording)
        rng = np.random.default_rng(43)
        wide = rng.standard_normal((10, 30))
        sparse = np.zeros(30)
        sparse[[3, 11, 24]] = [1.0, -0.5, 2.0]
        # Dyadic entries: the path's third Gram block is exactly singular.
        dependent = np.array([[-1.0, 0.25, -1.0, -0.99993896484375],
                              [-0.25, -0.75, 0.25, -0.25018310546875],
                              [0.25, 0.5, 0.0, 0.2501220703125],
                              [1.0, 1.0, 0.0, 1.000244140625]])
        b = rng.standard_normal(10)
        exits = {  # spec, iterations (None: any), converged, path breaks
            "zero": (SolveSpec(wide, b, epsilon=np.linalg.norm(b)), 0, True, False),
            "exact": (SolveSpec(wide, wide @ sparse), None, True, False),
            "crossing": (SolveSpec(wide, b, epsilon=1e-3), None, True, False),
            "least squares": (SolveSpec(rng.standard_normal((40, 10)), rng.standard_normal(40)),
                              1, False, False),
            "budget": (SolveSpec(wide, b, epsilon=1e-3, max_iters=2), 2, False, False),
            "dependent columns": (SolveSpec(dependent, np.array([-1.0, -3.0, 0.0, -2.0])),
                                  3, False, True),
        }
        for name, (spec, iterations, converged, breaks_path) in exits.items():
            breaks.clear()
            result = solve(spec)
            c = result.coefficients
            residual = float(np.linalg.norm(spec.rhs - spec.matrix @ c))
            end = ((float(np.abs(c).sum()), residual),) if name != "zero" else ()
            assert result.curve_trace == ((0.0, float(np.linalg.norm(spec.rhs))), *end), name
            assert result.residual_norm == residual, name
            assert iterations in (None, result.iterations), name
            assert result.converged == converged, name
            assert (2 in breaks) == breaks_path, name

    def test_unreachable_exact_bound_reports_unconverged(self):
        # converged follows the measured residual: no floating-point residual
        # meets 1e-30 * ||b||, so the path ends at lam = 0 within its budget
        # and reports the interpolant it reached as unconverged.
        rng = np.random.default_rng(41)
        a = rng.standard_normal((10, 30))
        b = rng.standard_normal(10)
        result = solve(SolveSpec(a, b, opt_tol=1e-30, max_iters=200))
        assert not result.converged
        assert result.iterations <= 200
        assert result.residual_norm <= 1e-12 * np.linalg.norm(b)

    def test_inconsistent_system_hands_off_unconverged(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((40, 10))
        b = rng.standard_normal(40)
        result = solve(SolveSpec(a, b))
        assert not result.converged
        assert np.isfinite(result.residual_norm)
        np.testing.assert_allclose(
            np.linalg.norm(a @ result.coefficients - b), result.residual_norm, atol=1e-12
        )
        least_squares = np.linalg.lstsq(a, b, rcond=None)[0]
        assert result.residual_norm <= np.linalg.norm(a @ least_squares - b) * (1 + 1e-6)
        # The tall full-rank system ends at the least-squares solution itself,
        # the path's lam = 0 end, after one Gram solve.
        assert result.iterations == 1
        deviation = np.linalg.norm(result.coefficients - least_squares)
        assert deviation <= 1e-10 * np.linalg.norm(least_squares)

    def test_unreachable_target_ends_at_min_l1_interpolant(self):
        # Once the active set holds as many columns as there are rows it
        # spans the data, so no column can join: a target below rounding
        # level ends the path at lam = 0 on that set, the basis-pursuit
        # solution, instead of adding columns that make the Gram singular.
        rng = np.random.default_rng(47)
        for _ in range(10):
            a = rng.standard_normal((10, 30))
            b = rng.standard_normal(10)
            bnorm = np.linalg.norm(b)
            result = solve(SolveSpec(a, b, epsilon=1e-30 * bnorm, opt_tol=1e-30))
            l1 = np.abs(basis_pursuit_dual(a, b)).sum()
            assert not result.converged
            assert result.residual_norm <= 1e-12 * bnorm
            assert abs(np.abs(result.coefficients).sum() - l1) <= 1e-8 * l1

    @staticmethod
    def _conditioned(rng, decades, rows=60, cols=20):
        """Unit-norm columns with singular values spread over ``decades``."""
        u = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
        a = u @ np.diag(np.logspace(0, -decades, cols)) @ v.T
        return a / np.linalg.norm(a, axis=0)

    def test_refined_least_squares_exit_matches_lstsq(self):
        # A tall design with cond(A) ~ 1e5 and inconsistent data takes the
        # least-squares exit. The normal equations square the condition
        # number, so an unrefined Gram solve is off by ~1e-7 relative; the
        # refinement step brings the answer to ~1e-11 of a QR solve.
        rng = np.random.default_rng(59)
        for _ in range(5):
            a = self._conditioned(rng, 5)
            assert 5e4 <= np.linalg.cond(a) <= 5e5
            b = rng.standard_normal(60)
            result = solve(SolveSpec(a, b))
            least_squares = np.linalg.lstsq(a, b, rcond=None)[0]
            assert not result.converged
            assert result.iterations == 1
            deviation = np.linalg.norm(result.coefficients - least_squares)
            assert deviation <= 1e-9 * np.linalg.norm(least_squares)

    def test_ill_conditioned_least_squares_exit_matches_lstsq(self):
        # From cond(A) ~ 1e6 the Gram's condition number exceeds 1e12 and a
        # refined Gram solve loses accuracy, so the exit takes the SVD
        # least-squares solution. Walking the path instead took ~100 steps
        # and ended 4e-5 (cond 2e6) to 0.9 (cond 8e7) relative from it.
        rng = np.random.default_rng(67)
        for decades in (6, 6.5, 7, 7.5, 8):
            for _ in range(3):
                a = self._conditioned(rng, decades)
                b = rng.standard_normal(60)
                result = solve(SolveSpec(a, b))
                least_squares = np.linalg.lstsq(a, b, rcond=None)[0]
                assert not result.converged
                assert result.iterations == 1
                deviation = np.linalg.norm(result.coefficients - least_squares)
                assert deviation <= 1e-9 * np.linalg.norm(least_squares)
                floor = np.linalg.norm(a @ least_squares - b)
                assert abs(result.residual_norm - floor) <= 1e-12 * floor

    def test_probe_declines_a_target_the_svd_solution_meets(self):
        # cond(A) 1e9, data 0.9e-6 ||Ax|| off the range: the Gram solve misses
        # the 1e-6 ||b|| target, the Gram is past _MAX_GRAM_COND, and the SVD
        # least-squares solution meets the target, so the probe declines.
        rng = np.random.default_rng(26)
        u = np.linalg.qr(rng.standard_normal((60, 21)))[0]
        v = np.linalg.qr(rng.standard_normal((21, 21)))[0]
        a = u @ np.diag(np.logspace(0, -9, 21)) @ v.T
        ax = a @ rng.standard_normal(21)
        noise = rng.standard_normal(60)
        noise -= u @ (u.T @ noise)
        b = ax + 0.9e-6 * np.linalg.norm(ax) * noise / np.linalg.norm(noise)
        gram, atb, target = a.T @ a, a.T @ b, 1e-6 * np.linalg.norm(b)
        assert np.linalg.norm(b - a @ np.linalg.solve(gram, atb)) > target
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues[0] <= eigenvalues[-1] / l1solver._MAX_GRAM_COND
        assert l1solver._infeasible_least_squares(a, b, gram, atb, target) is None
        # Solved end to end, the path meets the target without certifying the segment.
        result = solve(SolveSpec(a, b))
        assert result.iterations == 45
        assert result.residual_norm <= target
        assert np.linalg.norm(b - a @ result.coefficients) <= target
        # The two segments that meet the target have weak-duality gaps of
        # 9.2e-2 and 5.4e-2 relative, so neither certifies its answer.
        assert not result.converged

    def test_numerically_singular_gram_is_left_to_the_path(self):
        # At cond(A) ~ 1e15 and beyond the SVD finds A rank-deficient, so the
        # least-squares exit declines and the path ends the solve.
        rng = np.random.default_rng(61)
        for decades in (15, 17, 20):
            a = self._conditioned(rng, decades)
            assert np.linalg.matrix_rank(a) < a.shape[1]
            result = solve(SolveSpec(a, rng.standard_normal(60)))
            assert not result.converged
            assert result.iterations > 1

    def test_every_path_exit_checks_optimality(self, monkeypatch):
        # The path exits at the residual crossing, at the exact (epsilon = 0)
        # end, at the least-squares end (lam = 0) or on the step budget; a
        # tall full-rank system whose target lies below its least-squares
        # residual takes the least-squares exit before the path. A tall
        # system with a duplicated column has a singular Gram, skips that
        # exit and ends at the least-squares floor on the path. Each exit that
        # reached its target runs the weak-duality check once, with y = A_I d
        # at the exact end and y = r at the crossing. A failed check leaves the
        # answer unconverged. The exits that fell short of the target are
        # unconverged whatever a check would say, so they run none.
        checks = []

        def failing(*args):
            checks.append(name)  # the exit being solved
            return False

        rng = np.random.default_rng(43)
        wide = rng.standard_normal((10, 30))
        tall = rng.standard_normal((40, 10))
        duplicated = np.column_stack([tall, tall[:, 4]])
        sparse = np.zeros(30)
        sparse[[3, 11, 24]] = [1.0, -0.5, 2.0]
        specs = {
            "crossing": SolveSpec(wide, rng.standard_normal(10), epsilon=1e-3),
            "exact": SolveSpec(wide, wide @ sparse),
            "least squares": SolveSpec(tall, rng.standard_normal(40), epsilon=1e-3),
            "budget": SolveSpec(wide, rng.standard_normal(10), epsilon=1e-3, max_iters=2),
            "rank deficient": SolveSpec(duplicated, rng.standard_normal(40), epsilon=1e-3),
        }
        passing = {name: solve(spec) for name, spec in specs.items()}
        assert passing["crossing"].converged
        assert passing["exact"].converged
        assert passing["least squares"].iterations == 1
        assert passing["budget"].iterations == 2
        deficient = specs["rank deficient"]
        least_squares = np.linalg.lstsq(deficient.matrix, deficient.rhs, rcond=None)[0]
        floor = np.linalg.norm(deficient.matrix @ least_squares - deficient.rhs)
        assert 1 < passing["rank deficient"].iterations < 10_000
        assert abs(passing["rank deficient"].residual_norm - floor) <= 1e-9 * floor
        monkeypatch.setattr(l1solver, "_certified", failing)
        for name, spec in specs.items():
            result = solve(spec)
            assert not result.converged, name
            np.testing.assert_array_equal(result.coefficients, passing[name].coefficients)
        assert checks == ["crossing", "exact"]

    def test_duplicated_rows_match_dual_oracle(self):
        # Half the rows repeat the other half, so the design has rank 15 with
        # 30 rows and the active Gram turns singular past 15 columns. Every
        # exact solve still converges to the minimal l1 norm, up to sparsity
        # beyond the recovery regime.
        rng = np.random.default_rng(53)
        for s in (4, 8, 12, 20):
            for _ in range(2):
                half = rng.standard_normal((15, 80))
                a = np.vstack([half, half])[rng.permutation(30)]
                coeffs = np.zeros(80)
                coeffs[rng.choice(80, s, replace=False)] = rng.standard_normal(s)
                b = a @ coeffs
                result = solve(SolveSpec(a, b, opt_tol=1e-9))
                l1 = np.abs(basis_pursuit_dual(a, b)).sum()
                assert result.converged, s
                assert abs(np.abs(result.coefficients).sum() - l1) <= 1e-8 * l1, s

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="finite"):
            SolveSpec(np.array([[np.nan, 1.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="zero column"):
            SolveSpec(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="row counts"):
            SolveSpec(np.eye(3), np.ones(2))
        with pytest.raises(ValueError, match="^matrix must be 2-d$"):
            SolveSpec(np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="epsilon"):
            SolveSpec(np.eye(2), np.ones(2), epsilon=-1.0)

    def test_matrix_without_columns_is_rejected(self):
        # Before the path, whose max over no columns has no identity.
        with pytest.raises(ValueError, match="^matrix must have at least one column$"):
            SolveSpec(np.empty((3, 0)), np.ones(3))

    def test_finite_column_whose_square_overflows_is_accepted(self):
        a = np.random.default_rng(7).standard_normal((6, 4))
        a[:, 2] = 1e160 * (1.0 + a[:, 2] ** 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = SolveSpec(a, np.ones(6))
        assert caught == []
        assert spec.squares[2] == np.inf

    def test_column_whose_squares_underflow_is_all_zero(self):
        a = np.random.default_rng(8).standard_normal((6, 4))
        a[:, 1] = 1e-170 * (1.0 + a[:, 1] ** 2)
        with pytest.raises(ValueError, match="all-zero column"):
            SolveSpec(a, np.ones(6))

    @pytest.mark.parametrize("control,value", [("epsilon", np.nan), ("epsilon", np.inf),
                                               ("opt_tol", np.nan), ("opt_tol", np.inf),
                                               ("opt_tol", 0.0)])
    def test_non_finite_controls_rejected(self, control, value):
        # A NaN epsilon would end unconverged after one step, and an infinite
        # one would return the zero vector as converged.
        with pytest.raises(ValueError, match=f"{control} must be finite"):
            SolveSpec(np.eye(2), np.ones(2), **{control: value})

    @pytest.mark.parametrize("control,value", [("max_iters", 2.5), ("max_iters", True),
                                               ("epsilon", "0"), ("opt_tol", 1e-6j)])
    def test_ill_typed_controls_rejected(self, control, value):
        # A fractional or boolean budget would otherwise be solved, and a
        # string epsilon would end in a TypeError.
        with pytest.raises(ValueError, match=f"{control} must be"):
            SolveSpec(np.eye(3), np.ones(3), **{control: value})

    def test_numpy_integer_budget_accepted(self):
        spec = SolveSpec(np.eye(3), np.array([3.0, 2.0, 1.0]), max_iters=np.int64(5))
        assert spec.max_iters == 5
        result = solve(spec)
        assert result.converged
        np.testing.assert_allclose(result.coefficients, [3.0, 2.0, 1.0])

    def test_loose_exact_target_returns_zero(self):
        # At opt_tol >= 1 the zero vector already meets an exact (epsilon = 0)
        # target, so the path has no step whose dual certificate it could check.
        result = solve(SolveSpec(np.eye(2), np.ones(2), opt_tol=2.0))
        assert result.converged
        assert result.iterations == 0
        np.testing.assert_array_equal(result.coefficients, 0.0)

    def test_copy_of_a_dropped_column_does_not_rejoin_in_its_place(self):
        # A tall design (cond(A) ~ 1e3) with column 3 repeated as column 20 is
        # rank deficient, so the path ends the exact solve at the least-squares
        # floor. When column 3 drops, a copy joining at the same lam with the
        # old sign would undo the drop: the pair would stay correlated above
        # lam, and the third and fourth draws would end 5e-2 and 1e-2 above
        # the floor with 19 columns active.
        rng = np.random.default_rng(5)
        for _ in range(4):
            a = self._conditioned(rng, 3)
            a = np.column_stack([a, a[:, 3]])
            b = rng.standard_normal(60)
            result = solve(SolveSpec(a, b))
            least_squares = np.linalg.lstsq(a, b, rcond=None)[0]
            floor = np.linalg.norm(a @ least_squares - b)
            assert not result.converged
            assert abs(result.residual_norm - floor) <= 1e-9 * floor
            correlation = a.T @ (b - a @ result.coefficients)
            assert np.abs(correlation).max() <= 1e-9 * np.abs(a.T @ b).max()

    @pytest.mark.xfail(strict=True, reason="known solver defect: the path ends far above the "
                       "least-squares floor on a rank-deficient, ill-conditioned tall design")
    def test_repeated_column_of_an_ill_conditioned_design_ends_no_worse_than_zero(self):
        # A tall design (singular values over 8 decades) whose column 3 repeats
        # column 4 is rank deficient, so the least-squares exit declines and the
        # path ends the exact solve. Any least-squares fit on any support, c = 0
        # included, has a residual at most ||b||. The solve ends unconverged
        # after 86 steps with coefficients up to 1.1e13 and a residual of 117.7,
        # against ||b|| = 7.51 and a least-squares floor of 5.944, at 1 and 2
        # BLAS threads alike.
        rng = np.random.default_rng(0)
        a = self._conditioned(rng, 8, cols=21)
        a[:, 3] = a[:, 4]
        b = rng.standard_normal(60)
        assert solve(SolveSpec(a, b)).residual_norm <= np.linalg.norm(b)

    @pytest.mark.parametrize("matrix, rhs, epsilon, l1", [
        (np.eye(3), np.ones(3), 0.0, 3.0),
        (np.eye(3), np.ones(3), 0.1, 3.0 - 0.1 * np.sqrt(3.0)),
        (np.column_stack([np.eye(4), np.eye(4)[:, :2]]), np.array([1.0, 1.0, 0.5, 0.5]), 0.0,
         3.0),
    ])
    def test_exactly_tied_columns_all_join(self, matrix, rhs, epsilon, l1):
        # Columns whose correlations tie lam exactly join at that lam, one step
        # of length zero each. With joins held to roots below lam, the path
        # ended at lam = 0 with one column of each tie active, unconverged.
        result = solve(SolveSpec(matrix, rhs, epsilon=epsilon))
        assert result.converged
        # The path aims just inside the residual bound, which moves ||c||_1 by
        # up to sqrt(3) opt_tol ||b|| = 3e-6 at epsilon > 0.
        assert np.abs(result.coefficients).sum() == pytest.approx(l1, abs=1e-5)
        residual = np.linalg.norm(matrix @ result.coefficients - rhs)
        assert residual <= epsilon + 1e-6 * np.linalg.norm(rhs)
        assert result.residual_norm == pytest.approx(residual, abs=1e-15)

    def test_raising_error_state_changes_nothing(self, monkeypatch):
        # The path divides by zero on purpose: the join roots of a tied
        # column (1 - v = 0, as in np.eye(3)) and the drop roots of zero
        # directions. Run under a caller's np.errstate(all="raise"), the solve
        # must neither raise nor change a bit, and must leave that state as
        # it found it.
        recorded = TestHarnessScale._record(monkeypatch, lambda: harness.run_recovery_benchmark(
            ExperimentConfig(kind="recovery-vs-N", sample_grid=(20,), trials=1)))
        specs = [recorded[0][0], SolveSpec(np.eye(3), np.ones(3))]
        assert specs[0].matrix.shape == (20, 231)
        for spec in specs:
            default = solve(spec)
            with np.errstate(all="raise"):
                raising = solve(spec)
                assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"),
                                                    "raise")
            assert default.converged
            assert same_result(raising, default)


class TestHarnessScale:
    """The LASSO path on the solves the drivers make."""

    @staticmethod
    def _record(monkeypatch, run):
        solves = []

        def recording_solve(spec):
            result = l1solver.solve(spec)
            solves.append((spec, result))
            return result

        monkeypatch.setattr(harness, "solve", recording_solve)
        run()
        return solves

    def test_solves_match_the_pins(self, monkeypatch):
        # Every solve of pinned_runs: iterations and converged exactly, the
        # support exactly and its coefficients to PIN_RTOL. The pins hold the
        # solve_pin records written at OPENBLAS_NUM_THREADS=1; a change that
        # moves one past rounding level must say why and rewrite them.
        solves = self._record(monkeypatch, pinned_runs)
        pins = json.loads(SOLVER_PINS.read_text())
        assert len(solves) == len(pins) == 22
        assert [240, 231] in [pin["shape"] for pin in pins]
        for (spec, result), pin in zip(solves, pins):
            got = solve_pin(spec, result)
            values = got.pop("values")
            want = dict(pin)
            np.testing.assert_allclose(values, want.pop("values"), rtol=PIN_RTOL, atol=0)
            assert got == want

    @staticmethod
    def _rmse(target):
        return lambda: harness.run_rmse_benchmark(
            ExperimentConfig(kind="rmse", trials=3, target=target))

    @staticmethod
    def _bvp(dim, seed=0, qoi="average", modes=DEFAULT_MODES):
        return lambda: adjoint_bvp.run_bvp_benchmark(
            adjoint_bvp.DiffusionModel(dim=dim, qoi=qoi), 4, (10, 20, 40), modes=modes, seed=seed)

    _RMSE_SHAPES = {(k * n, 231) for n in range(20, 81, 15) for k in (1, 3)}

    # Each run, its solves' shapes, how many solves it makes and how many are
    # feasible: N in (10, 20, 40) for bvp, (20, ..., 80) for rmse, each with
    # (1 + dim) N stacked rows.
    @pytest.mark.parametrize("run, shapes, solve_count, least_feasible", [
        (_bvp(3, seed=7), {(k * n, 35) for n in (10, 20, 40) for k in (1, 4)}, 6, 2),
        (_rmse("f2"), _RMSE_SHAPES, 30, 30),
        (_rmse("f1"), _RMSE_SHAPES, 30, 30),
        (_rmse("f3"), _RMSE_SHAPES, 30, 30),
        (_bvp(2), {(k * n, 15) for n in (10, 20, 40) for k in (1, 3)}, 6, 1),
        (_bvp(2, qoi="midpoint", modes=MODES),
         {(k * n, 15) for n in (10, 20, 40) for k in (1, 3)}, 9, 1),
    ], ids=["bvp", "rmse", "rmse-f1", "rmse-f3", "bvp-d2", "bvp-d2-midpoint-double"])
    def test_bpdn_solves_certified_by_weak_duality(self, monkeypatch, run, shapes, solve_count,
                                                   least_feasible):
        # Every epsilon > 0 config behind a pinned CLI output in tests/data
        # (rmse f1-f3 with 3 trials; bvp at dim 2 with both QoIs, the midpoint
        # one with all three modes) and one bvp-adjoint operation (dim 3,
        # seed 7). For a feasible instance, y = r / ||A^T r||_inf is dual
        # feasible for min ||c||_1 s.t. ||A c - b|| <= t, so b^T y - t ||y||
        # bounds the optimum from below, independently of the solver. Over
        # the 111 solves, the 94 feasible ones have a gap of at most
        # 1.9e-7 ||c||_1, from rounding in A^T r at the small lam of the
        # crossing. An instance whose least-squares residual exceeds t is
        # tall and full rank: it must take the least-squares exit and end at
        # that residual (the 17 such exits measured to 4.1e-11 relative).
        solves = self._record(monkeypatch, run)
        assert len(solves) == solve_count
        assert {spec.matrix.shape for spec, _ in solves} == shapes
        feasible = 0
        for spec, result in solves:
            a, b = spec.matrix, spec.rhs
            assert spec.epsilon > 0.0
            target = spec.epsilon + spec.opt_tol * np.linalg.norm(b)
            least_squares = np.linalg.lstsq(a, b, rcond=None)[0]
            floor = np.linalg.norm(a @ least_squares - b)
            if floor < target:
                feasible += 1
                r = b - a @ result.coefficients
                y = r / np.abs(a.T @ r).max()
                l1 = np.abs(result.coefficients).sum()
                assert result.converged
                assert result.residual_norm <= target
                assert l1 - (b @ y - target * np.linalg.norm(y)) <= 1e-5 * l1
            else:
                assert not result.converged
                assert result.iterations == 1
                assert abs(result.residual_norm - floor) <= 1e-9 * floor
        assert feasible >= least_feasible

    def test_bpdn_solves_meet_the_lasso_optimality_conditions(self, monkeypatch):
        # Every solve of the rmse driver (f2, 3 trials: 231 columns) and of a
        # 2-trial bvp run (dim 3, degree 4: 35 columns), checked from
        # r = b - A c alone. A converged solve meets the residual bound and is
        # the LASSO solution at lam = ||A^T r||_inf: every support column
        # attains that largest correlation with the sign of its coefficient
        # (off the support |A^T r| <= lam holds by the choice of lam). An
        # unconverged solve ends at the least-squares floor, which lies above
        # epsilon. Measured: 34 solves converge, with on-support deviations up
        # to 5e-16 lam_0; the 8 others are tall least-squares exits, at most
        # 2.5e-11 relative from the floor.
        solves = self._record(monkeypatch, lambda: harness.run_rmse_benchmark(
            ExperimentConfig(kind="rmse", trials=3, target="f2")))
        solves += self._record(monkeypatch, lambda: adjoint_bvp.run_bvp_benchmark(
            adjoint_bvp.DiffusionModel(dim=3), 4, (10, 20, 40), trials=2))
        assert len(solves) == 42
        converged = 0
        for spec, result in solves:
            a, b, c = spec.matrix, spec.rhs, result.coefficients
            assert spec.epsilon > 0.0
            r = b - a @ c
            if result.converged:
                converged += 1
                assert np.linalg.norm(r) <= spec.epsilon + spec.opt_tol * np.linalg.norm(b)
                correlation = a.T @ r
                lam = np.abs(correlation).max()
                on = c != 0.0
                deviation = np.abs(correlation[on] - lam * np.sign(c[on]))
                assert np.all(deviation <= 1e-9 * np.abs(a.T @ b).max())
            else:
                least_squares = np.linalg.lstsq(a, b, rcond=None)[0]
                floor = np.linalg.norm(a @ least_squares - b)
                assert floor > spec.epsilon
                assert abs(np.linalg.norm(r) - floor) <= 1e-9 * floor
        assert converged == 34

    @staticmethod
    def _exact_run(measure, degree, trials):
        return lambda: harness.run_recovery_benchmark(ExperimentConfig(
            kind="recovery-vs-N", measure=measure, degree=degree, sparsity=5,
            sample_grid=(10, 20, 30, 45, 60), trials=trials))

    def test_exact_solves_stop_only_on_a_certified_segment(self, monkeypatch):
        # recovery-vs-N at dim 2, Jacobi(0.5, 1.5), degree 12 (91 columns),
        # s = 5, 20 trials. In the gradient-enhanced fits at N = 10 of trials
        # 12 and 13 (30 x 91), the path meets the residual target with the
        # active signs on a segment whose dual certificate fails. Stopping
        # there left both unconverged; walking on reaches a certified segment.
        # Each answer's l1 norm is at most the LP optimum of basis_pursuit_dual
        # and at least b^T y - ||y|| ||r||, for the dual y that the oracle's
        # support fixes (weak duality: the residual bound leaves room below
        # the exact optimum). Measured: 2.5e-12 and 1.3e-4 relative below it.
        # Solve 122 (20 x 91) and solves 31 and 34 of Hermite degree 10 at 4
        # trials (30 x 66, 195 and 236 steps) end on segments whose y = A_I d
        # misses dual feasibility by more than a fixed 1e-9, which left them
        # unconverged; their weak-duality gaps are within 1e-6. Measured:
        # 3.6e-8 above the LP optimum, and 6.5e-3 and 5.4e-8 below it, as the
        # residual bound allows.
        solves = self._record(monkeypatch, self._exact_run("jacobi(0.5,1.5)", 12, 20))
        assert len(solves) == 200
        spec, result = solves[122]
        assert spec.matrix.shape == (20, 91) and spec.epsilon == 0.0
        assert result.converged
        optimum = np.abs(basis_pursuit_dual(spec.matrix, spec.rhs)).sum()
        assert abs(np.abs(result.coefficients).sum() - optimum) <= 1e-7 * optimum
        for spec, result in (solves[121], solves[131]):
            a, b = spec.matrix, spec.rhs
            assert a.shape == (30, 91) and spec.epsilon == 0.0
            assert result.converged
            oracle = basis_pursuit_dual(a, b)
            support = np.flatnonzero(oracle)
            y = np.linalg.lstsq(a[:, support].T, np.sign(oracle[support]), rcond=None)[0]
            assert np.abs(a.T @ y).max() <= 1.0 + 1e-9
            optimum = np.abs(oracle).sum()
            l1 = np.abs(result.coefficients).sum()
            assert b @ y - np.linalg.norm(y) * result.residual_norm <= l1 <= optimum * (1 + 1e-9)
        solves = self._record(monkeypatch, self._exact_run("hermite", 10, 4))
        assert len(solves) == 40
        for spec, result in (solves[31], solves[34]):
            a, b = spec.matrix, spec.rhs
            assert a.shape == (30, 66) and spec.epsilon == 0.0
            assert result.converged
            assert result.residual_norm <= spec.opt_tol * np.linalg.norm(b)
            optimum = np.abs(basis_pursuit_dual(a, b)).sum()
            assert np.abs(result.coefficients).sum() <= optimum * (1 + 1e-7)

    def test_bpdn_flags_agree_with_the_duality_gap(self, monkeypatch):
        # rmse at dim 3, degree 8, Jacobi(0.5, 1.5), f3, 2 trials: 20 solves
        # with epsilon > 0 (20 x 165 to 320 x 165). Each flag must equal the
        # verdict from (A, b, c) alone: the residual meets its bound and the
        # weak-duality gap of y = r is at most 1e-6 ||c||_1. A check relative
        # to lam_0 accepted 12 of them with gaps from 1.5e-6 to 8.5e-2; solve
        # 16 (65 x 165) is off the LASSO path with a gap of 8.5e-2.
        solves = self._record(monkeypatch, lambda: harness.run_rmse_benchmark(ExperimentConfig(
            kind="rmse", dim=3, degree=8, measure="jacobi(0.5,1.5)", target="f3", trials=2)))
        assert len(solves) == 20
        for spec, result in solves:
            a, b, c = spec.matrix, spec.rhs, result.coefficients
            assert spec.epsilon > 0.0
            r = b - a @ c
            correlation = a.T @ r
            l1 = np.abs(c).sum()
            gap = l1 - c @ correlation / np.abs(correlation).max()
            inside = np.linalg.norm(r) <= spec.epsilon + spec.opt_tol * np.linalg.norm(b)
            assert result.converged == (inside and gap <= 1e-6 * l1)
        spec, result = solves[16]
        assert spec.matrix.shape == (65, 165)
        assert not result.converged

    def test_inconsistent_exact_fits_hand_off_to_least_squares(self, monkeypatch):
        # epsilon = 0 rmse fits (dim 2, degree 8: 45 columns) with more rows
        # than columns are inconsistent: their least-squares residual lies
        # above the target. Each must take the least-squares exit, one Gram
        # solve instead of the path, and end at that residual.
        solves = self._record(monkeypatch, lambda: harness.run_rmse_benchmark(ExperimentConfig(
            kind="rmse", dim=2, degree=8, sample_grid=(20, 50), trials=2, target="f3",
            epsilon=0.0)))
        assert len(solves) == 8
        inconsistent = 0
        for spec, result in solves:
            a, b = spec.matrix, spec.rhs
            least_squares = np.linalg.lstsq(a, b, rcond=None)[0]
            floor = np.linalg.norm(a @ least_squares - b)
            if floor <= spec.opt_tol * np.linalg.norm(b):
                continue
            inconsistent += 1
            assert not result.converged
            assert result.iterations == 1
            assert abs(result.residual_norm - floor) <= 1e-9 * floor
        assert inconsistent >= 4


def test_package_runs_without_scipy():
    # numpy is the only runtime dependency: with scipy unimportable, the
    # package imports, builds a degree-149 basis (its family's derivative
    # self-check runs a 150-point Gauss rule), draws its design points and
    # computes quadrature reference moments.
    src = str(Path(gradpce.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import gradpce\n"
        "basis = gradpce.PceBasis(gradpce.Measure.jacobi(5, 0), 1, 149)\n"
        "gradpce.draw(basis, 100, seed=1)\n"
        "gradpce.reference_moments(gradpce.DiffusionModel(dim=1))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestBruteForce:
    def test_prefers_sparser_support(self):
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0])
        # Both {0,1} and {2} reproduce b; the 1-sparse support wins.
        np.testing.assert_allclose(brute_force_l0(a, b, s_max=2), [0.0, 0.0, 1.0])

    def test_tie_breaks_by_l1(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([2.0])
        np.testing.assert_allclose(brute_force_l0(a, b, s_max=1), [0.0, 1.0])

    def test_zero_rhs(self):
        np.testing.assert_array_equal(brute_force_l0(np.eye(3), np.zeros(3), 2), 0.0)

    def test_no_fit_raises(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NoSparseFit):
            brute_force_l0(a, np.array([1.0, 1.0, 0.0]), s_max=2)

    def test_guards(self):
        with pytest.raises(ValueError, match="20 columns"):
            brute_force_l0(np.ones((2, 21)), np.ones(2), 1)
        with pytest.raises(ValueError, match="support size 4"):
            brute_force_l0(np.ones((2, 5)), np.ones(2), 5)
