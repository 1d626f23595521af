import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _oracles import basis_pursuit_dual
from hypothesis import given, settings
from hypothesis import strategies as st

import gradpce
from gradpce import adjoint_bvp, harness, l1solver
from gradpce.design import mic, recovery_guarantee
from gradpce.harness import ExperimentConfig
from gradpce.l1solver import (
    NoSparseFit,
    RecoveryResult,
    SolveSpec,
    brute_force_l0,
    project_l1_ball,
    solve,
)


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
        # and the residual never rises.
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((10, 25))
            b = rng.standard_normal(10)
            result = solve(SolveSpec(a, b, epsilon=1e-6 * np.linalg.norm(b), opt_tol=1e-8))
            assert result.converged
            assert len(result.curve_trace) == result.iterations + 1
            taus = [t for t, _ in result.curve_trace]
            phis = [p for _, p in result.curve_trace]
            assert taus == sorted(taus)
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
        # An exact solve traces the path from (0, ||b||) to its exit at
        # (||c||_1, residual), one entry per step.
        rng = np.random.default_rng(31)
        a = rng.standard_normal((15, 40))
        b = a @ project_l1_ball(rng.standard_normal(40), 2.0)
        result = solve(SolveSpec(a, b))
        l1 = float(np.abs(result.coefficients).sum())
        bnorm = float(np.linalg.norm(b))
        assert result.converged
        assert 0 < result.iterations <= 10_000
        assert len(result.curve_trace) == result.iterations + 1
        assert result.curve_trace[0] == (0.0, bnorm)
        assert result.curve_trace[-1][0] == l1
        assert result.curve_trace[-1][1] == pytest.approx(result.residual_norm, abs=1e-14 * bnorm)

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
        # The path ends at lam = 0, the least-squares solution itself.
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

    def test_every_path_exit_checks_optimality(self, monkeypatch):
        # The path exits at the residual crossing, at the exact (epsilon = 0)
        # end, at the least-squares end (lam = 0) or on the step budget. Each
        # exit runs one optimality check once: the basis-pursuit dual
        # certificate at the exact end, the KKT check elsewhere. A failed
        # check leaves the answer unconverged.
        checks = []

        def failing(name):
            def check(*args):
                checks.append(name)
                return False
            return check

        rng = np.random.default_rng(43)
        wide = rng.standard_normal((10, 30))
        tall = rng.standard_normal((40, 10))
        sparse = np.zeros(30)
        sparse[[3, 11, 24]] = [1.0, -0.5, 2.0]
        specs = {
            "crossing": SolveSpec(wide, rng.standard_normal(10), epsilon=1e-3),
            "exact": SolveSpec(wide, wide @ sparse),
            "least squares": SolveSpec(tall, rng.standard_normal(40), epsilon=1e-3),
            "budget": SolveSpec(wide, rng.standard_normal(10), epsilon=1e-3, max_iters=2),
        }
        passing = {name: solve(spec) for name, spec in specs.items()}
        assert passing["crossing"].converged
        assert passing["exact"].converged
        assert passing["least squares"].iterations < 10_000
        assert passing["budget"].iterations == 2
        monkeypatch.setattr(l1solver, "_kkt_holds", failing("kkt"))
        monkeypatch.setattr(l1solver, "_dual_certified", failing("certificate"))
        for name, spec in specs.items():
            result = solve(spec)
            assert not result.converged, name
            np.testing.assert_array_equal(result.coefficients, passing[name].coefficients)
        assert checks == ["kkt", "certificate", "kkt", "kkt"]

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
        with pytest.raises(ValueError, match="epsilon"):
            SolveSpec(np.eye(2), np.ones(2), epsilon=-1.0)


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

    @pytest.mark.parametrize("driver", ["bvp", "rmse"])
    def test_bpdn_solves_certified_by_weak_duality(self, monkeypatch, driver):
        # One bvp-adjoint operation (dim 3, degree 4: 35 columns, 10-160 rows)
        # and the default rmse config (f2, 3 trials: 231 columns). For a
        # feasible instance, y = r / ||A^T r||_inf is dual feasible for
        # min ||c||_1 s.t. ||A c - b|| <= t, so b^T y - t ||y|| bounds the
        # optimum from below, independently of the solver. The gap measured
        # up to 4.1e-7 ||c||_1 (bvp) and 1.5e-7 ||c||_1 (rmse), from rounding
        # in A^T r at the small lam of the crossing; an instance whose
        # least-squares residual exceeds t must end at that residual (measured
        # to 3.4e-11 relative).
        if driver == "bvp":
            solves = self._record(monkeypatch, lambda: adjoint_bvp.run_bvp_benchmark(
                adjoint_bvp.DiffusionModel(dim=3), 4, (10, 20, 40), seed=7))
            assert {spec.matrix.shape for spec, _ in solves} == {
                (n, 35) for n in (10, 20, 40, 80, 160)}
        else:
            solves = self._record(monkeypatch, lambda: harness.run_rmse_benchmark(
                ExperimentConfig(kind="rmse", trials=3, target="f2")))
            assert len(solves) == 30
            assert {spec.matrix.shape[1] for spec, _ in solves} == {231}
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
                assert abs(result.residual_norm - floor) <= 1e-9 * floor
        assert feasible >= (2 if driver == "bvp" else 30)

    def test_inconsistent_exact_fits_hand_off_to_least_squares(self, monkeypatch):
        # epsilon = 0 rmse fits (dim 2, degree 8: 45 columns) with more rows
        # than columns are inconsistent: their least-squares residual lies
        # above the target. The path must end at that residual in a bounded
        # number of steps (47-169 measured, against a budget of 10,000), not
        # spend the budget.
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
            assert result.iterations <= 5 * a.shape[1]
            assert abs(result.residual_norm - floor) <= 1e-9 * floor
        assert inconsistent >= 4


def test_package_runs_without_scipy():
    # numpy is the only runtime dependency: with scipy unimportable, the
    # package imports, builds a 150-point Gauss rule (the derivative
    # self-check of a degree-149 family), samples a general Jacobi measure
    # and computes quadrature reference moments.
    src = str(Path(gradpce.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import gradpce\n"
        "gradpce.PolynomialFamily.jacobi(5, 0, 149)\n"
        "gradpce.sample(gradpce.Measure.jacobi(1.5, 0.5), 2, 100, seed=1)\n"
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
