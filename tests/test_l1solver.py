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
from gradpce.design import mic, recovery_guarantee
from gradpce.l1solver import (
    NoSparseFit,
    RecoveryResult,
    SolveSpec,
    brute_force_l0,
    project_l1_ball,
    solve,
    solve_pareto,
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
        # solve_pareto keeps the SPG root finder, which solve no longer uses
        # at epsilon == 0, under the same accuracy check.
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.standard_normal((15, 40))
            coeffs = np.zeros(40)
            coeffs[rng.choice(40, 3, replace=False)] = rng.standard_normal(3)
            b = a @ coeffs
            spec = SolveSpec(a, b, opt_tol=1e-9)
            lp = basis_pursuit_dual(a, b)
            for result in (solve(spec), solve_pareto(spec, spec.max_iters)):
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
        # A positive epsilon keeps the instance on the Pareto root finder.
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((10, 25))
            b = rng.standard_normal(10)
            result = solve(SolveSpec(a, b, epsilon=1e-6 * np.linalg.norm(b), opt_tol=1e-8))
            taus = [t for t, _ in result.curve_trace]
            phis = [p for _, p in result.curve_trace]
            assert taus == sorted(taus)
            assert all(p1 >= p2 - 1e-12 for p1, p2 in zip(phis, phis[1:]))

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

    def test_exact_instance_reports_lp_telemetry(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((15, 40))
        b = a @ project_l1_ball(rng.standard_normal(40), 2.0)
        result = solve(SolveSpec(a, b))
        l1 = float(np.abs(result.coefficients).sum())
        assert result.converged
        assert 0 < result.iterations <= 10_000
        assert result.tau_final == l1
        assert result.curve_trace == ((l1, result.residual_norm),)

    def test_lp_optimum_missing_residual_bound_is_handed_off(self):
        # converged follows the measured residual, not the LP status: no
        # floating-point residual meets 1e-30 * ||b||, so the Pareto root
        # finder spends the rest of the budget, and the LP vertex, whose
        # residual is smaller than the Pareto answer's, is returned.
        rng = np.random.default_rng(41)
        a = rng.standard_normal((10, 30))
        b = rng.standard_normal(10)
        lp_iterations = solve(SolveSpec(a, b)).iterations
        result = solve(SolveSpec(a, b, opt_tol=1e-30, max_iters=200))
        assert not result.converged
        assert lp_iterations < result.iterations <= 200
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

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="finite"):
            SolveSpec(np.array([[np.nan, 1.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="zero column"):
            SolveSpec(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="row counts"):
            SolveSpec(np.eye(3), np.ones(2))
        with pytest.raises(ValueError, match="epsilon"):
            SolveSpec(np.eye(2), np.ones(2), epsilon=-1.0)


def test_import_leaves_scipy_optimize_unloaded():
    # linprog is imported on the first exact solve; importing scipy.optimize
    # with the package would add its load time to every run's setup.
    src = str(Path(gradpce.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, gradpce; sys.exit(int('scipy.optimize' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


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
