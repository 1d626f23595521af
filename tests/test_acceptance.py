"""Acceptance gate: every shipped guarantee, one pass/fail line per criterion.

Each test prints its verdict through ``capsys.disabled`` so the line shows up
in plain ``pytest`` runs, then asserts.  Stated runtime budgets are enforced
as part of the criterion.
"""

import itertools
import math
import time

import numpy as np
from _oracles import brute_force_l0

from gradpce.adjoint_bvp import DiffusionModel, qoi_and_gradient
from gradpce.design import (
    assemble_gradient_enhanced,
    coherence_bound,
    coherence_suprema,
    isotropy_gap,
    mic,
    nullspace_containment,
    numeric_nullspace_dim,
    recovery_guarantee,
)
from gradpce.harness import ExperimentConfig, run_mic_sweep, run_recovery_benchmark, run_rmse_benchmark
from gradpce.l1solver import SolveSpec, solve
from gradpce.pce import PceBasis
from gradpce.polynomials import (
    Measure,
    PolynomialFamily,
    density_ratio_to_chebyshev,
    derivative_constant,
    gauss_rule,
)
from gradpce.sampling import sample

PARAM_VALUES = (-0.5, 0.0, 0.5, 1.0, 2.5)


def _report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def test_01_orthonormality_and_derivative_identity(capsys):
    degree = 30
    start = time.perf_counter()
    worst_gram = 0.0
    worst_identity = 0.0
    families = [Measure.jacobi(a, b) for a, b in itertools.product(PARAM_VALUES, repeat=2)]
    families.append(Measure.gaussian())
    for measure in families:
        family = PolynomialFamily(measure, degree)
        nodes, weights = gauss_rule(measure, degree + 1)
        table, _ = family.eval_table(nodes)
        gram = (table * weights[:, None]).T @ table
        worst_gram = max(worst_gram, float(np.abs(gram - np.eye(degree + 1)).max()))
        raised = PolynomialFamily(measure.raised(), degree - 1)
        if measure.kind == "jacobi":
            grid = np.linspace(-0.99, 0.99, 401)
        else:
            grid = np.linspace(-5.0, 5.0, 401)
        _, derivs = family.eval_table(grid)
        raised_values, _ = raised.eval_table(grid)
        for n in range(1, degree + 1):
            # The recurrence-differentiated table is the independent side here.
            rhs = derivative_constant(measure, n) * raised_values[:, n - 1]
            scale = max(1.0, float(np.abs(rhs).max()))
            worst_identity = max(worst_identity, float(np.abs(derivs[:, n] - rhs).max()) / scale)
    elapsed = time.perf_counter() - start
    ok = worst_gram <= 1e-10 and worst_identity <= 1e-8 and elapsed < 10.0
    _report(capsys, 1, "orthonormality and derivative identity", ok,
            f"gram dev {worst_gram:.3g}, identity dev {worst_identity:.3g}, {elapsed:.1f}s")


def test_02_weighted_square_bound(capsys):
    degree = 50
    grid = np.linspace(-1.0, 1.0, 2001)
    start = time.perf_counter()
    worst_ratio = 0.0
    for a, b in itertools.product(PARAM_VALUES, repeat=2):
        measure = Measure.jacobi(a, b)
        family = PolynomialFamily(measure, degree)
        values, _ = family.eval_table(grid)
        weighted = density_ratio_to_chebyshev(measure, grid)[:, None] * values**2
        bound = 2.0 * math.e * (2.0 + math.hypot(a, b))
        worst_ratio = max(worst_ratio, float(weighted.max()) / bound)
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and elapsed < 10.0
    _report(capsys, 2, "weighted square bound", ok,
            f"sup/bound {worst_ratio:.4f} over {len(PARAM_VALUES)**2} parameter pairs, {elapsed:.1f}s")


def test_03_mean_isotropy(capsys):
    start = time.perf_counter()
    legendre_gap = isotropy_gap(PceBasis(Measure.uniform(), 2, 5))
    hermite_gap = isotropy_gap(PceBasis(Measure.gaussian(), 2, 3))
    elapsed = time.perf_counter() - start
    ok = legendre_gap <= 1e-10 and hermite_gap <= 1e-10 and elapsed < 30.0
    _report(capsys, 3, "mean isotropy", ok,
            f"legendre gap {legendre_gap:.3g}, hermite gap {hermite_gap:.3g}, {elapsed:.1f}s")


def test_04_coherence_constants_and_bound(capsys):
    chebyshev_growth = coherence_bound(Measure.chebyshev(), 1)[1]
    legendre_growth = coherence_bound(Measure.uniform(), 1)[1]
    exact = chebyshev_growth == 1.0 and legendre_growth == 1.0 + math.sqrt(2.0) / 2.0
    degree = 20  # suprema are monotone in the index set, so this covers n <= 20
    violations = 0
    checked = 0
    pairs_1d = list(itertools.product(PARAM_VALUES, repeat=2))
    pairs_2d = [(v, v) for v in PARAM_VALUES] + [(-0.5, 1.0), (0.0, 2.5), (1.0, 2.5)]
    for dim, pairs, points in ((1, pairs_1d, 2001), (2, pairs_2d, 501)):
        for a, b in pairs:
            basis = PceBasis(Measure.jacobi(a, b), dim, degree)
            _, beta_sup = coherence_suprema(basis, grid_points=points)
            bound, growth = coherence_bound(basis.measure, basis.dim)
            checked += 1
            if beta_sup > growth * bound:
                violations += 1
    ok = exact and violations == 0
    _report(capsys, 4, "coherence constants and stacked bound", ok,
            f"growth constants exact: {exact}, {violations}/{checked} bound violations")


def test_05_nullspace_containment(capsys):
    basis = PceBasis(Measure.uniform(), 2, 10)
    contained = 0
    strict = 0
    for draw in range(20):
        batch = sample(Measure.chebyshev(), 2, 10, draw)
        design = assemble_gradient_enhanced(basis, batch, (0, 1))
        values = design.phi_hat[:design.n_samples]
        if nullspace_containment(values, design.phi_hat):
            contained += 1
        if numeric_nullspace_dim(values) > numeric_nullspace_dim(design.phi_hat):
            strict += 1
    ok = contained == 20 and strict >= 19
    _report(capsys, 5, "nullspace containment", ok,
            f"containment {contained}/20, strict {strict}/20")


def test_06_solver_matches_l0_oracle(capsys):
    rng = np.random.default_rng(20240611)
    rows_for = {1: 40, 2: 160, 3: 320}
    start = time.perf_counter()
    worst = 0.0
    for instance in range(200):
        s = 1 + instance % 3
        while True:
            a = rng.standard_normal((rows_for[s], 12))
            a /= np.linalg.norm(a, axis=0)
            if recovery_guarantee(mic(a), s):
                break
        support = rng.choice(12, size=s, replace=False)
        x_true = np.zeros(12)
        x_true[support] = rng.standard_normal(s) + np.sign(rng.standard_normal(s))
        b = a @ x_true
        x_bp = solve(SolveSpec(a, b, epsilon=0.0, opt_tol=1e-8)).coefficients
        x_l0 = brute_force_l0(a, b, s_max=3)
        worst = max(worst, float(np.abs(x_bp - x_l0).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 120.0
    _report(capsys, 6, "solver matches the sparsest-fit oracle", ok,
            f"max deviation {worst:.3g} over 200 instances, {elapsed:.1f}s")


def test_07_recovery_benchmark_ordering(capsys):
    config = ExperimentConfig(kind="recovery-vs-N", dim=2, degree=20, sparsity=8, trials=100)
    assert PceBasis(Measure.uniform(), 2, 20).size == 231
    start = time.perf_counter()
    table = run_recovery_benchmark(config)
    elapsed = time.perf_counter() - start
    curves = {mode: [] for mode in config.modes}
    for mode, _, fraction in table.rows:
        curves[mode].append(fraction)

    def inversions(curve):
        return [curve[i] - curve[i + 1] for i in range(len(curve) - 1)
                if curve[i + 1] < curve[i]]

    monotone = all(len(drops) <= 1 and all(d <= 0.05 + 1e-12 for d in drops)
                   for drops in map(inversions, curves.values()))
    standard = curves["standard"]
    enhanced = curves["gradient-enhanced"]
    dominates = all(g >= s for g, s in zip(enhanced, standard))
    trials = config.effective_trials
    significant = sum(
        g - s > 1.96 * math.sqrt(g * (1 - g) / trials + s * (1 - s) / trials)
        for g, s in zip(enhanced, standard))
    ok = monotone and dominates and significant >= 2 and elapsed < 900.0
    _report(capsys, 7, "recovery benchmark ordering", ok,
            f"standard {standard}, gradient-enhanced {enhanced}, "
            f"{significant} significant gaps, {elapsed:.0f}s")


def test_08_exact_function_rmse(capsys):
    config = ExperimentConfig(
        kind="rmse", dim=2, degree=20, sample_grid=(20, 40, 60), trials=3,
        modes=("gradient-enhanced",), target="f1")
    start = time.perf_counter()
    table = run_rmse_benchmark(config)
    elapsed = time.perf_counter() - start
    best = min(row[2] for row in table.rows)
    ok = best <= 1e-6 and elapsed < 300.0
    _report(capsys, 8, "exact quadratic reaches machine-level rmse", ok,
            f"best rmse {best:.3g} on N <= 60, {elapsed:.0f}s")


def test_09_adjoint_gradient(capsys):
    rng = np.random.default_rng(7)
    step = 1e-5
    worst = 0.0
    for point in range(20):
        dim = 1 + point % 4
        model = DiffusionModel(dim=dim, cells=64 if point % 2 else 128,
                               qoi="average" if point % 3 else "midpoint")
        xi = rng.uniform(-1.0, 1.0, dim)
        _, gradient = qoi_and_gradient(model, xi)
        fd = np.zeros(dim)
        for j in range(dim):
            bump = np.zeros(dim)
            bump[j] = step
            fd[j] = (qoi_and_gradient(model, xi + bump)[0]
                     - qoi_and_gradient(model, xi - bump)[0]) / (2.0 * step)
        worst = max(worst, float(np.linalg.norm(gradient - fd) / np.linalg.norm(fd)))
    flat = DiffusionModel(dim=1, cells=4096, load=np.ones_like, constant_value=1.0)
    qoi, gradient = qoi_and_gradient(flat, np.zeros(1))
    analytic_err = abs(qoi - 1.0 / 12.0)
    ok = worst <= 1e-6 and analytic_err <= 1e-8 and abs(gradient[0]) <= 1e-12
    _report(capsys, 9, "adjoint gradient correctness", ok,
            f"max fd deviation {worst:.3g} over 20 points, |Q - 1/12| = {analytic_err:.3g}")


def test_10_deterministic_csv(capsys, tmp_path):
    runs = {
        "recovery": lambda: run_recovery_benchmark(ExperimentConfig(
            kind="recovery-vs-N", degree=5, sample_grid=(10, 15), sparsity=2,
            trials=3, seed=11)),
        "mic": lambda: run_mic_sweep(ExperimentConfig(
            kind="mic-sweep", degree=6, sample_grid=(30,), trials=2, seed=11)),
        "rmse": lambda: run_rmse_benchmark(ExperimentConfig(
            kind="rmse", degree=4, sample_grid=(20,), trials=2,
            modes=("gradient-enhanced",), seed=11)),
    }
    identical = True
    for name, runner in runs.items():
        first, second = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        runner().write(first, "csv")
        runner().write(second, "csv")
        identical = identical and first.read_bytes() == second.read_bytes()
    _report(capsys, 10, "deterministic csv output", identical,
            "byte-identical rerun for recovery, mic sweep, and rmse tables")
