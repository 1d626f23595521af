import concurrent.futures
import dataclasses
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from _oracles import basis_pursuit_dual
from hypothesis import given
from hypothesis import strategies as st

from gradpce import harness, l1solver
from gradpce.adjoint_bvp import DiffusionModel, run_bvp_benchmark
from gradpce.design import assemble_gradient_enhanced, draw, mic, sampling_measure
from gradpce.harness import (
    MATRIX_IDS,
    SUCCESS_TOL,
    TARGETS,
    ExperimentConfig,
    ResultTable,
    direction_count,
    fit_sparse_expansion,
    run_mic_sweep,
    run_recovery_benchmark,
    run_rmse_benchmark,
)
from gradpce.pce import PceBasis
from gradpce.polynomials import Measure, PolynomialFamily
from gradpce.sampling import sample, split_stream


class TestTargets:
    def test_sum_of_squares_hand_values(self):
        points = np.array([[1.0, 1.0], [0.5, -0.5]])
        np.testing.assert_allclose(TARGETS["f1"](points)[0], [2.0, 0.5])

    def test_gaussian_bump_at_center(self):
        # The exponent vanishes where (x+1)/2 = 0.375.
        x = 2.0 * 0.375 - 1.0
        points = np.array([[x, x, x]])
        np.testing.assert_allclose(TARGETS["f2"](points)[0], [1.0])

    @pytest.mark.parametrize("name", sorted(TARGETS))
    def test_gradients_match_finite_differences(self, name):
        target = TARGETS[name]
        rng = np.random.default_rng(5)
        points = rng.uniform(-0.9, 0.9, size=(20, 3))
        grad = target(points)[1]
        assert grad.shape == points.shape
        h = 1e-6
        for axis in range(3):
            shift = np.zeros(3)
            shift[axis] = h
            fd = (target(points + shift)[0] - target(points - shift)[0]) / (2 * h)
            scale = np.maximum(np.abs(fd), 1.0)
            np.testing.assert_allclose(grad[:, axis] / scale, fd / scale, atol=1e-6)


class TestDirectionCount:
    @pytest.mark.parametrize(
        "fraction,dim,expected",
        [(0.0, 5, 0), (1.0, 3, 3), (0.5, 2, 1), (0.1, 10, 1), (0.2, 10, 2),
         (0.15, 10, 2), (0.3, 3, 1), (0.34, 3, 2)],
    )
    def test_cases(self, fraction, dim, expected):
        assert direction_count(fraction, dim) == expected


    @given(st.integers(1, 12))
    def test_end_fractions_give_none_or_every_direction(self, dim):
        assert direction_count(0.0, dim) == 0
        assert direction_count(1.0, dim) == dim

    @given(st.integers(1, 12), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_non_decreasing_in_the_fraction(self, dim, a, b):
        low, high = sorted((a, b))
        assert direction_count(low, dim) <= direction_count(high, dim)

    @given(st.integers(1, 12), st.integers(0, 2**63 - 1))
    def test_no_or_all_directions_chosen_for_any_seed(self, dim, seed):
        for fraction, expected in ((0.0, ()), (1.0, tuple(range(dim)))):
            ((_, directions, _),) = harness.trial_streams(seed, 1, dim, fraction, 0)
            assert directions == expected


class TestConfig:
    def test_defaults_and_trials(self):
        config = ExperimentConfig("recovery-vs-N")
        assert config.effective_trials == 100
        assert ExperimentConfig("rmse").effective_trials == 10
        assert ExperimentConfig("mic-sweep").effective_trials == 10
        assert direction_count(config.gradient_fraction, config.dim) == 2

    def test_round_trip(self):
        config = ExperimentConfig(
            "rmse", dim=3, degree=5, sample_grid=[10, 20], modes=["standard"],
            gradient_fraction=0.5, target="f2", seed=7,
        )
        assert ExperimentConfig.from_dict(dataclasses.asdict(config)) == config

    def test_rejects_unknown_keys_and_values(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"kind": "rmse", "bogus": 1})
        with pytest.raises(ValueError, match="experiment kind"):
            ExperimentConfig("sweep")
        with pytest.raises(ValueError, match="mode"):
            ExperimentConfig("rmse", modes=("fancy",))
        with pytest.raises(ValueError, match="duplicates"):
            ExperimentConfig("rmse", modes=("standard", "standard"))
        with pytest.raises(ValueError, match="gradient_fraction"):
            ExperimentConfig("rmse", gradient_fraction=1.5)
        with pytest.raises(ValueError, match="sample_grid"):
            ExperimentConfig("rmse", sample_grid=())
        with pytest.raises(ValueError, match="target"):
            ExperimentConfig("rmse", target="f9")
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig("rmse", trials=0)
        with pytest.raises(ValueError, match="measure"):
            ExperimentConfig("rmse", measure="cosine")
        with pytest.raises(ValueError, match="^dim must be >= 1$"):
            ExperimentConfig("mic-sweep", dim=0)
        with pytest.raises(ValueError, match="^sparsity_grid must be non-empty"):
            ExperimentConfig("recovery-vs-s", sparsity_grid=())
        for field, value in (("sparsity", -1), ("sample_count", 0)):
            with pytest.raises(ValueError, match="^sparsity must be >= 0 and sample_count >= 1$"):
                ExperimentConfig("rmse", **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("epsilon", math.nan), ("epsilon", math.inf), ("epsilon", -1.0),
        ("dim", 2.0), ("degree", True), ("trials", "3"), ("seed", None), ("epsilon", "0"),
        ("gradient_fraction", False), ("kind", 5), ("measure", 5), ("target", ["f1"]),
        ("sample_grid", 5), ("sample_grid", [20.7]), ("sparsity_grid", [True]),
        ("modes", 5), ("modes", [1]),
    ])
    def test_ill_typed_or_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{"kind": "recovery-vs-N", field: value})

    def test_numpy_integers_accepted(self):
        config = ExperimentConfig("rmse", dim=np.int64(3), sample_grid=np.array([10, 20]),
                                  seed=np.int64(7), epsilon=np.float64(0.5))
        assert config.sample_grid == (10, 20)
        assert all(type(n) is int for n in config.sample_grid)

    def test_outcome_success_boundary(self, monkeypatch):
        # Success is inclusive: an error of exactly SUCCESS_TOL counts and one
        # of SUCCESS_TOL * 1.01 does not. At sparsity 0 the planted vector is
        # zero, so a fit that returns the offset everywhere has that error.
        config = ExperimentConfig(
            "recovery-vs-N", dim=2, degree=3, sparsity=0, sample_grid=(6, 8), trials=2,
            modes=("standard", "gradient-enhanced", "standard-double"),
        )
        for offset, fraction in ((SUCCESS_TOL, 1.0), (SUCCESS_TOL * 1.01, 0.0)):
            monkeypatch.setattr(harness, "fit_sparse_expansion",
                                lambda design, data, **kw: np.full(design.basis.size, offset))
            table = run_recovery_benchmark(config)
            assert [row[2] for row in table.rows] == [fraction] * 6


class TestResultTable:
    def test_csv_rendering(self):
        table = ResultTable(("mode", "N", "value"), (("standard", 10, 0.5), ("ge", 20, 1.0)))
        assert table.to_csv() == "mode,N,value\nstandard,10,0.5\nge,20,1\n"

    def test_json_round_trip(self):
        import json

        table = ResultTable(("a", "b"), ((1, 2.5), (3, 0.1)))
        payload = json.loads(table.to_json())
        assert payload["columns"] == ["a", "b"]
        assert payload["rows"] == [[1, 2.5], [3, 0.1]]

    def test_write_and_format_guard(self, tmp_path):
        table = ResultTable(("x",), ((1,),))
        table.write(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == "x\n1\n"
        with pytest.raises(ValueError, match="format"):
            table.write(tmp_path / "t.bin", fmt="bin")


class TestFit:
    def test_exact_recovery_both_paths(self):
        basis = PceBasis.legendre(2, 6)
        rng = np.random.default_rng(3)
        coeffs = np.zeros(basis.size)
        coeffs[[0, 5, 11]] = [1.0, -0.8, 0.6]
        batch = sample(Measure.chebyshev(), 2, 30, seed=42)
        values = basis.matrix(batch.points) @ coeffs
        grads = np.column_stack(
            [basis.gradient_matrix(batch.points, a) @ coeffs for a in range(2)]
        )
        design = assemble_gradient_enhanced(basis, batch, (0, 1))
        standard = fit_sparse_expansion(design.values_only(), values, opt_tol=1e-9)
        enhanced = fit_sparse_expansion(design, design.stack(values, grads), opt_tol=1e-9)
        np.testing.assert_allclose(standard, coeffs, atol=1e-6)
        np.testing.assert_allclose(enhanced, coeffs, atol=1e-6)

    def test_hermite_gradient_fit_recovers_sparse_coefficients(self):
        # d=2, degree 6: 28 terms; 12 Gaussian samples with both partial
        # derivatives give 36 rows, and every 3-sparse expansion must come back.
        basis = PceBasis(Measure.gaussian(), 2, 6)
        assert basis.size == 28
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            coeffs = np.zeros(basis.size)
            coeffs[rng.choice(basis.size, size=3, replace=False)] = rng.standard_normal(3)
            batch = sample(Measure.gaussian(), 2, 12, seed=seed)
            values = basis.matrix(batch.points) @ coeffs
            grads = np.column_stack(
                [basis.gradient_matrix(batch.points, a) @ coeffs for a in range(2)]
            )
            design = assemble_gradient_enhanced(basis, batch, (0, 1))
            fitted = fit_sparse_expansion(design, design.stack(values, grads), epsilon=0.0)
            worst = max(worst, float(np.abs(fitted - coeffs).max()))
        assert worst <= 1e-8

    def test_data_must_match_the_design_rows(self):
        basis = PceBasis.legendre(2, 3)
        design = assemble_gradient_enhanced(basis, sample(Measure.chebyshev(), 2, 6, seed=1))
        with pytest.raises(ValueError, match="one datum per design row"):
            fit_sparse_expansion(design, np.ones(6))

    def test_default_epsilon_tracks_data_norm(self):
        basis = PceBasis.legendre(1, 3)
        batch = sample(Measure.chebyshev(), 1, 12, seed=1)
        values = basis.matrix(batch.points) @ np.array([0.0, 1.0, 0.0, 0.0])
        fitted = fit_sparse_expansion(assemble_gradient_enhanced(basis, batch, ()), values,
                                      epsilon=None)
        assert abs(fitted[1] - 1.0) < 1e-4


class TestRecoveryBenchmark:
    def test_zero_sparsity_always_succeeds(self):
        config = ExperimentConfig(
            "recovery-vs-N", dim=2, degree=4, sparsity=0, sample_grid=(5, 8),
            trials=3, modes=("standard", "gradient-enhanced", "standard-double"),
        )
        table = run_recovery_benchmark(config)
        assert table.columns == ("mode", "N", "success_fraction")
        assert len(table.rows) == 6
        assert all(row[2] == 1.0 for row in table.rows)

    def test_overdetermined_consistent_always_succeeds(self):
        # N(1+d) rows with full column rank reproduce any s-sparse vector.
        config = ExperimentConfig(
            "recovery-vs-N", dim=2, degree=4, sparsity=3, sample_grid=(15,),
            trials=5, modes=("gradient-enhanced",),
        )
        table = run_recovery_benchmark(config)
        assert all(row[2] == 1.0 for row in table.rows)

    def test_sparsity_equal_to_basis_size(self):
        # All 15 coefficients are nonzero, so recovery needs 15 independent
        # rows: 15 values give a square system, 8 values cannot fix 15
        # unknowns, and 8 points with both gradient components give 24 rows.
        config = ExperimentConfig(
            "recovery-vs-N", dim=2, degree=4, sparsity=15, sample_grid=(15, 8), trials=5,
            modes=("standard", "gradient-enhanced"),
        )
        table = run_recovery_benchmark(config)
        assert table.rows == (
            ("standard", 15, 1.0), ("standard", 8, 0.0),
            ("gradient-enhanced", 15, 1.0), ("gradient-enhanced", 8, 1.0),
        )

    def test_gradient_mode_beats_standard_when_underdetermined(self):
        config = ExperimentConfig(
            "recovery-vs-N", dim=2, degree=8, sparsity=4, sample_grid=(20,), trials=10,
        )
        table = run_recovery_benchmark(config)
        fractions = {row[0]: row[2] for row in table.rows}
        assert fractions["gradient-enhanced"] >= 0.9
        assert fractions["gradient-enhanced"] >= fractions["standard"]

    def test_criterion07_solves_match_dual_oracle(self, monkeypatch):
        # The first trials of acceptance criterion 07 (231 columns, s=8) at the
        # sample counts where recovery switches on: standard mode at N=35,
        # gradient-enhanced at N=20. Each solve must agree with the dual-LP
        # oracle, and each counted success must be exact, not just under
        # SUCCESS_TOL, so that success fractions do not measure solver slack.
        config = ExperimentConfig(
            kind="recovery-vs-N", dim=2, degree=20, sparsity=8, sample_grid=(20, 35), trials=12
        )
        basis = PceBasis(Measure.uniform(), 2, 20)
        assert basis.size == 231
        solves = []

        def recording_solve(spec):
            result = l1solver.solve(spec)
            solves.append((spec, result))
            return result

        monkeypatch.setattr(harness, "solve", recording_solve)
        runs = []
        fit_grid = harness.fit_grid

        def recording_grid(*args):
            runs.append(fit_grid(*args))
            return runs[-1]

        monkeypatch.setattr(harness, "fit_grid", recording_grid)
        run_recovery_benchmark(config)
        # errors[trial][grid point][mode]: the error_inf of each fit.
        (errors,) = runs
        assert [[len(cell) for cell in trial] for trial in errors] == [[2, 2]] * 12
        assert len(solves) == 12 * 2 * 2
        for spec, result in solves:
            oracle = basis_pursuit_dual(spec.matrix, spec.rhs)
            l1 = np.abs(oracle).sum()
            assert result.converged
            assert abs(np.abs(result.coefficients).sum() - l1) <= 1e-10 * l1
            np.testing.assert_allclose(
                result.coefficients, oracle, rtol=0, atol=1e-9 * np.abs(oracle).max()
            )
        for error in (e for trial in errors for cell in trial for e in cell):
            if error <= SUCCESS_TOL:
                assert error <= 1e-8
        for mode, n in (("standard", 35), ("gradient-enhanced", 20)):
            gi, k = config.sample_grid.index(n), config.modes.index(mode)
            assert any(trial[gi][k] <= SUCCESS_TOL for trial in errors)

    def test_sparsity_grid_variant(self):
        config = ExperimentConfig(
            "recovery-vs-s", dim=2, degree=4, sparsity_grid=(0, 2), sample_count=20,
            trials=3, modes=("standard",),
        )
        table = run_recovery_benchmark(config)
        assert table.columns == ("mode", "s", "success_fraction")
        assert table.rows[0][:2] == ("standard", 0)
        assert table.rows[0][2] == 1.0

    def test_reproducible(self):
        config = ExperimentConfig(
            "recovery-vs-N", dim=2, degree=5, sparsity=2, sample_grid=(10, 14), trials=4,
        )
        first = run_recovery_benchmark(config).to_csv()
        again = run_recovery_benchmark(config).to_csv()
        assert first == again

    def test_zero_fraction_matches_standard_mode(self):
        config = ExperimentConfig(
            "recovery-vs-N", dim=2, degree=5, sparsity=3, sample_grid=(12, 18),
            trials=4, gradient_fraction=0.0,
        )
        table = run_recovery_benchmark(config)
        by_mode = {}
        for mode, n, fraction in table.rows:
            by_mode.setdefault(mode, []).append((n, fraction))
        assert by_mode["standard"] == by_mode["gradient-enhanced"]

    def test_kind_and_sparsity_guards(self):
        with pytest.raises(ValueError, match="kind"):
            run_recovery_benchmark(ExperimentConfig("mic-sweep"))
        with pytest.raises(ValueError, match="sparsity exceeds"):
            run_recovery_benchmark(
                ExperimentConfig("recovery-vs-N", dim=1, degree=2, sparsity=10, trials=1)
            )


    def test_failed_fit_propagates(self, monkeypatch):
        # A fit that raises ends the run; it is not scored as a failed trial.
        def failing_fit(design, data, **kw):
            raise ValueError("fit failed")

        monkeypatch.setattr(harness, "fit_sparse_expansion", failing_fit)
        config = ExperimentConfig("recovery-vs-N", dim=2, degree=3, sparsity=1,
                                  sample_grid=(8,), trials=1)
        with pytest.raises(ValueError, match="fit failed"):
            run_recovery_benchmark(config)


def table_passes_per_grid_point(monkeypatch, run, config):
    """PolynomialFamily.eval_table calls that each grid point of a run adds.

    One run over one grid point and one over four (two trials of two points)
    differ by three grid points; building the basis and anything else done
    once per run cancel out.
    """
    calls = []
    eval_table = PolynomialFamily.eval_table

    def counting(family, *args):
        calls.append(args)
        return eval_table(family, *args)

    monkeypatch.setattr(PolynomialFamily, "eval_table", counting)
    run(dataclasses.replace(config, sample_grid=(6,), trials=1))
    once = len(calls)
    run(dataclasses.replace(config, sample_grid=(6, 9), trials=2))
    return (len(calls) - 2 * once) / 3


class TestTablePasses:
    @pytest.mark.parametrize("modes, passes", [
        (("standard", "gradient-enhanced"), 1),
        (("standard", "gradient-enhanced", "standard-double"), 2),
    ])
    def test_recovery_grid_point(self, monkeypatch, modes, passes):
        config = ExperimentConfig("recovery-vs-N", dim=2, degree=4, sparsity=2, modes=modes)
        assert table_passes_per_grid_point(monkeypatch, run_recovery_benchmark, config) == passes

    def test_rmse_grid_point(self, monkeypatch):
        config = ExperimentConfig("rmse", dim=2, degree=4)
        assert table_passes_per_grid_point(monkeypatch, run_rmse_benchmark, config) == 1


class TestMicSweep:
    def test_table_and_weighting_effect(self):
        config = ExperimentConfig(
            "mic-sweep", dim=2, degree=10, sample_grid=(40, 60), trials=3,
        )
        table = run_mic_sweep(config)
        assert table.columns == ("matrix_id", "N", "mic")
        assert [row[0] for row in table.rows] == ["values"] * 2 + ["stacked"] * 2 + [
            "preconditioned"
        ] * 2
        values = {(row[0], row[1]): row[2] for row in table.rows}
        for n in (40, 60):
            assert 0.0 < values[("preconditioned", n)] < values[("stacked", n)]

    def test_preconditioned_entry_is_the_mic_of_phi_hat(self, monkeypatch):
        # The coherence-sweep benchmark's config; the sweep never forms phi_hat itself.
        config = ExperimentConfig("mic-sweep", dim=3, degree=10, sample_grid=(50, 100, 200, 400),
                                  trials=1, seed=11)
        expected = {}

        def recording(*args):
            # Read before the sweep weights the design's stacked buffer in place. Keyed by
            # N: the grid points may run on several threads, in any order.
            design = assemble_gradient_enhanced(*args)
            expected[len(args[1])] = mic(design.phi_hat)
            return design

        monkeypatch.setattr(harness, "assemble_gradient_enhanced", recording)
        # With one trial each table entry is that trial's coherence itself.
        table = run_mic_sweep(config)
        preconditioned = {n: value for matrix_id, n, value in table.rows
                          if matrix_id == "preconditioned"}
        assert len(preconditioned) == len(expected) == 4
        for n, value in preconditioned.items():
            assert value == pytest.approx(expected[n], rel=0, abs=1e-14)

    def test_grid_point_holds_one_stacked_buffer(self):
        # The coherence-sweep benchmark's largest grid point: N=400, all directions.
        basis = PceBasis.legendre(3, 10)
        n, dirs = 400, (0, 1, 2)
        stacked_bytes = (1 + len(dirs)) * n * basis.size * 8
        harness._mics(basis, n, 1, dirs)  # a warm-up call outside the trace
        tracemalloc.start()
        try:
            harness._mics(basis, n, 2, dirs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * stacked_bytes

    def test_kind_guard(self):
        with pytest.raises(ValueError, match="kind"):
            run_mic_sweep(ExperimentConfig("rmse"))


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# The coherence-sweep benchmark's config, at three trials.
_COHERENCE = ExperimentConfig("mic-sweep", dim=3, degree=10, sample_grid=(50, 100, 200, 400),
                              trials=3, seed=11)


def _host(monkeypatch, cpus, **blas):
    """A host of ``cpus`` CPUs whose BLAS variables are exactly ``blas``.

    BLAS read its variables when it loaded, so only the worker rule sees them.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)


def _pool_sizes(monkeypatch) -> list[int]:
    """The worker count of each thread pool opened from now on, in order."""
    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    return sizes


class TestSweepWorkers:
    """The sweep runs its grid points on the CPUs that BLAS's own threads leave idle."""

    @pytest.mark.parametrize("blas, tasks, workers", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),  # capped at the task count
        ({"OPENBLAS_NUM_THREADS": "2"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "4"}, 4, 1),
        ({}, 4, 1),  # unset: BLAS takes every CPU
        ({"OPENBLAS_NUM_THREADS": "one"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "2"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1"}, 4, 1),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4, 2),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 1),
        ({"OMP_NUM_THREADS": "1"}, 4, 2),
    ])
    def test_worker_rule(self, monkeypatch, blas, tasks, workers):
        _host(monkeypatch, 2, **blas)
        assert harness._sweep_workers(tasks) == workers

    def test_cpu_count_without_affinity(self, monkeypatch):
        _host(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert harness._sweep_workers(8) == 3

    @pytest.mark.parametrize("config", [ExperimentConfig("mic-sweep", trials=3), _COHERENCE],
                             ids=["trials3", "coherence-sweep"])
    def test_bytes_do_not_depend_on_the_worker_count(self, monkeypatch, config):
        sizes = _pool_sizes(monkeypatch)
        csv = {}
        for cpus in (1, 2):
            _host(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
            csv[cpus] = run_mic_sweep(config).to_csv()
        assert sizes == [1, 2]
        assert csv[1] == csv[2]

    def test_one_worker_runs_every_grid_point_on_one_thread(self, monkeypatch):
        _host(monkeypatch, 2, OPENBLAS_NUM_THREADS="2")
        sizes = _pool_sizes(monkeypatch)
        callers = set()

        def recording(basis, count, stream):
            callers.add(threading.get_ident())
            return draw(basis, count, stream)

        monkeypatch.setattr(harness, "draw", recording)
        run_mic_sweep(_COHERENCE)
        assert sizes == [1]
        # One pool thread, while the caller waits.
        assert len(callers) == 1 and threading.get_ident() not in callers

    def test_threads_end_with_the_sweep(self, monkeypatch):
        _host(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
        baseline = threading.active_count()
        run_mic_sweep(_COHERENCE)
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failing_grid_points_raise_the_sequential_exception(self, monkeypatch, cpus):
        _host(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
        baseline = threading.active_count()
        # Trial 0's N=100 is the first failure in (trial, grid point) order; every N=400,
        # which the threads take first, fails too.
        first = split_stream(split_stream(_COHERENCE.seed, 0), 2)

        def failing(basis, count, stream):
            if count == 400 or stream == first:
                raise ValueError(f"grid point N={count} on stream {stream}")
            return draw(basis, count, stream)

        monkeypatch.setattr(harness, "draw", failing)
        with pytest.raises(ValueError, match=f"^grid point N=100 on stream {first}$"):
            run_mic_sweep(_COHERENCE)
        assert threading.active_count() == baseline

    def test_base_exception_on_a_worker_thread_reaches_the_caller(self, monkeypatch):
        _host(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
        baseline = threading.active_count()
        caller = threading.get_ident()
        first = split_stream(split_stream(_COHERENCE.seed, 0), 1)

        def exiting(basis, count, stream):
            if threading.get_ident() != caller:
                raise SystemExit(f"grid point N={count} on stream {stream}")
            return draw(basis, count, stream)

        monkeypatch.setattr(harness, "draw", exiting)
        with pytest.raises(SystemExit, match=f"^grid point N=50 on stream {first}$"):
            run_mic_sweep(_COHERENCE)
        assert threading.active_count() == baseline

    def test_grid_points_not_started_are_dropped_after_a_failure(self, monkeypatch):
        _host(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
        baseline = threading.active_count()
        # Six grid points of equal N: the pool takes them in trial order.
        config = ExperimentConfig("mic-sweep", dim=2, degree=3, sample_grid=(20,), trials=6)
        trial_of = {split_stream(split_stream(config.seed, t), 1): t for t in range(6)}
        release = threading.Event()
        started = []

        class ReleasingPool(concurrent.futures.ThreadPoolExecutor):
            # Held grid points go on once the pool has dropped those not yet started.
            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                release.set()
                super().shutdown(wait=wait)

        def held(basis, count, stream):
            started.append(trial_of[stream])
            if trial_of[stream] == 0:
                raise ValueError("trial 0 fails")
            release.wait(timeout=10)
            return draw(basis, count, stream)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", ReleasingPool)
        monkeypatch.setattr(harness, "draw", held)
        with pytest.raises(ValueError, match="^trial 0 fails$"):
            run_mic_sweep(config)
        # Trial 0, and at most the one grid point each of the two workers took next.
        assert 0 in started and set(started) <= {0, 1, 2}
        assert release.is_set() and threading.active_count() == baseline


class TestRmseBenchmark:
    def test_exact_polynomial_target_recovers_to_solver_accuracy(self):
        config = ExperimentConfig(
            "rmse", dim=2, degree=8, sample_grid=(25,), trials=3, target="f1",
        )
        table = run_rmse_benchmark(config)
        assert table.columns == ("mode", "N", "rmse")
        results = {row[0]: row[2] for row in table.rows}
        assert results["gradient-enhanced"] <= 1e-6

    def test_target_override_and_guards(self):
        config = ExperimentConfig("rmse", dim=1, degree=4, sample_grid=(30,), trials=2)
        table = run_rmse_benchmark(dataclasses.replace(config, target="f3"))
        assert all(math.isfinite(row[2]) for row in table.rows)
        assert table.to_csv() != run_rmse_benchmark(config).to_csv()
        with pytest.raises(ValueError, match="target"):
            dataclasses.replace(config, target="f9")
        with pytest.raises(ValueError, match="kind"):
            run_rmse_benchmark(ExperimentConfig("mic-sweep"))
        with pytest.raises(ValueError, match="defined on"):
            run_rmse_benchmark(ExperimentConfig("rmse", measure="gaussian", trials=1))

    def test_reproducible(self):
        config = ExperimentConfig(
            "rmse", dim=1, degree=5, sample_grid=(12,), trials=2, target="f2",
        )
        assert run_rmse_benchmark(config).to_csv() == run_rmse_benchmark(config).to_csv()


def test_sampling_measure_pairing():
    assert sampling_measure(Measure.uniform()) == Measure.chebyshev()
    assert sampling_measure(Measure.chebyshev()) == Measure.chebyshev()
    assert sampling_measure(Measure.gaussian()) == Measure.gaussian()


@pytest.mark.parametrize("measure,paired", [(Measure.uniform(), Measure.chebyshev()),
                                            (Measure.gaussian(), Measure.gaussian())])
def test_fit_modes_draws_from_the_paired_measure(measure, paired, monkeypatch):
    basis = PceBasis(measure, 3, 3)
    n, dirs, seed = 7, (0, 2), 11
    designs = []

    def recording_fit(design, data, epsilon, opt_tol):
        designs.append(design)
        return np.zeros(basis.size)

    monkeypatch.setattr(harness, "fit_sparse_expansion", recording_fit)
    harness.fit_modes(basis, ("standard-double", "gradient-enhanced"), n, dirs, seed,
                      lambda design: np.zeros(design.w.shape), 0.0, 1e-6)
    double, enhanced = designs
    expected = sample(paired, 3, (1 + len(dirs)) * n, seed)
    drawn = draw(basis, (1 + len(dirs)) * n, seed)
    assert drawn.measure == double.batch.measure == enhanced.batch.measure == paired
    assert drawn.points.tobytes() == expected.points.tobytes()
    assert double.batch.points.tobytes() == expected.points.tobytes()
    assert enhanced.batch.points.tobytes() == expected.points[:n].tobytes()
    assert enhanced.directions == dirs


def test_matrix_ids_frozen():
    assert MATRIX_IDS == ("values", "stacked", "preconditioned")


class TestStreamRule:
    """Every driver draws grid point gi of trial t on split_stream(split_stream(seed, t), gi + 1).

    Each run has 2 trials of 2 grid points; every grid point makes one draw,
    of (1 + q) * N points for the fitting drivers, where q is the number of
    gradient directions, and of N points for the sweep.
    """

    @pytest.mark.parametrize("run, seed, counts", [
        (lambda seed: run_recovery_benchmark(ExperimentConfig(
            "recovery-vs-N", dim=2, degree=4, sparsity=2, sample_grid=(8, 12), trials=2,
            seed=seed)), 3, [24, 36]),
        (lambda seed: run_recovery_benchmark(ExperimentConfig(
            "recovery-vs-s", dim=2, degree=4, sparsity_grid=(1, 2), sample_count=10, trials=2,
            seed=seed)), 4, [30, 30]),
        (lambda seed: run_rmse_benchmark(ExperimentConfig(
            "rmse", dim=2, degree=4, sample_grid=(8, 12), gradient_fraction=0.5, trials=2,
            seed=seed)), 5, [16, 24]),
        (lambda seed: run_mic_sweep(ExperimentConfig(
            "mic-sweep", dim=2, degree=4, sample_grid=(8, 12), trials=2, seed=seed)),
         6, [8, 12]),
        # bvp fits every direction: q = dim = 2.
        (lambda seed: run_bvp_benchmark(DiffusionModel(dim=2, cells=64), 2, (5, 7), seed=seed,
                                        trials=2), 7, [15, 21]),
    ], ids=["recovery-vs-N", "recovery-vs-s", "rmse", "mic-sweep", "bvp"])
    def test_grid_point_streams(self, monkeypatch, run, seed, counts):
        draws = []

        def recording(basis, count, stream):
            draws.append((count, stream))
            return draw(basis, count, stream)

        monkeypatch.setattr(harness, "draw", recording)
        run(seed)
        # The sweep may draw on several threads, in any order: compare the pairs sorted.
        assert len(draws) == 4
        assert sorted(draws) == sorted((counts[gi], split_stream(split_stream(seed, t), gi + 1))
                                       for t in range(2) for gi in range(2))
