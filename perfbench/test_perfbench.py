"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from stats import gmean, percentile  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 40] > a1 [15, 25]; root > b [50, 70]
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 70]
    assert self_times(parents, starts, ends) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    # Children [10, 30] and [20, 50] overlap; [90, 130] sticks out of [0, 100].
    parents = [-1, 0, 0, 0]
    starts = [0, 10, 20, 90]
    ends = [100, 30, 50, 130]
    own = self_times(parents, starts, ends)
    assert own[0] == 100 - 40 - 10
    assert own[1:] == [20, 30, 40]


def test_self_times_of_recorded_spans_add_up_to_the_root():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: sum(range(200)), "leaf")
    middle = tracer.wrap(lambda: leaf() + leaf(), "middle")
    top = tracer.wrap(lambda: middle() + leaf(), "top")
    tracer.op_id = 7
    assert top() == 3 * sum(range(200))
    assert [tracer.names[i] for i in tracer.name] == ["top", "middle", "leaf", "leaf", "leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 1, 0]
    assert set(tracer.op) == {7}
    own = self_times(tracer.parent, tracer.start, tracer.end)
    assert all(t >= 0 for t in own)
    assert sum(own) == tracer.end[0] - tracer.start[0]


def test_exception_closes_span_and_is_counted():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.counts["boom.raised"] == 1
    assert tracer.end[0] >= tracer.start[0] > 0
    assert tracer._stack == [-1]


# -- statistics --------------------------------------------------------------


def test_gmean():
    assert gmean([1.0, 100.0]) == pytest.approx(10.0)
    assert gmean([1e-8, 1e-6, 1e-4]) == pytest.approx(1e-6)
    assert gmean(x for x in [4.0]) == pytest.approx(4.0)
    for bad in ([], [1.0, 0.0], [2.0, -1.0], [float("nan")]):
        with pytest.raises(ValueError):
            gmean(bad)


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    for size in (1, 2, 5, 10, 37):
        data = rng.standard_normal(size)
        for q in (0, 10, 25, 50, 90, 100):
            assert percentile(data, q) == pytest.approx(np.percentile(data, q), abs=1e-12)
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- the reference computation -------------------------------------------------


def test_reference_does_fixed_work_without_gradpce():
    import calibrate

    assert calibrate.reference_work() == calibrate.reference_work()
    assert calibrate.reference_seconds() > 0.0
    # A change to the package must not be able to move the yardstick.
    assert not any(getattr(v, "__module__", getattr(v, "__name__", "")).startswith("gradpce")
                   for v in vars(calibrate).values() if v is not None)


# -- wrapping and restoration ------------------------------------------------


def _namespaces():
    from gradpce.pce import PceBasis
    from gradpce.polynomials import PolynomialFamily

    modules = [m for key, m in sys.modules.items()
               if key == "gradpce" or key.startswith("gradpce.")]
    return modules + [PceBasis, PolynomialFamily]


def _snapshot():
    return {(id(ns), key): value for ns in _namespaces() for key, value in vars(ns).items()}


def _tiny_fit():
    from gradpce import harness
    from gradpce.harness import ExperimentConfig

    config = ExperimentConfig(kind="recovery-vs-N", dim=1, degree=6, sample_grid=(8,),
                              sparsity=2, trials=1, epsilon=0.0, seed=5)
    return harness.run_recovery_benchmark(config)


def test_traced_run_wraps_every_alias_and_restores_every_name():
    from gradpce import harness, l1solver
    from gradpce.pce import PceBasis

    before = _snapshot()
    original_solve = l1solver.solve
    tracer = Tracer()
    with layers.traced(tracer):
        assert harness.solve is l1solver.solve is not original_solve
        assert harness.solve.__wrapped__ is original_solve
        assert PceBasis.matrix is not before[(id(PceBasis), "matrix")]
        table = _tiny_fit()
    assert _snapshot() == before
    assert len(tracer) > 0
    assert table.to_csv() == _tiny_fit().to_csv()
    per_layer, share = layers.summarize(tracer, 0.0)
    assert set(per_layer) == set(layers.PER_LAYER)
    assert per_layer["l1solver.solves"] == 2
    assert per_layer["l1solver.projections"] > 0
    assert per_layer["sampling.calls"] == 1
    assert sum(share.values()) == pytest.approx(1.0)


def test_restores_names_when_the_block_raises():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with layers.traced(Tracer()):
            raise RuntimeError("stop")
    assert _snapshot() == before


# -- BENCHMARK.json agrees with the code ---------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
