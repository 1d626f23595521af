"""The traced benchmark run can still hook every name it wraps.

``perfbench/layers.py`` rebinds public functions and methods of the package
by name, so deleting or renaming one of them breaks ``perfbench/run.py
--trace 1``. Installing and removing its hooks here keeps that contract in
the main test suite. Running each workload's set-up statement and one
operation does the same for the names and drivers every benchmark run calls.
Running that operation traced does the same for what the observers read.
"""

import importlib
import pkgutil
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _namespaces():
    # `import gradpce` loads no module, so every one is imported here.
    import gradpce
    from gradpce.pce import PceBasis
    from gradpce.polynomials import PolynomialFamily

    modules = [importlib.import_module(f"gradpce.{info.name}")
               for info in pkgutil.iter_modules(gradpce.__path__)]
    return [gradpce, *modules, PceBasis, PolynomialFamily]


def _snapshot():
    return {(id(ns), key): value for ns in _namespaces() for key, value in vars(ns).items()}


def test_layers_install_and_uninstall_restore_every_namespace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracing import Tracer

    import gradpce
    from gradpce import harness

    before = _snapshot()
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert harness.fit_sparse_expansion.__wrapped__ is before[
            (id(harness), "fit_sparse_expansion")]
        assert gradpce.fit_sparse_expansion is harness.fit_sparse_expansion
    finally:
        tracer.uninstall()
    assert _snapshot() == before


def test_every_workload_sets_up_and_runs_one_checked_operation(monkeypatch):
    # The benchmark times each set-up statement in a fresh interpreter and then
    # runs seeded operations; one of each here fails on a renamed name or a
    # broken driver before any benchmark run does.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    import gradpce
    from gradpce.sampling import split_stream

    for workload in workloads.WORKLOADS.values():
        exec(workload.setup, {"gradpce": gradpce})
        table = workload.operation(split_stream(1, 0))
        assert workload.check_table(table) == [], workload.name


def test_every_workload_traced_writes_the_untraced_csv(monkeypatch):
    # The traced run's observers read what the package returns (solve results,
    # solve specs, the design_matrices tuple); a change that breaks one fails
    # here rather than only in a benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads
    from tracing import Tracer

    from gradpce.sampling import split_stream

    for workload in workloads.WORKLOADS.values():
        seed = split_stream(1, 0)
        untraced = workload.operation(seed).to_csv()
        tracer = Tracer()
        with layers.traced(tracer):
            traced = workload.operation(seed).to_csv()
        assert traced == untraced, workload.name
        metrics, _ = layers.summarize(tracer, 0.0)
        assert metrics["design.assemble_calls"] > 0, workload.name
