"""Every module of the package uses each name that it imports and each private
name that it defines at module level; importing the package loads none of its
modules, an exported name loads only its own, and a benchmark set-up loads
neither the solver nor the drivers; importing the drivers loads neither a
thread pool, logging nor json; every source file parses with the oldest
supported grammar."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradpce"
# The package, its tests and the benchmark, which this module only reads.
SOURCES = sorted(path for part in ("src", "tests", "perfbench")
                 for path in (ROOT / part).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads.

    A name listed in ``__all__`` counts as read: the package re-exports it.
    ``from __future__`` imports bind no name.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = "import math\nfrom numpy import ones, zeros as z\n__all__ = ['ones']\n"
    assert unused_imports(source) == ["math (line 1)", "z (line 2)"]


def unread_private_names(source: str) -> list[str]:
    """Module-level private functions, classes and constants that the module never reads.

    A name counts as read only outside its own definition, so a private
    function that only calls itself is unread.
    """
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node

    def reads(root, name):
        return sum(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == name
                   for n in ast.walk(root))

    return sorted(
        f"{name} (line {node.lineno})" for name, node in defined.items()
        if name.startswith("_") and not name.startswith("__")
        and reads(tree, name) == reads(node, name)
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def test_finds_an_unread_private_name():
    source = (
        "_USED, _UNUSED = 1, 2\n"
        "_TYPED: int = 3\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Helper:\n    pass\n"
        "def public():\n    return _USED + _TYPED\n"
        "__all__ = ['public']\n"
    )
    assert unread_private_names(source) == [
        "_Helper (line 5)", "_UNUSED (line 1)", "_recursive (line 3)"]


# Names the benchmark's tracer wraps in their modules, with the signatures it calls.
UNEXPORTED = {
    "design.assemble_gradient_enhanced":
        "(basis: 'PceBasis', batch: 'SampleBatch', directions=None) -> 'GradientDesign'",
    "design.assemble_standard":
        "(basis: 'PceBasis', batch: 'SampleBatch') -> 'tuple[np.ndarray, np.ndarray]'",
    "l1solver.project_l1_ball": "(v: 'np.ndarray', radius: 'float') -> 'np.ndarray'",
    "adjoint_bvp.solve_bvp": "(model: 'DiffusionModel', xi) -> 'BvpSolution'",
    "adjoint_bvp.build_surrogate":
        "(model: 'DiffusionModel', degree: 'int', n_samples: 'int', "
        "mode: 'str' = 'gradient-enhanced', seed: 'int' = 0) -> 'SurrogateResult'",
}


def test_package_exports_one_name_per_job():
    package = importlib.import_module("gradpce")
    assert len(package.__all__) == 30
    assert all(hasattr(package, name) for name in package.__all__)
    for qualified, signature in UNEXPORTED.items():
        module, name = qualified.split(".")
        assert not hasattr(package, name), name
        function = getattr(importlib.import_module(f"gradpce.{module}"), name)
        assert str(inspect.signature(function)) == signature, name


def _fresh_interpreter(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports the package from src."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          timeout=60, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _loaded_modules(statements: str) -> list[str]:
    """The package's modules loaded after ``import gradpce`` and ``statements``."""
    return ast.literal_eval(_fresh_interpreter(
        f"import sys, gradpce\n{statements}\n"
        "print(sorted(m for m in sys.modules if m.startswith('gradpce.')))"))


def test_import_loads_no_module_of_the_package():
    assert _loaded_modules("") == []


@pytest.mark.parametrize("workload", ["recovery-bp", "coherence-sweep", "bvp-adjoint"])
def test_basis_setup_loads_only_the_basis_modules(monkeypatch, workload):
    # The benchmark times this statement after `import gradpce` in a fresh
    # interpreter. The bvp-adjoint set-up also builds a DiffusionModel, which
    # loads its module but neither the solver nor the drivers.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    model = ["gradpce.adjoint_bvp"] if workload == "bvp-adjoint" else []
    assert _loaded_modules(workloads.WORKLOADS[workload].setup) == [
        *model, "gradpce.checks", "gradpce.pce", "gradpce.polynomials"]


def test_import_loads_no_thread_pool_or_logging():
    # concurrent.futures imports logging; both, and json, cost the drivers' import time.
    assert _fresh_interpreter(
        "import sys, gradpce.harness\n"
        "print(sorted({'concurrent.futures', 'logging', 'json'} & set(sys.modules)))") == "[]"


def test_each_export_is_its_home_modules_name_on_every_use(monkeypatch):
    package = importlib.import_module("gradpce")
    homes = {name: module for module, names in package._EXPORTS.items() for name in names}
    assert sorted(homes) == sorted(package.__all__)
    assert sum(map(len, package._EXPORTS.values())) == len(package.__all__)
    for name, module in homes.items():
        assert getattr(package, name) is getattr(
            importlib.import_module(f"gradpce.{module}"), name), name
        assert name not in vars(package), name
    harness = importlib.import_module("gradpce.harness")
    monkeypatch.setattr(harness, "fit_sparse_expansion", object())
    assert package.fit_sparse_expansion is harness.fit_sparse_expansion
    assert set(package.__all__) <= set(dir(package))


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from gradpce import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(importlib.import_module("gradpce").__all__)


@pytest.mark.parametrize("name", ["solve_bvp", "no_such_name", "harness"])
def test_a_name_the_package_does_not_export_raises_attribute_error(name):
    # A submodule's name raises too, so `from gradpce import harness` imports it.
    package = importlib.import_module("gradpce")
    with pytest.raises(AttributeError, match=f"^module 'gradpce' has no attribute '{name}'$"):
        package.__getattr__(name)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_with_the_python_3_10_grammar(path):
    # pyproject.toml requires Python >= 3.10. This checks the grammar only:
    # it does not show that the code runs on 3.10.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_3_10_grammar_refuses_a_3_11_construct():
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
