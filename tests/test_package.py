"""The package's public surface."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import types

import infosep
from infosep.dist import ConditionalKernel, DeterministicMap
from infosep.modal import SufficiencyVerdict

#: names deleted from the package; the Wyner grid oracle lives in tests/oracles.py
REMOVED = ("CdkMatrix", "cdk_matrix", "reconstruct_joint",
           "maximal_correlation", "InconsistentDecomposition",
           "wyner_grid_oracle", "NoFeasiblePoint", "_ib_information",
           "RefinementSpec", "refine_embedding", "SolverConfig")


def submodules():
    return [importlib.import_module(f"infosep.{m.name}")
            for m in pkgutil.iter_modules(infosep.__path__)]


def test_all_resolves_to_non_modules():
    namespace = {}
    exec("from infosep import *", namespace)  # fails on a name that does not resolve
    del namespace["__builtins__"]
    assert namespace and sorted(namespace) == sorted(infosep.__all__)
    for name, value in namespace.items():
        assert not isinstance(value, types.ModuleType), name


def test_removed_names_are_gone():
    assert not set(REMOVED) & set(infosep.__all__)
    for module in [infosep, *submodules()]:
        for name in REMOVED:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(DeterministicMap, "refines")
    assert not hasattr(ConditionalKernel, "cols")
    assert not {"tol", "cmi_s", "cmi_t"} & {
        f.name for f in dataclasses.fields(SufficiencyVerdict)}
    assert "max_iters" not in inspect.signature(infosep.wyner_solve).parameters


def test_sufficiency_verdict_fields():
    assert [f.name for f in dataclasses.fields(SufficiencyVerdict)] == [
        "sufficient", "max_ratio_gap", "reduced"]


def unused_imports(path: pathlib.Path) -> list:
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # a package __init__ imports its exports, so it is left out
    dirs = (pathlib.Path(infosep.__file__).parent, pathlib.Path(__file__).parent)
    found = {str(path): names
             for d in dirs for path in sorted(d.glob("*.py"))
             if path.name != "__init__.py" and (names := unused_imports(path))}
    assert not found
