"""The package's public surface."""

import dataclasses
import importlib
import pkgutil
import types

import infosep
from infosep.dist import ConditionalKernel, DeterministicMap
from infosep.harness import SolverConfig
from infosep.modal import SufficiencyVerdict

#: names that only tests used; the Wyner grid oracle lives in tests/oracles.py
REMOVED = ("CdkMatrix", "cdk_matrix", "reconstruct_joint",
           "maximal_correlation", "InconsistentDecomposition",
           "wyner_grid_oracle", "NoFeasiblePoint")


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
    assert "tol" not in {f.name for f in dataclasses.fields(SufficiencyVerdict)}


def test_solver_config_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "seed", "restarts", "unit", "wyner_card", "wyner_max_iters"]
