"""The package's public surface."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import types

import pytest

import infosep
from infosep.dist import ConditionalKernel, DeterministicMap
from infosep.modal import SufficiencyVerdict

#: names deleted from the package; the Wyner grid oracle and the spectral
#: Gacs-Korner route (with its two tolerances) live in tests/oracles.py
REMOVED = ("CdkMatrix", "cdk_matrix", "reconstruct_joint",
           "maximal_correlation", "InconsistentDecomposition",
           "wyner_grid_oracle", "NoFeasiblePoint", "_ib_information",
           "RefinementSpec", "refine_embedding", "SolverConfig",
           "UNIT_TOL", "FEATURE_GROUP_TOL")


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
    # a name the benchmark still calls; it stays out of the public surface
    assert "gk_via_components" not in infosep.__all__
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


def third_party_imports(paths) -> set:
    """Top-level modules the files import, leaving out stdlib and infosep."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"infosep"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in declared}
    assert third_party_imports((root / "src" / "infosep").glob("*.py")) == names


def test_cli_runs_without_scipy(tmp_path):
    # None in sys.modules makes every import of scipy fail
    path = tmp_path / "dsbs.json"
    path.write_text(json.dumps({"p": [[0.45, 0.05], [0.05, 0.45]]}))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from infosep.cli import main\n"
        f"assert main(['measures', {str(path)!r}, '--restarts', '0']) == 0\n"
        f"assert main(['reduce', {str(path)!r}, '--strict']) == 0\n")
    src = str(pathlib.Path(infosep.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def load_tool(name):
    path = pathlib.Path(__file__).parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_lines_leaves_out_blanks_comments_and_docstrings():
    source = ('"""Module\n\ndocstring."""\n\n# a comment\nX = 1  # code\n\n\n'
              'class A:\n    """One line."""\n\n    def f(self):\n'
              '        """Two\n        lines."""\n        return (X,\n'
              '                """not a docstring""")\n')
    assert load_tool("count_lines").count(source) == (16, 5)


STUB_RUN = """import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.environ["BENCH_ORDER_LOG"], "a") as fh:
    fh.write(os.path.basename(root) + "\\n")
with open(os.path.join(root, "stub.json")) as fh:
    stub = json.load(fh)
print("human-readable lines first")
print(json.dumps({"correct": stub["correct"], "attempted": 10,
                  "failed": stub["failed"],
                  "metrics": {"pass_s": {"value": stub["pass_s"], "unit": "s"}}}))
"""


def make_checkout(root, pass_s, correct=True, failed=0):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "stub.json").write_text(json.dumps(
        {"pass_s": pass_s, "correct": correct, "failed": failed}))
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    return str(root)


def test_bench_pairs_alternates_and_summarizes(tmp_path, monkeypatch, capsys):
    order = tmp_path / "order.log"
    monkeypatch.setenv("BENCH_ORDER_LOG", str(order))
    parent = make_checkout(tmp_path / "parent", 2.0)
    change = make_checkout(tmp_path / "change", 1.0)
    tool = load_tool("bench_pairs")
    assert tool.main([parent, change, "--workload", "w", "--pairs", "4",
                      "--seed", "3"]) == 0
    assert order.read_text().split() == ["parent", "change", "change",
                                         "parent"] * 2
    out = capsys.readouterr().out
    assert "pass_s       parent 2 [2, 2]  change 1 [1, 1]  x0.500  " \
           "change wins 4/4" in out
    assert "incorrect runs: parent 0, change 0" in out
    # the tool itself writes nothing into a checkout
    assert sorted(p.name for p in (tmp_path / "change").rglob("*")) == [
        "BENCHMARK.json", "perfbench", "run.py", "stub.json"]


def test_bench_pairs_fails_on_an_incorrect_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BENCH_ORDER_LOG", str(tmp_path / "order.log"))
    parent = make_checkout(tmp_path / "parent", 2.0)
    change = make_checkout(tmp_path / "change", 1.0, correct=False, failed=1)
    tool = load_tool("bench_pairs")
    assert tool.main([parent, change, "--workload", "w", "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert "failed calls: parent 0, change 2; incorrect runs: parent 0, " \
           "change 2" in out


STUB_HARNESS = """class Joint:
    def __init__(self, n):
        self.p = [[1.0 / (n * n)] * n] * n


def dsbs(flip):
    return Joint(2)


def random_joint(nx, ny, seed=0):
    return Joint(nx)


def random_refinement(base, nx, ny, seed=0):
    return Joint(min(nx, 4)), None, None
"""

STUB_CLI = """import datetime, json, os, sys
root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(root, "stub.json")) as fh:
    stub = json.load(fh)
command = sys.argv[1]
if command == "measures":
    print(json.dumps({"timestamp": datetime.datetime.now().isoformat(),
                      "input": {"path": root, "nx": 2},
                      "measures": {"wyner": {"value": stub["wyner"]},
                                   "sigmas": [0.8, 0.1]}}))
elif command == "reduce":
    with open("reduced.json", "w") as fh:
        json.dump({"p": [[0.5, 0.5]]}, fh)
    with open("maps.json", "w") as fh:
        json.dump({"s": [0, 0], "t": stub["t"]}, fh)
elif command == "verify":
    sys.stderr.write("error: " + stub["error"] + "\\n")
    sys.exit(2)
else:
    print("beta,i_ux\\n1.5," + repr(stub["i_ux"]) + "\\n# envelope,0,0.5")
"""


def make_cli_checkout(root, wyner=0.5, t=(0, 1), error="stub", i_ux=0.25):
    package = root / "src" / "infosep"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "harness.py").write_text(STUB_HARNESS)
    (package / "cli.py").write_text(STUB_CLI)
    (root / "stub.json").write_text(json.dumps(
        {"wyner": wyner, "t": list(t), "error": error, "i_ux": i_ux}))
    return str(root)


def test_same_outputs_ignores_timestamp_and_input_path(tmp_path, capsys):
    parent = make_cli_checkout(tmp_path / "parent")
    change = make_cli_checkout(tmp_path / "change")
    assert load_tool("same_outputs").main([parent, change]) == 0
    out = capsys.readouterr().out
    assert "ref400  verify    exit parent 2 change 2" in out
    assert "0 fields differ" in out
    # the tool writes nothing into a checkout
    assert sorted(p.name for p in (tmp_path / "change").rglob("*")) == [
        "__init__.py", "cli.py", "harness.py", "infosep", "src", "stub.json"]


def test_same_outputs_reports_and_allows_differences(tmp_path, capsys):
    tool = load_tool("same_outputs")
    parent = make_cli_checkout(tmp_path / "parent")
    change = make_cli_checkout(tmp_path / "change", wyner=0.5001, t=(1, 0),
                               error="other", i_ux=0.125)
    assert tool.main([parent, change]) == 1
    out = capsys.readouterr().out
    assert "4 fields differ" in out
    assert "measures:measures.wyner.value: 6 values differ, largest change " \
           "0.0001\n" in out
    assert "reduce:maps.json:t: 12 values differ, largest change 1\n" in out
    assert "verify:stderr: 6 values differ, largest change not numeric\n" in out
    assert "ib-sweep:i_ux: 6 values differ, largest change 0.125\n" in out
    # an exact field name or a pattern allows a field
    assert tool.main([parent, change, "--allow", "measures:measures.wyner.value",
                      "--allow", "reduce:*", "--allow", "verify:*",
                      "--allow", "ib-sweep:i_ux"]) == 0
    out = capsys.readouterr().out
    assert "reduce:maps.json:t: 12 values differ, largest change 1 (allowed)" in out
    assert "ib-sweep:i_ux: 6 values differ, largest change 0.125 (allowed)" in out


STUB_SCAN_HARNESS = """class Joint:
    def __init__(self, n):
        self.p = [[1.0 / (n * n)] * n] * n


def dsbs(flip):
    return Joint(2)


def random_joint(nx, ny, alpha=1.0, seed=0):
    return Joint(nx)
"""

STUB_SCAN_DIST = """class Joint:
    def __init__(self, p):
        self.nx, self.ny = len(p), len(p[0])


def validate_and_trim(p):
    return Joint(p)
"""

STUB_SCAN_SOLVER = """import json, os, types
root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(root, "stub.json")) as fh:
    stub = json.load(fh)


def wyner_solve(j, card_w=None, restarts=10, seed=0):
    if stub["fail"]:
        raise RuntimeError("stub")
    rise = stub["shift"] * j.nx * (restarts == 2)
    return types.SimpleNamespace(value=j.nx + rise, converged=card_w is None)
"""


def make_solver_checkout(root, shift=0.0, fail=False):
    package = root / "src" / "infosep"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "harness.py").write_text(STUB_SCAN_HARNESS)
    (package / "dist.py").write_text(STUB_SCAN_DIST)
    (package / "common_info.py").write_text(STUB_SCAN_SOLVER)
    (root / "stub.json").write_text(json.dumps({"shift": shift, "fail": fail}))
    return str(root)


def test_wyner_scan_counts_falls_and_rises(tmp_path, capsys):
    tool = load_tool("wyner_scan")
    parent = make_solver_checkout(tmp_path / "parent")
    change = make_solver_checkout(tmp_path / "change", shift=1e-3)
    assert tool.main([parent, change]) == 0
    out = capsys.readouterr().out
    assert "parent: 672 solves in " in out and ", 336 converged" in out
    assert "restarts 0, card_w default  falls    0 (largest 0)  rises    0 " \
           "(largest 0)" in out
    assert "restarts 2, card_w max      falls    0 (largest 0)  rises  168 " \
           "(largest 0.004)" in out
    assert "all 672 solves              falls    0 (largest 0)  rises  336 " \
           "(largest 0.004)" in out
    # the five largest rises, ties in table order
    assert "largest rises:\n  random_joint(4, 2, 0.5, 0), restarts 2, card_w " \
           "default: 4.0000000 -> 4.0040000 (+0.004)\n" in out
    assert out.count(" -> ") == 5
    # a change that only lowers values has no rises to list, and passes
    assert tool.main([change, parent]) == 0
    assert "rises    0 (largest 0)\nno rises\n" in capsys.readouterr().out
    # the tool writes nothing into a checkout
    assert sorted(p.name for p in (tmp_path / "change").rglob("*")) == [
        "__init__.py", "common_info.py", "dist.py", "harness.py", "infosep",
        "src", "stub.json"]


def test_wyner_scan_fails_when_a_run_fails(tmp_path, capsys):
    tool = load_tool("wyner_scan")
    parent = make_solver_checkout(tmp_path / "parent")
    change = make_solver_checkout(tmp_path / "change", fail=True)
    assert tool.main([parent, change]) == 1
    assert "run failed: change" in capsys.readouterr().out
