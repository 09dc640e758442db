"""The benchmark against these sources. Its span tracer (bench/spans.py)
wraps program functions by name: a name deleted or renamed in src/ breaks
every traced run. The file uses only the standard library and is read here
without being imported as a module, so no bytecode is written next to it.
Its self-check (bench/selfcheck.py) runs one checked round per workload
against its own oracle. The package's public surface, __all__, is pinned
to the one table in partrans/__init__.py, and fresh interpreters check
which modules each way into the package loads, and no helper is left
that the package never names."""

import ast
import importlib
import os
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import partrans
from partrans.curve import CurveModel

ROOT = Path(__file__).resolve().parent.parent
SPANS = runpy.run_path(str(ROOT / "bench" / "spans.py"))


def test_every_traced_function_exists():
    methods = SPANS["CURVE_METHODS"]
    for layer, names in SPANS["LAYERS"].items():
        module = importlib.import_module(f"partrans.{layer}")
        functions = [n for n in names if not (layer == "curve" and n in methods)]
        assert [n for n in functions if not hasattr(module, n)] == [], layer
    assert [n for n in methods if not hasattr(CurveModel, n)] == []
    layer, name = SPANS["IDENTITY"].split(".")
    assert layer == "curve" and hasattr(CurveModel, name)


def test_bench_selfcheck():
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["algebra", "chambers", "cli"], proc.stdout
    assert all(line.endswith(", 0 problems") for line in lines), proc.stdout


def test_public_surface_is_all():
    """__all__ is the one table's names, once each; each resolves to the
    object its module gives, never to a module; and a star import, dir()
    and a missing name agree with it."""
    names = partrans.__all__
    assert len(names) == len(set(names))
    assert names == [n for module_names in partrans._EXPORTS.values() for n in module_names]
    for module, module_names in partrans._EXPORTS.items():
        source = importlib.import_module(f"partrans.{module}")
        for n in module_names:
            assert getattr(partrans, n) is getattr(source, n), n
            assert not isinstance(getattr(partrans, n), type(partrans)), n
    namespace = {}
    exec("from partrans import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
    assert set(names) <= set(dir(partrans))
    with pytest.raises(AttributeError):
        partrans.no_such_name


def _submodules_loaded(code):
    """The partrans submodules a fresh interpreter has loaded after `code`."""
    listing = "print(*(m.partition('.')[2] for m in sys.modules if m.startswith('partrans.')))"
    script = f"{code}\nimport sys\n{listing}"
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_partrans_loads_no_submodule():
    assert _submodules_loaded("import partrans") == set()


def test_load_config_loads_only_what_a_model_needs():
    loaded = _submodules_loaded("import partrans\npartrans.load_config")
    assert loaded == {"curve", "picard", "intmat", "errors"}


def test_cli_loads_every_traced_layer():
    """The tracer rebinds functions in the partrans modules loaded once
    partrans.cli is imported, so that import must load every layer."""
    assert set(SPANS["LAYERS"]) <= _submodules_loaded("import partrans.cli")


def _named(node):
    """The names a Name, Attribute or import node refers to."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.rpartition(".")[2] for alias in node.names]
    return []


def _uses(tree):
    return Counter(name for node in ast.walk(tree) for name in _named(node))


def test_only_errors_constructs_the_cap_error():
    """An enumeration's size meets its cap only in errors.charge: no other
    module of src/partrans constructs EnumerationCapExceeded."""
    makers = []
    for path in sorted((ROOT / "src" / "partrans").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "EnumerationCapExceeded" in _named(node.func):
                makers.append(path.stem)
    assert makers == ["errors"]


def test_no_dead_helpers():
    """Every top-level function and class the package does not export, and
    every method of such a class, is named by a Name, Attribute or import
    node somewhere in src/partrans outside its own definition. Dunders,
    and cli.main, the console-script entry point, are exempt."""
    exported = {n for names in partrans._EXPORTS.values() for n in names}
    files = sorted((ROOT / "src" / "partrans").glob("*.py"))
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    uses = sum(map(_uses, trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
        for path, node in defs:
            name = node.name
            if name.startswith("__") and name.endswith("__") or f"{module}.{path}" == "cli.main":
                continue
            if uses[name] == _uses(node)[name]:
                dead.append(f"{module}.{path}")
    assert dead == []
