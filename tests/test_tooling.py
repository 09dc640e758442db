"""The benchmark against these sources. Its span tracer (bench/spans.py)
wraps program functions by name: a name deleted or renamed in src/ breaks
every traced run. The file uses only the standard library and is read here
without being imported as a module, so no bytecode is written next to it.
Its self-check (bench/selfcheck.py) runs one checked round per workload
against its own oracle. The package's public surface, __all__, is pinned
to what partrans/__init__.py binds."""

import ast
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

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
    """__all__ has no duplicates, each of its names resolves to no module,
    and it lists exactly the public names partrans/__init__.py binds."""
    names = partrans.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(partrans, n)] == []
    assert [n for n in names if isinstance(getattr(partrans, n), type(partrans))] == []
    tree = ast.parse((ROOT / "src" / "partrans" / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    public = {n for n in bound if not n.startswith("_")
              and not isinstance(getattr(partrans, n, None), type(partrans))}
    assert set(names) == public
