"""The benchmark against these sources. Its span tracer (bench/spans.py)
wraps program functions by name: a name deleted or renamed in src/ breaks
every traced run. The file uses only the standard library and is read here
without being imported as a module, so no bytecode is written next to it.
Its self-check (bench/selfcheck.py) runs one checked round per workload
against its own oracle."""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

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
