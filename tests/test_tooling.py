"""The benchmark's span tracer (bench/spans.py) wraps program functions by
name: a name deleted or renamed in src/ breaks every traced run. The file
uses only the standard library and is read here without being imported as
a module, so no bytecode is written next to it."""

import importlib
import runpy
from pathlib import Path

from partrans.curve import CurveModel

SPANS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "spans.py"))


def test_every_traced_function_exists():
    methods = SPANS["CURVE_METHODS"]
    for layer, names in SPANS["LAYERS"].items():
        module = importlib.import_module(f"partrans.{layer}")
        functions = [n for n in names if not (layer == "curve" and n in methods)]
        assert [n for n in functions if not hasattr(module, n)] == [], layer
    assert [n for n in methods if not hasattr(CurveModel, n)] == []
    layer, name = SPANS["IDENTITY"].split(".")
    assert layer == "curve" and hasattr(CurveModel, name)
