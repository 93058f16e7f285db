"""Consistency of BENCHMARK.json with the library it measures.

``perfbench/run.py --trace 1`` fails on a declared per-layer metric that no
traced function produces, so every ``<layer>.<function>.calls`` or
``.self_s`` entry must name a function the tracer patches: one defined in
that layer and listed in its ``__all__``. The file is only read here.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# patched on the GprState class instead of found through gpr.__all__
CLASS_METHODS = {"gpr.solve": ("GprState", "solve")}


def _function_entries() -> list[str]:
    names = [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]
    out = []
    for name in names:
        parts = name.split(".")
        if len(parts) == 3 and parts[2] in ("calls", "self_s"):
            out.append(f"{parts[0]}.{parts[1]}")
    return sorted(set(out))


def test_declares_function_metrics():
    assert "noiseopt.mult_update_step" in _function_entries()


@pytest.mark.parametrize("entry", _function_entries())
def test_per_layer_function_is_traced(entry):
    layer, name = entry.split(".")
    module = importlib.import_module(f"gplabelnoise.{layer}")
    if entry in CLASS_METHODS:
        cls, method = CLASS_METHODS[entry]
        assert inspect.isfunction(vars(getattr(module, cls))[method])
        return
    assert name in module.__all__, f"{entry} is declared in BENCHMARK.json but not in {layer}.__all__"
    fn = getattr(module, name)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
