"""Consistency of BENCHMARK.json and perfbench/ with the library they measure.

``perfbench/run.py --trace 1`` fails on a declared per-layer metric that no
traced function produces, so every ``<layer>.<function>.calls`` or
``.self_s`` entry must name a function the tracer patches: one defined in
that layer and listed in its ``__all__``, and read by the library itself, so
that the counter can move. The workloads call the library through its public
names, so each must exist and accept the call as written, and their KKT flag
must be the library's certificate. These files are never written here:
``BENCHMARK.json`` and the workloads' source are parsed, and the workloads
module is loaded only to call its KKT flag.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import gplabelnoise
from gplabelnoise import (
    build_kernel_matrix,
    fit_matrix,
    gen_example1,
    heuristic_params,
    joint_optimize,
    loocv,
    optimize_sigma,
)
from test_imports import SRC, _names_read

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

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


def test_per_layer_functions_are_run_by_the_library():
    """A counter on a function nothing in ``src/`` calls reads 0 on every
    workload; a definition or an ``__all__`` entry is not a read."""
    read = set().union(*(_names_read(ast.parse(path.read_text())) for path in SRC.glob("*.py")))
    unread = [entry for entry in _function_entries() if entry.split(".")[1] not in read]
    assert not unread, f"BENCHMARK.json counts functions the library never calls: {unread}"


def _workload_references() -> tuple[list[str], list[ast.Call]]:
    """The ``gpl.<name>`` attributes read in perfbench/workloads.py, and
    the calls made through them."""
    tree = ast.parse(WORKLOADS.read_text())

    def is_gpl(node) -> bool:
        return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gpl"

    names = [node.attr for node in ast.walk(tree) if is_gpl(node)]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and is_gpl(node.func)]
    return names, calls


def test_workloads_use_public_names():
    names, _ = _workload_references()
    assert names
    missing = sorted(set(names) - set(gplabelnoise.__all__))
    assert not missing, f"perfbench/workloads.py uses names outside gplabelnoise.__all__: {missing}"


def test_workload_calls_bind_to_signatures():
    _, calls = _workload_references()
    assert calls
    for call in calls:
        fn = getattr(gplabelnoise, call.func.attr)
        keywords = [kw.arg for kw in call.keywords]
        assert not any(isinstance(a, ast.Starred) for a in call.args) and None not in keywords
        try:
            inspect.signature(fn).bind(*call.args, **dict.fromkeys(keywords))
        except TypeError as e:
            pytest.fail(f"perfbench/workloads.py:{call.lineno}: gpl.{call.func.attr}(...) does not bind: {e}")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _heuristic_fit(data):
    params = heuristic_params(data.X, data.y)
    sigma, trace = optimize_sigma(params, data)
    return params, sigma, trace


@pytest.mark.parametrize("fit", [joint_optimize, _heuristic_fit], ids=["joint", "heuristic-theta"])
def test_bench_kkt_flag_is_the_library_certificate(fit):
    """perfbench's per-item KKT flag is loocv's kkt_residual above the
    bench's tolerance, on fits that both meet and violate it."""
    workloads = _load_workloads()
    flags = []
    for seed in range(20):
        data = gen_example1(seed)
        params, sigma, _ = fit(data)
        y = data.y_centered
        state = fit_matrix(build_kernel_matrix(params, data.X), sigma, y)
        flag = workloads.kkt_violated(params, sigma, data)
        assert flag == (loocv(state, y).kkt_residual > workloads.KKT_TOL), f"seed {seed}"
        flags.append(flag)
    assert set(flags) == {True, False}
