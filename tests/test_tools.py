"""Tests for the loader of the A/B tools in ``tools/``: a second copy of
``src/`` under another package name computes what ``gplabelnoise`` does,
and a copy of the benchmark's workloads bound to it calls into it. The
tools' ``git archive`` export is not exercised here."""

import importlib.util
import sys
from pathlib import Path

import pytest

import gplabelnoise as gpl

ROOT = Path(__file__).resolve().parent.parent
COPY = "gplabelnoise_copy"


@pytest.fixture(scope="module")
def tools():
    spec = importlib.util.spec_from_file_location("bitwise_check", ROOT / "tools" / "bitwise_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def copy(tools):
    tree = tools.load_tree(ROOT / "src", COPY)
    yield tree
    for name in [name for name in sys.modules if name == COPY or name.startswith(COPY + ".")]:
        del sys.modules[name]


def test_a_second_package_name_computes_the_same_joint_fit(copy):
    assert copy is not gpl and copy.joint_optimize.__module__ == f"{COPY}.noiseopt"
    assert copy.cli.__name__ == f"{COPY}.cli"
    params, sigma, trace = copy.joint_optimize(copy.gen_example1(0))
    want_params, want_sigma, want_trace = gpl.joint_optimize(gpl.gen_example1(0))
    assert params.log_vector().tobytes() == want_params.log_vector().tobytes()
    assert sigma.tobytes() == want_sigma.tobytes()
    assert trace.nll_per_iter.tobytes() == want_trace.nll_per_iter.tobytes()
    assert trace.func_evals_per_iter.tobytes() == want_trace.func_evals_per_iter.tobytes()
    assert trace.stop_reason == want_trace.stop_reason


def test_a_workloads_copy_calls_the_package_it_is_bound_to(tools, copy):
    workloads = tools.load_workloads(copy)
    assert workloads.gplabelnoise.cli is copy.cli
    workload = workloads.Example1Joint()
    workload.setup(0, workloads.PROBLEM_SETS["reference"])
    params, sigma, trace = workload.call(0)
    assert type(workload.datasets[0]) is copy.Dataset
    assert type(params) is copy.KernelParams and type(trace) is copy.OptTrace
    assert type(trace) is not gpl.OptTrace


def test_sweep_fits_hooks_each_fit_of_a_sweep_and_restores_them(tools, copy, tmp_path, monkeypatch):
    """``sweep_fits``, through which ``quality_check.py`` and ``ab_time.py``
    record and time the sweep's fits, sees every cell and fold fit of an
    in-process sweep in the order the sweep makes them, and puts the
    package's functions back."""
    monkeypatch.setattr(sys.modules[f"{COPY}._fanout"], "_processes", lambda items: 1)
    cli, detect = copy.cli, copy.detect
    originals = cli.optimize_sigma, detect.optimize_sigma_matrix
    kinds = []

    def hook(kind, fit, *args):
        kinds.append(kind)
        return fit(*args)

    base, out = str(tmp_path / "base.csv"), str(tmp_path / "bench.csv")
    assert cli.main(["gen", "--grid", "--n", "20", "--rate", "0", "--out", base]) == 0
    with tools.sweep_fits(copy, hook):
        assert cli.main(["benchmark", "--data", base, "--folds", "2", "--out", out]) == 0
    assert kinds == ["cell", "fold", "fold"] * 4
    assert (cli.optimize_sigma, detect.optimize_sigma_matrix) == originals
