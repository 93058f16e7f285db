"""Tests for the A/B tools in ``tools/``: the loader, through which a second
copy of ``src/`` under another package name computes what ``gplabelnoise``
does and a copy of the benchmark's workloads calls into it; the one timed
call through which ``quality_check.py`` and ``ab_time.py`` see a sweep's
fits; the fits ``quality_check`` reads, and its rule; and ``ab_time``'s
paired reading. The tools' ``git archive`` export is not exercised here."""

import collections
import importlib
import sys
import types
from pathlib import Path

import pytest

import gplabelnoise as gpl

ROOT = Path(__file__).resolve().parent.parent
COPY = "gplabelnoise_copy"


@pytest.fixture(scope="module")
def tools():
    """The three tools, imported from ``tools/`` as they import each other."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        yield types.SimpleNamespace(**{name: importlib.import_module(name)
                                       for name in ("bitwise_check", "quality_check", "ab_time")})
    finally:
        sys.path.remove(str(ROOT / "tools"))


@pytest.fixture(scope="module")
def copy(tools):
    tree = tools.bitwise_check.load_tree(ROOT / "src", COPY)
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
    workloads = tools.bitwise_check.load_workloads(copy)
    assert workloads.gplabelnoise.cli is copy.cli
    workload = workloads.Example1Joint()
    workload.setup(0, workloads.PROBLEM_SETS["reference"])
    params, sigma, trace = workload.call(0)
    assert type(workload.datasets[0]) is copy.Dataset
    assert type(params) is copy.KernelParams and type(trace) is copy.OptTrace
    assert type(trace) is not gpl.OptTrace


def test_timed_call_times_each_fit_of_a_sweep_and_restores_them(tools, copy, tmp_path, monkeypatch):
    """``timed_call``, through which ``quality_check.py`` and ``ab_time.py``
    make every measured call, returns each cell and fold fit of an
    in-process sweep in the order the sweep makes them, each with its own
    time and result, and puts the package's functions back, also when a
    fit raises."""
    monkeypatch.setattr(sys.modules[f"{COPY}._fanout"], "_processes", lambda items: 1)
    cli, detect = copy.cli, copy.detect
    originals = cli.optimize_sigma, detect.optimize_sigma_matrix
    base, out = str(tmp_path / "base.csv"), str(tmp_path / "bench.csv")
    assert cli.main(["gen", "--grid", "--n", "20", "--rate", "0", "--out", base]) == 0
    sweep = types.SimpleNamespace(call=lambda item: cli.main(["benchmark", "--data", base, "--folds", "2",
                                                              "--out", out]))

    code, seconds, fits = tools.bitwise_check.timed_call(copy, {"sweep": sweep}, "sweep", 0)
    assert code == 0
    assert [kind for kind, *_ in fits] == ["cell", "fold", "fold"] * 4
    assert all(fit_seconds >= 0 for _, _, fit_seconds, _ in fits)
    assert seconds >= sum(fit_seconds for _, _, fit_seconds, _ in fits)
    for kind, args, _, (sigma, trace) in fits:
        n = args[1].n if kind == "cell" else args[1].shape[0]
        assert sigma.shape == (n,) and type(trace) is copy.OptTrace
    assert len({id(part) for *_, result in fits for part in result}) == 2 * len(fits)
    assert (cli.optimize_sigma, detect.optimize_sigma_matrix) == originals

    def fail(*args):
        raise RuntimeError("fold fit failed")

    monkeypatch.setattr(detect, "optimize_sigma_matrix", fail)
    with pytest.raises(RuntimeError, match="fold fit failed"):
        tools.bitwise_check.timed_call(copy, {"sweep": sweep}, "sweep", 0)
    assert (cli.optimize_sigma, detect.optimize_sigma_matrix) == (originals[0], fail)


def test_quality_check_fits_the_held_out_problem_set(tools, copy, tmp_path, monkeypatch):
    """``quality_check.fits`` returns 68 fits in six groups. The held-out
    group holds ``joint_optimize`` on ``gen_example1`` 1000-1019, presented
    as the benchmark's ``held-out`` problem set presents them, and the N=200
    group the default joint fits of the corrupted ``gen_gp`` draws 0-2."""
    monkeypatch.setattr(sys.modules[f"{COPY}._fanout"], "_processes", lambda items: 1)
    found = tools.quality_check.fits(copy, 1, str(tmp_path))
    assert collections.Counter(group for group, _ in found) == {
        "example1-joint": 20, "example1-joint held-out": 20, "gp1000-fit": 1, "cli-sweep cell": 4,
        "cli-sweep fold": 20, "gen_gp N=200 joint": 3}
    workloads = tools.bitwise_check.load_workloads(copy)
    for item in (0, 19):
        data = workloads.translate(copy.gen_example1(1000 + item), 1)
        _, sigma, trace = copy.joint_optimize(data)
        fit = found["example1-joint held-out", item]
        assert (fit["nll"], fit["func_evals"]) == (trace.final_nll, trace.func_evals)
        assert fit["auc"] == copy.roc_auc(sigma, data.truth.corrupted)
        assert fit["nll"] != found["example1-joint", item]["nll"]
    data = copy.inject_noise(copy.gen_gp(copy.KernelParams(1.0, 0.3), 200, d=2, seed=2),
                             copy.NoiseInjectionSpec(rate=0.1, level=1.0, seed=2))
    _, sigma, trace = copy.joint_optimize(data)
    fit = found["gen_gp N=200 joint", 2]
    assert (fit["nll"], fit["func_evals"]) == (trace.final_nll, trace.func_evals)
    assert fit["auc"] == copy.roc_auc(sigma, data.truth.corrupted)


def _fit_table(nlls, residuals) -> dict:
    """A ``quality_check.fits`` table of one group with the given final
    NLLs and KKT residuals."""
    return {("g", i): {"nll": nll, "residual": residual, "iters": 3, "func_evals": 4, "stop": "nll_tol",
                       "auc": None}
            for i, (nll, residual) in enumerate(zip(nlls, residuals))}


@pytest.mark.parametrize("nll", [-200.0, 0.5])
@pytest.mark.parametrize("factor, status", [(1.01, 1), (0.99, 0)])
def test_quality_check_fails_an_nll_rise_beyond_its_bound(tools, capsys, nll, factor, status):
    """A fit's NLL may rise by 1e-6 * max(1, |NLL at REF|); a rise just above
    that fails and lists the fit, one just within passes."""
    bound = 1e-6 * max(1.0, abs(nll))
    ref = _fit_table([-10.0, nll], [0.0, 0.0])
    work = _fit_table([-10.0, nll + factor * bound], [0.0, 0.0])
    assert tools.quality_check.compare(ref, work, "REF") == status
    assert ("NLL rises: g 1: " in capsys.readouterr().out) == (status == 1)


def test_quality_check_fails_one_more_residual_above_its_bound(tools, capsys):
    ref = _fit_table([-10.0, -20.0], [1e-4, 2e-3])
    assert tools.quality_check.compare(ref, _fit_table([-10.0, -20.0], [1e-4, 3e-3]), "REF") == 0
    assert tools.quality_check.compare(ref, _fit_table([-10.0, -20.0], [2e-3, 2e-3]), "REF") == 1
    assert "residual > 0.001: 1 fits at REF, 2 in the working tree\nFAIL" in capsys.readouterr().out


def test_quality_check_exits_2_when_the_trees_fit_different_items(tools):
    ref = _fit_table([-10.0, -20.0], [0.0, 0.0])
    assert tools.quality_check.compare(ref, _fit_table([-10.0], [0.0]), "REF") == 2


@pytest.mark.parametrize("ref, work", [
    ([[2.0], [4.0], [4.0], [8.0]], [[1.0], [5.0], [3.0], [8.0]]),
    ([[1.0, 1.0], [1.5, 2.5], [3.0, 1.0], [4.0, 4.0]], [[0.5, 0.5], [2.5, 2.5], [1.0, 2.0], [6.0, 2.0]]),
], ids=["one-item", "two-item"])
def test_ab_time_reads_rounds_won_and_per_round_ratios(tools, ref, work):
    """Per-round ratios of summed item times 0.5, 1.25, 0.75 and 1 (a tie,
    which counts for neither tree), whether a round holds one item or two:
    2 rounds won, median 0.875, range [0.5, 1.25]."""
    assert tools.ab_time._paired(ref, work) == (2, 0.875, 0.5, 1.25)
