#!/usr/bin/env python3
"""Check that the working tree computes the same bytes as a git revision.

Run from anywhere inside the repository:

    python3 tools/bitwise_check.py REF

``src/`` of ``REF`` (any commit-ish, e.g. ``HEAD~1``) is exported with
``git archive`` into a temporary directory. Both trees run in this process
with one BLAS thread: the working tree's package as ``gplabelnoise``,
``REF``'s as ``gplabelnoise_ref``, each with its own copy of the problem
definitions in ``perfbench/workloads.py`` bound to it. It hashes:

- ``example1-joint``: log theta, sigma and every trace column of
  ``joint_optimize`` on the 20 ``gen_example1`` datasets;
- ``gp1000-fit``: the same of ``optimize_sigma`` on the N=1000 draw;
- ``cli-sweep``: the CSV of the in-process ``benchmark`` sweep on the
  N=200 base;
- ``criterion-11``: the ``gen --grid`` base and the ``benchmark`` CSV of
  acceptance criterion 11;
- ``joint-sweep``: the same of ``benchmark --joint`` (joint theta and sigma
  fits in every cell and fold) on an N=30 ``gen --grid`` base;
- ``pgd-matrix``, ``uniform-matrix`` and ``penalized-matrix``: sigma and
  every trace column of ``projected_gradient_baseline_matrix``,
  ``optimize_sigma_uniform_matrix`` and ``optimize_sigma_matrix`` at
  lambda 0.1, p 1, on ``gen_example1`` 0-4 at the heuristic theta: the
  refit paths no benchmark workload runs;
- ``stop-reasons``: the same of the stop exits those do not reach, on the
  same problems: ``optimize_sigma_matrix`` at lambda 0.5, p 2
  (``nll_increase``) and at ``max_iters=3``, and
  ``projected_gradient_baseline_matrix`` at ``tol_grad=1.0``
  (``grad_tol``) and at ``max_halvings=0`` (``nll_tol`` with no decrease
  found).

Each output runs for ``REF`` and then the working tree, first with the
CPUs this script may use and then pinned to one. With one BLAS thread and
more than one usable CPU, ``benchmark`` runs its cells in forked worker
processes, and on one CPU in-process, so all four runs of an output must
agree. It prints one md5 per output, tree and affinity, and exits 1 if any
output differs, 2 if ``REF`` cannot be exported or a tree fails to load or
run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("example1-joint", "gp1000-fit", "cli-sweep")


def _digest(*parts) -> str:
    h = hashlib.md5()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _fit_parts(sigma, trace) -> list:
    """The parts of a fit's md5: sigma and the trace's columns, each array by
    its bytes, and its stop reason."""
    return [sigma.tobytes(), trace.nll_per_iter.tobytes(), trace.func_evals_per_iter.tobytes(), trace.stop_reason]


def _fit_digest(results) -> str:
    """md5 over (params, sigma, trace) results: each one's log theta bytes
    and ``_fit_parts``."""
    return _digest(*(part for params, sigma, trace in results
                     for part in (params.log_vector().tobytes(), *_fit_parts(sigma, trace))))


def workload_digest(name: str, outputs) -> str:
    """md5 over the outputs of workload ``name``'s calls, in call order: the
    sweep's exit code and CSV bytes, or each fit's ``_fit_digest`` parts."""
    if name == "cli-sweep":
        return _digest(*(part for output in outputs for part in output))
    return _fit_digest(outputs)


def export_src(ref: str, dest: str) -> Path:
    """Export ``src/`` of git revision ``ref`` into the directory ``dest``
    with ``git archive`` and return the exported ``src``; RuntimeError
    carries git's message when ``ref`` cannot be exported."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        raise RuntimeError(archive.stderr.decode())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest) / "src"


def load_tree(src: Path, name: str):
    """Import the package ``src/gplabelnoise`` and its ``cli`` module under
    the package name ``name`` and return the package."""
    package = src / "gplabelnoise"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    tree = importlib.util.module_from_spec(spec)
    sys.modules[name] = tree
    spec.loader.exec_module(tree)
    importlib.import_module(f"{name}.cli")
    return tree


def load_trees(ref: str, dest: str):
    """``(REF's package, the working tree's)``: ``REF``'s ``src/`` exported
    into ``dest``, both loaded with one BLAS thread. The working tree is
    ``gplabelnoise``, so ``perfbench/workloads.py`` can import it."""
    ref_src = export_src(ref, dest)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # read when numpy loads
    work = load_tree(ROOT / "src", "gplabelnoise")
    return load_tree(ref_src, "gplabelnoise_ref"), work


def load_workloads(tree):
    """A copy of ``perfbench/workloads.py`` whose ``gpl`` and
    ``gplabelnoise`` are ``tree``; the file is executed as it stands."""
    spec = importlib.util.spec_from_file_location(f"{tree.__name__}_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.gpl = workloads.gplabelnoise = tree
    return workloads


def setup_workloads(tree, seed: int, tmp: str) -> dict:
    """The benchmark's three workloads on ``tree``, set up at run seed
    ``seed`` on the reference problem set. The sweep's files go in a new
    directory under ``tmp``."""
    workloads = load_workloads(tree)
    work = tempfile.mkdtemp(dir=tmp)
    made = dict(zip(WORKLOADS, (workloads.Example1Joint(), workloads.Gp1000Fit(),
                                workloads.CliSweep(work))))
    for workload in made.values():
        workload.setup(seed, workloads.PROBLEM_SETS["reference"])
    return made


def timed_call(tree, workloads: dict, name: str, item):
    """Call item ``item`` of workload ``name`` of ``workloads`` (set up on
    ``tree`` by ``setup_workloads``) once, timed with ``time.perf_counter``,
    and return ``(output, seconds, fits)``. ``fits`` holds each fit the call
    made through ``tree``'s ``benchmark`` sweep, a cell's
    ``cli.optimize_sigma`` or a fold's ``detect.optimize_sigma_matrix``
    call, in call order, as ``(kind, args, seconds, (sigma, trace))`` with
    ``kind`` "cell" or "fold"; only ``cli-sweep`` makes such fits. Both
    functions are restored before it returns or raises."""
    cli, detect = tree.cli, tree.detect
    cell_fit, fold_fit = cli.optimize_sigma, detect.optimize_sigma_matrix
    fits = []

    def timed(kind, fit):
        def call(*args):
            start = time.perf_counter()
            result = fit(*args)
            fits.append((kind, args, time.perf_counter() - start, result))
            return result
        return call

    cli.optimize_sigma, detect.optimize_sigma_matrix = timed("cell", cell_fit), timed("fold", fold_fit)
    try:
        start = time.perf_counter()
        output = workloads[name].call(item)
        return output, time.perf_counter() - start, fits
    finally:
        cli.optimize_sigma, detect.optimize_sigma_matrix = cell_fit, fold_fit


def outputs(tree, seed: int, tmp: str) -> dict:
    """The nine outputs of ``tree``, each a call that computes its md5; the
    files they write go under ``tmp``."""
    workloads = setup_workloads(tree, seed, tmp)
    work = Path(workloads["cli-sweep"].workdir)

    def workload(name, w):
        return lambda: workload_digest(name, map(w.call, w.items()))

    def commands(stem, gen, benchmark):
        base, out = work / f"{stem}-base.csv", work / f"{stem}.csv"

        def run():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = (tree.cli.main(["gen", "--grid", *gen, "--rate", "0", "--out", str(base)]),
                         tree.cli.main(["benchmark", "--data", str(base), *benchmark, "--out", str(out)]))
            return _digest(codes, base.read_bytes(), out.read_bytes())
        return run

    problems = []
    for k in range(5):
        data = tree.gen_example1(k)
        params = tree.heuristic_params(data.X, data.y)
        problems.append((params, tree.build_kernel_matrix(params, data.X), data.y_centered))

    def fits(*calls):
        return lambda: _fit_digest((params, *run(K, y, *config)) for run, *config in calls
                                   for params, K, y in problems)

    return {
        **{name: workload(name, w) for name, w in workloads.items()},
        "criterion-11": commands("c11", ["--n", "40", "--seed", "5"],
                                 ["--rates", "0.1,0.3", "--levels", "0.5,1.0", "--seed", "5"]),
        "joint-sweep": commands("joint", ["--n", "30", "--seed", "2"], ["--joint", "--folds", "3", "--seed", "2"]),
        "pgd-matrix": fits((tree.projected_gradient_baseline_matrix,)),
        "uniform-matrix": fits((tree.optimize_sigma_uniform_matrix,)),
        "penalized-matrix": fits((tree.optimize_sigma_matrix, tree.MultUpdateConfig(penalty_lambda=0.1,
                                                                                   penalty_p=1.0))),
        "stop-reasons": fits(
            (tree.optimize_sigma_matrix, tree.MultUpdateConfig(penalty_lambda=0.5, penalty_p=2.0)),
            (tree.optimize_sigma_matrix, tree.MultUpdateConfig(max_iters=3)),
            (tree.projected_gradient_baseline_matrix, tree.PgdConfig(tol_grad=1.0)),
            (tree.projected_gradient_baseline_matrix, tree.PgdConfig(max_halvings=0))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree with")
    parser.add_argument("--seed", type=int, default=0, help="workload run seed (default 0)")
    args = parser.parse_args(argv)

    cpus = os.sched_getaffinity(0)
    runs = {"all CPUs": cpus, "one CPU": {min(cpus)}}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            trees = dict(zip((args.ref, "working tree"), load_trees(args.ref, tmp)))
            calls = {label: outputs(tree, args.seed, tmp) for label, tree in trees.items()}
            rows = {name: [] for name in calls["working tree"]}  # md5s by affinity, then tree
            for affinity in runs.values():
                os.sched_setaffinity(0, affinity)
                for name, row in rows.items():
                    row += [calls[label][name]() for label in trees]
        except Exception:
            traceback.print_exc()
            return 2

    print(f"{'':16s} " + "  ".join(f"{label}, {run}"[:32].ljust(32) for run in runs for label in trees))
    differ = [name for name, row in rows.items() if len(set(row)) > 1]
    for name, row in rows.items():
        print(f"{name:16s} " + "  ".join(row) + ("  DIFFERENT" if name in differ else "  equal"))
    print(f"{len(differ)} output(s) differ: {', '.join(differ)}" if differ else "all outputs equal")
    return 1 if differ else 0

if __name__ == "__main__":
    sys.exit(main())
