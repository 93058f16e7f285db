#!/usr/bin/env python3
"""Check that the working tree computes the same bytes as a git revision.

Run from anywhere inside the repository:

    python3 tools/bitwise_check.py REF

``src/`` of ``REF`` (any commit-ish, e.g. ``HEAD~1``) is exported with
``git archive`` into a temporary directory, and the working tree's ``src/``
is used as it stands. Each tree runs the same child process, with one BLAS
thread, which imports the library from that tree and the benchmark's
problem definitions (``perfbench/workloads.py``) from the working tree. The
child hashes:

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
  refit paths no benchmark workload runs.

With one BLAS thread and more than one usable CPU, ``joint_optimize`` runs
its restarts and ``benchmark`` its cells in this process and forked copies
of it, and on one usable CPU all in-process. The working tree's child
therefore runs twice, with the CPUs this script may use and pinned to one
of them, and every output must also agree between those two runs; on a
machine with more than one CPU that compares fanned-out with in-process
output.

The script prints one md5 per output and run, and exits 1 if any output
differs (2 if a child fails).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _digest(*parts) -> str:
    h = hashlib.md5()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _fit_digest(results) -> str:
    """md5 over (params, sigma, trace) results, each array by its bytes."""
    import numpy as np

    parts = []
    for params, sigma, trace in results:
        parts += [np.asarray(params.log_vector()).tobytes(), np.asarray(sigma).tobytes(),
                  trace.nll_per_iter.tobytes(), trace.func_evals_per_iter.tobytes(), trace.stop_reason]
    return _digest(*parts)


def child(seed: int, one_cpu: bool) -> None:
    """Compute every output with the library on ``sys.path`` and print one
    ``name md5`` line each, pinned to one CPU if ``one_cpu``."""
    if one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    import gplabelnoise as gpl
    import gplabelnoise.cli as cli

    with tempfile.TemporaryDirectory() as work:
        for name, workload in (("example1-joint", workloads.Example1Joint()),
                               ("gp1000-fit", workloads.Gp1000Fit())):
            workload.setup(seed, workloads.PROBLEM_SETS["reference"])
            print(name, _fit_digest(workload.call(item) for item in workload.items()), flush=True)

        sweep = workloads.CliSweep(work)
        sweep.setup(seed, workloads.PROBLEM_SETS["reference"])
        code, csv = sweep.call(0)
        print("cli-sweep", _digest(code, csv), flush=True)

        base, out = os.path.join(work, "base.csv"), os.path.join(work, "c11.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (cli.main(["gen", "--grid", "--n", "40", "--rate", "0", "--seed", "5", "--out", base]),
                     cli.main(["benchmark", "--data", base, "--rates", "0.1,0.3", "--levels", "0.5,1.0",
                               "--seed", "5", "--out", out]))
        print("criterion-11", _digest(codes, Path(base).read_bytes(), Path(out).read_bytes()), flush=True)

        base, out = os.path.join(work, "joint-base.csv"), os.path.join(work, "joint.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (cli.main(["gen", "--grid", "--n", "30", "--rate", "0", "--seed", "2", "--out", base]),
                     cli.main(["benchmark", "--data", base, "--joint", "--folds", "3", "--seed", "2",
                               "--out", out]))
        print("joint-sweep", _digest(codes, Path(base).read_bytes(), Path(out).read_bytes()), flush=True)

    problems = []
    for seed in range(5):
        data = gpl.gen_example1(seed)
        params = gpl.heuristic_params(data.X, data.y)
        problems.append((params, gpl.build_kernel_matrix(params, data.X), data.y_centered))
    penalty = gpl.MultUpdateConfig(penalty_lambda=0.1, penalty_p=1.0)
    for name, run in (("pgd-matrix", gpl.projected_gradient_baseline_matrix),
                      ("uniform-matrix", gpl.optimize_sigma_uniform_matrix),
                      ("penalized-matrix", lambda K, y: gpl.optimize_sigma_matrix(K, y, penalty))):
        print(name, _fit_digest((params, *run(K, y)) for params, K, y in problems), flush=True)


def _run_tree(src: Path, seed: int, one_cpu: bool = False) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    argv = [sys.executable, __file__, "--child", "--seed", str(seed)] + ["--one-cpu"] * one_cpu
    proc = subprocess.run(argv, env=env, cwd=src.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{proc.stderr}child on {src} exited {proc.returncode}")
    return dict(line.split() for line in proc.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", help="git revision to compare the working tree with")
    parser.add_argument("--seed", type=int, default=0, help="workload run seed (default 0)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--one-cpu", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.seed, args.one_cpu)
        return 0
    if args.ref is None:
        parser.error("REF is required")

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.ref, "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode())
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        try:
            ref = _run_tree(Path(tmp) / "src", args.seed)
            work = _run_tree(ROOT / "src", args.seed)
            work_one = _run_tree(ROOT / "src", args.seed, one_cpu=True)
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 2

    mismatches = 0
    for name in list(ref) + [name for name in work if name not in ref]:
        same = ref.get(name) == work.get(name) == work_one.get(name)
        mismatches += not same
        print(f"{name:16s} {args.ref}: {ref.get(name)}  working tree: {work.get(name)}  "
              f"on one CPU: {work_one.get(name)}  {'equal' if same else 'DIFFERENT'}")
    print("all outputs equal" if mismatches == 0 else f"{mismatches} output(s) differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
