#!/usr/bin/env python3
"""Compare the answers of the working tree's fits with a git revision's.

Run from anywhere inside the repository:

    python3 tools/quality_check.py REF

``src/`` of ``REF`` is exported and both trees run in this process, loaded
as ``tools/bitwise_check.py`` loads them, pinned to one CPU so that the
sweep's cells run in it. For each tree it fits:

- ``example1-joint``: the 20 ``joint_optimize`` fits of that workload;
- ``example1-joint held-out``: the same 20 fits on the workloads'
  ``held-out`` problem set (``gen_example1`` seeds 1000-1019), to check a
  claim on data it was not tuned on;
- ``gp1000-fit``: the ``optimize_sigma`` fit of the N=1000 draw;
- ``cli-sweep cell``: the 4 ``optimize_sigma`` fits of the in-process
  ``benchmark`` sweep's cells on the N=200 base;
- ``cli-sweep fold``: the 20 per-label ``optimize_sigma_matrix`` fits of
  those cells' 5-fold ``cv_mae``;
- ``gen_gp N=200 joint``: ``joint_optimize`` with default configs on
  ``gen_gp(KernelParams(1, 0.3), 200, d=2, seed=s)`` with 10% of its
  labels corrupted at level 1 under injection seed s, s = 0-2: joint
  fits at a size where the O(N^3) algebra outweighs the per-call
  overhead of the N=24 fits (the run seed does not move them).

For each fit it reports the final NLL, the KKT residual of sigma >= 0
(``loocv(state, state.y).kkt_residual`` of a fit at the returned sigma),
the iterations, ``func_evals``, the stop reason, and the AUC of sigma
against the corrupted labels where the fit's dataset records them.

The rule. The check fails (exit 1) when either holds:

- a fit's final NLL exceeds ``REF``'s on the same fit by more than
  1e-6 * max(1, |NLL at REF|);
- more fits have a KKT residual above 1e-3 than at ``REF``.

It also prints, per group and in all, the ratio of summed ``func_evals``
(working tree over ``REF``) and, where AUC exists, the change in median
AUC; these are readings, not gates. A change that takes a new path may end
at a different KKT point, so every fit whose NLL rises is listed. Exit 2
when ``REF`` cannot be exported, a tree fails to load or run, or the two
trees do not fit the same items.
"""

from __future__ import annotations

import argparse
import collections
import os
import statistics
import sys
import tempfile
import traceback

from bitwise_check import WORKLOADS, load_trees, load_workloads, setup_workloads, timed_call

NLL_RTOL = 1e-6
KKT_TOL = 1e-3
FIELDS = ("nll", "residual", "iters", "func_evals", "stop")
HELD_OUT = "example1-joint held-out"
GP200 = "gen_gp N=200 joint"


def fits(tree, seed: int, tmp: str) -> dict[tuple[str, int], dict]:
    """Every fit of ``tree``'s workloads at run seed ``seed``, by (group,
    item), of ``example1-joint`` on the held-out problem set and of the
    N=200 joint fits; the sweep's files go under ``tmp``."""
    workloads = setup_workloads(tree, seed, tmp)
    module = load_workloads(tree)
    workloads[HELD_OUT] = module.Example1Joint()
    workloads[HELD_OUT].setup(seed, module.PROBLEM_SETS["held-out"])
    found = {}

    def record(group, K, y, sigma, trace, corrupted=None):
        state = tree.fit_matrix(K, sigma, y)
        found[group, sum(g == group for g, _ in found)] = {
            "nll": float(trace.final_nll), "residual": float(tree.loocv(state, state.y).kkt_residual),
            "iters": trace.iters, "func_evals": trace.func_evals, "stop": trace.stop_reason,
            "auc": None if corrupted is None else float(tree.roc_auc(sigma, corrupted)),
        }

    for name in (*WORKLOADS, HELD_OUT):
        for item in workloads[name].items():
            output, _, sweep = timed_call(tree, workloads, name, item)
            if name != "cli-sweep":
                params, sigma, trace = output
                data = workloads[name].datasets[item]
                record(name, tree.build_kernel_matrix(params, data.X), data.y_centered, sigma, trace,
                       data.truth.corrupted)
            elif output[0] != 0:
                raise RuntimeError(f"the sweep exited {output[0]}")
            for kind, args, _, (sigma, trace) in sweep:
                if kind == "cell":
                    params, data = args[:2]
                    record("cli-sweep cell", tree.build_kernel_matrix(params, data.X), data.y_centered, sigma,
                           trace, data.truth.corrupted)
                else:
                    record("cli-sweep fold", *args[:2], sigma, trace)
    for draw in range(3):
        data = tree.inject_noise(tree.gen_gp(tree.KernelParams(1.0, 0.3), 200, d=2, seed=draw),
                                 tree.NoiseInjectionSpec(rate=0.1, level=1.0, seed=draw))
        params, sigma, trace = tree.joint_optimize(data)
        record(GP200, tree.build_kernel_matrix(params, data.X), data.y_centered, sigma, trace,
               data.truth.corrupted)
    return found


def _summary(fits: list[dict]) -> str:
    nlls, residuals = [f["nll"] for f in fits], [f["residual"] for f in fits]
    iters = [f["iters"] for f in fits]
    stops = collections.Counter(f["stop"] for f in fits)
    aucs = [f["auc"] for f in fits if f["auc"] is not None]
    auc = f"  median AUC {statistics.median(aucs):.4f}" if aucs else ""
    return (f"median NLL {statistics.median(nlls):.3f}  residual > {KKT_TOL:g} on "
            f"{sum(r > KKT_TOL for r in residuals)}/{len(fits)} (median {statistics.median(residuals):.3g})  "
            f"iterations median {statistics.median(iters):g}, max {max(iters)}, sum {sum(iters)}  "
            f"func_evals {sum(f['func_evals'] for f in fits)}  stops "
            + ", ".join(f"{k} {v}" for k, v in sorted(stops.items())) + auc)


def compare(ref: dict, work: dict, ref_name: str) -> int:
    """Print the comparison and return the exit status."""
    if ref.keys() != work.keys():
        print(f"the trees fit different items: {sorted(ref.keys() ^ work.keys())}", file=sys.stderr)
        return 2
    groups = list(dict.fromkeys(group for group, _ in ref))
    for group in groups + ["all"]:
        keys = [key for key in ref if group in (key[0], "all")]
        r, w = [ref[k] for k in keys], [work[k] for k in keys]
        print(f"{group}:\n  {ref_name:>12}: {_summary(r)}\n  {'working tree':>12}: {_summary(w)}")
        ratio = sum(f["func_evals"] for f in w) / sum(f["func_evals"] for f in r)
        line = f"  func_evals ratio {ratio:.4f}"
        r_auc, w_auc = ([f["auc"] for f in fits if f["auc"] is not None] for fits in (r, w))
        if r_auc:
            line += f"  median AUC delta {statistics.median(w_auc) - statistics.median(r_auc):+.4f}"
        print(line)

    differing = [key for key in ref if any(ref[key][f] != work[key][f] for f in FIELDS)]
    print(f"fits differing in NLL, residual, iterations, func_evals or stop reason: {len(differing)}")
    for key in differing:
        r, w = ref[key], work[key]
        print(f"  {key[0]} {key[1]}: " + "  ".join(f"{f} {r[f]!r} -> {w[f]!r}" for f in FIELDS if r[f] != w[f]))

    rises = [key for key in ref
             if work[key]["nll"] - ref[key]["nll"] > NLL_RTOL * max(1.0, abs(ref[key]["nll"]))]
    for key in rises:
        print(f"NLL rises: {key[0]} {key[1]}: {ref[key]['nll']!r} -> {work[key]['nll']!r}")
    above = [sum(fits[key]["residual"] > KKT_TOL for key in fits) for fits in (ref, work)]
    print(f"residual > {KKT_TOL:g}: {above[0]} fits at {ref_name}, {above[1]} in the working tree")
    failed = bool(rises) or above[1] > above[0]
    print("FAIL" if failed else "pass")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree with")
    parser.add_argument("--seed", type=int, default=0, help="workload run seed (default 0)")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as tmp:
        try:
            ref, work = (fits(tree, args.seed, tmp) for tree in load_trees(args.ref, tmp))
        except Exception:
            traceback.print_exc()
            return 2
    return compare(ref, work, args.ref)


if __name__ == "__main__":
    sys.exit(main())
