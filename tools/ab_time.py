#!/usr/bin/env python3
"""Time the working tree against a git revision, item by item, in one process.

Run from anywhere inside the repository:

    python3 tools/ab_time.py REF

Both trees are loaded, and the benchmark's ``example1-joint``,
``gp1000-fit`` and ``cli-sweep`` workloads set up on each, as
``tools/bitwise_check.py`` does: one process, one BLAS thread, ``REF``'s
package under a second name. The process is pinned to one CPU, so the
sweep's cells run in it. Each of ROUNDS = 10 rounds calls every item of the
three workloads once per tree, the two calls of an item back to back;
``REF`` goes first in even rounds and the working tree in odd ones. Each
call is timed with ``time.perf_counter``, and its output is hashed as
``bitwise_check`` hashes that workload and compared with the same tree's
first call on the item and with the other tree's. Every call goes through
``bitwise_check.timed_call``, which also times each fit a sweep makes (4
cell ``optimize_sigma`` calls and 20 fold ``optimize_sigma_matrix``
calls, the fits ``quality_check.py`` reads): they are the items of a
fourth row, ``cli-sweep fits``, and each fit's sigma and trace are hashed
as ``bitwise_check`` hashes a fit and compared in the same way.

Per row it prints the ratio of summed per-item minimum times (working
tree over ``REF``) and one paired reading over the rounds, taken from each
round's ratio of summed item times: the rounds the working tree won (a
tie counts for neither tree) and the median and range of those ratios.
A row shows a gain only when the working tree wins at least 9 of the 10
rounds, and a loss only when it wins at most 1; the range shows how far
the host moved one round against another. Beside these stand each tree's
summed ``func_evals`` over one pass where the calls return a trace, so
that a faster iteration is not confused with a shorter path. It also
prints ``nproc``, the affinity, the BLAS thread variables and
``/proc/loadavg`` before and after the rounds. The workloads are set up at run seed 0, as
the benchmark's first run is.

Nothing is gated: times, ratios and differing bytes are readings. The exit
status is 2 when ``REF`` cannot be exported, a tree fails to load or run,
or the sweeps do not all make the same number of fits, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

from bitwise_check import (THREAD_VARS, WORKLOADS, _digest, _fit_parts, load_trees, setup_workloads, timed_call,
                           workload_digest)

ROUNDS = 10
FITS = "cli-sweep fits"  # the sweep's fits, timed as items while it runs
ROWS = WORKLOADS + (FITS,)


def _loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def _paired(ref: list[list[float]], work: list[list[float]]) -> tuple[int, float, float, float]:
    """The paired reading of ``work`` against ``ref`` (times by round, then
    item): the rounds in which ``work``'s summed item time is below
    ``ref``'s, so that a tie counts for neither, and the median, lowest and
    highest of the per-round ratios of summed item times, ``work`` over
    ``ref``."""
    sums = [(sum(r), sum(w)) for r, w in zip(ref, work)]
    ratios = [w / r for r, w in sums]
    return sum(w < r for r, w in sums), statistics.median(ratios), min(ratios), max(ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with tempfile.TemporaryDirectory() as tmp:
        try:
            trees = dict(zip((args.ref, "working tree"), load_trees(args.ref, tmp)))
            print(f"nproc {os.cpu_count()}  affinity {sorted(os.sched_getaffinity(0))}  "
                  + "  ".join(f"{var}={os.environ.get(var)}" for var in THREAD_VARS))
            print(f"loadavg before: {_loadavg()}")
            workloads = {label: setup_workloads(tree, 0, tmp) for label, tree in trees.items()}
            items = {name: workloads["working tree"][name].items() for name in WORKLOADS}
            # by (row, tree): times by round and item; first digest and func_evals by item
            times = {(name, label): [[] for _ in range(ROUNDS)] for name in ROWS for label in trees}
            first, evals = {key: [] for key in times}, {key: [] for key in times}
            repeats_differ = dict.fromkeys(times, 0)

            def note(key, r, seconds, digest, func_evals):
                times[key][r].append(seconds)
                if r == 0:
                    first[key].append(digest)
                    evals[key].append(func_evals)
                repeats_differ[key] += digest != first[key][len(times[key][r]) - 1]

            for r in range(ROUNDS):
                order = list(trees) if r % 2 == 0 else list(trees)[::-1]
                for name in WORKLOADS:
                    for item in items[name]:
                        for label in order:
                            output, seconds, fits = timed_call(trees[label], workloads[label], name, item)
                            note((name, label), r, seconds, workload_digest(name, [output]),
                                 getattr(output[-1], "func_evals", None))
                            for _, _, fit_seconds, (sigma, trace) in fits:
                                note((FITS, label), r, fit_seconds, _digest(*_fit_parts(sigma, trace)),
                                     trace.func_evals)
            fit_counts = {len(row) for label in trees for row in times[FITS, label]}
            if len(fit_counts) != 1:
                raise RuntimeError(f"the sweeps made different numbers of fits: {sorted(fit_counts)}")
        except Exception:
            traceback.print_exc()
            return 2
    print(f"loadavg after: {_loadavg()}")

    ref, work = trees
    print(f"{ROUNDS} rounds; {ref} first in even rounds, the working tree in odd ones; ratio = working tree / {ref}")
    print(f"{'workload':15s} {'items':>5s} {ref[:12]:>12s} {'working tree':>12s}  ratio  "
          f"{'rounds won, median [range]':32s} {'func_evals':>19s}  bytes")
    for name in ROWS:
        mins = [sum(min(col) for col in zip(*times[name, label])) for label in trees]
        won, median, low, high = _paired(times[name, ref], times[name, work])
        e = evals[name, ref] + evals[name, work]
        counts = "-" if None in e else f"{sum(evals[name, ref])} / {sum(evals[name, work])}"
        between = sum(a != b for a, b in zip(first[name, ref], first[name, work]))
        repeats = [repeats_differ[name, label] for label in trees]
        same = "equal" if between + sum(repeats) == 0 else (
            f"DIFFERENT: {between} item(s) between trees; repeats differ {repeats[0]} ({ref}), "
            f"{repeats[1]} (working tree)")
        print(f"{name:15s} {len(times[name, ref][0]):5d} {mins[0]:11.4f}s {mins[1]:11.4f}s  {mins[1] / mins[0]:.3f}  "
              f"{f'{won:2d}/{ROUNDS}  {median:.3f} [{low:.3f}, {high:.3f}]':32s} {counts:>19s}  {same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
