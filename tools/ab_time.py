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
first call on the item and with the other tree's. While a sweep runs, its
24 fits (4 cell ``optimize_sigma`` calls and 20 fold
``optimize_sigma_matrix`` calls, hooked by ``bitwise_check.sweep_fits``
as ``quality_check.py`` hooks them) are timed too, as the items of a
fourth row, ``cli-sweep fits``; each fit's sigma and trace are hashed and
compared in the same way.

Per row it prints the ratio of summed per-item minimum times (working
tree over ``REF``). For ``example1-joint`` and ``cli-sweep fits`` a 95%
percentile bootstrap interval over the items, from 2,000 resamples, stands
beside it. A one-item workload gets no interval, since a bootstrap of a
minimum over rounds never falls below the sample's minimum; it gets the
median and range of the per-round ratios of the two back-to-back calls
instead, a reading of the spread and not a confidence interval. Beside
these stand each tree's summed ``func_evals`` over one pass where the calls
return a trace, so that a faster iteration is not confused with a shorter
path. It also prints ``nproc``, the affinity, the BLAS thread variables and
``/proc/loadavg`` before and after the rounds. The workloads are set up at run seed 0, as the
benchmark's first run is.

Nothing is gated: times, ratios and differing bytes are readings. The exit
status is 2 when ``REF`` cannot be exported, a tree fails to load or run,
or the sweeps do not all make the same number of fits, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from bitwise_check import THREAD_VARS, WORKLOADS, _digest, load_trees, setup_workloads, sweep_fits, workload_digest

ROUNDS = 10
RESAMPLES = 2000
FITS = "cli-sweep fits"  # the sweep's fits, timed as items while it runs
ROWS = WORKLOADS + (FITS,)


def _loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def _spread(ref: list[list[float]], work: list[list[float]], rng: random.Random) -> str:
    """The spread of the ratio of ``work`` to ``ref`` (times by round, then
    item): a 95% bootstrap interval over items, or for one item the median
    and range of the per-round ratios."""
    if len(ref[0]) == 1:
        ratios = sorted(w[0] / r[0] for r, w in zip(ref, work))
        return f"per-round ratios: median {statistics.median(ratios):.3f}, range [{ratios[0]:.3f}, {ratios[-1]:.3f}]"
    rounds, items = range(len(ref)), range(len(ref[0]))
    samples = sorted(_ratio(ref, work, rounds, rng.choices(items, k=len(items))) for _ in range(RESAMPLES))
    return f"95% bootstrap interval over items [{samples[int(0.025 * RESAMPLES)]:.3f}, {samples[int(0.975 * RESAMPLES) - 1]:.3f}]"


def _ratio(ref, work, rounds, items) -> float:
    """Summed per-item minimum of ``work`` over that of ``ref``."""
    return (sum(min(work[r][i] for r in rounds) for i in items)
            / sum(min(ref[r][i] for r in rounds) for i in items))


def _timed(found: list):
    """A ``sweep_fits`` hook that appends each fit's time and result to
    ``found``."""
    def hook(kind, fit, *args):
        start = time.perf_counter()
        result = fit(*args)
        found.append((time.perf_counter() - start, result))
        return result
    return hook


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
                            fits = []
                            hooked = (sweep_fits(trees[label], _timed(fits)) if name == "cli-sweep"
                                      else contextlib.nullcontext())
                            with hooked:
                                start = time.perf_counter()
                                output = workloads[label][name].call(item)
                                seconds = time.perf_counter() - start
                            note((name, label), r, seconds, workload_digest(name, [output]),
                                 getattr(output[-1], "func_evals", None))
                            for fit_seconds, (sigma, trace) in fits:
                                note((FITS, label), r, fit_seconds,
                                     _digest(sigma.tobytes(), trace.nll_per_iter.tobytes(),
                                             trace.func_evals_per_iter.tobytes(), trace.stop_reason),
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
          f"{'spread':52s} {'func_evals':>19s}  bytes")
    rng = random.Random(0)
    for name in ROWS:
        count = len(times[name, ref][0])
        mins = [sum(min(col) for col in zip(*times[name, label])) for label in trees]
        ratio = _ratio(times[name, ref], times[name, work], range(ROUNDS), range(count))
        spread = _spread(times[name, ref], times[name, work], rng)
        e = evals[name, ref] + evals[name, work]
        counts = "-" if None in e else f"{sum(evals[name, ref])} / {sum(evals[name, work])}"
        between = sum(a != b for a, b in zip(first[name, ref], first[name, work]))
        repeats = [repeats_differ[name, label] for label in trees]
        same = "equal" if between + sum(repeats) == 0 else (
            f"DIFFERENT: {between} item(s) between trees; repeats differ {repeats[0]} ({ref}), "
            f"{repeats[1]} (working tree)")
        print(f"{name:15s} {count:5d} {mins[0]:11.4f}s {mins[1]:11.4f}s  {ratio:.3f}  "
              f"{spread:52s} {counts:>19s}  {same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
