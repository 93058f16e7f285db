#!/usr/bin/env python3
"""Benchmark for gplabelnoise: end-to-end metrics per workload, and a traced
run that reports per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload example1-joint --seed 0 --seconds 25 --trace 0

Workloads and the gated metrics with their bounds are declared in
BENCHMARK.json at the repository root. The library is imported from ``src/``
next to this directory, never from an installed copy.

``--trace 0`` runs whole passes over the workload's fixed item list, with
no instrumentation, until ``--seconds`` have passed; ``setup_s`` is the
median set-up time of fresh processes started before and after that phase.
``--trace 1`` runs whole passes the same way, but every item runs once
untraced and once traced; per-layer figures are per pass, and the spans are
written to ``.perfbench-spans/<workload>.csv`` under the repository root. In
both modes every call's output is checked after the timed phase, and a call
that raised or failed a check counts in ``failed``.

Standard output: one line per metric of the full report (name, value, unit,
sample count), the full report as one JSON line prefixed ``report``, and,
last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, the latter holding exactly the BENCHMARK.json metrics of the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "gplabelnoise"

# One BLAS thread. With two on a 2-core share of a host, any other process
# on those cores stalls the threads that wait for each other: one competing
# busy loop made the cli-sweep calls 3.5x slower and erratic with two threads,
# 1.2x with one. The thread count also changes the floating-point summation
# order, and with it iteration counts, so it is fixed.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is the median over fresh processes: this many before the timed
# phase and this many after it
SETUP_REPEATS = (3, 2)

UNITS = {
    "setup_s": "s",
    "fit_s_p50": "s",
    "fit_s_tail": "s",
    "fits_per_s": "1/s",
    "auc_median": "ratio",
    "final_nll_median": "nll",
    "kkt_viol_ratio": "ratio",
    "mae_full": "label_units",
    "error_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


@dataclass
class Call:
    item: int
    seconds: float
    output: object
    error: str | None


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    source = ROOT / "src"
    if not (source / PACKAGE / "__init__.py").is_file():
        _fail(f"no {PACKAGE} sources under {source}")
    sys.path.insert(0, str(source))
    import gplabelnoise

    if Path(gplabelnoise.__file__).resolve().parent != source / PACKAGE:
        _fail(f"imported {PACKAGE} from {gplabelnoise.__file__}, not from {source}")


def _make_workload(name: str, workdir: str):
    import workloads

    if name == "example1-joint":
        return workloads.Example1Joint()
    if name == "gp1000-fit":
        return workloads.Gp1000Fit()
    return workloads.CliSweep(workdir)


def _timed_call(workload, item: int) -> Call:
    start = time.perf_counter()
    try:
        output, error = workload.call(item), None
    except Exception as e:  # a failed call is counted, never dropped
        output, error = None, f"{type(e).__name__}: {e}"
    return Call(item, time.perf_counter() - start, output, error)


def _setup_seconds(args, repeats: int) -> list[float]:
    """Wall time from starting a fresh interpreter to the end of its set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child", "--workload", args.workload,
            "--seed", str(args.seed), "--problem-set", args.problem_set]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited {code} without finishing set-up")
        times.append(elapsed)
    return times


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _environment(args, dataset_seeds: list[int]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "problem_set": args.problem_set,
        "dataset_seeds": dataset_seeds,
    }


def _percentile_tail(values: list[float]) -> tuple[float, int] | None:
    """Highest whole percentile (nearest rank) with at least 10 samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100) <= n - 10
    return sorted(values)[rank - 1], pct


def _median(values):
    return statistics.median(values) if values else None


def _end_to_end(calls, phase_s, failures, quality, setup_times) -> dict:
    seconds = [c.seconds for c in calls]
    failed = sum(1 for reasons in failures if reasons)
    tail = _percentile_tail(seconds)
    kkt = quality.get("kkt_violated")
    metrics = {
        "setup_s": (_median(setup_times), len(setup_times)),
        "fit_s_p50": (_median(seconds), len(seconds)),
        "fit_s_tail": (tail[0] if tail else None, len(seconds)),
        "fits_per_s": (len(calls) / phase_s, len(calls)),
        "auc_median": (_median(quality["auc"]), len(quality["auc"])),
        "final_nll_median": (_median(quality.get("final_nll", [])), len(quality.get("final_nll", []))),
        "kkt_viol_ratio": (sum(kkt) / len(kkt) if kkt else None, len(kkt or [])),
        "mae_full": (statistics.fmean(quality["mae_full"]) if quality.get("mae_full") else None,
                     len(quality.get("mae_full", []))),
        "error_ratio": (failed / len(calls), len(calls)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    out = {}
    for name, (value, samples) in metrics.items():
        entry = {"value": value, "unit": UNITS[name], "samples": samples}
        if name == "fit_s_tail" and tail:
            entry["percentile"] = tail[1]
        out[name] = entry
    return out


class _LayerCounts:
    """Result hooks for the traced run: factorization sizes and jitter, and the
    OptTrace of every optimizer call not nested in another optimizer call."""

    def __init__(self):
        from gplabelnoise.noiseopt import OptTrace

        self._trace_type = OptTrace
        self.gflop = 0.0
        self.jittered = 0
        self.iters = 0
        self.func_evals = 0
        self.traces = 0
        self.converged = 0

    def on_fit_matrix(self, state, parent):
        n = state.n
        self.gflop += (n**3 / 3.0 + 2.0 * n**3 + 2.0 * n**2) / 1e9
        self.jittered += state.jitter > 0.0

    def on_optimizer(self, result, parent):
        if parent is not None and parent.startswith("noiseopt."):
            return
        if isinstance(result, tuple) and isinstance(result[-1], self._trace_type):
            trace = result[-1]
            self.iters += trace.iters
            self.func_evals += trace.func_evals
            self.traces += 1
            self.converged += trace.converged

    def hooks(self) -> dict:
        import gplabelnoise.noiseopt as noiseopt

        hooks = {f"noiseopt.{name}": self.on_optimizer for name in noiseopt.__all__}
        hooks["gpr.fit_matrix"] = self.on_fit_matrix
        return hooks


def _per_layer(tracer, counts: _LayerCounts, passes: int, untraced, traced) -> dict:
    def per_pass(total):
        return total // passes if isinstance(total, int) and total % passes == 0 else total / passes

    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = (per_pass(tracer.calls[name]), "count")
        out[f"{name}.self_s"] = (tracer.self_ns[name] / 1e9 / passes, "s")
    noiseopt_self = sum(
        ns for name, ns in tracer.self_ns.items()
        if name.startswith("noiseopt.") and name != "noiseopt.mult_update_step"
    )
    steps = tracer.calls["noiseopt.mult_update_step"]
    fits = tracer.calls["gpr.fit_matrix"]
    fit_s = tracer.total_ns["gpr.fit_matrix"] / 1e9
    out.update({
        "noiseopt.self_s": (noiseopt_self / 1e9 / passes, "s"),
        "noiseopt.iters": (per_pass(counts.iters), "count"),
        "noiseopt.func_evals": (per_pass(counts.func_evals), "count"),
        "noiseopt.converged_ratio": (counts.converged / counts.traces if counts.traces else 0.0, "ratio"),
        "noiseopt.restart_failures": (per_pass(tracer.warnings), "count"),
        "noiseopt.fits_per_step": (fits / steps if steps else 0.0, "ratio"),
        "gpr.jitter_ratio": (counts.jittered / fits if fits else 0.0, "ratio"),
        "gpr.fit_matrix.gflop": (counts.gflop / passes, "GFLOP"),
        "gpr.fit_matrix.gflops": (counts.gflop / fit_s if fit_s else 0.0, "GFLOP/s"),
        "trace.call_s": (sum(c.seconds for c in traced) / passes, "s"),
        "trace.overhead_ratio": (sum(c.seconds for c in traced) / sum(c.seconds for c in untraced), "ratio"),
        "trace.spans": (per_pass(len(tracer.span_id)), "count"),
        "trace.passes": (passes, "count"),
    })
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
    # derived from matrix sizes (N^3/3 Cholesky, 2N^3 inverse, 2N^2 alpha), not counted
    metrics["gpr.fit_matrix.gflop"]["computed"] = True
    metrics["gpr.fit_matrix.gflops"]["computed"] = True
    return metrics


def _setup_child(args) -> int:
    import workloads

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        _make_workload(args.workload, workdir).setup(args.seed, workloads.PROBLEM_SETS[args.problem_set])
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _timed_phase(workload, seconds: float) -> tuple[list[Call], float]:
    """Whole passes over ``workload.items()`` until ``seconds`` have passed
    (at least two passes, so that every input is run twice)."""
    calls = []
    passes = 0
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < seconds:
        calls.extend(_timed_call(workload, item) for item in workload.items())
        passes += 1
    return calls, time.perf_counter() - start


def _traced_phase(workload, seconds: float, spans_path: Path):
    """Whole passes over ``workload.items()`` until ``seconds`` have passed,
    each item once untraced and once traced."""
    from tracer import Tracer

    counts = _LayerCounts()
    tracer = Tracer(PACKAGE, counts.hooks())
    untraced, traced = [], []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, item in enumerate(workload.items()):
            # alternate which run of the pair goes first, so that whatever
            # the first call of a pair pays is shared between the two sides
            traced_first = (passes + i) % 2 == 1
            if not traced_first:
                untraced.append(_timed_call(workload, item))
            tracer.item = item
            tracer.install()
            try:
                traced.append(_timed_call(workload, item))
            finally:
                tracer.uninstall()
            if traced_first:
                untraced.append(_timed_call(workload, item))
        passes += 1
    phase_s = time.perf_counter() - start
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    calls = [c for pair in zip(untraced, traced) for c in pair]
    return calls, phase_s, _per_layer(tracer, counts, passes, untraced, traced)


def _run(args, spec) -> int:
    import workloads

    spans_path = ROOT / ".perfbench-spans" / f"{args.workload}.csv"
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_times = [] if args.trace else _setup_seconds(args, SETUP_REPEATS[0])
        workload = _make_workload(args.workload, workdir)
        start = time.perf_counter()
        workload.setup(args.seed, workloads.PROBLEM_SETS[args.problem_set])
        own_setup_s = time.perf_counter() - start
        if args.trace:
            calls, phase_s, metrics = _traced_phase(workload, args.seconds, spans_path)
        else:
            calls, phase_s = _timed_phase(workload, args.seconds)
            setup_times += _setup_seconds(args, SETUP_REPEATS[1])
        failures, quality = workload.check(calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    dataset_seeds = sorted({workload.dataset_seed(c.item) for c in calls})
    if args.trace:
        wanted = spec["per_layer"]
    else:
        metrics = _end_to_end(calls, phase_s, failures, quality, setup_times)
        wanted = spec["end_to_end"]
    failed = sum(1 for reasons in failures if reasons)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "phase_s": phase_s,
        "own_setup_s": own_setup_s,
        "setup_runs_s": setup_times,
        "kkt_tol": workloads.KKT_TOL,
        "environment": _environment(args, dataset_seeds),
        "attempted": len(calls),
        "failed": failed,
        "failure_reasons": sorted({r for reasons in failures for r in reasons}),
        "calls": [[c.item, c.seconds] for c in calls],
        "per_item": quality,
        "spans": str(spans_path.relative_to(ROOT)) if args.trace else None,
        "metrics": metrics,
    }
    for name, entry in metrics.items():
        extra = f"  (n={entry['samples']})" if "samples" in entry else ""
        if "percentile" in entry:
            extra += f"  p{entry['percentile']}"
        if entry.get("computed"):
            extra += "  (computed)"
        print(f"{name:<40} {entry['value']!r:>24} {entry['unit']}{extra}")
    print("report " + json.dumps(report, sort_keys=True))

    result = {}
    for declared in wanted:
        entry = metrics.get(declared["name"])
        if entry is None or entry["value"] is None:
            _fail(f"metric {declared['name']} is not defined on workload {args.workload}")
        result[declared["name"]] = {"value": entry["value"], "unit": declared["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": result}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--problem-set", choices=("reference", "held-out"), default="reference",
                        help="datasets to time; held-out checks a claim on data it was not tuned on")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"{spec_path} not found")
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        _fail(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    _import_library()
    if args.setup_child:
        return _setup_child(args)
    return _run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
