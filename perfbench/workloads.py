"""The benchmark's workloads: inputs, the timed call, and checks.

Each workload drives the library through public functions only and is a
closed loop: the next call starts when the previous one returns.

Every run times the same fixed problem set, so runs with different seeds do
the same work and a later change can be compared on it. The problem set is
chosen by ``--problem-set``: ``reference`` (dataset seeds from 0) or
``held-out`` (dataset seeds from 1000), the latter for checking a claim on
data it was not tuned on. The run seed changes the inputs without changing
the problem: it translates every input by a seeded offset and every label by
a seeded constant. The RBF kernel and the label centring are invariant under
both, so the fits agree up to rounding whatever the seed.

``items()`` is the item list of one pass. ``setup`` ends with a warm-up
call whose errors are ignored: the timed calls repeat the same work, and
count each failure. ``check`` runs after the timed phase on every call's
output and returns one list of failure reasons per call plus the quality
figures of the distinct items.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import gplabelnoise as gpl
import gplabelnoise.cli

# first dataset seed of each problem set
PROBLEM_SETS = {"reference": 0, "held-out": 1000}

# A fit violates KKT when its scaled sigma-gradient g = grad_sigma / diag(Kt^-1)
# has |g_i| > KKT_TOL where sigma_i > 0, or -g_i > KKT_TOL where sigma_i = 0.
KKT_TOL = 1e-3


def translate(data, seed: int):
    """The same problem presented at a seeded offset: X + u, y + c with u, c
    drawn uniformly from [-1, 1]."""
    rng = np.random.default_rng(seed)
    shift_x = rng.uniform(-1.0, 1.0, data.d)
    shift_y = rng.uniform(-1.0, 1.0)
    return gpl.make_dataset(data.X + shift_x, data.y + shift_y, data.truth)


def kkt_violated(params, sigma, data) -> bool:
    """Recompute the KKT residual of a returned fit through public gpr calls."""
    y = data.y_centered
    state = gpl.fit_matrix(gpl.build_kernel_matrix(params, data.X), sigma, y)
    g = gpl.grad_sigma(state, y) / state.kinv_diag
    positive = sigma > 0.0
    return bool(np.any(np.abs(g[positive]) > KKT_TOL) or np.any(-g[~positive] > KKT_TOL))


class _LibraryFits:
    """Shared items and checks for workloads whose call returns
    (params, sigma, trace) for one of ``self.datasets``."""

    def items(self) -> list[int]:
        return list(range(len(self.datasets)))

    def dataset_seed(self, item: int) -> int:
        return self.base + item

    def check(self, calls):
        failures = []
        first = {}
        for call in calls:
            reasons = []
            if call.error is not None:
                reasons.append(call.error)
            else:
                params, sigma, trace = call.output
                if not (np.all(np.isfinite(sigma)) and np.all(sigma >= 0.0)):
                    reasons.append("sigma not finite and non-negative")
                if not math.isfinite(trace.final_nll):
                    reasons.append("final NLL not finite")
                if call.item in first:
                    if not np.array_equal(sigma, first[call.item][1]):
                        reasons.append("sigma differs from an earlier call on the same input")
                else:
                    first[call.item] = call.output
            failures.append(reasons)
        quality = {"dataset_seed": [], "auc": [], "final_nll": [], "kkt_violated": [], "iters": [],
                   "func_evals": [], "converged": []}
        for item, (params, sigma, trace) in sorted(first.items()):
            data = self.datasets[item]
            quality["dataset_seed"].append(self.dataset_seed(item))
            quality["auc"].append(gpl.roc_auc(sigma, data.truth.corrupted))
            quality["final_nll"].append(trace.final_nll)
            quality["kkt_violated"].append(kkt_violated(params, sigma, data))
            quality["iters"].append(trace.iters)
            quality["func_evals"].append(trace.func_evals)
            quality["converged"].append(trace.converged)
        return failures, quality


class Example1Joint(_LibraryFits):
    """``joint_optimize`` with default configs on the 20 ``gen_example1``
    datasets of the problem set (seeds 0..19 are criterion 8's)."""

    def setup(self, seed: int, base: int) -> None:
        self.base = base
        self.datasets = [translate(gpl.gen_example1(base + k), seed) for k in range(20)]
        with contextlib.suppress(gpl.GplnError):
            gpl.joint_optimize(self.datasets[0])

    def call(self, item: int):
        return gpl.joint_optimize(self.datasets[item])


class Gp1000Fit(_LibraryFits):
    """``optimize_sigma`` under ``heuristic_params`` on one N=1000, d=2 GP
    draw with 10% of its labels corrupted at level 1.0, repeated."""

    def setup(self, seed: int, base: int) -> None:
        self.base = base
        clean = gpl.gen_gp(gpl.KernelParams(1.0, 0.3), 1000, d=2, seed=base)
        data = translate(gpl.inject_noise(clean, gpl.NoiseInjectionSpec(rate=0.1, level=1.0, seed=base)), seed)
        self.datasets = [data]
        params = gpl.heuristic_params(data.X, data.y)
        with contextlib.suppress(gpl.GplnError):
            gpl.fit_matrix(gpl.build_kernel_matrix(params, data.X), np.full(data.n, 0.1), data.y_centered)

    def call(self, item: int):
        data = self.datasets[item]
        params = gpl.heuristic_params(data.X, data.y)
        sigma, trace = gpl.optimize_sigma(params, data)
        return params, sigma, trace


class CliSweep:
    """In-process ``gplabelnoise benchmark`` sweep on the criterion-9 base
    (a pristine N=200, d=3 GP draw with length scale 0.8, passed as a CSV),
    rates 0.1,0.3 x levels 0.5,1.0, with the dataset seed as ``--seed``.

    A run invokes the sweep at least twice, and every CSV of a run must be
    byte-identical to every other.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._outputs = 0

    def _write_base(self, seed: int, n: int) -> str:
        clean = gpl.gen_gp(gpl.KernelParams(1.0, 0.8), n, d=3, seed=self.base)
        path = os.path.join(self.workdir, f"base-{n}.csv")
        gpl.write_dataset(translate(clean, seed), path)
        return path

    def setup(self, seed: int, base: int) -> None:
        self.base = base
        self.data_path = self._write_base(seed, 200)
        self._invoke(self._write_base(seed, 12))

    def items(self) -> list[int]:
        return [0]

    def dataset_seed(self, item: int) -> int:
        return self.base

    def call(self, item: int):
        return self._invoke(self.data_path)

    def _invoke(self, data_path: str):
        self._outputs += 1
        out = os.path.join(self.workdir, f"sweep-{self._outputs}.csv")
        argv = ["benchmark", "--data", data_path, "--rates", "0.1,0.3", "--levels", "0.5,1.0",
                "--seed", str(self.base), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = gplabelnoise.cli.main(argv)
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        except FileNotFoundError:
            data = None
        return code, data

    def check(self, calls):
        failures = []
        csvs = [c.output[1] for c in calls if c.error is None and c.output[1] is not None]
        quality = {"auc": [], "mae_full": []}
        for call in calls:
            reasons = []
            if call.error is not None:
                failures.append([call.error])
                continue
            code, data = call.output
            if code != 0:
                reasons.append(f"exit code {code}")
            if data is None:
                failures.append(reasons + ["no CSV written"])
                continue
            if len(csvs) < 2:
                reasons.append("no second invocation on the same input")
            elif any(other != data for other in csvs):
                reasons.append("CSV differs from an invocation on the same input")
            header, *rows = [line.split(",") for line in data.decode().splitlines()]
            if len(rows) != 4 or any(len(row) != len(header) for row in rows):
                failures.append(reasons + ["CSV does not hold one full row per sweep cell"])
                continue
            cells = [dict(zip(header, row)) for row in rows]
            if any(c["error"] != "" for c in cells):
                reasons.append("error column not empty")
            auc = [_finite(c["auc"]) for c in cells]
            mae = [_finite(c["mae_full"]) for c in cells]
            if None in auc or None in mae:
                reasons.append("auc or mae_full missing or not finite")
            elif not quality["auc"]:
                quality["auc"], quality["mae_full"] = auc, mae
            failures.append(reasons)
        return failures, quality


def _finite(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None
