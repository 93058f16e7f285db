"""Batch command-line front-end.

Five subcommands: ``gen`` writes synthetic datasets, ``fit`` learns a noise
model and writes a JSON report, ``detect`` thresholds the fitted variances of
a fit report into noisy-label flags, ``benchmark`` sweeps a noise-rate x
noise-level grid into a CSV table, and ``compare-optimizers`` dumps the
multiplicative and projected-gradient traces side by side for plotting.

Settings resolve as flags > config file > documented defaults; the config
file is flat ``key=value`` with ``#`` comments, keys named after the long
flags, and unknown keys rejected. ``GPLABELNOISE_SEED`` supplies the default
seed when no flag or config entry does. Every command is deterministic given
its resolved settings: reruns produce byte-identical output files.

Exit codes: 0 success, 1 usage/config, 2 I/O, parse or a worker process that
died, 3 numerical failure, 4 fit stopped without converging (iteration cap
or NLL increase).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from ._fanout import fan_out
from .data import (
    Dataset,
    LabelTruth,
    NoiseInjectionSpec,
    _write_text,
    gen_example1,
    gen_gp,
    gen_heteroscedastic,
    inject_noise,
    read_dataset,
    write_dataset,
)
from .detect import (
    CV_MODES,
    _check_folds,
    _check_recall_levels,
    cv_mae,
    flag_noisy,
    precision_at_recall,
    r2_noise,
    roc_auc,
)
from .errors import (
    ConfigError,
    EmptyDatasetError,
    GplnError,
    NumericalError,
    ParseError,
    UndefinedMetricError,
)
from .gpr import _finite_nonnegative
from .kernel import KernelParams, build_kernel_matrix, heuristic_params
from .noiseopt import (
    JointOptConfig,
    MultUpdateConfig,
    PgdConfig,
    joint_optimize,
    optimize_sigma,
    optimize_sigma_matrix,
    optimize_sigma_uniform_matrix,
    projected_gradient_baseline_matrix,
)
from .rng import _check_seed

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3
EXIT_NOT_CONVERGED = 4

_SEED_ENV = "GPLABELNOISE_SEED"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route them through the config-error
    # path instead so the documented exit-code table holds
    def error(self, message):
        raise ConfigError(message)


def _parse_bool(text: str) -> bool:
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ConfigError(f"expected true/false/1/0, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from None
    if not values:
        raise ConfigError("expected at least one value in the list")
    return values


@dataclass(frozen=True)
class _Opt:
    """One resolvable setting: flag spelling, conversion, documented default."""

    flag: str
    type: object
    default: object
    help: str
    is_flag: bool = False

    @property
    def key(self) -> str:
        return self.flag.lstrip("-")

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_")


_SEED_OPT = _Opt("--seed", int, None, f"global seed (default: ${_SEED_ENV} or 0)")
_MAX_ITERS_OPT = _Opt("--max-iters", int, MultUpdateConfig.max_iters, "iteration cap for the noise optimizer")
_KERNEL_OPTS = [
    _Opt("--signal-variance", float, None, "kernel signal variance (default: var(y))"),
    _Opt("--length-scale", float, None, "kernel length scale (default: median pairwise distance)"),
]
_RECALL_LEVELS_OPT = _Opt("--recall-levels", _parse_float_list, [0.7, 0.95], "recall levels for precision")

_FIT_OPTS = [
    _Opt("--data", str, None, "dataset CSV to fit"),
    _Opt("--out", str, "report.json", "report path"),
    _Opt("--mode", str, "full", "noise model: full (per-label) or basic (shared)"),
    _Opt("--joint", None, False, "also optimize kernel parameters (restarted descent)", is_flag=True),
    _Opt("--lambda", float, MultUpdateConfig.penalty_lambda, "penalty weight on ||sigma||_p^p"),
    _Opt("--p", float, MultUpdateConfig.penalty_p, "penalty exponent (>= 1)"),
    _MAX_ITERS_OPT,
    _Opt("--tol-sigma", float, MultUpdateConfig.tol_sigma, "relative sigma-change stopping tolerance"),
    _Opt("--tol-nll", float, MultUpdateConfig.tol_nll, "NLL-decrease stopping tolerance"),
    _Opt("--sigma-init", float, None, "initial noise variance (default: 0.1 * var(y))"),
    *_KERNEL_OPTS,
    _Opt("--outer-rounds", int, JointOptConfig.outer_rounds, "joint mode: block-coordinate rounds"),
    _Opt("--restarts", int, JointOptConfig.restarts, "joint mode: random restarts"),
    _SEED_OPT,
]

_DETECT_OPTS = [
    _Opt("--report", str, None, "fit report to threshold"),
    _Opt("--out", str, "detection.json", "detection report path"),
    _Opt("--threshold", float, None, "flagging threshold (default: median + 3*MAD)"),
    _RECALL_LEVELS_OPT,
]

_GEN_OPTS = [
    _Opt("--example1", None, False, "24-point benchmark with 10 corrupted labels", is_flag=True),
    _Opt("--hetero", str, None, "heteroscedastic family: goldberg or le"),
    _Opt("--grid", None, False, "GP draw plus rate/level noise injection", is_flag=True),
    _Opt("--n", int, 30, "sample count (hetero/grid)"),
    _Opt("--d", int, 1, "input dimension (grid)"),
    _Opt("--n-corrupt", int, 6, "corrupted count (hetero)"),
    _Opt("--rate", float, 0.1, "fraction of labels to corrupt (grid)"),
    _Opt("--level", float, 0.5, "corruption std as a ratio of std(y) (grid)"),
    _Opt("--base-noise", float, 0.0, "iid base noise std (grid)"),
    _Opt("--gp-signal-variance", float, 1.0, "generating kernel signal variance (grid)"),
    _Opt("--gp-length-scale", float, 0.3, "generating kernel length scale (grid)"),
    _Opt("--out", str, "dataset.csv", "output CSV path"),
    _SEED_OPT,
]

_BENCHMARK_OPTS = [
    _Opt("--data", str, None, "pristine base dataset CSV (e.g. from gen --grid --rate 0)"),
    _Opt("--rates", _parse_float_list, [0.1, 0.3], "noise rates to sweep"),
    _Opt("--levels", _parse_float_list, [0.5, 1.0], "noise levels to sweep"),
    _RECALL_LEVELS_OPT,
    _Opt("--folds", int, 5, "cross-validation folds"),
    _Opt("--joint", None, False, "fit kernel parameters per cell instead of the heuristic", is_flag=True),
    _MAX_ITERS_OPT,
    _Opt("--out", str, "benchmark.csv", "output CSV path"),
    _SEED_OPT,
]

_COMPARE_OPTS = [
    _Opt("--data", str, None, "dataset CSV"),
    *_KERNEL_OPTS,
    replace(_MAX_ITERS_OPT, default=PgdConfig.max_iters, help="iteration cap for both optimizers"),
    _Opt("--out", str, "optimizers.csv", "output CSV path"),
]

_COMMAND_OPTS = {
    "gen": _GEN_OPTS,
    "fit": _FIT_OPTS,
    "detect": _DETECT_OPTS,
    "benchmark": _BENCHMARK_OPTS,
    "compare-optimizers": _COMPARE_OPTS,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="gplabelnoise", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"gplabelnoise {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in _COMMAND_OPTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value settings file")
        for o in opts:
            if o.is_flag:
                p.add_argument(o.flag, dest=o.dest, action="store_true", default=None, help=o.help)
            else:
                p.add_argument(o.flag, dest=o.dest, type=str, default=None, help=o.help)
    return parser


def _read_config_file(path: str, known: dict[str, _Opt]) -> dict[str, str]:
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    values: dict[str, str] = {}
    for line_no, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _convert(opt: _Opt, text: str):
    if opt.is_flag:
        return _parse_bool(text)
    try:
        return opt.type(text)
    except ValueError:
        raise ConfigError(f"invalid value {text!r} for --{opt.key}") from None


def _resolve(args: argparse.Namespace, opts: list[_Opt]) -> tuple[dict, set]:
    """Apply the flags > config file > defaults precedence.

    Returns the resolved settings plus the set of keys the user supplied
    explicitly (either way), which conflict checks care about.
    """
    known = {o.key: o for o in opts}
    file_values = _read_config_file(args.config, known) if args.config else {}
    resolved: dict[str, object] = {}
    provided: set[str] = set()
    for o in opts:
        raw = getattr(args, o.dest)
        if raw is not None:
            resolved[o.dest] = raw if o.is_flag else _convert(o, raw)
            provided.add(o.dest)
        elif o.key in file_values:
            resolved[o.dest] = _convert(o, file_values[o.key])
            provided.add(o.dest)
        else:
            resolved[o.dest] = o.default
    if "seed" in resolved and resolved["seed"] is None:
        env = os.environ.get(_SEED_ENV)
        try:
            resolved["seed"] = int(env) if env is not None else 0
        except ValueError:
            raise ConfigError(f"${_SEED_ENV} must be an integer, got {env!r}") from None
    return resolved, provided


_TOOL = {"name": "gplabelnoise", "version": __version__}


def _write_report(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _float_cell(value) -> str:
    return "NA" if value is None else repr(float(value))


# ---------------------------------------------------------------------------
# fitting plumbing shared by fit / benchmark


# CLI settings -> MultUpdateConfig fields; a field whose setting a command
# lacks keeps its default
_MULT_FIELDS = {"max_iters": "max_iters", "tol_sigma": "tol_sigma", "tol_nll": "tol_nll",
                "sigma_init": "sigma_init", "lambda": "penalty_lambda", "p": "penalty_p"}


def _mult_config(cfg: dict) -> MultUpdateConfig:
    return MultUpdateConfig(**{field: cfg[key] for key, field in _MULT_FIELDS.items() if key in cfg})


def _explicit_params(cfg: dict, data: Dataset) -> KernelParams:
    base = heuristic_params(data.X, data.y)
    return KernelParams(
        signal_variance=cfg["signal_variance"] if cfg.get("signal_variance") is not None else base.signal_variance,
        length_scale=cfg["length_scale"] if cfg.get("length_scale") is not None else base.length_scale,
    )


def _run_fit(data: Dataset, cfg: dict, provided: set) -> tuple[KernelParams, np.ndarray, object]:
    """Returns (params, per-label sigma, trace)."""
    if cfg["mode"] not in ("full", "basic"):
        raise ConfigError(f"mode must be full or basic, got {cfg['mode']!r}")
    mult = _mult_config(cfg)
    if cfg["joint"]:
        if provided & {"signal_variance", "length_scale"}:
            raise ConfigError("--joint optimizes the kernel; drop the explicit kernel flags")
        if cfg["mode"] != "full":
            raise ConfigError("--joint requires --mode full")
        joint = JointOptConfig(
            outer_rounds=cfg["outer_rounds"],
            restarts=cfg["restarts"],
            restart_seed=cfg["seed"],
        )
        return joint_optimize(data, joint, mult)
    unused = provided & {"outer_rounds", "restarts"}
    if unused:
        raise ConfigError(f"--{max(unused).replace('_', '-')} needs --joint")
    params = _explicit_params(cfg, data)
    optimizer = optimize_sigma_uniform_matrix if cfg["mode"] == "basic" else optimize_sigma_matrix
    sigma, trace = optimizer(build_kernel_matrix(params, data.X), data.y_centered, mult)
    return params, sigma, trace


def _per_label_section(sigma, truth: LabelTruth | None) -> list[dict]:
    rows = []
    for i in range(len(sigma)):
        row = {"index": i, "sigma": float(sigma[i])}
        if truth is not None:
            row["epsilon"] = float(truth.epsilon[i])
            row["corrupted"] = bool(truth.corrupted[i])
        rows.append(row)
    return rows


def _trace_section(trace) -> dict:
    return {
        "iters": trace.iters,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "monotone": trace.monotone,
        "final_nll": trace.final_nll,
        "func_evals": trace.func_evals,
    }


def _metrics_section(sigma, truth: LabelTruth | None, levels: list[float]) -> tuple[dict | None, dict]:
    """Compute detection metrics, collecting per-metric failures instead of
    aborting: a degenerate truth vector should not sink the whole report."""
    if truth is None:
        return None, {}
    corrupted = truth.corrupted
    errors: dict[str, str] = {}
    metrics: dict[str, object] = {}
    try:
        metrics["auc"] = roc_auc(sigma, corrupted)
    except UndefinedMetricError as e:
        errors["auc"] = str(e)
    try:
        pr = precision_at_recall(sigma, corrupted, levels)
        metrics["precision_at_recall"] = {repr(level): pr[level] for level in levels}
    except UndefinedMetricError as e:
        errors["precision_at_recall"] = str(e)
    try:
        metrics["r2_noise"] = r2_noise(sigma, truth.epsilon**2)
    except UndefinedMetricError as e:
        errors["r2_noise"] = str(e)
    return metrics, errors


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    cfg, provided = _resolve(args, _GEN_OPTS)
    selectors = [name for name in ("example1", "hetero", "grid") if cfg[name]]
    if len(selectors) != 1:
        raise ConfigError("pick exactly one of --example1, --hetero, --grid")
    kind = selectors[0]

    fixed = {
        "example1": {"n", "d", "n_corrupt", "rate", "level", "base_noise",
                     "gp_signal_variance", "gp_length_scale"},
        "hetero": {"d", "rate", "level", "base_noise", "gp_signal_variance", "gp_length_scale"},
        "grid": {"n_corrupt"},
    }[kind]
    clash = provided & fixed
    if clash:
        raise ConfigError(f"--{kind} does not take --{sorted(clash)[0].replace('_', '-')}")

    if kind == "example1":
        dataset = gen_example1(cfg["seed"])
    elif kind == "hetero":
        dataset = gen_heteroscedastic(cfg["hetero"], cfg["n"], cfg["n_corrupt"], cfg["seed"])
    else:
        gp_params = KernelParams(cfg["gp_signal_variance"], cfg["gp_length_scale"])
        clean = gen_gp(
            gp_params, cfg["n"], d=cfg["d"], seed=cfg["seed"], base_noise_std=cfg["base_noise"]
        )
        dataset = inject_noise(
            clean, NoiseInjectionSpec(rate=cfg["rate"], level=cfg["level"], seed=cfg["seed"])
        )
    write_dataset(dataset, cfg["out"])
    corrupted = int(np.sum(dataset.truth.corrupted)) if dataset.truth is not None else 0
    print(f"wrote {cfg['out']}: N={dataset.n} d={dataset.d} corrupted={corrupted} seed={cfg['seed']}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    cfg, provided = _resolve(args, _FIT_OPTS)
    if cfg["data"] is None:
        raise ConfigError("--data is required")
    dataset = read_dataset(cfg["data"])
    params, sigma, trace = _run_fit(dataset, cfg, provided)
    _write_report(cfg["out"], {
        "tool": _TOOL,
        "command": "fit",
        "config": cfg,
        "theta": {"signal_variance": params.signal_variance, "length_scale": params.length_scale},
        "trace": _trace_section(trace),
        "per_label": _per_label_section(sigma, dataset.truth),
    })
    status = "converged" if trace.converged else "not converged"
    print(
        f"wrote {cfg['out']}: N={dataset.n} iters={trace.iters} "
        f"final_nll={trace.final_nll!r} ({status}, stop_reason={trace.stop_reason})"
    )
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def _is_json_number(value) -> bool:
    # json reads true/false as bool, a subclass of int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_report_labels(path: str) -> tuple[np.ndarray, LabelTruth | None]:
    with open(path, "r") as fh:
        try:
            # integers read as floats: one too large for a float is inf
            doc = json.load(fh, parse_int=float)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: not valid JSON ({e})", line=e.lineno) from None
    try:
        rows = doc["per_label"]
        sigma = [row["sigma"] for row in rows]
    except (KeyError, TypeError):
        raise ParseError(f"{path}: missing per_label sigma entries", line=1) from None
    if not all(map(_is_json_number, sigma)):
        raise ParseError(f"{path}: per_label sigma entries must be numbers", line=1)
    sigma = np.array(sigma, dtype=float)
    if sigma.shape[0] == 0 or not np.all(np.isfinite(sigma) & (sigma >= 0.0)):
        raise ParseError(f"{path}: per_label needs one or more finite, non-negative sigma entries", line=1)
    if not any("corrupted" in row for row in rows):
        return sigma, None
    # truth is all or nothing: scoring a row whose truth is missing or
    # mistyped would invent that truth
    if not all(isinstance(row.get("corrupted"), bool) for row in rows):
        raise ParseError(f"{path}: per_label rows must all carry a true/false corrupted when one does", line=1)
    eps = [row.get("epsilon") for row in rows]
    if not (all(map(_is_json_number, eps)) and np.all(np.isfinite(eps))):
        raise ParseError(f"{path}: per_label epsilon entries must be finite numbers", line=1)
    return sigma, LabelTruth(np.array(eps, dtype=float), np.array([row["corrupted"] for row in rows]))


def _cmd_detect(args) -> int:
    cfg, _ = _resolve(args, _DETECT_OPTS)
    # checked here, not only by the metrics: a report without truth skips them
    _check_recall_levels(cfg["recall_levels"])
    if cfg["report"] is None:
        raise ConfigError("--report is required")
    # flag_noisy reads an infinite threshold as "flag nothing", but the
    # report, strict JSON, cannot hold one
    if cfg["threshold"] is not None and not _finite_nonnegative(cfg["threshold"]):
        raise ConfigError(f"threshold must be non-negative and finite, got {cfg['threshold']}")
    sigma, truth = _load_report_labels(cfg["report"])
    report = flag_noisy(sigma, cfg["threshold"])
    rows = _per_label_section(sigma, truth)
    for row, flag in zip(rows, report.flags):
        row["flag"] = bool(flag)
    metrics, metric_errors = _metrics_section(sigma, truth, cfg["recall_levels"])
    _write_report(cfg["out"], {
        "tool": _TOOL,
        "command": "detect",
        "config": cfg,
        "threshold": report.threshold,
        "per_label": rows,
        "metrics": metrics,
        "metric_errors": metric_errors,
    })
    print(f"wrote {cfg['out']}: flagged={report.n_flagged}/{len(report.flags)} threshold={report.threshold!r}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    cfg, _ = _resolve(args, _BENCHMARK_OPTS)
    if cfg["data"] is None:
        raise ConfigError("--data is required")
    base = read_dataset(cfg["data"])
    if base.truth is not None and base.truth.corrupted.any():
        raise ConfigError("benchmark base dataset must be pristine (no label marked corrupted)")

    # every setting is checked before the first cell fits anything
    mult = _mult_config(cfg)
    specs = [NoiseInjectionSpec(rate=rate, level=level, seed=cfg["seed"] + cell)
             for cell, (rate, level) in enumerate(itertools.product(cfg["rates"], cfg["levels"]))]
    for spec in specs:
        _check_seed(spec.seed)
    _check_recall_levels(cfg["recall_levels"])
    _check_folds(cfg["folds"], base.n)

    levels_cols = [f"precision_at_{level!r}" for level in cfg["recall_levels"]]
    header = ["rate", "level", "r2", "auc", *levels_cols, *[f"mae_{mode}" for mode in CV_MODES], "error"]
    # each cell has its own seed and reads no other's result, so the rows
    # are the same bytes in one process or many
    rows = fan_out(functools.partial(_benchmark_cell, base, cfg=cfg, mult=mult), specs, "benchmark")
    lines = [",".join(header)] + [",".join(row) for row in rows]
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    print(f"wrote {cfg['out']}: {len(specs)} cells")
    return EXIT_OK


def _benchmark_cell(base: Dataset, spec: NoiseInjectionSpec, cfg: dict, mult: MultUpdateConfig) -> list[str]:
    levels = cfg["recall_levels"]
    metrics: dict = {}
    maes: dict[str, float] = {}
    error = ""
    try:
        noisy = inject_noise(base, spec)
        if cfg["joint"]:
            joint = JointOptConfig(restart_seed=spec.seed)
            params, sigma, _ = joint_optimize(noisy, joint, mult)
        else:
            params = heuristic_params(noisy.X, noisy.y)
            sigma, _ = optimize_sigma(params, noisy, mult)
        metrics, _ = _metrics_section(sigma, noisy.truth, levels)
        maes = cv_mae(noisy, params, folds=cfg["folds"], seed=spec.seed, config=mult)
    except NumericalError as e:
        # a cell whose fit fails reports its error and the sweep moves on;
        # the settings were checked before the first cell
        error = str(e).replace(",", ";").replace("\n", " ")
    precision = metrics.get("precision_at_recall", {})
    cells = [
        metrics.get("r2_noise"),
        metrics.get("auc"),
        *[precision.get(repr(lv)) for lv in levels],
        *[maes.get(mode) for mode in CV_MODES],
    ]
    return [repr(float(spec.rate)), repr(float(spec.level))] + [_float_cell(c) for c in cells] + [error]


def _cmd_compare_optimizers(args) -> int:
    cfg, _ = _resolve(args, _COMPARE_OPTS)
    if cfg["data"] is None:
        raise ConfigError("--data is required")
    dataset = read_dataset(cfg["data"])
    K = build_kernel_matrix(_explicit_params(cfg, dataset), dataset.X)
    # both start from the same data-driven default, 0.1 * var(y)
    _, mult_trace = optimize_sigma_matrix(K, dataset.y_centered, MultUpdateConfig(max_iters=cfg["max_iters"]))
    _, pgd_trace = projected_gradient_baseline_matrix(K, dataset.y_centered, PgdConfig(max_iters=cfg["max_iters"]))

    lines = ["optimizer,iteration,nll,func_evals"]
    for name, trace in (("multiplicative", mult_trace), ("projected_gradient", pgd_trace)):
        for i in range(trace.iters + 1):
            lines.append(
                f"{name},{i},{float(trace.nll_per_iter[i])!r},{int(trace.func_evals_per_iter[i])}"
            )
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    print(
        f"wrote {cfg['out']}: multiplicative {mult_trace.func_evals} evals, "
        f"projected_gradient {pgd_trace.func_evals} evals"
    )
    return EXIT_OK


_HANDLERS = {
    "gen": _cmd_gen,
    "fit": _cmd_fit,
    "detect": _cmd_detect,
    "benchmark": _cmd_benchmark,
    "compare-optimizers": _cmd_compare_optimizers,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except SystemExit as e:  # --help / --version
        return e.code if isinstance(e.code, int) else 0
    except (ParseError, EmptyDatasetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GplnError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
