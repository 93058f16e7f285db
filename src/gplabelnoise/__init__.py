"""Label-noise estimation for regression via Gaussian-process fitting.

The library fits a GP whose covariance carries one learned noise variance
per training label, optimized by a multiplicative fixed-point scheme on the
marginal likelihood. Labels with large fitted variances are the suspected
noisy ones; ``detect`` turns the variances into flags and metrics, ``data``
generates the synthetic benchmarks, and ``cli`` wraps everything for batch
runs.
"""

from .data import (
    Dataset,
    LabelTruth,
    NoiseInjectionSpec,
    gen_example1,
    gen_gp,
    gen_heteroscedastic,
    inject_noise,
    make_dataset,
    read_dataset,
    write_dataset,
)
from .detect import (
    DetectionReport,
    cv_mae,
    default_threshold,
    flag_noisy,
    precision_at_recall,
    r2_noise,
    roc_auc,
)
from .errors import (
    ConfigError,
    EmptyDatasetError,
    GplnError,
    InvalidInputError,
    NumericalError,
    ParseError,
    UndefinedMetricError,
)
from .gpr import (
    GprState,
    LoocvResult,
    fit,
    fit_matrix,
    grad_sigma,
    grad_sigma_full_matrix,
    grad_theta,
    loocv,
    nll,
    predict_batch,
)
from .kernel import (
    KernelParams,
    build_kernel_matrix,
    cross_kernel,
    eval_kernel,
    heuristic_params,
    kernel_grad_theta,
)
from .noiseopt import (
    JointOptConfig,
    MultUpdateConfig,
    OptTrace,
    PgdConfig,
    diagonal_solution,
    joint_optimize,
    mult_update_step,
    optimize_sigma,
    optimize_sigma_matrix,
    optimize_sigma_uniform_matrix,
    projected_gradient_baseline_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernel
    "KernelParams",
    "eval_kernel",
    "build_kernel_matrix",
    "cross_kernel",
    "kernel_grad_theta",
    "heuristic_params",
    # gpr
    "GprState",
    "LoocvResult",
    "fit",
    "fit_matrix",
    "predict_batch",
    "nll",
    "grad_sigma",
    "grad_sigma_full_matrix",
    "grad_theta",
    "loocv",
    # noiseopt
    "MultUpdateConfig",
    "PgdConfig",
    "JointOptConfig",
    "OptTrace",
    "mult_update_step",
    "optimize_sigma",
    "optimize_sigma_matrix",
    "optimize_sigma_uniform_matrix",
    "diagonal_solution",
    "projected_gradient_baseline_matrix",
    "joint_optimize",
    # detect
    "DetectionReport",
    "default_threshold",
    "flag_noisy",
    "roc_auc",
    "precision_at_recall",
    "r2_noise",
    "cv_mae",
    # data
    "Dataset",
    "LabelTruth",
    "NoiseInjectionSpec",
    "make_dataset",
    "gen_example1",
    "gen_heteroscedastic",
    "gen_gp",
    "inject_noise",
    "read_dataset",
    "write_dataset",
    # errors
    "GplnError",
    "InvalidInputError",
    "EmptyDatasetError",
    "ConfigError",
    "ParseError",
    "NumericalError",
    "UndefinedMetricError",
]
