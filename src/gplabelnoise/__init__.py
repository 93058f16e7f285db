"""Label-noise estimation for regression via Gaussian-process fitting.

The library fits a GP whose covariance carries one learned noise variance
per training label, optimized by a multiplicative fixed-point scheme on the
marginal likelihood. Labels with large fitted variances are the suspected
noisy ones; ``detect`` turns the variances into flags and metrics, ``data``
generates the synthetic benchmarks, and ``cli`` wraps everything for batch
runs.
"""

from .data import *
from .detect import *
from .errors import *
from .gpr import *
from .kernel import *
from .noiseopt import *
from . import data, detect, errors, gpr, kernel, noiseopt

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += kernel.__all__
__all__ += gpr.__all__
__all__ += noiseopt.__all__
__all__ += detect.__all__
__all__ += data.__all__
__all__ += errors.__all__
