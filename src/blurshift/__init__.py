"""Weighted mean-shift with pluggable radial influence kernels.

Blurring and nonblurring iteration, cluster extraction, contraction
diagnostics, a closed-form Gaussian shrinkage calculator, and Monte Carlo
experiment harnesses for mode estimation.
"""

from .engine import (
    ClusterResult,
    IsolatedCenterError,
    IterationTrace,
    PointSet,
    RunConfig,
    blurring_step,
    extract_clusters,
    majority_mode,
    nonblurring_step,
    run,
)
from .kernels import (
    GaussianKernel,
    Kernel,
    KernelConfigError,
    TabulatedKernel,
    TruncatedFlatKernel,
    kernel_to_config,
)

__version__ = "0.1.0"

__all__ = [
    "PointSet",
    "RunConfig",
    "IterationTrace",
    "ClusterResult",
    "IsolatedCenterError",
    "blurring_step",
    "nonblurring_step",
    "run",
    "extract_clusters",
    "majority_mode",
    "Kernel",
    "GaussianKernel",
    "TruncatedFlatKernel",
    "TabulatedKernel",
    "kernel_to_config",
    "KernelConfigError",
    "__version__",
]
