"""Empirical-likelihood inference for stationary time-series parameters via
the Whittle periodogram reduction: EL and adjusted-EL ratio statistics,
confidence regions for ARMA parameters, and Monte Carlo coverage experiments.

Records of silent fallbacks (non-converged or boundary fits, truncated
interval ends) go to the ``elspec`` logger, which has a NullHandler.
"""

import logging

from .arma import (
    ArmaSpec,
    NoiseKind,
    TimeSeries,
    log_spectral_gradient,
    max_companion_modulus,
    simulate,
    spectral_density,
    spectrum_shape,
)
from .bartlett import bartlett_constants
from .confidence import (
    Interval,
    RegionGrid,
    extract_contour,
    grid_axis,
    interval_1d,
    method_threshold,
    scan_region,
)
from .el import (
    HALF_LOG,
    MAX_HALF_LOG,
    AdjustmentPolicy,
    DualBatch,
    ElSolution,
    adjust_rows,
    solve_dual,
    solve_duals,
)
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    ElspecError,
    InputError,
    InvalidModelError,
    NoSolutionError,
    SingularMatrixError,
)
from .mc import (
    CoverageCell,
    CoverageReport,
    ExperimentPlan,
    PairedSummary,
    derive_seeds,
    load_plan,
    paired_summary,
    run_coverage,
)
from .periodogram import Periodogram, compute_periodogram
from .whittle import (
    FitResult,
    SandwichDiag,
    profile_loglik,
    profile_sigma2,
    psi_profile,
    psi_profile_rows,
    sandwich,
    whittle_fit,
    whittle_loglik,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "ArmaSpec", "NoiseKind", "TimeSeries", "simulate", "spectral_density",
    "spectrum_shape", "log_spectral_gradient", "max_companion_modulus",
    "Periodogram", "compute_periodogram",
    "AdjustmentPolicy", "adjust_rows", "solve_duals", "DualBatch", "solve_dual",
    "ElSolution", "MAX_HALF_LOG", "HALF_LOG",
    "whittle_loglik", "profile_loglik", "profile_sigma2", "psi_profile_rows",
    "psi_profile", "whittle_fit", "FitResult", "sandwich", "SandwichDiag",
    "bartlett_constants", "method_threshold",
    "RegionGrid", "Interval", "scan_region", "interval_1d", "extract_contour", "grid_axis",
    "ExperimentPlan", "CoverageCell", "CoverageReport", "run_coverage",
    "paired_summary", "PairedSummary", "load_plan", "derive_seeds",
    "ElspecError", "InputError", "InvalidModelError", "DegenerateInputError",
    "NoSolutionError", "ConvergenceError", "SingularMatrixError",
]
