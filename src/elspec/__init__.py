"""Empirical-likelihood inference for stationary time-series parameters via
the Whittle periodogram reduction: EL and adjusted-EL ratio statistics,
confidence regions for ARMA parameters, and Monte Carlo coverage experiments.
"""

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
from .bartlett import estimate_bartlett
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
    ElSolution,
    PsiMatrix,
    adjust,
    solve_dual,
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
    derive_seed,
    load_plan,
    paired_summary,
    run_coverage,
)
from .periodogram import Periodogram, all_fourier_ordinates, compute_periodogram
from .whittle import (
    FitResult,
    SandwichDiag,
    el_stat,
    profile_loglik,
    profile_sigma2,
    psi_full,
    psi_profile,
    sandwich,
    whittle_fit,
    whittle_loglik,
)

__version__ = "0.1.0"

__all__ = [
    "ArmaSpec", "NoiseKind", "TimeSeries", "simulate", "spectral_density",
    "spectrum_shape", "log_spectral_gradient", "max_companion_modulus",
    "Periodogram", "compute_periodogram", "all_fourier_ordinates",
    "PsiMatrix", "AdjustmentPolicy", "ElSolution", "adjust", "solve_dual",
    "el_stat", "MAX_HALF_LOG", "HALF_LOG",
    "whittle_loglik", "profile_loglik", "profile_sigma2", "psi_full",
    "psi_profile", "whittle_fit", "FitResult", "sandwich", "SandwichDiag",
    "estimate_bartlett", "method_threshold",
    "RegionGrid", "Interval", "scan_region", "interval_1d", "extract_contour", "grid_axis",
    "ExperimentPlan", "CoverageCell", "CoverageReport", "run_coverage",
    "paired_summary", "PairedSummary", "load_plan", "derive_seed",
    "ElspecError", "InputError", "InvalidModelError", "DegenerateInputError",
    "NoSolutionError", "ConvergenceError", "SingularMatrixError",
]
