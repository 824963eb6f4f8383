"""Bartlett correction of the EL statistic's chi-square threshold.

The estimated correction is the standard smooth-function-model Bartlett
estimate for scalar empirical likelihood (DiCiccio, Hall & Romano 1991),

    b_hat = mu4 / (2 mu2^2) - mu3^2 / (3 mu2^3),

built from central moments mu_r = n^{-1} sum_j (psi_j - psibar)^r of the
unadjusted scalar estimating function.  Model-specific theoretical constants
are accepted as user-supplied values only; deriving them is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .el import PsiMatrix
from .errors import DegenerateInputError, InputError

_MIN_MU2 = 1e-12


@dataclass(frozen=True)
class BartlettFactor:
    """Correction constant b with its provenance; the scaled rejection rule
    is W > chi2_{k,1-alpha} * (1 + b/n)."""

    b: float
    source: str  # "estimated" | "supplied"


def estimate_bartlett(psi: PsiMatrix) -> BartlettFactor:
    """Moment-based Bartlett constant from an unadjusted scalar PsiMatrix.

    The psi column is centered before the moments are taken, so the estimate
    is invariant to rescaling psi.  Pearson's inequality for the sample
    moments, mu4/mu2^2 >= 1 + mu3^2/mu2^3, gives b >= 1/2 + mu3^2/(6 mu2^3)
    >= 1/2, so the scale 1 + b/n always exceeds 1.  Raises
    DegenerateInputError when the column has (numerically) zero variance.
    """
    if psi.adjusted:
        raise InputError("estimate_bartlett expects an unadjusted psi matrix")
    if psi.k != 1:
        raise InputError(f"estimated Bartlett correction is scalar-parameter only, got k={psi.k}")
    b = float(bartlett_constants(psi.rows[None, :, 0])[0])
    if np.isnan(b):
        raise DegenerateInputError("psi column variance is degenerate")
    return BartlettFactor(b=b, source="estimated")


def bartlett_constants(columns) -> np.ndarray:
    """:func:`estimate_bartlett` for a stack of scalar psi columns (N, n):
    one b_hat per row, NaN where the column variance is below 1e-12."""
    c = columns - columns.mean(axis=1, keepdims=True)
    mu2 = np.mean(c**2, axis=1)
    mu3 = np.mean(c**3, axis=1)
    mu4 = np.mean(c**4, axis=1)
    degenerate = mu2 < _MIN_MU2
    mu2 = np.where(degenerate, 1.0, mu2)
    b = mu4 / (2.0 * mu2**2) - mu3**2 / (3.0 * mu2**3)
    return np.where(degenerate, np.nan, b)


def supplied_bartlett(b: float) -> BartlettFactor:
    """Wrap an externally supplied (theoretical) correction constant."""
    return BartlettFactor(b=float(b), source="supplied")


def corrected_threshold(factor: BartlettFactor, k: int, alpha: float, n: int) -> float:
    """Bartlett-scaled threshold chi2_{k,1-alpha} * (1 + b/n).

    With b = 0 this is the plain chi-square quantile.  A scale factor
    (1 + b/n) <= 0 is rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")
    scale = 1.0 + factor.b / n
    if scale <= 0.0:
        raise InputError(f"Bartlett scale 1 + b/n = {scale:.3e} must be positive")
    return float(chi2.ppf(1.0 - alpha, df=k) * scale)
