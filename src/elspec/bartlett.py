"""Bartlett correction of the EL statistic's chi-square threshold.

The estimated correction is the standard smooth-function-model Bartlett
estimate for scalar empirical likelihood (DiCiccio, Hall & Romano 1991),

    b_hat = mu4 / (2 mu2^2) - mu3^2 / (3 mu2^3),

built from central moments mu_r = n^{-1} sum_j (psi_j - psibar)^r of the
unadjusted scalar estimating function.  Model-specific theoretical constants
are accepted as user-supplied values only; deriving them is out of scope.
"""

from __future__ import annotations

import numpy as np

from .el import PsiMatrix
from .errors import DegenerateInputError, InputError
from .periodogram import _centred


def estimate_bartlett(psi: PsiMatrix) -> float:
    """Moment-based Bartlett constant b from an unadjusted scalar PsiMatrix;
    the scaled rejection rule is W > chi2_{k,1-alpha} * (1 + b/n).

    The psi column is centered before the moments are taken, so the estimate
    is invariant to rescaling psi.  Pearson's inequality for the sample
    moments, mu4/mu2^2 >= 1 + mu3^2/mu2^3, gives b >= 1/2 + mu3^2/(6 mu2^3)
    >= 1/2, so the scale 1 + b/n always exceeds 1.  Raises
    DegenerateInputError when the column is constant.
    """
    if psi.adjusted:
        raise InputError("estimate_bartlett expects an unadjusted psi matrix")
    if psi.k != 1:
        raise InputError(f"estimated Bartlett correction is scalar-parameter only, got k={psi.k}")
    b = float(bartlett_constants(psi.rows[None, :, 0])[0])
    if np.isnan(b):
        raise DegenerateInputError("psi column is constant")
    return b


def bartlett_constants(columns) -> np.ndarray:
    """:func:`estimate_bartlett` for a stack of scalar psi columns (N, n):
    one b_hat per row, NaN for a constant column.

    A constant column is centred by its common value, so it is exactly zero;
    any other centred column is scaled to max |c| = 1 before its moments are
    taken, so no power of c underflows or overflows, whatever the column's
    scale (b_hat is scale-free)."""
    c = _centred(columns, columns.mean(axis=1, keepdims=True))
    peak = np.abs(c).max(axis=1, keepdims=True)
    c /= np.where(peak > 0.0, peak, 1.0)
    # Products, not c**3 and c**4: numpy sends integer powers above 2 to
    # libm pow element by element.
    c2 = c * c
    mu2 = np.mean(c2, axis=1)
    mu3 = np.mean(c2 * c, axis=1)
    mu4 = np.mean(c2 * c2, axis=1)
    constant = mu2 == 0.0
    mu2 = np.where(constant, 1.0, mu2)
    b = mu4 / (2.0 * mu2**2) - mu3**2 / (3.0 * mu2**3)
    return np.where(constant, np.nan, b)


def chi2_quantile(level: float, k: int) -> float:
    """The level-quantile of the chi-square distribution with k degrees of
    freedom, for 0 < level < 1 (InputError otherwise).

    2 gammaincinv(k/2, level) is the formula ``scipy.stats.chi2.ppf``
    evaluates, so the two agree bitwise; calling ``scipy.special`` directly
    keeps ``scipy.stats`` out of the process.
    """
    if not 0.0 < level < 1.0:
        raise InputError(f"confidence level must be in (0, 1), got {level}")
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(k / 2, level))


def bartlett_scale(b: float, n: int) -> float:
    """The threshold scale 1 + b/n of a Bartlett constant b at n ordinates;
    a scale <= 0 is rejected with InputError."""
    scale = 1.0 + b / n
    if scale <= 0.0:
        raise InputError(f"Bartlett scale 1 + b/n = {scale:.3e} (b = {b:g}, n = {n}) must be positive")
    return scale

