"""Whittle spectral likelihood, its estimating functions and the EL statistic
built from them, the Whittle M-estimator, and sandwich-matrix diagnostics.

The frequency-domain log-likelihood of a parameter vector beta given
periodogram ordinates I_j at the retained Fourier frequencies is

    -sum_j ln g_j(beta) - sum_j I_j / g_j(beta),

with g_j the model spectral density.  Profiling out sigma2 (a pure scale
nuisance) gives a likelihood in beta1 = (phi's, theta's) alone, built from
the variance-free shape g1_j = g_j / sigma2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .arma import (
    ArmaSpec,
    log_spectral_gradient,
    shape_and_gradient_stack,
    spectral_density,
    spectrum_shape,
    STATIONARITY_MARGIN,
)
from .el import MAX_HALF_LOG, AdjustmentPolicy, ElSolution, PsiMatrix, adjust, solve_dual
from .errors import InputError, SingularMatrixError
from .periodogram import Periodogram

_MAX_COND = 1e12
_SANDWICH_STEP = 1e-6  # relative central-difference step of sandwich's a_hat
_SCORE_TOL = 1e-7  # max-norm of a converged fit's mean score in u
# Saturated partial autocorrelations (tanh(u) rounds to +-1 for |u| > 19) put
# roots on this radius, one STATIONARITY_MARGIN inside what ArmaSpec accepts.
_RADIUS = 1.0 - 2.0 * STATIONARITY_MARGIN


def whittle_loglik(pg: Periodogram, spec: ArmaSpec) -> float:
    """Frequency-domain log-likelihood -sum ln g_j - sum I_j/g_j over the
    retained ordinates."""
    g = spectral_density(spec, pg.freqs)
    return float(-np.log(g).sum() - (pg.ords / g).sum())


def profile_sigma2(pg: Periodogram, spec: ArmaSpec) -> float:
    """Innovation-variance estimate implied by profiling: sigma2_hat(beta1) =
    n^{-1} sum_j I_j / g1_j(beta1), with g1 the variance-free spectrum shape
    (sigma2 of ``spec`` is ignored)."""
    g1 = spectrum_shape(spec, pg.freqs)
    return float(np.mean(pg.ords / g1))


def profile_loglik(pg: Periodogram, spec: ArmaSpec) -> float:
    """sigma2-profiled log-likelihood
    -n ln{ n^{-1} sum_j I_j/g1_j } - sum_j ln g1_j - n.

    Equals max over sigma2 of :func:`whittle_loglik` at the same beta1; the
    sigma2 of ``spec`` is ignored.
    """
    g1 = spectrum_shape(spec, pg.freqs)
    n = pg.n
    ratio_mean = float(np.mean(pg.ords / g1))
    return float(-n * np.log(ratio_mean) - np.log(g1).sum() - n)


def psi_full(pg: Periodogram, spec: ArmaSpec) -> PsiMatrix:
    """Estimating-function rows of the full parameterization:
    psi_j = (I_j/g_j - 1) * grad ln g_j, one row per retained ordinate,
    k = p + q + 1 columns."""
    g = spectral_density(spec, pg.freqs)
    grad = log_spectral_gradient(spec, pg.freqs, profile=False)
    return PsiMatrix((pg.ords / g - 1.0)[:, None] * grad)


def psi_profile(pg: Periodogram, spec: ArmaSpec) -> PsiMatrix:
    """Estimating-function rows of the profiled parameterization:

        psi_j = (I_j / (sigma2_hat(beta1) * g1_j) - 1)
                * [grad ln g1_j - mean_l grad ln g1_l],      k = p + q,

    with sigma2_hat(beta1) = n^{-1} sum_l I_l/g1_l the profiled variance.
    Both the studentizing ratio and the gradient centering run over the n
    retained data frequencies; either alone leaves the column sums equal to
    the profile-likelihood score (the cross terms vanish identically), so the
    rows sum to zero exactly at the profile maximizer.  Together they also
    give the rows the second-moment scaling that makes the EL log-ratio
    statistic asymptotically chi-square: dropping the "-1" inflates the
    internal Gram matrix by the squared mean of the ordinate ratios and
    roughly halves the statistic.  sigma2 of ``spec`` is ignored.
    """
    return PsiMatrix(psi_profile_rows(pg.freqs, pg.ords, spec.ar[None], spec.ma[None])[0])


def psi_profile_rows(freqs, ords, ar, ma) -> np.ndarray:
    """:func:`psi_profile` rows for a stack of problems, shape (N, n, p + q).

    ``ords`` is one periodogram (n,) or a stack (R, n) at the common
    frequencies ``freqs``; ``ar`` (N', p) and ``ma`` (N', q) hold one model
    per row.  Stacks of length 1 broadcast against the other, so one series
    can be scanned over many models or many series taken at one model.
    Each problem's rows do not depend on the stack it is in.
    """
    g1, grad = shape_and_gradient_stack(ar, ma, freqs)
    ratio = ords / g1
    del g1
    grad -= grad.mean(axis=1, keepdims=True)
    ratio /= ratio.mean(axis=-1, keepdims=True)
    ratio -= 1.0
    return ratio[..., None] * grad


def el_stat(pg: Periodogram, spec: ArmaSpec, adjusted: bool = True, profile: bool = True,
            policy: AdjustmentPolicy = MAX_HALF_LOG) -> ElSolution:
    """EL or adjusted-EL log-ratio statistic of a parameter value.

    Builds the estimating-function matrix from the periodogram and the model
    (profile form over beta1 with sigma2 profiled out, or the full form
    including sigma2), optionally appends the adjustment row, and solves the
    dual.  The ``stat`` field of the result is W (unadjusted) or W*
    (adjusted) at ``spec``.
    """
    pg.require_power()
    psi = psi_profile(pg, spec) if profile else psi_full(pg, spec)
    if adjusted:
        psi = adjust(psi, policy)
    return solve_dual(psi)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a Whittle fit.

    ``estimate`` is beta1 for profile fits and (beta1, sigma2) otherwise.
    Non-convergence is reported through ``converged``; the estimate is still
    the best point found.
    """

    estimate: np.ndarray
    converged: bool
    iterations: int
    loglik: float
    order: tuple[int, int]
    profile: bool

    def to_spec(self, pg: Periodogram | None = None) -> ArmaSpec:
        """Build the fitted ArmaSpec; profile fits take sigma2 from the
        profiling identity and need the periodogram."""
        if not self.profile:
            return ArmaSpec.from_beta(self.order, self.estimate)
        spec1 = ArmaSpec.from_beta1(self.order, self.estimate)
        if pg is None:
            return spec1
        return ArmaSpec.from_beta1(self.order, self.estimate, sigma2=profile_sigma2(pg, spec1))


def _pacf_coefficients(u):
    """Weights c_j of 1 - sum_j c_j B^j with partial autocorrelations
    r = tanh(u) (Durbin-Levinson: c_j <- c_j - r_k c_{k-j}, c_k = r_k), scaled
    by _RADIUS^j, and dc/du from the same recursion.  |r_k| < 1 keeps every
    root outside the unit circle (Barndorff-Nielsen & Schou 1973; Monahan
    1984); several r_k near +-1 cluster roots that float weights fix only to
    about eps^(1/multiplicity)."""
    r = np.tanh(u)
    c, jac = np.zeros(r.size), np.zeros((r.size, r.size))
    for k, rk in enumerate(r):
        jac[:k] -= rk * jac[:k][::-1]
        jac[:k, k] = -c[:k][::-1]
        jac[k, k] = 1.0
        c[:k] -= rk * c[:k][::-1]
        c[k] = rk
    scale = _RADIUS ** np.arange(1.0, r.size + 1.0)
    return scale * c, scale[:, None] * jac * (1.0 - r * r)


def _pacf_from_coefficients(c) -> np.ndarray:
    """Inverse of :func:`_pacf_coefficients` by the step-down recursion."""
    c = np.asarray(c, dtype=float) / _RADIUS ** np.arange(1.0, np.size(c) + 1.0)
    r = np.empty(c.size)
    for k in range(c.size - 1, -1, -1):
        r[k] = c[k]
        if not abs(r[k]) < 1.0:
            raise InputError("init lies outside the stationarity/invertibility region")
        c = (c[:k] + r[k] * c[:k][::-1]) / (1.0 - r[k] * r[k])
    return np.arctanh(r)


def whittle_fit(
    pg: Periodogram,
    order: tuple[int, int],
    profile: bool = True,
    init=None,
    max_iter: int = 2000,
) -> FitResult:
    """Maximize the Whittle log-likelihood (or its profile) by BFGS over
    unconstrained u mapped by :func:`_pacf_coefficients` to AR and MA weights,
    so every point is stationary and invertible; full fits take
    sigma2 = exp(s).  The gradient is the exact score, the column sums of the
    psi rows, times the map's Jacobian.  Starts are u = 0 and, for
    p + q >= 2, the 2^(p+q) corners at partial autocorrelation +-1/2; the best
    end point wins, so the fit is deterministic.  An explicit ``init`` (beta
    coordinates, strictly inside the region) is the only start.  ``converged``
    means the mean score in u has max-norm <= 1e-7 within ``max_iter``
    iterations; otherwise the estimate is the best point found.
    """
    p, q = order
    if p < 0 or q < 0:
        raise InputError(f"order components must be nonnegative, got {order}")
    pg.require_power()
    dim = p + q + (0 if profile else 1)
    loglik = profile_loglik if profile else whittle_loglik

    if dim == 0:
        value = profile_loglik(pg, ArmaSpec())
        return FitResult(np.empty(0), True, 0, value, order, profile)

    def spec_at(x):
        ar, jar = _pacf_coefficients(x[:p])
        ma, jma = _pacf_coefficients(x[p : p + q])
        sigma2 = 1.0 if profile else np.exp(x[-1])
        return ArmaSpec(ar, ma, sigma2, validate=False), jar, jma

    def objective(x):
        spec, jar, jma = spec_at(x)
        score = (psi_profile(pg, spec) if profile else psi_full(pg, spec)).rows.sum(axis=0)
        grad = np.concatenate([score[:p] @ jar, score[p : p + q] @ jma, score[p + q :] * spec.sigma2])
        return -loglik(pg, spec) / pg.n, -grad / pg.n

    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.size != dim or not (profile or init[-1] > 0.0):
            raise InputError(f"init must be {dim} values (sigma2 > 0 last in full fits), got {init}")
        starts = [np.concatenate([_pacf_from_coefficients(init[:p]),
                                  _pacf_from_coefficients(init[p : p + q]), np.log(init[p + q :])])]
    else:
        s0 = [] if profile else [np.log(2.0 * np.pi * np.mean(pg.ords))]
        corners = itertools.product((-1.0, 1.0), repeat=p + q) if p + q >= 2 else ()
        starts = [np.append(np.arctanh(0.5) * np.array(c), s0) for c in [[0.0] * (p + q), *corners]]

    from scipy.optimize import minimize

    best = None
    for x0 in starts:
        res = minimize(objective, x0, jac=True, method="BFGS",
                       options=dict(gtol=1e-9, maxiter=max_iter))
        if best is None or res.fun < best.fun:
            best = res
    spec = spec_at(best.x)[0]
    return FitResult(
        estimate=spec.beta1 if profile else spec.beta,
        converged=bool(np.abs(best.jac).max() <= _SCORE_TOL and best.nit < max_iter),
        iterations=int(best.nit),
        loglik=loglik(pg, spec),
        order=order,
        profile=profile,
    )


@dataclass(frozen=True, eq=False)
class SandwichDiag:
    """Sandwich-matrix diagnostics at (or near) the estimator.

    a_hat is the averaged Jacobian of the psi rows, sigma_hat their averaged
    outer product (both over the n+1 adjusted rows), and v_hat the sandwich
    a_hat^{-1} sigma_hat a_hat^{-T} scaling the quadratic approximation of
    the adjusted statistic.
    """

    a_hat: np.ndarray
    sigma_hat: np.ndarray
    v_hat: np.ndarray


def _psi_rows(pg, vec, order, profile, policy):
    spec = (
        ArmaSpec.from_beta1(order, vec, validate=False)
        if profile
        else ArmaSpec.from_beta(order, vec, validate=False)
    )
    psi = psi_profile(pg, spec) if profile else psi_full(pg, spec)
    return adjust(psi, policy).rows


def sandwich(
    pg: Periodogram,
    spec: ArmaSpec,
    profile: bool = True,
    policy: AdjustmentPolicy = MAX_HALF_LOG,
) -> SandwichDiag:
    """Finite-difference sandwich matrices of the (adjusted) psi rows at
    ``spec``.

    a_hat[:, i] is the central difference of the averaged psi row in
    parameter i (relative step 1e-6); sigma_hat = mean of psi psi' including
    the adjustment row.  Raises SingularMatrixError (with the condition
    number attached) when a_hat is not invertible.
    """
    pg.require_power()
    vec = spec.beta1 if profile else spec.beta
    order = spec.order
    rows0 = _psi_rows(pg, vec, order, profile, policy)
    m, k = rows0.shape
    if k == 0:
        raise InputError("sandwich diagnostics need at least one parameter")
    a_hat = np.empty((k, k))
    for i in range(k):
        h = _SANDWICH_STEP * max(1.0, abs(vec[i]))
        up, dn = vec.copy(), vec.copy()
        up[i] += h
        dn[i] -= h
        s_up = _psi_rows(pg, up, order, profile, policy).sum(axis=0)
        s_dn = _psi_rows(pg, dn, order, profile, policy).sum(axis=0)
        a_hat[:, i] = (s_up - s_dn) / (2.0 * h * m)
    sigma_hat = rows0.T @ rows0 / m
    cond = float(np.linalg.cond(a_hat))
    if not np.isfinite(cond) or cond > _MAX_COND:
        raise SingularMatrixError(
            f"averaged psi Jacobian is numerically singular (cond {cond:.3e})", cond=cond
        )
    a_inv = np.linalg.inv(a_hat)
    v_hat = a_inv @ sigma_hat @ a_inv.T
    return SandwichDiag(a_hat=a_hat, sigma_hat=sigma_hat, v_hat=v_hat)
