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

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .arma import (
    ArmaSpec,
    log_spectral_gradient,
    max_companion_modulus,
    shape_and_gradient_stack,
    spectral_density,
    spectrum_shape,
    STATIONARITY_MARGIN,
)
from .el import MAX_HALF_LOG, AdjustmentPolicy, ElSolution, PsiMatrix, adjust, solve_dual
from .errors import InputError, SingularMatrixError
from .periodogram import Periodogram

_PENALTY = 1e6
_MAX_COND = 1e12


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


def _region_violation(x: np.ndarray, order: tuple[int, int], profile: bool) -> float:
    p, q = order
    v = 0.0
    v += max(0.0, max_companion_modulus(x[:p]) - (1.0 - STATIONARITY_MARGIN))
    v += max(0.0, max_companion_modulus(x[p : p + q]) - (1.0 - STATIONARITY_MARGIN))
    if not profile:
        v += max(0.0, 1e-12 - x[-1])
    return v


def whittle_fit(
    pg: Periodogram,
    order: tuple[int, int],
    profile: bool = True,
    init=None,
    seed: int = 0,
    max_iter: int = 2000,
) -> FitResult:
    """Maximize the Whittle log-likelihood (or its profile) by Nelder-Mead.

    The simplex is kept inside the stationarity/invertibility region by a
    penalty of 1e6*(1 + violation) outside it.  Multi-parameter searches use
    five starts (region center plus four seed-jittered points, the surface
    can be multimodal at small T); one-parameter searches use a single start;
    an explicit ``init`` replaces the start list.  Convergence means the
    final simplex collapsed below 1e-7; failure to converge within
    ``max_iter`` iterations is reported via the flag, never silently.
    """
    p, q = order
    if p < 0 or q < 0:
        raise InputError(f"order components must be nonnegative, got {order}")
    dim = p + q + (0 if profile else 1)
    loglik = profile_loglik if profile else whittle_loglik

    if dim == 0:
        value = profile_loglik(pg, ArmaSpec())
        return FitResult(np.empty(0), True, 0, value, order, profile)

    def objective(x):
        viol = _region_violation(x, order, profile)
        if viol > 0.0:
            return _PENALTY * (1.0 + viol)
        spec = (
            ArmaSpec.from_beta1(order, x, validate=False)
            if profile
            else ArmaSpec.from_beta(order, x, validate=False)
        )
        return -loglik(pg, spec)

    sigma2_0 = 2.0 * np.pi * float(np.mean(pg.ords))  # white-noise variance estimate
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.size != dim:
            raise InputError(f"init must have length {dim}, got {init.size}")
        starts = [init]
    else:
        center = np.zeros(p + q)
        base = center if profile else np.append(center, sigma2_0)
        starts = [base]
        if p + q >= 2:
            rng = np.random.default_rng(seed)
            for _ in range(4):
                jit = np.clip(rng.uniform(-0.45, 0.45, size=p + q), -0.9, 0.9)
                starts.append(jit if profile else np.append(jit, sigma2_0 * rng.uniform(0.5, 2.0)))

    best = None
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options=dict(xatol=1e-7, fatol=1e-10, maxiter=max_iter, maxfev=4 * max_iter),
        )
        if best is None or res.fun < best.fun:
            best = res
    return FitResult(
        estimate=np.asarray(best.x, dtype=float),
        converged=bool(best.success),
        iterations=int(best.nit),
        loglik=float(-best.fun),
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
    step: float = 1e-6,
) -> SandwichDiag:
    """Finite-difference sandwich matrices of the (adjusted) psi rows at
    ``spec``.

    a_hat[:, i] is the central difference of the averaged psi row in
    parameter i (relative step 1e-6); sigma_hat = mean of psi psi' including
    the adjustment row.  Raises SingularMatrixError (with the condition
    number attached) when a_hat is not invertible.
    """
    vec = spec.beta1 if profile else spec.beta
    order = spec.order
    rows0 = _psi_rows(pg, vec, order, profile, policy)
    m, k = rows0.shape
    if k == 0:
        raise InputError("sandwich diagnostics need at least one parameter")
    a_hat = np.empty((k, k))
    for i in range(k):
        h = step * max(1.0, abs(vec[i]))
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
