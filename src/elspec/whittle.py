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
import logging
import math
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
_GTOL = 1e-9  # max-norm of the mean score in u at which a BFGS start stops
_ARMIJO, _CURVATURE = 1e-4, 0.9  # Wolfe constants of the BFGS line search
_XTOL = 1e-14  # relative bracket width at which a line search gives up
_SEARCH_STEPS = 100  # trial steps per line search
_EPS = np.finfo(float).eps
# A fit that ends on the stationarity/invertibility boundary stops where the
# score's factor 1 - r^2 has shrunk its gradient in u below _GTOL, so the
# partial autocorrelation r is fixed only to about 1e-5 there: r rounded to
# this many digits is +-1 (interior ARMA(1,1) estimates stayed below .999).
_BOUNDARY_DIGITS = 4
# Saturated partial autocorrelations (tanh(u) rounds to +-1 for |u| > 19) put
# roots on this radius, one STATIONARITY_MARGIN inside what ArmaSpec accepts.
_RADIUS = 1.0 - 2.0 * STATIONARITY_MARGIN

_log = logging.getLogger(__name__)


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
    weight, grad = _profile_weights(ratio, grad)
    return weight[..., None] * grad


def _profile_weights(ratio, grad):
    """The two factors of the psi_profile rows, I_j/(sigma2_hat g1_j) - 1 and
    the centred grad ln g1, computed in place from the ordinate ratios
    I_j/g1_j (N, n) and grad ln g1 (N, n, k) of a stack."""
    grad -= grad.mean(axis=1, keepdims=True)
    ratio /= ratio.mean(axis=-1, keepdims=True)
    ratio -= 1.0
    return ratio, grad


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

    ``estimate`` is beta1 for profile fits and (beta1, profiled sigma2)
    otherwise.  Non-convergence is reported through ``converged``; the
    estimate is still the best point found.
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
    about eps^(1/multiplicity).  ``u`` is one vector (r,) or a stack (S, r);
    the weights and Jacobian get the same leading axis, and each row's values
    do not depend on the stack it is in."""
    r = np.tanh(u)
    rows = np.atleast_2d(r)
    size = rows.shape[1]
    c, jac = np.zeros(rows.shape), np.zeros(rows.shape + (size,))
    for k in range(size):
        rk = rows[:, k, None]
        jac[:, :k] -= rk[..., None] * jac[:, :k][:, ::-1]
        jac[:, :k, k] = -c[:, :k][:, ::-1]
        jac[:, k, k] = 1.0
        c[:, :k] -= rk * c[:, :k][:, ::-1]
        c[:, k] = rk[:, 0]
    scale = _RADIUS ** np.arange(1.0, size + 1.0)
    c, jac = scale * c, scale[:, None] * jac * (1.0 - rows * rows)[:, None, :]
    return (c, jac) if r.ndim == 2 else (c[0], jac[0])


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


def _row_dot(a, b):
    """sum_i a[s, i] b[s, i, k] for each row s and column k, one column at a
    time, so each row's value does not depend on the stack it is in."""
    out = np.empty((len(a), b.shape[2]))
    for i in range(b.shape[2]):
        out[:, i] = (a * b[:, :, i]).sum(axis=1)
    return out


def _neg_loglik_stack(pg: Periodogram, order, x):
    """-L/n and its gradient in u at each row of the stack ``x`` (S, p + q),
    from one :func:`shape_and_gradient_stack` call.

    L is :func:`profile_loglik` at the weights that :func:`_pacf_coefficients`
    maps u to.  The gradient is the column sums of the :func:`psi_profile`
    rows, the exact score, times the map's Jacobian; both come from the same
    g1.
    """
    p = order[0]
    ar, jar = _pacf_coefficients(x[:, :p])
    ma, jma = _pacf_coefficients(x[:, p:])
    g1, grad = shape_and_gradient_stack(ar, ma, pg.freqs)
    ratio = pg.ords / g1
    value = np.log(ratio.mean(axis=1)) + np.log(g1).mean(axis=1) + 1.0
    score = _row_dot(*_profile_weights(ratio, grad))
    du = [_row_dot(score[:, :p], jar), _row_dot(score[:, p:], jma)]
    return value, np.concatenate(du, axis=1) / -pg.n


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, stmin, stmax):
    """One safeguarded step of the More-Thuente search (MINPACK-2 dcstep).

    (stx, fx, dx) is the best step so far with its value and derivative,
    (sty, fy, dy) the other end of the interval and (stp, fp, dp) the trial.
    Returns the updated interval ends, the next trial and whether a
    minimizer is bracketed."""
    theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
    opposite = (dp < 0.0 < dx) or (dx < 0.0 < dp)
    if fp > fx or opposite:
        # cubic through both ends; with fp > fx also the quadratic through
        # (fx, dx, fp), else the secant of the derivatives
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = math.copysign(s * math.sqrt((theta / s) ** 2 - (dx / s) * (dp / s)),
                              (stp - stx) if fp > fx else (stx - stp))
        if fp > fx:
            stpc = stx + ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp) * (stp - stx)
            stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
            stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        else:
            stpc = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx) * (stx - stp)
            stpq = stp + dp / (dp - dx) * (stx - stp)
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        bracketed = True
    elif abs(dp) < abs(dx):
        # the derivative shrinks: the cubic may have no minimizer beyond stp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = math.copysign(s * math.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s))),
                              stx - stp)
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stmax if stp > stx else stmin
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if bracketed:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            limit = stp + 0.66 * (sty - stp)
            stpf = min(limit, stpf) if stp > stx else max(limit, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stmin), stmax)
    elif bracketed:
        # the derivative does not shrink: cubic through the trial and sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = math.copysign(s * math.sqrt((theta / s) ** 2 - (dy / s) * (dp / s)), sty - stp)
        stpf = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy) * (sty - stp)
    else:
        stpf = stmax if stp > stx else stmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, bracketed


def _wolfe_search(f0, d0, stp):
    """More-Thuente line search (More & Thuente 1994, ACM TOMS 20; MINPACK-2
    dcsrch) as a generator: it yields trial steps and is sent the value and
    derivative at each.  Returns True when the last trial meets the strong
    Wolfe conditions (Armijo constant 1e-4, curvature 0.9), False when
    rounding stops progress first: the bracket has shrunk to a relative
    width of 1e-14, or f's rounding could not show any decrease inside it."""
    gtest = _ARMIJO * d0
    bracketed, stage = False, 1
    stx, fx, dx = sty, fy, dy = 0.0, f0, d0
    stmin, stmax = 0.0, 5.0 * stp
    width = width1 = math.inf
    for _ in range(_SEARCH_STEPS):
        if not math.isfinite(stp):
            return False
        f, d = yield stp
        ftest = f0 + stp * gtest
        if f <= ftest and abs(d) <= _CURVATURE * -d0:
            return True
        if not math.isfinite(f) or bracketed and (
                stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax
                or -stmax * d0 <= _EPS * (1.0 + abs(f0))):
            return False
        if stage == 1 and f <= ftest and d >= 0.0:
            stage = 2
        try:
            if stage == 1 and ftest < f <= fx:
                # the modified function f(a) - gtest a until a step passes
                stx, fx, dx, sty, fy, dy, stp, bracketed = _dcstep(
                    stx, fx - stx * gtest, dx - gtest, sty, fy - sty * gtest, dy - gtest,
                    stp, f - stp * gtest, d - gtest, bracketed, stmin, stmax)
                fx, fy, dx, dy = fx + stx * gtest, fy + sty * gtest, dx + gtest, dy + gtest
            else:
                stx, fx, dx, sty, fy, dy, stp, bracketed = _dcstep(
                    stx, fx, dx, sty, fy, dy, stp, f, d, bracketed, stmin, stmax)
        except (ArithmeticError, ValueError):  # a degenerate model: 0/0 or sqrt(< 0)
            return False
        if bracketed:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
            if stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax:
                stp = stx
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
    return False


def _bfgs_path(x: np.ndarray, max_iter: int):
    """BFGS from ``x`` as a generator: it yields each point to evaluate, is
    sent that point's value f and gradient g, and returns the end point, f,
    g and the number of steps taken.

    The inverse Hessian starts at I.  Each line search
    (:func:`_wolfe_search`) starts at min(1, 1.01 * 2 (f_k - f_{k-1}) /
    g_k'p_k), with f_{-1} = f_0 + |g_0|/2, as in scipy's BFGS.  The path
    stops when the gradient max-norm is <= _GTOL, when a line search can no
    longer lower f, or after ``max_iter`` steps.  Python floats carry the
    scalars, so a degenerate step raises instead of warning.
    """
    f, g = yield x
    h = np.eye(x.size)
    f_prev, steps = f + math.sqrt(g @ g) / 2.0, 0
    while np.abs(g).max() > _GTOL and steps < max_iter:
        p = -(h @ g)
        slope = float(g @ p)
        if not slope < 0.0:  # H lost definiteness to rounding
            break
        first = 1.01 * 2.0 * (f - f_prev) / slope
        search = _wolfe_search(f, slope, min(1.0, first) if first > 0.0 else 1.0)
        alpha = next(search)
        while True:
            f_new, g_new = yield x + alpha * p
            try:
                alpha = search.send((f_new, float(g_new @ p)))
            except StopIteration as stop:
                if not stop.value:
                    return x, f, g, steps
                break
        s, y = alpha * p, g_new - g
        sy = s @ y
        if sy > 0.0:  # the update keeps H positive definite
            hy = h @ y
            h = h + ((sy + y @ hy) * np.outer(s, s) - sy * (np.outer(hy, s) + np.outer(s, hy))) / (sy * sy)
        f_prev, x, f, g, steps = f, x + s, f_new, g_new, steps + 1
    return x, f, g, steps


def _lockstep(objective, starts):
    """Run the generators ``starts`` (as :func:`_bfgs_path`) side by side:
    each round evaluates the pending points of every unfinished one in one
    ``objective`` call on their stack.  Returns their results in order."""
    results = [None] * len(starts)
    points = [next(run) for run in starts]
    active = list(range(len(starts)))
    while active:
        values, grads = objective(np.array([points[k] for k in active]))
        still = []
        for row, k in enumerate(active):
            try:
                points[k] = starts[k].send((float(values[row]), grads[row]))
                still.append(k)
            except StopIteration as stop:
                results[k] = stop.value
        active = still
    return results


def whittle_fit(
    pg: Periodogram,
    order: tuple[int, int],
    profile: bool = True,
    init=None,
    max_iter: int = 2000,
) -> FitResult:
    """Maximize the profile Whittle log-likelihood by BFGS over unconstrained
    u mapped by :func:`_pacf_coefficients` to AR and MA weights, so every
    point is stationary and invertible.  The gradient is the exact score,
    the column sums of the psi rows, times the map's Jacobian.  Starts are
    u = 0 and, for p + q >= 2, the 2^(p+q) corners at partial
    autocorrelation +-1/2.  Each start runs its own BFGS
    (:func:`_bfgs_path`), all in lockstep on one batched likelihood
    evaluation per round (:func:`_neg_loglik_stack`), and the lowest end
    point wins, ties going to the earliest start, so the fit is
    deterministic.  An explicit ``init`` (beta1, strictly inside the region)
    is the only start.  ``converged`` means the mean score in u has max-norm
    <= 1e-7 within ``max_iter`` iterations; otherwise the estimate is the
    best point found.

    sigma2 profiles out exactly: at every beta1, :func:`whittle_loglik`
    peaks at sigma2 = :func:`profile_sigma2` and equals
    :func:`profile_loglik` there.  So a full fit (``profile=False``) is this
    fit with sigma2_hat = profile_sigma2 appended to the estimate and
    ``loglik`` taken by :func:`whittle_loglik` at (beta1_hat, sigma2_hat).
    """
    p, q = order
    if p < 0 or q < 0:
        raise InputError(f"order components must be nonnegative, got {order}")
    pg.require_power()

    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.size != p + q:
            raise InputError(f"init must be the {p + q} values of beta1, got {init}")
        starts = [np.concatenate([_pacf_from_coefficients(init[:p]), _pacf_from_coefficients(init[p:])])]
    else:
        corners = itertools.product((-1.0, 1.0), repeat=p + q) if p + q >= 2 else ()
        starts = [np.arctanh(0.5) * np.array(c) for c in [[0.0] * (p + q), *corners]]

    if p + q:
        ends = _lockstep(lambda u: _neg_loglik_stack(pg, order, u),
                         [_bfgs_path(x0, max_iter) for x0 in starts])
        u, _, g, steps = min(ends, key=lambda end: end[1])
    else:
        u, g, steps = np.empty(0), np.empty(0), 0
    ar, ma = _pacf_coefficients(u[:p])[0], _pacf_coefficients(u[p:])[0]
    spec = ArmaSpec(ar, ma, validate=False)
    if not profile:
        spec = ArmaSpec(ar, ma, profile_sigma2(pg, spec), validate=False)
    score_norm = float(np.abs(g).max(initial=0.0))
    fit = FitResult(
        estimate=spec.beta1 if profile else spec.beta,
        converged=bool(score_norm <= _SCORE_TOL and steps < max_iter),
        iterations=steps,
        loglik=profile_loglik(pg, spec) if profile else whittle_loglik(pg, spec),
        order=order,
        profile=profile,
    )
    if not fit.converged:
        _log.warning("Whittle fit of order %s did not converge: mean score max-norm %.3g "
                     "after %d iterations", order, score_norm, fit.iterations)
    if np.any(np.round(np.abs(np.tanh(u)), _BOUNDARY_DIGITS) == 1.0):
        _log.info("Whittle fit of order %s ends on the stationarity/invertibility boundary: "
                  "a partial autocorrelation rounds to +-1 (estimate %s)", order, fit.estimate)
    return fit


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
