"""Empirical-likelihood inner problem: pseudo-observation adjustment and the
Lagrange dual solver.

Given an m x k matrix whose rows are estimating-function values psi_j, the EL
inner problem maximizes prod_j (m * p_j) over probability weights p_j subject
to sum_j p_j psi_j = 0.  Its Lagrange dual minimizes the convex function

    f(xi) = -sum_j ln(1 + xi' psi_j)

over the feasible set {xi : 1 + xi' psi_j > 1/m for all j}; the stationarity
condition is the multiplier equation sum_j psi_j / (1 + xi' psi_j) = 0, the
implied weights are p_j = 1 / (m (1 + xi' psi_j)), and the log-ratio statistic
is 2 sum_j ln(1 + xi' psi_j) at the minimizer.

The inner problem is solvable only when zero is interior to the convex hull
of the rows.  Appending the pseudo-observation -a_n * psibar (the mean row
scaled by -a_n) pulls zero inside the hull whenever psibar != 0, so the
adjusted problem always has a solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError, NoSolutionError

# Gradient-norm tolerance of the dual (identical to the multiplier-equation
# residual); tight enough that the statistic is stable to ~1e-8.
DUAL_GRAD_TOL = 1e-9
MAX_NEWTON_STEPS = 100
_FEAS_SLACK = 1e-12
_ARMIJO_C1 = 1e-4
_STALL_LIMIT = 10


@dataclass(frozen=True, eq=False)
class PsiMatrix:
    """Stacked estimating-function rows, optionally with the adjustment row.

    ``rows`` is (m, k); when ``adjusted`` the final row is the appended
    pseudo-observation -a_n * psibar computed from the first m-1 rows.
    """

    rows: np.ndarray
    adjusted: bool = False
    a_n: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rows", np.atleast_2d(np.asarray(self.rows, dtype=float)))

    @property
    def m(self) -> int:
        return int(self.rows.shape[0])

    @property
    def k(self) -> int:
        return int(self.rows.shape[1])


@dataclass(frozen=True)
class AdjustmentPolicy:
    """Rule for the pseudo-observation constant a_n.

    rule: "max_half_log" (a_n = max(1, ln(n)/2)), "half_log" (a_n = ln(n)/2),
    "none", or "constant" (a_n = ``constant``).  Values are capped at n/2 so
    a_n stays o(n).  ``trim`` winsorizes each psi column at its empirical
    1st/99th percentiles before forming psibar (the data rows themselves are
    never altered); off by default.
    """

    rule: str = "max_half_log"
    constant: float = 0.0
    trim: bool = False

    _RULES = ("max_half_log", "half_log", "none", "constant")

    def __post_init__(self):
        if self.rule not in self._RULES:
            raise InputError(f"unknown adjustment rule {self.rule!r}; choose from {self._RULES}")
        if self.rule == "constant" and self.constant <= 0.0:
            raise InputError("constant adjustment requires a positive constant")

    def a_n(self, n: int) -> float:
        if self.rule == "none":
            return 0.0
        if self.rule == "max_half_log":
            raw = max(1.0, math.log(n) / 2.0)
        elif self.rule == "half_log":
            raw = math.log(n) / 2.0
        else:
            raw = self.constant
        capped = min(raw, n / 2.0)
        if capped <= 0.0:
            raise InputError(f"adjustment constant must be positive, got {capped} for n={n}")
        return capped


MAX_HALF_LOG = AdjustmentPolicy("max_half_log")
HALF_LOG = AdjustmentPolicy("half_log")
UNADJUSTED = AdjustmentPolicy("none")


@dataclass(frozen=True, eq=False)
class ElSolution:
    """Converged solution of the Lagrange dual.

    weights are strictly positive and sum to one; stat = 2 sum ln(1 + xi'psi)
    is the EL (unadjusted input) or adjusted-EL (adjusted input) log-ratio
    statistic; residual is the final multiplier-equation norm.
    """

    xi: np.ndarray
    weights: np.ndarray
    stat: float
    converged: bool
    residual: float
    inner_iterations: int
    trace: tuple = ()


def adjust(psi: PsiMatrix, policy: AdjustmentPolicy = MAX_HALF_LOG) -> PsiMatrix:
    """Append the pseudo-observation row -a_n * psibar.

    With the "none" policy the input is returned unchanged.  Adjusting an
    already-adjusted matrix is an error.
    """
    if psi.adjusted:
        raise InputError("psi matrix is already adjusted")
    if policy.rule == "none":
        return psi
    rows = psi.rows
    if policy.trim:
        lo = np.percentile(rows, 1.0, axis=0)
        hi = np.percentile(rows, 99.0, axis=0)
        psibar = np.clip(rows, lo, hi).mean(axis=0)
    else:
        psibar = rows.mean(axis=0)
    a_n = policy.a_n(psi.m)
    return PsiMatrix(np.vstack([rows, -a_n * psibar]), adjusted=True, a_n=a_n)


def _trivial_solution(m: int, k: int) -> ElSolution:
    return ElSolution(
        xi=np.zeros(k),
        weights=np.full(m, 1.0 / m),
        stat=0.0,
        converged=True,
        residual=0.0,
        inner_iterations=0,
    )


def solve_dual(psi: PsiMatrix, keep_trace: bool = False) -> ElSolution:
    """Solve the EL Lagrange dual by damped Newton iteration.

    Newton steps on f(xi) = -sum ln(1 + xi'psi_j) are halved until the
    iterate is feasible (1 + xi'psi_j >= 1/m + slack for all j) and satisfies
    an Armijo decrease, which keeps f strictly decreasing across accepted
    steps.  Convergence is declared when the multiplier-equation residual
    ||sum psi_j / (1 + xi'psi_j)|| drops below 1e-9.

    Raises NoSolutionError when, on an unadjusted matrix, iterates pin
    against the feasibility boundary without residual progress for 10
    consecutive iterations (zero outside the convex hull of the rows), and
    ConvergenceError after 100 Newton steps without reaching tolerance.
    """
    rows = psi.rows
    if not np.all(np.isfinite(rows)):
        raise InputError("psi matrix contains non-finite entries")
    m, k = rows.shape
    if m == 0:
        raise InputError("psi matrix has no rows")
    if k == 0:
        return _trivial_solution(m, k)
    if not psi.adjusted and k == 1:
        lo, hi = rows.min(), rows.max()
        if lo > 0.0 or hi < 0.0:
            raise NoSolutionError(
                "all estimating-function values share one sign; zero is outside their convex hull"
            )

    min_t = 1.0 / m + _FEAS_SLACK
    xi = np.zeros(k)
    t = np.ones(m)
    f = 0.0
    resid_prev = np.inf
    boundary_stall = 0
    trace = [f] if keep_trace else None
    resid = np.inf

    def _residual(tvals):
        return float(np.linalg.norm((rows / tvals[:, None]).sum(axis=0)))

    for it in range(1, MAX_NEWTON_STEPS + 1):
        r = rows / t[:, None]
        gvec = r.sum(axis=0)  # = sum psi_j / t_j; dual gradient is -gvec
        resid = float(np.linalg.norm(gvec))
        if resid < DUAL_GRAD_TOL:
            # A vanishing gradient certifies a solution only together with the
            # weight-sum identity sum_j 1/(m t_j) = 1 (equivalently
            # m - xi'gvec = m); along a recession direction of an unsolvable
            # problem the gradient also vanishes but the weights collapse.
            wsum_err = abs(float(np.sum(1.0 / t)) / m - 1.0)
            if wsum_err > 1e-6:
                if not psi.adjusted:
                    raise NoSolutionError(
                        "dual gradient vanishes along a recession direction "
                        f"(weight sum off by {wsum_err:.3e}); zero is outside "
                        "the convex hull of the psi rows"
                    )
                raise ConvergenceError(
                    f"adjusted dual diverged (weight sum off by {wsum_err:.3e})",
                    residual=resid,
                    iterations=it,
                )
            # One full polishing step tightens sum(p) = 1 and sum(p psi) = 0
            # well past the stopping tolerance.
            try:
                d = np.linalg.solve(r.T @ r, gvec)
            except np.linalg.LinAlgError:
                d = np.zeros(k)
            tn = 1.0 + rows @ (xi + d)
            if tn.min() >= min_t:
                rn = _residual(tn)
                if rn < resid:
                    xi, t, resid = xi + d, tn, rn
            weights = 1.0 / (m * t)
            stat = max(0.0, 2.0 * float(np.log(t).sum()))
            return ElSolution(
                xi=xi,
                weights=weights,
                stat=stat,
                converged=True,
                residual=resid,
                inner_iterations=it - 1,
                trace=tuple(trace) if keep_trace else (),
            )
        if f < -1e3 * m:
            # Dual objective unbounded below: no primal solution exists.
            if not psi.adjusted:
                raise NoSolutionError(
                    "dual objective is unbounded below; zero is outside the "
                    "convex hull of the psi rows"
                )
            raise ConvergenceError(
                f"adjusted dual diverged (objective {f:.3e})", residual=resid, iterations=it
            )

        h = r.T @ r
        try:
            d = np.linalg.solve(h, gvec)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(h, gvec, rcond=None)[0]
        slope = float(gvec @ d)  # = -grad f . d; positive for a descent direction
        if slope <= 0.0:
            d = gvec
            slope = float(gvec @ gvec)

        step = 1.0
        hit_boundary = False
        accepted = False
        while step >= 1e-16:
            xin = xi + step * d
            tn = 1.0 + rows @ xin
            if tn.min() < min_t:
                hit_boundary = True
                step *= 0.5
                continue
            fn = -float(np.log(tn).sum())
            if fn <= f - _ARMIJO_C1 * step * slope:
                accepted = True
                break
            # Near the optimum the Armijo decrease falls below the rounding
            # resolution of f; accept on residual decrease instead (the local
            # Newton phase), guarding f against measurable increase.
            if (
                _residual(tn) <= resid * (1.0 - 1e-4)
                and fn <= f + 1e-10 * (1.0 + abs(f))
            ):
                accepted = True
                break
            step *= 0.5

        if accepted:
            xi, t, f = xin, tn, fn
            if keep_trace:
                trace.append(f)
        if hit_boundary and resid >= resid_prev - 1e-12:
            boundary_stall += 1
        else:
            boundary_stall = 0
        if boundary_stall >= _STALL_LIMIT and not psi.adjusted:
            raise NoSolutionError(
                "dual iterates pinned against the feasibility boundary without "
                "progress; zero is outside the convex hull of the psi rows"
            )
        if not accepted and not hit_boundary:
            raise ConvergenceError(
                f"dual line search made no progress (residual {resid:.3e})",
                residual=resid,
                iterations=it,
            )
        resid_prev = resid

    raise ConvergenceError(
        f"dual solver did not converge in {MAX_NEWTON_STEPS} steps (residual {resid:.3e})",
        residual=resid,
        iterations=MAX_NEWTON_STEPS,
    )

