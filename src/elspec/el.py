"""Empirical-likelihood inner problem: pseudo-observation adjustment and the
Lagrange dual solver, one kernel for a stack of problems.

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

Scans and Monte Carlo cells solve many unrelated problems of one shape; they
stack them into an (N, m, k) array and call :func:`solve_duals`, which runs
every problem's damped Newton iteration side by side.  :func:`solve_dual` is
its N = 1 call.
"""

from __future__ import annotations

import logging
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
# Callers batch at most about this many psi entries (N * m * k) per
# solve_duals call, which keeps the solver's temporaries near 1 MB.
_BATCH_ENTRIES = 1 << 15

# Per-problem outcome of the dual.
STATUS_OK = 0
STATUS_NO_SOLUTION = 1
STATUS_FAILED = 2

# DualBatch.reason: the rule that stopped an unsolved problem (0 if solved).
_ONE_SIDED, _RECESSION, _UNBOUNDED, _PINNED, _NO_PROGRESS, _MAX_STEPS = range(1, 7)
_REASON_TEXT = {
    _ONE_SIDED: "all estimating-function values share one sign",
    _RECESSION: "dual gradient vanishes along a recession direction "
                "(the weights do not sum to one)",
    _UNBOUNDED: "dual objective is unbounded below",
    _PINNED: "dual iterates pinned against the feasibility boundary without progress",
    _NO_PROGRESS: "dual line search made no progress",
    _MAX_STEPS: f"dual solver did not converge in {MAX_NEWTON_STEPS} steps",
}

log = logging.getLogger("elspec")

# The ufunc reductions behind ndarray.sum/.min, called directly: they give
# the same values without the method wrappers, whose cost dominates the
# kernel's small N = 1 arrays.
_sum, _min = np.add.reduce, np.minimum.reduce


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


@dataclass(frozen=True, eq=False)
class DualBatch:
    """Per-problem outcome of :func:`solve_duals` on N stacked problems.

    ``stat`` is the log-ratio statistic 2 sum_j ln t_j (NaN unless
    ``status`` is STATUS_OK); ``iterations`` counts Newton steps (for an
    unsolved problem, the step at which it stopped; 0 when the one-sign test
    decides before any step); ``residual`` is the multiplier-equation norm at
    the end (NaN when no step ran).  ``xi`` (N, k) holds the multipliers of
    solved problems (zeros otherwise); ``reason`` is 0 or the code of the
    rule that stopped an unsolved problem; ``traces`` holds, when asked for, each problem's dual
    objective before the first and after every accepted step.
    """

    stat: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    xi: np.ndarray
    reason: np.ndarray
    traces: tuple = ()


def adjust_rows(rows, policy: AdjustmentPolicy = MAX_HALF_LOG):
    """Append -a_n * psibar to every problem of an (..., m, k) stack.

    Returns the stacked rows and whether they were adjusted (the "none"
    policy returns the input unchanged).
    """
    if policy.rule == "none":
        return rows, False
    if policy.trim:
        lo = np.percentile(rows, 1.0, axis=-2, keepdims=True)
        hi = np.percentile(rows, 99.0, axis=-2, keepdims=True)
        psibar = np.clip(rows, lo, hi).mean(axis=-2, keepdims=True)
    else:
        psibar = rows.mean(axis=-2, keepdims=True)
    a_n = policy.a_n(rows.shape[-2])
    return np.concatenate([rows, -a_n * psibar], axis=-2), True


def adjust(psi: PsiMatrix, policy: AdjustmentPolicy = MAX_HALF_LOG) -> PsiMatrix:
    """Append the pseudo-observation row -a_n * psibar.

    With the "none" policy the input is returned unchanged.  Adjusting an
    already-adjusted matrix is an error.
    """
    if psi.adjusted:
        raise InputError("psi matrix is already adjusted")
    if policy.rule == "none":
        return psi
    rows, _ = adjust_rows(psi.rows, policy)
    return PsiMatrix(rows, adjusted=True, a_n=policy.a_n(psi.m))


def batch_slices(count: int, entries: int):
    """Consecutive slices of ``count`` problems with ``entries`` psi values
    each, every slice small enough for one :func:`solve_duals` call."""
    size = max(1, _BATCH_ENTRIES // max(1, entries))
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _where(mask):
    """Index of the True entries of ``mask``: None when there are none, a
    full slice (views, no copies) when every entry is True."""
    count = np.count_nonzero(mask)
    return None if count == 0 else slice(None) if count == mask.size else mask


def _gradient_and_hessian(cols, t):
    """g = sum_j psi_j / t_j (the dual gradient is -g) and the Newton matrix
    h = sum_j psi_j psi_j' / t_j^2 of every problem."""
    r = cols / t[:, None, :]
    return _sum(r, axis=2), r @ r.transpose(0, 2, 1)


def _norm(g):
    return np.sqrt(_sum(g * g, axis=1))


def _affine(cols, x):
    """t_j = 1 + x'psi_j of every problem: (N, m) from cols (N, k, m), x (N, k)."""
    return 1.0 + (x[:, None, :] @ cols)[:, 0]


def _newton_directions(h, g, polish, fallbacks):
    """Solve h d = g for every problem.  An exactly singular h (LU meets a
    zero pivot, as for collinear psi columns) gets the least-squares step, or
    no step at all when ``polish``; the others are solved together."""
    try:
        return np.linalg.solve(h, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    # slogdet runs the same LU factorization: a zero sign marks exactly the
    # problems whose solve failed.
    singular = np.linalg.slogdet(h)[0] == 0.0
    d = np.zeros_like(g)
    regular = ~singular
    if np.count_nonzero(regular):
        d[regular] = np.linalg.solve(h[regular], g[regular][:, :, None])[:, :, 0]
    if not polish:
        for j in np.flatnonzero(singular):
            d[j] = np.linalg.lstsq(h[j], g[j], rcond=None)[0]
    fallbacks["polish" if polish else "lstsq"] += int(np.count_nonzero(singular))
    return d


class _Active:
    """Iterates of the problems still running and their batch positions."""

    FIELDS = ("pos", "cols", "xi", "t", "f", "resid_prev", "stall")

    def __init__(self, pos, cols):
        a, k, m = cols.shape
        self.pos = pos
        self.cols = cols
        self.xi = np.zeros((a, k))
        self.t = np.ones((a, m))
        self.f = np.zeros(a)
        self.resid_prev = np.full(a, np.inf)
        self.stall = np.zeros(a, dtype=int)

    def keep(self, mask):
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)[mask])


def _polish(cols, xi, t, resid, d, min_t):
    """One full Newton step from a converged iterate, kept where it stays
    feasible and lowers the residual: it tightens sum(p) = 1 and
    sum(p psi) = 0 well past the stopping tolerance.  Returns xi, t and the
    residual."""
    xp = xi + d
    tp = _affine(cols, xp)
    feas = _min(tp, axis=1) >= min_t
    if np.count_nonzero(feas) == len(feas):
        rp = _norm(_sum(cols / tp[:, None, :], axis=2))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            rp = _norm(_sum(cols / tp[:, None, :], axis=2))
    better = feas & (rp < resid)
    n_better = np.count_nonzero(better)
    if n_better == len(better):
        return xp, tp, rp
    if n_better:
        xi = np.where(better[:, None], xp, xi)
        t = np.where(better[:, None], tp, t)
        resid = np.where(better, rp, resid)
    return xi, t, resid


def _line_search(w, d, slope, resid, min_t):
    """Backtracking for every active problem: halve each problem's step until
    its iterate is feasible and passes the Armijo test (or, near the optimum,
    the residual test), or the step falls below 1e-16.  Accepted iterates
    replace xi, t and f.  Returns the accepted and boundary-hit masks, or
    None when every problem took its full step: that common case costs no
    masked bookkeeping.

    All problems still searching have been halved equally often, so they
    share one scalar step; while none has been accepted nothing is gathered.
    """
    n = len(w.f)
    step = 1.0
    live = None  # indices of the problems still searching; None for all
    hit = accepted = None  # allocated once some problem backtracks
    while step >= 1e-16:
        if live is None:
            cols, xi, f, dl, sl, rs = w.cols, w.xi, w.f, d, slope, resid
        else:
            cols, xi, f, dl, sl, rs = (
                w.cols[live], w.xi[live], w.f[live], d[live], slope[live], resid[live])
        xin = xi + dl if step == 1.0 else xi + step * dl
        tn = _affine(cols, xin)
        if hit is None and _min(tn, axis=None) >= min_t:  # first trial, all feasible
            fn = -_sum(np.log(tn), axis=1)
            acc = fn <= f - _ARMIJO_C1 * sl
            if np.count_nonzero(acc) == n:
                w.xi, w.t, w.f = xin, tn, fn
                return None
            feas, n_feas = np.ones(n, dtype=bool), n
        else:
            feas = _min(tn, axis=1) >= min_t
            n_feas = np.count_nonzero(feas)
            if n_feas:
                with np.errstate(divide="ignore", invalid="ignore"):
                    fn = -_sum(np.log(tn), axis=1)
                acc = feas & (fn <= f - _ARMIJO_C1 * step * sl)
        if hit is None:
            hit, accepted = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        idx = np.arange(n) if live is None else live
        if not n_feas:  # every searching problem hit the boundary
            hit[idx] = True
            step *= 0.5
            continue
        # Near the optimum the Armijo decrease falls below the rounding
        # resolution of f; accept on residual decrease instead (the local
        # Newton phase), guarding f against measurable increase.
        near = np.flatnonzero(feas & ~acc)
        if near.size:
            rn = _norm(_sum(cols[near] / tn[near][:, None, :], axis=2))
            fj = f[near]
            acc[near] = (rn <= rs[near] * (1.0 - 1e-4)) & (
                fn[near] <= fj + 1e-10 * (1.0 + np.abs(fj)))
        hit[idx[~feas]] = True
        if np.count_nonzero(acc):
            won = idx[acc]
            w.xi[won], w.t[won], w.f[won] = xin[acc], tn[acc], fn[acc]
            accepted[won] = True
            live = idx[~acc]
            if not live.size:
                break
        step *= 0.5
    return accepted, hit


def solve_duals(rows, adjusted: bool = False, keep_trace: bool = False) -> DualBatch:
    """Solve N stacked EL duals, problem i having the m x k rows ``rows[i]``.

    Damped Newton on f(xi) = -sum ln(1 + xi'psi_j), every problem on its own
    path: Newton steps are halved until the iterate is feasible
    (1 + xi'psi_j >= 1/m + 1e-12 for all j) and satisfies an Armijo
    decrease, which keeps f strictly decreasing across accepted steps.  A
    problem converges when its multiplier-equation residual
    ||sum psi_j / (1 + xi'psi_j)|| drops below 1e-9; one full polishing step
    then tightens the constraints well past that tolerance.

    A problem is STATUS_NO_SOLUTION when, on unadjusted rows (``adjusted``
    False), zero is outside the convex hull of its rows: for k = 1 its
    values share one sign; otherwise its gradient vanishes while the implied
    weights do not sum to one (a recession direction), its objective falls
    below -1e3 m, or its iterates pin against the feasibility boundary
    without residual progress for 10 consecutive steps.  It is STATUS_FAILED
    when the line search makes no progress, after 100 Newton steps, or when
    an adjusted problem diverges.  Each problem's outcome is the one it would
    have alone: the batch only shares the numpy calls.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 3:
        raise InputError(f"psi stack must be (N, m, k), got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise InputError("psi matrix contains non-finite entries")
    n, m, k = rows.shape
    if m == 0:
        raise InputError("psi matrix has no rows")
    stat, residual = np.empty(n), np.empty(n)
    stat.fill(np.nan)
    residual.fill(np.nan)
    status = np.zeros(n, dtype=int)
    iterations = np.zeros(n, dtype=int)
    xi_out = np.zeros((n, k))
    reason = np.zeros(n, dtype=int)
    traces = [[0.0] for _ in range(n)] if keep_trace else None

    def result():
        return DualBatch(stat, status, iterations, residual, xi_out, reason,
                         tuple(map(tuple, traces)) if keep_trace else ())

    if k == 0:
        stat[:] = residual[:] = 0.0
        return result()

    pos = np.arange(n)
    if not adjusted and k == 1:
        one_sided = (rows[:, :, 0].min(axis=1) > 0.0) | (rows[:, :, 0].max(axis=1) < 0.0)
        if np.count_nonzero(one_sided):
            status[one_sided], reason[one_sided] = STATUS_NO_SOLUTION, _ONE_SIDED
            pos = pos[~one_sided]
    w = _Active(pos, np.ascontiguousarray((rows if pos.size == n else rows[pos]).transpose(0, 2, 1)))
    if not pos.size:
        return result()
    min_t = 1.0 / m + _FEAS_SLACK
    fallbacks = {"lstsq": 0, "polish": 0}

    def stop(mask, code, resid, it):
        if not np.count_nonzero(mask):
            return
        at = w.pos[mask]
        hull = not adjusted and code in (_RECESSION, _UNBOUNDED, _PINNED)
        status[at] = STATUS_NO_SOLUTION if hull else STATUS_FAILED
        reason[at], residual[at], iterations[at] = code, resid[mask], it

    resid = np.zeros(0)
    for it in range(1, MAX_NEWTON_STEPS + 1):
        g, h = _gradient_and_hessian(w.cols, w.t)
        resid = _norm(g)
        done = resid < DUAL_GRAD_TOL
        ended = done | (w.f < -1e3 * m)
        n_ended = np.count_nonzero(ended)
        if n_ended:
            sel = _where(done)
            if sel is not None:
                # A vanishing gradient certifies a solution only together
                # with the weight-sum identity sum_j 1/(m t_j) = 1; along a
                # recession direction of an unsolvable problem the gradient
                # also vanishes but the weights collapse.
                off = np.abs(_sum(1.0 / w.t[sel], axis=1) / m - 1.0) > 1e-6
                if np.count_nonzero(off):
                    diverged = np.zeros_like(done)
                    diverged[sel] = off
                    stop(diverged, _RECESSION, resid, it)
                    sel = _where(done & ~diverged)
            if sel is not None:
                xi, t, res = _polish(w.cols[sel], w.xi[sel], w.t[sel], resid[sel],
                                     _newton_directions(h[sel], g[sel], True, fallbacks), min_t)
                at = w.pos[sel]
                stat[at] = np.maximum(0.0, 2.0 * _sum(np.log(t), axis=1))
                iterations[at], residual[at], xi_out[at] = it - 1, res, xi
            # Dual objective unbounded below: no primal solution exists.
            stop(ended & ~done, _UNBOUNDED, resid, it)
            if n_ended == len(ended):
                break
            keep = ~ended
            w.keep(keep)
            g, resid, h = g[keep], resid[keep], h[keep]

        d = _newton_directions(h, g, False, fallbacks)
        slope = _sum(g * d, axis=1)  # = -grad f . d; positive for a descent direction
        uphill = slope <= 0.0
        if np.count_nonzero(uphill):
            d[uphill] = g[uphill]
            slope[uphill] = _sum(g[uphill] * g[uphill], axis=1)
        searched = _line_search(w, d, slope, resid, min_t)
        if searched is None:  # every problem stepped: no boundary hit, no stop
            w.stall.fill(0)
            w.resid_prev = resid
            if keep_trace:
                for j, f in zip(w.pos, w.f):
                    traces[j].append(float(f))
            continue
        accepted, hit = searched
        if keep_trace:
            for j in np.flatnonzero(accepted):
                traces[w.pos[j]].append(float(w.f[j]))
        w.stall = np.where(hit & (resid >= w.resid_prev - 1e-12), w.stall + 1, 0)
        w.resid_prev = resid
        pinned = (w.stall >= _STALL_LIMIT) & (not adjusted)
        stuck = ~accepted & ~hit
        ended = pinned | stuck
        if np.count_nonzero(ended):
            stop(pinned, _PINNED, resid, it)
            stop(stuck, _NO_PROGRESS, resid, it)
            if np.count_nonzero(ended) == len(ended):
                break
            w.keep(~ended)
            resid = resid[~ended]
    else:
        stop(np.ones(w.pos.size, dtype=bool), _MAX_STEPS, resid, MAX_NEWTON_STEPS)

    if fallbacks["lstsq"]:
        log.debug("dual: exactly singular Newton matrix, least-squares step used %d time(s)",
                  fallbacks["lstsq"])
    if fallbacks["polish"]:
        log.debug("dual: exactly singular Newton matrix, polishing step skipped for %d "
                  "problem(s)", fallbacks["polish"])
    return result()


def solve_dual(psi: PsiMatrix, keep_trace: bool = False) -> ElSolution:
    """Solve one EL Lagrange dual: the N = 1 call of :func:`solve_duals`.

    Raises NoSolutionError when zero is outside the convex hull of the rows
    of an unadjusted matrix, and ConvergenceError (carrying the residual and
    iteration count) when the iteration fails; :func:`solve_duals` gives the
    rules.
    """
    res = solve_duals(psi.rows[None], psi.adjusted, keep_trace)
    status = int(res.status[0])
    if status == STATUS_NO_SOLUTION:
        raise NoSolutionError(
            f"{_REASON_TEXT[int(res.reason[0])]}; zero is outside the convex hull of the psi rows"
        )
    if status == STATUS_FAILED:
        resid, it = float(res.residual[0]), int(res.iterations[0])
        prefix = "adjusted dual diverged: " if psi.adjusted and res.reason[0] in (
            _RECESSION, _UNBOUNDED) else ""
        raise ConvergenceError(f"{prefix}{_REASON_TEXT[int(res.reason[0])]} "
                               f"(residual {resid:.3e})", residual=resid, iterations=it)
    xi = res.xi[0]
    return ElSolution(
        xi=xi,
        weights=1.0 / (psi.m * (1.0 + psi.rows @ xi)),
        stat=float(res.stat[0]),
        converged=True,
        residual=float(res.residual[0]),
        inner_iterations=int(res.iterations[0]),
        trace=res.traces[0] if keep_trace else (),
    )
