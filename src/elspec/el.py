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

The inner problem has a solution exactly when zero lies in the relative
interior of the convex hull of the rows (Owen 2001, ch. 3): some strictly
positive weights combine the rows to zero.  "Relative" means interior within
the linear span of the rows, which is all of R^k only when the rows have
rank k; at phi = theta, say, the two profile psi columns are collinear and
the hull is a segment.  :func:`solve_duals` certifies this condition for
every problem before any Newton step, in coordinates of the span of its rows,
and runs Newton only on the certified problems.  Appending the
pseudo-observation -a_n * psibar (the mean row scaled by -a_n) always puts
zero there: the weights 1, ..., 1, n / a_n combine the n rows and the
pseudo-observation to zero (Chen, Variyath & Abraham 2008).  A winsorized
psibar (``AdjustmentPolicy.trim``) is not the mean row, so trimmed adjusted
problems are certified like unadjusted ones.

Scans and Monte Carlo cells solve many unrelated problems of one shape; they
stack them into an (N, m, k) array and call :func:`solve_duals`, which runs
every problem's damped Newton iteration side by side.  :func:`solve_dual` is
its N = 1 call.
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
# Callers batch at most about this many psi entries (N * m * k) per
# solve_duals call, and arma.simulate_stack this many innovation samples per
# chunk, which keeps the temporaries near 1 MB.
_BATCH_ENTRIES = 1 << 15

# Per-problem outcome of the dual.
STATUS_OK = 0
STATUS_NO_SOLUTION = 1
STATUS_FAILED = 2

# DualBatch.reason: why a problem is unsolved (0 if solved).
_OUTSIDE_HULL, _NO_PROGRESS, _MAX_STEPS, _SINGULAR = range(1, 5)
_REASON_TEXT = {
    _OUTSIDE_HULL: "zero is not in the relative interior of the convex hull of the psi rows",
    _NO_PROGRESS: "dual line search made no progress",
    _MAX_STEPS: f"dual solver did not converge in {MAX_NEWTON_STEPS} steps",
    _SINGULAR: "dual Newton matrix is numerically singular",
}

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

    rule: "max_half_log" (a_n = max(1, ln(n)/2)) or "half_log"
    (a_n = ln(n)/2), the choices in ``RULES``.  Values are capped at n/2 so
    a_n stays o(n).  ``trim`` winsorizes each psi column at its empirical
    1st/99th percentiles before forming psibar (the data rows themselves are
    never altered); off by default.
    """

    rule: str = "max_half_log"
    trim: bool = False

    RULES = ("max_half_log", "half_log")

    def __post_init__(self):
        if self.rule not in self.RULES:
            raise InputError(f"unknown adjustment rule {self.rule!r}; choose from {self.RULES}")

    def a_n(self, n: int) -> float:
        raw = math.log(n) / 2.0
        if self.rule == "max_half_log":
            raw = max(1.0, raw)
        capped = min(raw, n / 2.0)
        if capped <= 0.0:
            raise InputError(f"adjustment constant must be positive, got {capped} for n={n}")
        return capped


MAX_HALF_LOG = AdjustmentPolicy("max_half_log")
HALF_LOG = AdjustmentPolicy("half_log")


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


@dataclass(frozen=True, eq=False)
class DualBatch:
    """Per-problem outcome of :func:`solve_duals` on N stacked problems.

    ``stat`` is the log-ratio statistic 2 sum_j ln t_j (NaN unless
    ``status`` is STATUS_OK).  ``iterations`` counts Newton steps: for a
    failed problem, the step at which it stopped; 0 for STATUS_NO_SOLUTION,
    which the hull certificate decides before any step.  ``residual`` is the
    multiplier-equation norm at the end (NaN for STATUS_NO_SOLUTION).  ``xi``
    (N, k) holds the multipliers of solved problems (zeros otherwise);
    ``reason`` is 0 or the code of why a problem is unsolved.
    """

    stat: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    xi: np.ndarray
    reason: np.ndarray


def adjust_rows(rows, policy: AdjustmentPolicy = MAX_HALF_LOG) -> np.ndarray:
    """Append -a_n * psibar to every problem of an (..., m, k) stack."""
    if policy.trim:
        lo = np.percentile(rows, 1.0, axis=-2, keepdims=True)
        hi = np.percentile(rows, 99.0, axis=-2, keepdims=True)
        psibar = np.clip(rows, lo, hi).mean(axis=-2, keepdims=True)
    else:
        psibar = rows.mean(axis=-2, keepdims=True)
    a_n = policy.a_n(rows.shape[-2])
    return np.concatenate([rows, -a_n * psibar], axis=-2)


def adjust(psi: PsiMatrix, policy: AdjustmentPolicy = MAX_HALF_LOG) -> PsiMatrix:
    """Append the pseudo-observation row -a_n * psibar.  Adjusting an
    already-adjusted matrix is an error."""
    if psi.adjusted:
        raise InputError("psi matrix is already adjusted")
    return PsiMatrix(adjust_rows(psi.rows, policy), adjusted=True, a_n=policy.a_n(psi.m))


def batch_slices(count: int, entries: int):
    """Consecutive slices of ``count`` problems with ``entries`` psi values
    each, every slice small enough for one :func:`solve_duals` call."""
    size = max(1, _BATCH_ENTRIES // max(1, entries))
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


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


def _newton_directions(h, g):
    """Solve h d = g for every problem.  h is positive definite because the
    rows of every problem have full column rank, but rows of wildly
    different scales can still make it singular in floating point.  Returns
    the directions and None, or, when the batched solve raises, the
    directions solved one problem at a time and the mask of the problems
    whose h is singular (their directions are NaN)."""
    try:
        return np.linalg.solve(h, g[:, :, None])[:, :, 0], None
    except np.linalg.LinAlgError:
        pass
    d = np.full(g.shape, np.nan)
    singular = np.zeros(len(g), dtype=bool)
    for i in range(len(g)):
        try:  # the same (1, r, r) call as the problem's own N = 1 solve
            d[i] = np.linalg.solve(h[i : i + 1], g[i : i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            singular[i] = True
    return d, singular


def _in_relative_interior(x):
    """Whether zero is interior to the convex hull of each problem's rows, for
    an (N, m, r) stack in which every problem has rank r >= 1.

    r = 1: the values take both signs.  r = 2: sorted by angle, the nonzero
    rows leave no gap of pi or more (the wrap-around gap included).  r >= 3:
    no direction d has x_j'd >= 0 for every row and > 0 for some; one linear
    program per problem maximizes the margin of such a d over the unit box on
    the normalized nonzero rows, and a d it returns counts only when it
    separates in floating point.
    """
    n, m, r = x.shape
    if r == 1:
        return (_min(x[:, :, 0], axis=1) < 0.0) & (np.maximum.reduce(x[:, :, 0], axis=1) > 0.0)
    zero = ~np.any(x != 0.0, axis=2)
    if r == 2:
        angle = np.arctan2(x[:, :, 1], x[:, :, 0])
        if np.count_nonzero(zero):  # a zero row takes the angle of a nonzero one
            angle = np.where(zero, angle[np.arange(n), np.argmin(zero, axis=1)][:, None], angle)
        angle.sort(axis=1)
        wrap = 2.0 * np.pi - (angle[:, -1] - angle[:, 0])
        return np.maximum(np.diff(angle, axis=1).max(axis=1), wrap) < np.pi
    from scipy.optimize import linprog

    inside = np.ones(n, dtype=bool)
    for i in range(n):
        rows = x[i][~zero[i]]
        unit = rows / np.sqrt(_sum(rows * rows, axis=1))[:, None]
        # maximize s over (d, s) subject to unit @ d >= s and |d_l| <= 1
        lp = linprog(np.r_[np.zeros(r), -1.0], A_ub=np.c_[-unit, np.ones(len(unit))],
                     b_ub=np.zeros(len(unit)), bounds=[(-1.0, 1.0)] * r + [(None, None)])
        if lp.status == 0:
            side = rows @ lp.x[:r]
            inside[i] = not (np.all(side >= 0.0) and np.any(side > 0.0))
    return inside


class _Active:
    """Iterates of the problems still running and their batch positions."""

    FIELDS = ("pos", "cols", "xi", "t", "f")

    def __init__(self, pos, cols):
        a, k, m = cols.shape
        self.pos = pos
        self.cols = cols
        self.xi = np.zeros((a, k))
        self.t = np.ones((a, m))
        self.f = np.zeros(a)

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
    replace xi, t and f.  Returns the accepted mask, or None when every
    problem took its full step: that common case costs no masked
    bookkeeping.

    All problems still searching have been halved equally often, so they
    share one scalar step; while none has been accepted nothing is gathered.
    """
    n = len(w.f)
    step = 1.0
    live = None  # indices of the problems still searching; None for all
    accepted = None  # allocated once some problem backtracks
    while step >= 1e-16:
        if live is None:
            cols, xi, f, dl, sl, rs = w.cols, w.xi, w.f, d, slope, resid
        else:
            cols, xi, f, dl, sl, rs = (
                w.cols[live], w.xi[live], w.f[live], d[live], slope[live], resid[live])
        xin = xi + dl if step == 1.0 else xi + step * dl
        tn = _affine(cols, xin)
        if accepted is None and _min(tn, axis=None) >= min_t:  # first trial, all feasible
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
        if accepted is None:
            accepted = np.zeros(n, dtype=bool)
        if not n_feas:  # every searching problem hit the boundary
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
        if np.count_nonzero(acc):
            idx = np.arange(n) if live is None else live
            won = idx[acc]
            w.xi[won], w.t[won], w.f[won] = xin[acc], tn[acc], fn[acc]
            accepted[won] = True
            live = idx[~acc]
            if not live.size:
                break
        step *= 0.5
    return accepted


def _newton(x, pos, out):
    """Damped Newton on certified problems whose (N', m, r) rows ``x`` have
    rank r: fills their entries at batch positions ``pos`` of ``out``,
    except ``xi``, and returns their multipliers (N', r)."""
    n, m, r = x.shape
    eta = np.zeros((n, r))
    w = _Active(np.arange(n), np.ascontiguousarray(x.transpose(0, 2, 1)))
    min_t = 1.0 / m + _FEAS_SLACK

    def stop(mask, code, resid, it):
        at = pos[w.pos[mask]]
        out.status[at], out.reason[at] = STATUS_FAILED, code
        out.residual[at], out.iterations[at] = resid[mask], it

    for it in range(1, MAX_NEWTON_STEPS + 1):
        g, h = _gradient_and_hessian(w.cols, w.t)
        resid = _norm(g)
        done = resid < DUAL_GRAD_TOL
        n_done = np.count_nonzero(done)
        if n_done:
            sel = slice(None) if n_done == len(done) else done  # a view when all are done
            # a singular h gives a NaN polishing step, which _polish rejects
            xi, t, res = _polish(w.cols[sel], w.xi[sel], w.t[sel], resid[sel],
                                 _newton_directions(h[sel], g[sel])[0], min_t)
            eta[w.pos[sel]] = xi
            at = pos[w.pos[sel]]
            out.stat[at] = np.maximum(0.0, 2.0 * _sum(np.log(t), axis=1))
            out.iterations[at], out.residual[at] = it - 1, res
            if n_done == len(done):
                break
            keep = ~done
            w.keep(keep)
            g, resid, h = g[keep], resid[keep], h[keep]

        d, singular = _newton_directions(h, g)
        if singular is not None:
            stop(singular, _SINGULAR, resid, it)
            keep = ~singular
            if not np.count_nonzero(keep):
                break
            w.keep(keep)
            g, d, resid = g[keep], d[keep], resid[keep]
        slope = _sum(g * d, axis=1)  # = -grad f . d; positive for a descent direction
        uphill = slope <= 0.0
        if np.count_nonzero(uphill):
            d[uphill] = g[uphill]
            slope[uphill] = _sum(g[uphill] * g[uphill], axis=1)
        accepted = _line_search(w, d, slope, resid, min_t)
        if accepted is None:  # every problem stepped
            continue
        # A problem with no accepted trial keeps its iterate, so it would
        # repeat the same search: it stops here.
        n_acc = np.count_nonzero(accepted)
        if n_acc < len(accepted):
            stop(~accepted, _NO_PROGRESS, resid, it)
            if not n_acc:
                break
            w.keep(accepted)
            resid = resid[accepted]
    else:
        stop(np.ones(w.pos.size, dtype=bool), _MAX_STEPS, resid, MAX_NEWTON_STEPS)
    return eta


def solve_duals(rows, adjusted: bool = False) -> DualBatch:
    """Solve N stacked EL duals, problem i having the m x k rows ``rows[i]``.

    Each problem is first certified: with r the rank of its rows (numpy's
    ``matrix_rank`` tolerance), it is solvable exactly when zero lies in the
    relative interior of the convex hull of its rows, that is, when strictly
    positive weights combine the rows to zero.  A problem of rank r < k is
    expressed in the coordinates x_j = V_r' psi_j of the span of its rows
    (V_r: its leading r right singular vectors), where its hull test and
    Newton run; its multipliers are mapped back as xi = V_r eta.  Rows of
    rank 0 (all zero) give stat 0 with xi = 0.  The hull test: for r = 1 the
    values take both signs; for r = 2 the largest angular gap between the
    nonzero rows is below pi; for r >= 3 a linear program finds no direction
    d with x_j'd >= 0 for all rows and > 0 for some.  An uncertified problem
    is STATUS_NO_SOLUTION, with ``iterations`` 0 and ``residual`` NaN.  The
    test is skipped when ``adjusted`` is set, for rows whose last row is the
    pseudo-observation -a_n psibar of an untrimmed mean: the weights 1, ...,
    1, n / a_n combine them to zero.  A trimmed psibar is not covered by
    that argument, so trimmed adjusted rows are passed with ``adjusted``
    False.

    Certified problems run damped Newton on f(xi) = -sum ln(1 + xi'psi_j),
    every problem on its own path: Newton steps are halved until the iterate
    is feasible (1 + xi'psi_j >= 1/m + 1e-12 for all j) and satisfies an
    Armijo decrease, which keeps f strictly decreasing across accepted steps.
    A problem converges when its multiplier-equation residual
    ||sum psi_j / (1 + xi'psi_j)|| drops below 1e-9; one full polishing step
    then tightens the constraints well past that tolerance.  It is
    STATUS_FAILED when its line search accepts no trial step, when its Newton
    matrix is numerically singular (LAPACK finds an exactly zero pivot), or
    after 100 Newton steps.  Each problem's outcome is the one it would have
    alone: the batch only shares the numpy calls.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 3:
        raise InputError(f"psi stack must be (N, m, k), got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise InputError("psi matrix contains non-finite entries")
    n, m, k = rows.shape
    if m == 0:
        raise InputError("psi matrix has no rows")
    out = DualBatch(stat=np.full(n, np.nan), status=np.zeros(n, dtype=int),
                    iterations=np.zeros(n, dtype=int), residual=np.full(n, np.nan),
                    xi=np.zeros((n, k)), reason=np.zeros(n, dtype=int))

    # numpy's matrix_rank, without its wrapper's cost on small stacks
    sv = np.linalg.svd(rows, compute_uv=False)
    rank = np.count_nonzero(sv > sv[:, :1] * (max(m, k) * np.finfo(float).eps), axis=1)
    for r in np.unique(rank):
        pos = np.flatnonzero(rank == r)
        if r == 0:  # all rows zero: xi = 0 solves the dual
            out.stat[pos] = out.residual[pos] = 0.0
            continue
        x, basis = (rows if pos.size == n else rows[pos]), None
        if r < k:  # span coordinates x_j = V_r' psi_j
            basis = np.linalg.svd(x, full_matrices=False)[2][:, :r].transpose(0, 2, 1)
            x = x @ basis
        if not adjusted:
            inside = _in_relative_interior(x)
            if np.count_nonzero(inside) < pos.size:
                out.status[pos[~inside]] = STATUS_NO_SOLUTION
                out.reason[pos[~inside]] = _OUTSIDE_HULL
                pos, x = pos[inside], x[inside]
                basis = None if basis is None else basis[inside]
        if pos.size:
            eta = _newton(x, pos, out)
            out.xi[pos] = eta if basis is None else (basis @ eta[:, :, None])[:, :, 0]
    return out


def solve_dual(psi: PsiMatrix) -> ElSolution:
    """Solve one EL Lagrange dual: the N = 1 call of :func:`solve_duals`.

    Every problem is certified, adjusted or not, since a PsiMatrix does not
    record whether its psibar was trimmed.  Raises NoSolutionError when zero
    is not in the relative interior of the convex hull of the rows, and
    ConvergenceError (carrying the residual and iteration count) when the
    iteration fails; :func:`solve_duals` gives the rules.
    """
    res = solve_duals(psi.rows[None])
    status, text = int(res.status[0]), _REASON_TEXT.get(int(res.reason[0]))
    if status == STATUS_NO_SOLUTION:
        raise NoSolutionError(text)
    if status == STATUS_FAILED:
        resid, it = float(res.residual[0]), int(res.iterations[0])
        raise ConvergenceError(f"{text} (residual {resid:.3e})", residual=resid, iterations=it)
    xi = res.xi[0]
    return ElSolution(
        xi=xi,
        weights=1.0 / (psi.m * (1.0 + psi.rows @ xi)),
        stat=float(res.stat[0]),
        converged=True,
        residual=float(res.residual[0]),
        inner_iterations=int(res.iterations[0]),
    )
