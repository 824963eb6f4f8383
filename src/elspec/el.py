"""Empirical-likelihood inner problem: pseudo-observation adjustment and the
Lagrange dual solver, one kernel for a stack of problems.

Given an m x k matrix whose rows are estimating-function values psi_j, the EL
inner problem maximizes prod_j (m * p_j) over probability weights p_j subject
to sum_j p_j psi_j = 0.  Its Lagrange dual minimizes the convex function

    f(xi) = -sum_j ln(1 + xi' psi_j)

over its domain {xi : t_j = 1 + xi' psi_j > 0 for all j}; the stationarity
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
pseudo-observation to zero (Chen, Variyath & Abraham 2008), so adjusted
problems skip the certificate.

Scans and Monte Carlo cells solve many unrelated problems of one shape; they
stack them into an (N, m, k) array and call :func:`solve_duals`, which runs
every problem's Newton iteration side by side, on rows that
:func:`adjust_rows` may have adjusted (``adjusted=True``).
:func:`solve_dual` is its N = 1 call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError, NoSolutionError

_log = logging.getLogger(__name__)

MAX_NEWTON_STEPS = 100

# Per-problem outcome of the dual.
STATUS_OK = 0
STATUS_NO_SOLUTION = 1
STATUS_FAILED = 2

# DualBatch.reason: why a problem is unsolved (0 if solved).
_OUTSIDE_HULL, _MAX_STEPS, _SINGULAR = range(1, 4)
_REASON_TEXT = {
    _OUTSIDE_HULL: "zero is not in the relative interior of the convex hull of the psi rows",
    _MAX_STEPS: f"dual solver did not converge in {MAX_NEWTON_STEPS} steps",
    _SINGULAR: "dual Newton matrix is numerically singular",
}

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny

# The ufunc reductions behind ndarray.sum/.min, called directly: they give
# the same values without the method wrappers, whose cost dominates the
# kernel's small N = 1 arrays.
_sum, _min = np.add.reduce, np.minimum.reduce


@dataclass(frozen=True)
class AdjustmentPolicy:
    """Rule for the pseudo-observation constant a_n.

    rule: "max_half_log" (a_n = max(1, ln(n)/2)) or "half_log"
    (a_n = ln(n)/2), the choices in ``RULES``.  Values are capped at n/2 so
    a_n stays o(n).  psibar is always the mean row, which is what
    guarantees the adjusted problem a solution.
    """

    rule: str = "max_half_log"

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
    ``status`` is STATUS_OK).  ``iterations`` counts Newton steps, the
    trailing step after the squared Newton decrement falls to eps included;
    for a failed problem, the step at which it stopped; 0 for
    STATUS_NO_SOLUTION, which the hull certificate decides before any step.
    ``residual`` is the multiplier-equation norm at the end (NaN for
    STATUS_NO_SOLUTION); it is reported only and decides nothing.  ``xi``
    (N, k) holds the multipliers of solved problems (zeros otherwise);
    ``reason`` is 0 or the code of why a problem is unsolved; ``warm`` is
    True where Newton began at the problem's given start instead of 0.
    """

    stat: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    xi: np.ndarray
    reason: np.ndarray
    warm: np.ndarray


def adjust_rows(rows, policy: AdjustmentPolicy = MAX_HALF_LOG) -> np.ndarray:
    """Append -a_n * psibar to every problem of an (..., m, k) stack.

    The result is stored column-major, as the (..., m + 1, k) view of an
    (..., k, m + 1) array, like the rows of
    :func:`elspec.whittle.psi_profile_rows`; for such rows psibar is a sum
    along contiguous memory too.
    """
    m, k = rows.shape[-2:]
    out = np.empty(rows.shape[:-2] + (k, m + 1)).swapaxes(-1, -2)
    out[..., :m, :] = rows
    np.multiply(-policy.a_n(m), rows.mean(axis=-2), out=out[..., m, :])
    return out


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
    different scales can still make it singular in floating point.  When the
    batched solve raises, the problems are solved one at a time, and those
    whose h is singular get NaN directions; a DEBUG record counts them."""
    try:
        return np.linalg.solve(h, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    d = np.full(g.shape, np.nan)
    singular = 0
    for i in range(len(g)):
        try:  # the same (1, r, r) call as the problem's own N = 1 solve
            d[i] = np.linalg.solve(h[i : i + 1], g[i : i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            singular += 1
    _log.debug("batched Newton solve of %d problems raised; solved one by one, %d singular",
               len(g), singular)
    return d


def _in_relative_interior(x):
    """Whether zero is interior to the convex hull of each problem's rows, for
    an (N, m, r) stack in which every problem has rank r >= 1.

    r = 1: the values take both signs.  r = 2: sorted by angle, the nonzero
    rows leave no gap of pi or more (the wrap-around gap included).  r >= 3:
    no direction d has x_j'd >= 0 for every row and > 0 for some; one linear
    program per problem maximizes the margin of such a d over the unit box on
    the normalized nonzero rows, and a d it returns counts only when it
    separates in floating point.  The answer does not change under an
    invertible map of the columns, so the program runs on the rows' Q factor
    (x = QR), whose orthonormal columns keep its tolerances meaningful for
    nearly collinear or badly scaled columns.
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
        rows = np.linalg.qr(x[i][~zero[i]])[0]
        unit = rows / np.sqrt(_sum(rows * rows, axis=1))[:, None]
        # maximize s over (d, s) subject to unit @ d >= s and |d_l| <= 1
        lp = linprog(np.r_[np.zeros(r), -1.0], A_ub=np.c_[-unit, np.ones(len(unit))],
                     b_ub=np.zeros(len(unit)), bounds=[(-1.0, 1.0)] * r + [(None, None)])
        if lp.status == 0:
            side = rows @ lp.x[:r]
            inside[i] = not (np.all(side >= 0.0) and np.any(side > 0.0))
    return inside


class _Active:
    """Iterates of the problems still running and their batch positions.

    ``pad`` is None when every problem has full column rank; otherwise it
    holds, per problem, the identity on the padded dimensions of its span
    coordinates and zeros elsewhere, added to every Newton matrix.
    """

    def __init__(self, pos, cols, pad):
        a, k, m = cols.shape
        self.pos = pos
        self.cols = cols
        self.pad = pad
        self.xi = np.zeros((a, k))
        self.t = np.ones((a, m))
        self.f = np.zeros(a)
        self.fields = ("pos", "cols", "xi", "t", "f") + (("pad",) if pad is not None else ())

    def begin_at(self, start):
        """Move the problems whose ``start`` keeps every t_j > 0 and has
        f < 0 = f(0) there; return their mask."""
        t = _affine(self.cols, start)
        f = -_sum(np.log(t), axis=1)
        use = (_min(t, axis=1) > 0.0) & (f < 0.0) & (f > -np.inf)
        self.xi[use], self.t[use], self.f[use] = start[use], t[use], f[use]
        return use

    def keep(self, mask):
        for name in self.fields:
            setattr(self, name, getattr(self, name)[mask])


def _step(w, d, lam2):
    """Move every active problem along its Newton direction d (h d = g).

    A problem takes the full step xi + d when that keeps every t_j > 0 and
    does not raise f; otherwise it takes the damped step xi + d / (1 + lam),
    ``lam2`` = g'd being its squared Newton decrement lam^2, which
    :func:`_newton` has computed for its stopping rule.  f is
    self-concordant, so the damped iterate stays in the domain t > 0 and
    lowers f by at least lam - ln(1 + lam) (Boyd & Vandenberghe 2004, sec.
    9.6).  Only a direction spoiled by rounding -- NaN from a singular h,
    lam^2 <= 0, or a damped iterate outside the domain -- breaks that; such
    a problem keeps its iterate.  Updates xi, t and f and returns the mask
    of those problems, or None when there is none.
    """
    xi = w.xi + d
    t = _affine(w.cols, xi)
    f = -_sum(np.log(t), axis=1)  # NaN or inf outside the domain, which fails the test below
    damp = ~(f <= w.f)
    stuck = None
    if np.count_nonzero(damp):
        damp = np.flatnonzero(damp)
        ld = lam2[damp]
        xd = w.xi[damp] + d[damp] / (1.0 + np.sqrt(np.maximum(ld, 0.0)))[:, None]
        td = _affine(w.cols[damp], xd)
        ok = (ld > 0.0) & (_min(td, axis=1) > 0.0)
        if np.count_nonzero(ok) < ok.size:
            back = damp[~ok]
            xd[~ok], td[~ok] = w.xi[back], w.t[back]
            stuck = np.zeros(len(f), dtype=bool)
            stuck[back] = True
        xi[damp], t[damp], f[damp] = xd, td, -_sum(np.log(td), axis=1)
    w.xi, w.t, w.f = xi, t, f
    return stuck


def _newton(cols, pos, out, pad=None, start=None):
    """Newton on certified problems with (N', k, m) columns ``cols`` (the
    transposed rows): fills their entries at batch positions ``pos`` of
    ``out``, except ``xi``, and returns their multipliers (N', k).  ``pad``
    is the :class:`_Active` pad of rank-deficient rows; ``start`` (N', k),
    if given, is where each problem begins when it qualifies
    (:meth:`_Active.begin_at`)."""
    n, k, m = cols.shape
    eta = np.zeros((n, k))
    w = _Active(np.arange(n), np.ascontiguousarray(cols), pad)
    if start is not None:
        out.warm[pos] = w.begin_at(start)

    def residual(sel):
        return _norm(_sum(w.cols[sel] / w.t[sel][:, None, :], axis=2))

    def settle(sel, it):
        eta[w.pos[sel]] = w.xi[sel]
        at = pos[w.pos[sel]]
        out.stat[at] = np.maximum(0.0, -2.0 * w.f[sel])
        out.iterations[at], out.residual[at] = it, residual(sel)

    def stop(mask, code, it):
        at = pos[w.pos[mask]]
        out.status[at], out.reason[at] = STATUS_FAILED, code
        out.residual[at], out.iterations[at] = residual(mask), it

    for it in range(1, MAX_NEWTON_STEPS + 1):
        g, h = _gradient_and_hessian(w.cols, w.t)
        if w.pad is not None:
            h += w.pad
        d = _newton_directions(h, g)
        lam2 = _sum(g * d, axis=1)
        met = np.abs(lam2) <= _EPS
        stuck = _step(w, d, lam2)
        if stuck is not None:
            # a problem whose decrement has met eps ends at its iterate
            settle(stuck & met, it - 1)
            stop(stuck & ~met, _SINGULAR, it)
            met &= ~stuck
        # A problem ends one step after its squared decrement lam^2 first
        # falls to eps: f - f* <= lam^2 there, so its statistic -2f is already
        # within 2 eps of the optimum, and the trailing step only tightens
        # sum(p) = 1 and sum(p psi) = 0.
        n_met = np.count_nonzero(met)
        if n_met:
            settle(slice(None) if n_met == len(met) else met, it)  # views when all end
        keep = ~met if stuck is None else ~(met | stuck)
        n_keep = np.count_nonzero(keep)
        if not n_keep:
            break
        if n_keep < len(keep):
            w.keep(keep)
    else:
        stop(np.ones(w.pos.size, dtype=bool), _MAX_STEPS, MAX_NEWTON_STEPS)
    return eta


def _rank(rows):
    """Rank of each problem of an (N, m, k) stack by numpy's ``matrix_rank``
    rule, and the mask of the problems whose rank k the Gram certificate
    gave without an SVD (see :func:`solve_duals`)."""
    n, m, k = rows.shape
    sure = np.zeros(n, dtype=bool)
    if m >= k:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = rows.transpose(0, 2, 1) @ rows
        # A finite trace bounds every entry: |G_ab| <= (G_aa + G_bb) / 2.
        tr = gram.trace(axis1=1, axis2=2)
        finite = tr < np.inf
        if not finite.all():  # overflow, on which eigvalsh would raise
            gram[~finite] = 0.0
        sure = (np.linalg.eigvalsh(gram)[:, 0] > 2.0 * m * _EPS * tr) & (tr >= _TINY / _EPS)
    rank = np.full(n, k)
    rest = np.flatnonzero(~sure)
    if rest.size:
        sv = np.linalg.svd(rows if rest.size == n else rows[rest], compute_uv=False)
        rank[rest] = np.count_nonzero(sv > sv[:, :1] * (max(m, k) * _EPS), axis=1)
    return rank, sure


def solve_duals(rows, adjusted: bool = False, start=None) -> DualBatch:
    """Solve N stacked EL duals, problem i having the m x k rows ``rows[i]``.

    Each problem is first certified: with r the rank of its rows (numpy's
    ``matrix_rank`` rule, sigma_i > max(m, k) eps sigma_max), it is solvable
    exactly when zero lies in the relative interior of the convex hull of
    its rows, that is, when strictly positive weights combine the rows to
    zero.  A problem of rank r < k is expressed in the coordinates
    x_j = V_r' psi_j of the span of its rows (V_r: its leading r right
    singular vectors), where its hull test and Newton run; its multipliers
    are mapped back as xi = V_r eta.  Rows of rank 0 (all zero) give stat 0
    with xi = 0.  The hull test: for r = 1 the values take both signs; for
    r = 2 the largest angular gap between the nonzero rows is below pi; for
    r >= 3 a linear program finds no direction d with x_j'd >= 0 for all
    rows and > 0 for some.  An uncertified problem is STATUS_NO_SOLUTION,
    with ``iterations`` 0 and ``residual`` NaN.  The test is skipped when
    ``adjusted`` is set, for rows built by :func:`adjust_rows`, whose last
    row is the pseudo-observation -a_n psibar of the mean row psibar: the
    weights 1, ..., 1, n / a_n combine them to zero.

    The rank needs an SVD only where a cheaper certificate fails.  With X a
    problem's rows, G = X'X and u = eps / 2, the computed Gram matrix G^
    and the smallest eigenvalue l^ that ``eigvalsh`` finds for it give rank
    k when m >= k, every entry of G^ is finite and

        l^ > 2 m eps tr(G^),   tr(G^) >= tiny / eps.

    Proof, to first order in eps: every entry of G^ is a dot product, so
    |G^ - G| <= gamma_m |X|'|X| elementwise with gamma_m = m u / (1 - m u)
    (Higham 2002, sec. 3.5), hence ||G^ - G||_2 <= gamma_m ||X||_F^2 =
    gamma_m tr(G).  ``eigvalsh`` is backward stable: l^ is an eigenvalue of
    G^ + F with ||F||_2 <= p(k) u ||G^||_2 for a modest p(k) <= k <= m
    (LAPACK takes p = 1 in its error bounds).  By Weyl's inequality
    lambda_min(G) >= l^ - m u tr(G) - m u tr(G) > 2 m u tr(G) = m eps tr(G)
    >= m eps lambda_max(G), that is, sigma_min > sqrt(m eps) sigma_max.
    The constant 2 (4 m u) is these two error terms plus that margin.  A
    backward-stable SVD perturbs each singular value by a small multiple of
    eps sigma_max, so its values still have sigma_min / sigma_max far above
    max(m, k) eps = m eps, and numpy's rule finds rank k as well.  The
    bound on G^ ignores underflow, which adds at most m u tiny to an entry:
    with tr(G^) >= tiny / eps that is below k eps of the gamma_m term.  A
    non-finite entry means overflow.  The SVD and numpy's rule run only on
    the other problems: near-collinear or zero rows (the phi = theta nodes
    of a scan), fewer rows than columns, and Grams that underflow or
    overflow.

    Certified problems run Newton on the self-concordant f(xi) =
    -sum ln(1 + xi'psi_j), every problem on its own path, all in one loop:
    a rank-r problem's span coordinates are padded with k - r zero columns
    whose Newton-matrix diagonal is 1, so its padded direction is exactly 0.
    Newton starts at xi = 0, or at ``start[i]`` (an optional (N, k) array)
    when every t_j = 1 + xi'psi_j > 0 there and f < 0 = f(0); a rank-r
    problem takes its start in span coordinates, V_r' start[i].  Each step
    solves h d = g for the direction d and takes the full step xi + d when
    every t_j stays positive and f does not rise; otherwise it takes the
    damped step xi + d / (1 + lam), lam = sqrt(g'd) the Newton decrement,
    which stays in the domain and lowers f by at least lam - ln(1 + lam).
    There is no line search and no bound on t_j but t_j > 0.  A problem ends
    one step after its squared decrement lam^2 = g'd first falls to eps in
    absolute value.  lam^2 is unchanged by any invertible map of the psi
    columns, so the rule is free of their scale, and f - f* <= lam^2 once
    lam <= 0.68 (Boyd & Vandenberghe 2004, sec. 9.5-9.6): the statistic
    -2f is within 2 eps of its optimum before the trailing step, which only
    tightens sum(p) = 1 and sum(p psi) = 0.  The multiplier-equation
    residual ||sum psi_j / (1 + xi'psi_j)|| is reported and decides
    nothing.  A problem is STATUS_FAILED when its Newton matrix is
    numerically singular (LAPACK finds an exactly zero pivot, or rounding
    spoils the direction so that the damped step cannot be taken), unless
    its decrement has already met eps, or after 100 Newton steps.  Given
    its start, each problem's outcome is the one it would have alone: the
    batch only shares the numpy calls.

    Newton works on the transposed rows (N, k, m), whose sums over rows
    then run along contiguous memory.  Column-major ``rows`` (the (N, m, k)
    view of an (N, k, m) array, as :func:`elspec.whittle.psi_profile_rows`
    and :func:`adjust_rows` return) are used in place; C-ordered ones are
    copied once.  Results agree between the two layouts up to rounding.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 3:
        raise InputError(f"psi stack must be (N, m, k), got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise InputError("psi matrix contains non-finite entries")
    n, m, k = rows.shape
    if m == 0:
        raise InputError("psi matrix has no rows")
    if k == 0:
        raise InputError("psi matrix has no columns")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (n, k) or not np.isfinite(start).all():
            raise InputError(f"start must be a finite ({n}, {k}) array, got shape {start.shape}")
    out = DualBatch(stat=np.full(n, np.nan), status=np.zeros(n, dtype=int),
                    iterations=np.zeros(n, dtype=int), residual=np.full(n, np.nan),
                    xi=np.zeros((n, k)), reason=np.zeros(n, dtype=int),
                    warm=np.zeros(n, dtype=bool))

    cols = rows.transpose(0, 2, 1)
    rank = _rank(rows)[0]
    run = rank > 0
    deficient = np.count_nonzero(rank < k) > 0
    if deficient:
        out.stat[~run] = out.residual[~run] = 0.0  # all rows zero: xi = 0 solves the dual

    def certify(at, x):
        """Mark the problems at positions ``at`` (rows ``x``) whose hull test
        fails; return the mask of the others."""
        inside = _in_relative_interior(x)
        if np.count_nonzero(inside) < at.size:
            out.status[at[~inside]] = STATUS_NO_SOLUTION
            out.reason[at[~inside]] = _OUTSIDE_HULL
            run[at[~inside]] = False
        return inside

    if not adjusted:
        full = np.flatnonzero(rank == k)
        if full.size:
            certify(full, rows if full.size == n else cols.take(full, axis=0).transpose(0, 2, 1))
    span = []  # (positions, V_r, V_r' psi_j) of the certified problems of each rank 0 < r < k
    for r in sorted(set(rank[run & (rank < k)].tolist())) if deficient else []:
        at = np.flatnonzero(rank == r)
        sub = rows[at]
        v = np.linalg.svd(sub, full_matrices=False)[2][:, :r].transpose(0, 2, 1)
        x = sub @ v
        if not adjusted:
            inside = certify(at, x)
            at, v, x = at[inside], v[inside], x[inside]
        span.append((at, v, x))
    pos = np.flatnonzero(run)
    if not pos.size:
        return out
    x = cols if pos.size == n and not span else cols.take(pos, axis=0)
    pad = np.zeros((pos.size, k, k)) if span else None
    if start is not None:
        start = start[pos]
    for at, v, xr in span:
        j, r = np.searchsorted(pos, at), v.shape[2]
        x[j] = 0.0
        x[j, :r] = xr.transpose(0, 2, 1)
        pad[j, r:, r:] = np.eye(k - r)
        if start is not None:  # eta = V_r' start
            eta0 = (start[j, None, :] @ v)[:, 0]
            start[j] = 0.0
            start[j, :r] = eta0
    # Steps outside the domain give NaN or inf in t and f, and rows of
    # extreme scale can overflow; the steps detect both, so numpy is quiet.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        eta = _newton(x, pos, out, pad, start)
    out.xi[pos] = eta
    for at, v, _ in span:
        out.xi[at] = (v @ eta[np.searchsorted(pos, at), :v.shape[2], None])[:, :, 0]
    return out


def solve_dual(rows, adjusted: bool = False) -> ElSolution:
    """Solve one EL Lagrange dual on the m x k ``rows``: the N = 1 call of
    :func:`solve_duals`, whose rules and ``adjusted`` it takes.  Raises
    NoSolutionError when zero is not in the relative interior of the convex
    hull of the rows, and ConvergenceError (carrying the residual and
    iteration count) when the iteration fails."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise InputError(f"psi rows must be (m, k), got shape {rows.shape}")
    res = solve_duals(rows[None], adjusted=adjusted)
    status, text = int(res.status[0]), _REASON_TEXT.get(int(res.reason[0]))
    if status == STATUS_NO_SOLUTION:
        raise NoSolutionError(text)
    if status == STATUS_FAILED:
        resid, it = float(res.residual[0]), int(res.iterations[0])
        raise ConvergenceError(f"{text} (residual {resid:.3e})", residual=resid, iterations=it)
    xi = res.xi[0]
    return ElSolution(
        xi=xi,
        weights=1.0 / (len(rows) * (1.0 + rows @ xi)),
        stat=float(res.stat[0]),
        converged=True,
        residual=float(res.residual[0]),
        inner_iterations=int(res.iterations[0]),
    )
