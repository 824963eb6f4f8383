"""Confidence regions and intervals from the EL-statistic family.

Four methods share one machinery: "el" (unadjusted statistic W), "ael"
(adjusted statistic W*), "eb" (W scaled by an estimated Bartlett factor),
and "tb" (W against a threshold scaled by a supplied constant).  A point is
inside the 1-alpha region when its effective statistic does not exceed the
chi-square threshold with k = p + q degrees of freedom (sigma2 profiled out).

Unadjusted cells where the EL inner problem has no solution are reported as
a distinct "nosolution" state, never silently counted as excluded or
included.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .arma import (
    _BATCH_ENTRIES,
    ArmaSpec,
    STATIONARITY_MARGIN,
    batch_slices,
    lag_table,
    stationary_invertible,
)
from .bartlett import bartlett_constants, bartlett_scale, chi2_quantile
from .el import (
    MAX_HALF_LOG,
    STATUS_FAILED,
    STATUS_NO_SOLUTION,
    STATUS_OK,
    AdjustmentPolicy,
    adjust_rows,
    solve_duals,
)
from .errors import ConvergenceError, InputError, InvalidModelError, SingularMatrixError
from .periodogram import Periodogram
from .whittle import (
    FitResult,
    _sandwich,
    _whittle_fit,
    factor_table,
    psi_factor_rows,
    psi_profile_rows,
)

METHODS = ("el", "ael", "eb", "tb")

STATUS_INVALID = 3
STATUS_LABELS = {
    STATUS_OK: "ok",
    STATUS_NO_SOLUTION: "nosolution",
    STATUS_FAILED: "failed",
    STATUS_INVALID: "invalid",
}

_LADDER_ROUND = 2
_ROOT_XTOL, _ROOT_RTOL = 1e-12, 8.9e-16
_MAX_ROOT_ITER = 100

# Marching-squares segments by cell case.  A cell's corners are numbered 0-3
# counterclockwise from its lower-left node; its edge e runs from corner e to
# corner (e + 1) % 4.  Case bit c is set when corner c is at or below the
# level.  Row c lists the edges of the case's segments in pairs, padded with
# -1.  A saddle is split by the cell-centre average: rows 16 and 17 replace
# rows 5 and 10 when the centre is at or below the level.
_SEGMENTS = np.array([
    (-1, -1, -1, -1), (3, 0, -1, -1), (0, 1, -1, -1), (3, 1, -1, -1), (1, 2, -1, -1), (3, 0, 1, 2),
    (0, 2, -1, -1), (3, 2, -1, -1), (2, 3, -1, -1), (2, 0, -1, -1), (0, 3, 2, 1), (2, 1, -1, -1),
    (1, 3, -1, -1), (1, 0, -1, -1), (0, 3, -1, -1), (-1, -1, -1, -1), (3, 2, 1, 0), (0, 1, 2, 3),
])

_log = logging.getLogger(__name__)


@dataclass(eq=False)
class RegionGrid:
    """Statistic evaluations over a parameter grid.

    ``stat`` holds the effective statistic (NaN where status != ok); for the
    "eb" method it is the Bartlett-scaled W/(1 + b_hat/n) so that the single
    ``threshold`` applies uniformly.  Node j of an axis sits at the center of
    the j-th of ``steps`` equal subdivisions of the box, keeping every node
    strictly inside an open box such as (0,1)^2.  ``iterations`` and
    ``residual`` are the dual solver's Newton steps and final
    multiplier-equation norm at each ok node; every other node carries -1
    and NaN.  A node's iterations count from its start, so they depend on
    the coarse-to-fine order of :func:`scan_region`.  Hand-built grids may
    leave both None.
    """

    axes: tuple
    stat: np.ndarray
    status: np.ndarray
    threshold: float
    method: str
    alpha: float
    order: tuple
    iterations: np.ndarray | None = None
    residual: np.ndarray | None = None

    def inside(self) -> np.ndarray:
        """Boolean mask of nodes with a defined statistic below threshold."""
        with np.errstate(invalid="ignore"):
            return (self.status == STATUS_OK) & (self.stat <= self.threshold)


def grid_axis(lo: float, hi: float, steps: int) -> np.ndarray:
    """Node coordinates at the centers of ``steps`` equal subdivisions."""
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    if not math.isfinite(float(hi) - float(lo)):
        raise InputError(f"axis range [{lo}, {hi}] is not finite")
    if not hi > lo:
        raise InputError(f"empty axis range [{lo}, {hi}]")
    edges = np.linspace(lo, hi, steps + 1)
    return (edges[:-1] + edges[1:]) / 2.0


@dataclass(frozen=True, eq=False)
class MethodStats:
    """Per-problem effective statistic of one method: ``stat`` (NaN unless
    ``status`` is STATUS_OK), ``status``, and the dual's ``iterations``,
    ``residual``, multipliers ``xi`` and ``warm`` flag (see
    :class:`elspec.el.DualBatch`)."""

    stat: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    xi: np.ndarray
    warm: np.ndarray


def method_stats(rows, methods, policy: AdjustmentPolicy = MAX_HALF_LOG, start=None) -> dict:
    """Effective statistic of every method in ``methods`` on a stack of
    unadjusted profile psi rows (N, n, k); returns method -> MethodStats.

    "el" and "tb" give W, "ael" the adjusted W* (solved on the rows with
    the pseudo-observation appended under ``policy``), "eb" the
    Bartlett-scaled W/(1 + b_hat/n).  The methods built on W share one solve.
    "eb" needs k = 1; a constant psi column makes its status STATUS_FAILED.
    ``start`` (N, k), if given, is passed to every dual solved
    (:func:`elspec.el.solve_duals`).
    """
    out = {}
    if any(m != "ael" for m in methods):
        el = solve_duals(rows, start=start)
    for method in methods:
        if method == "ael":
            adj = solve_duals(adjust_rows(rows, policy), adjusted=True, start=start)
            out[method] = MethodStats(adj.stat, adj.status, adj.iterations, adj.residual,
                                      adj.xi, adj.warm)
            continue
        stat, status = el.stat, el.status
        if method == "eb":
            if rows.shape[2] != 1:
                raise InputError(
                    f"estimated Bartlett correction is scalar-parameter only, got k={rows.shape[2]}")
            # b_hat >= 1/2 (see bartlett_constants), so the scale exceeds 1.
            stat = stat / (1.0 + bartlett_constants(rows[:, :, 0]) / rows.shape[1])
            status = np.where((status == STATUS_OK) & np.isnan(stat), STATUS_FAILED, status)
        out[method] = MethodStats(stat, status, el.iterations, el.residual, el.xi, el.warm)
    return out


def method_threshold(method: str, k: int, level: float, n: int,
                     tb_constant: float | None = None) -> float:
    """Threshold of ``method`` for a statistic with k degrees of freedom at
    confidence ``level`` on n ordinates: the chi-square quantile
    chi2_{k,level}, times the Bartlett scale 1 + b/n for "tb" with the
    supplied constant b = ``tb_constant``.  An unknown method, "tb" without
    a constant, a level outside (0, 1) and a scale <= 0 raise InputError."""
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; choose from {METHODS}")
    threshold = chi2_quantile(level, k)
    if method != "tb":
        return threshold
    if tb_constant is None:
        raise InputError("method 'tb' requires a supplied Bartlett constant")
    return threshold * bartlett_scale(tb_constant, n)


def scan_region(
    pg: Periodogram,
    order: tuple[int, int],
    box,
    steps,
    method: str = "ael",
    alpha: float = 0.10,
    policy: AdjustmentPolicy = MAX_HALF_LOG,
    tb_constant: float | None = None,
) -> RegionGrid:
    """Evaluate the chosen statistic on a grid over ``box``.

    ``box`` is a per-parameter sequence of (lo, hi) ranges and ``steps`` the
    matching node counts (a single int is broadcast).  Per-node solver
    failures are flagged in ``status`` without aborting the scan.  The
    valid nodes are solved in batches of up to several hundred nodes (fewer
    for long series) by one :func:`elspec.el.solve_duals` call each,
    coarsest first (:func:`_coarse_to_fine`).  Each node starts Newton from
    the mean multipliers of its parents that were solved in earlier
    batches, when the dual accepts that start, and from 0 otherwise.  A
    node's status and statistic are those of its cold solve up to rounding;
    its iteration count depends on the order.  A grid that fits in one
    batch has no solved parents and is solved cold.

    The psi rows come from factor tables.  The AR block is the first p axes
    and the MA block the last q.  Each block value is validated once, and
    each valid one evaluated once (:func:`elspec.whittle.factor_table`):
    |P|^2 and its centred gradient columns.  Each node gathers its AR and
    MA factors (:func:`elspec.whittle.psi_factor_rows`), so a 60 x 60 scan
    evaluates 120 lag-polynomial rows, not 7,200, and the rows are bitwise
    those of :func:`elspec.whittle.psi_profile_rows` on the nodes.  A
    block's table covers the whole scan when its entries (valid values x
    n x (1 + block order)) fit the batch budget ``arma._BATCH_ENTRIES``;
    otherwise each batch builds the table of its own distinct values
    (:func:`_block_factors`).

    One DEBUG record on the ``elspec`` logger gives the nodes, batches,
    warm-started nodes, rejected starts and Newton steps of the scan, and
    the AR and MA factor-table rows it evaluated.
    """
    p, q = order
    k = p + q
    if k < 1:
        raise InputError("scan_region needs at least one free parameter")
    pg.require_power()
    threshold = method_threshold(method, k, 1.0 - alpha, pg.n, tb_constant)
    box = [tuple(map(float, rng)) for rng in box]
    if len(box) != k:
        raise InputError(f"box must give {k} ranges for order {order}, got {len(box)}")
    if np.isscalar(steps):
        steps = [int(steps)] * k
    steps = [int(s) for s in steps]
    if len(steps) != k:
        raise InputError(f"steps must give {k} counts, got {len(steps)}")

    axes = tuple(grid_axis(lo, hi, s) for (lo, hi), s in zip(box, steps))
    # Fast rejection of a grossly misplaced box: every corner combination of
    # extreme node values must define a valid model.
    for corner in np.ndindex(*(2,) * k):
        vec = np.array([ax[0] if c == 0 else ax[-1] for ax, c in zip(axes, corner)])
        try:
            ArmaSpec.from_beta1(order, vec)
        except InvalidModelError as exc:
            raise InputError(f"grid box leaves the stationarity/invertibility region: {exc}")

    # Node f (row-major) has AR block value f // len(ma) and MA block
    # value f % len(ma); a block value is valid where its polynomial is (the
    # AR and MA rules are the same, so each block is checked alone).
    ar, ma = (np.array(list(itertools.product(*block)), dtype=float)
              for block in (axes[:p], axes[p:]))
    ar_ok, ma_ok = (stationary_invertible(block, block[:, :0]) for block in (ar, ma))
    valid = (ar_ok[:, None] & ma_ok).ravel()
    stat = np.full(valid.size, np.nan)
    status = np.where(valid, STATUS_OK, STATUS_INVALID)
    iterations = np.full(valid.size, -1)
    residual = np.full(valid.size, np.nan)
    shape = tuple(len(ax) for ax in axes)
    solved, parents = _coarse_to_fine(np.flatnonzero(valid), shape)
    # one more entry than nodes: the index valid.size stands for "no parent"
    xi = np.zeros((valid.size + 1, k))
    ready = np.zeros(valid.size + 1, dtype=bool)
    batches = batch_slices(solved.size, (pg.n + 1) * k)
    table = lag_table(pg.freqs, max(order))
    ar_of, ma_of = np.divmod(solved, len(ma))
    ar_factors = _block_factors(ar, ar_ok, (ar_of[part] for part in batches), table, True)
    ma_factors = _block_factors(ma, ma_ok, (ma_of[part] for part in batches), table, False)
    warm = rejected = newton_steps = ar_rows = ma_rows = 0
    for part, (ar_table, ia, ar_new), (ma_table, im, ma_new) in zip(
            batches, ar_factors, ma_factors):
        at, par = solved[part], parents[part]
        have = ready[par]
        count = np.count_nonzero(have, axis=1)
        given, start = count > 0, None
        if given.any():
            start = np.where(have[:, :, None], xi[par], 0.0).sum(axis=1)
            start /= np.maximum(count, 1)[:, None]
        rows = psi_factor_rows(pg.ords, ar_table, ma_table, ia, im)
        ar_rows, ma_rows = ar_rows + ar_new, ma_rows + ma_new
        res = method_stats(rows, (method,), policy, start)[method]
        ok = res.status == STATUS_OK
        stat[at], status[at] = res.stat, res.status
        iterations[at] = np.where(ok, res.iterations, -1)
        residual[at] = np.where(ok, res.residual, np.nan)
        xi[at], ready[at] = res.xi, ok
        warm += np.count_nonzero(res.warm)
        rejected += np.count_nonzero(given & ~res.warm & (res.status != STATUS_NO_SOLUTION))
        newton_steps += int(res.iterations.sum())
    _log.debug("%s scan of order %s: %d nodes, %d batches, %d warm-started, %d starts "
               "rejected, %d Newton steps, %d AR and %d MA factor rows", method, order,
               solved.size, len(batches), warm, rejected, newton_steps, ar_rows, ma_rows)
    return RegionGrid(
        axes=axes, stat=stat.reshape(shape), status=status.reshape(shape), threshold=threshold,
        method=method, alpha=alpha, order=order, iterations=iterations.reshape(shape),
        residual=residual.reshape(shape),
    )


def _block_factors(values, ok, indices, table, ar):
    """Per batch of a scan: the :func:`elspec.whittle.factor_table` of one
    block, each of the batch's nodes' row in it, and the number of table
    rows evaluated for the batch.

    ``values`` (V, r) are the block's values, ``ok`` marks the valid ones
    and ``indices`` yields each batch's block indices, all of valid values.
    A table holds valid values only: a unit-root |P|^2 can be 0 at a
    Fourier frequency.  When the valid values' V_ok * n * (1 + r) entries
    fit the batch budget ``arma._BATCH_ENTRIES``, one table of all of them
    serves every batch; otherwise each batch builds the table of its own
    distinct values.  So a table never exceeds the budget or one batch's
    own factor rows.
    """
    valid = np.flatnonzero(ok)
    if valid.size * len(table[0]) * (1 + values.shape[1]) <= _BATCH_ENTRIES:
        whole, row, new = factor_table(values[valid], table, ar), np.cumsum(ok) - 1, valid.size
        for index in indices:
            yield whole, row[index], new
            new = 0
    else:
        for index in indices:
            distinct, row = np.unique(index, return_inverse=True)
            yield factor_table(values[distinct], table, ar), row, distinct.size


def _coarse_to_fine(flat, shape):
    """Order the grid nodes ``flat`` (flat indices into ``shape``)
    coarsest-first, and give each its parents.

    A node's level is the largest l for which every index is a multiple of
    2^l (capped where 2^l passes every axis).  Nodes are sorted by
    decreasing level, in row-major order within a level.  The parents of a
    node of level l are the up to 2^d nodes at +-2^l along each axis where
    its index is an odd multiple of 2^l; their indices are multiples of
    2^(l+1), so every parent comes earlier in the order.  Returns the
    ordered flat indices and their parents (V, 2^d), padded with
    prod(shape) where a parent is missing or off the grid.
    """
    size, top = int(np.prod(shape)), max(shape).bit_length()
    idx = np.unravel_index(flat, shape)
    # level = the trailing zeros of the bitwise or of the indices, capped
    trailing = np.zeros(1 << top, dtype=int)
    for lv in range(1, top + 1):
        trailing[:: 1 << lv] += 1
    level = trailing[np.bitwise_or.reduce(idx)]
    order = np.argsort(-level, kind="stable")
    flat, level = flat[order], level[order]
    # per axis: the step to the parents (0 on an even axis), and whether the
    # parent below and above lie on the grid
    steps, below, above = [], [], []
    for ax, n_ax in zip(idx, shape):
        ax = ax[order]
        step = ((ax >> level) & 1) << level
        steps.append(step)
        below.append(ax >= step)
        above.append((ax + step < n_ax) & (step > 0))
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    has_odd = np.logical_or.reduce([step > 0 for step in steps])
    parents = np.full((len(flat), 1 << len(shape)), size)
    for c, signs in enumerate(np.ndindex(*(2,) * len(shape))):
        # sign 1 on an even axis would repeat sign 0's parent: "above" is
        # False there
        use, par = has_odd.copy(), flat.copy()
        for sign, step, stride, lo, hi in zip(signs, steps, strides, below, above):
            use &= hi if sign else lo
            par += (step if sign else -step) * stride
        parents[use, c] = par[use]
    return flat, parents


@dataclass(frozen=True)
class Interval:
    """One-dimensional confidence interval.

    Endpoints solve stat = threshold to high precision except where the
    search was truncated at the stationarity boundary or the user bounds
    (``truncated_lo``/``truncated_hi``).
    """

    lo: float
    hi: float
    contains_estimate: bool
    estimate: float
    threshold: float
    method: str
    truncated_lo: bool = False
    truncated_hi: bool = False


def interval_1d(
    pg: Periodogram,
    order: tuple[int, int],
    method: str = "ael",
    alpha: float = 0.10,
    bounds: tuple[float, float] | None = None,
    policy: AdjustmentPolicy = MAX_HALF_LOG,
    tb_constant: float | None = None,
    fit: FitResult | None = None,
) -> Interval:
    """Confidence interval for a scalar-parameter model (order (1,0) or (0,1)).

    Walks a ladder of points outward from the Whittle estimate on both sides
    until the effective statistic crosses its threshold c, then solves both
    crossings together by root bracketing (:func:`_bracket_roots`); a side
    that reaches the stationarity boundary (or the user ``bounds``) without
    crossing is clamped there and flagged.  The root-finding runs on the
    signed root sqrt(stat) - sqrt(c), which is close to linear in the
    parameter (DiCiccio, Hall & Romano 1991) and has the same roots as
    stat - c.  The ladder's first step is the sandwich half-width
    sqrt(c v_hat / (n + 1)) at the estimate (:func:`elspec.whittle.sandwich`).
    Where the sandwich is singular or its half-width not finite, and at an
    estimate on the boundary (its partial autocorrelation rounds to +-1 at
    four decimals, where the profile score need not vanish and the quadratic
    approximation fails), the first step is max(1e-4, 2% of the span to the
    bound) instead (:func:`_ladder`).  Points where the EL problem has no
    solution count as beyond the region boundary.  Every evaluation is one
    stacked statistic call on all the points that still need a value: the
    estimate with the first two ladder points of each side, then the next
    two points of each side that has not crossed, then one point per
    unfinished bracket.  One lag table serves the fit, the sandwich and
    every statistic call.

    A ``fit`` passed in must be of ``order``; a full fit (beta1, sigma2)
    serves as well as a profile one.  Raises ConvergenceError when the fit
    did not converge, and when the statistic at the estimate itself exceeds
    the threshold (possible for an estimate hugging the stationarity
    boundary, where the profile score need not vanish): the interval then
    has no interior to expand from.  One DEBUG record on the ``elspec``
    logger gives the stacked rounds and problems solved, the first ladder
    steps, the ladder and bracket rounds and the Newton steps.
    """
    p, q = order
    if p + q != 1:
        raise InputError(f"interval_1d handles exactly one free parameter, got order {order}")
    if fit is not None and tuple(fit.order) != tuple(order):
        raise InputError(f"the fit is of order {tuple(fit.order)}, the interval of order "
                         f"{tuple(order)}")
    pg.require_power()
    threshold = method_threshold(method, 1, 1.0 - alpha, pg.n, tb_constant)
    limit = 1.0 - 2.0 * STATIONARITY_MARGIN
    lo_bound, hi_bound = (-limit, limit) if bounds is None else map(float, bounds)
    lo_bound, hi_bound = max(lo_bound, -limit), min(hi_bound, limit)
    if not lo_bound < hi_bound:
        raise InputError(f"search bounds {tuple(bounds)} are empty within the stationarity "
                         f"limits +-{limit}")
    table = lag_table(pg.freqs, 1)  # for the fit, the sandwich and every statistic round
    fitres = fit if fit is not None else _whittle_fit(pg, table, order)
    if not fitres.converged:
        raise ConvergenceError("Whittle fit did not converge; no center for the interval scan")
    bhat = float(fitres.estimate[0])
    if not lo_bound < bhat < hi_bound:
        raise InputError(f"estimate {bhat:.6g} is outside the search bounds")

    rounds = solved = newton = 0
    root_c = math.sqrt(threshold)

    def excess(points):
        """The signed root sqrt(stat) - sqrt(threshold) at each point; +inf
        where the model is invalid or the statistic undefined."""
        nonlocal rounds, solved, newton
        beta = np.asarray(points, dtype=float)[:, None]
        ar, ma = (beta, beta[:, :0]) if p else (beta[:, :0], beta)
        gap = np.full(len(beta), np.inf)
        valid = np.flatnonzero(stationary_invertible(ar, ma))
        if valid.size:
            rows = psi_profile_rows(table, pg.ords, ar[valid], ma[valid])
            res = method_stats(rows, (method,), policy)[method]
            ok = res.status == STATUS_OK
            gap[valid[ok]] = np.sqrt(res.stat[ok]) - root_c
            newton += int(res.iterations.sum())
        rounds += 1
        solved += valid.size
        return gap

    # The first ladder step: the sandwich half-width at the estimate.
    half, why = math.nan, "the estimate is on the stationarity/invertibility boundary"
    if not fitres.boundary:
        spec = ArmaSpec.from_beta1(order, fitres.estimate[:1])
        try:
            v_hat = _sandwich(pg, table, spec, policy=policy).v_hat[0, 0]
        except SingularMatrixError as exc:
            why = str(exc)
        else:
            half = math.sqrt(threshold * v_hat / (pg.n + 1))
            why = f"half-width {half:.3g}"
    if 0.0 < half < math.inf:
        firsts = [half, half]
    else:
        firsts = [max(1e-4, 0.02 * abs(bound - bhat)) for bound in (lo_bound, hi_bound)]
        _log.debug("%s interval of order %s: no sandwich ladder step at the estimate %.8g "
                   "(%s); the first steps are 2%% of the spans to the bounds",
                   method, order, bhat, why)

    # Per side (lower, upper): its ladder, and the excess at the evaluated
    # prefix of it.
    ladders = [_ladder(bhat, lo_bound, firsts[0]), _ladder(bhat, hi_bound, firsts[1])]
    gaps = [[], []]
    est_gap = None
    pending = [0, 1]
    while pending:
        new = [ladders[s][len(gaps[s]):len(gaps[s]) + _LADDER_ROUND] for s in pending]
        values = excess([bhat] * (est_gap is None) + sum(new, [])).tolist()
        if est_gap is None:
            est_gap = values.pop(0)
            if est_gap > 0.0:
                value = ("undefined (no dual solution)" if math.isinf(est_gap)
                         else f"{(est_gap + root_c) ** 2:.6g}")
                raise ConvergenceError(
                    f"{method} statistic at the Whittle estimate {bhat:.8g} is {value}, above "
                    f"the threshold {threshold:.6g}: the estimate lies outside its own region")
        for s, pts in zip(pending, new):
            gaps[s] += values[:len(pts)]
            del values[:len(pts)]
        pending = [s for s in pending if max(gaps[s]) <= 0.0 and len(gaps[s]) < len(ladders[s])]
    ladder_rounds = rounds

    # A side that crossed brackets its root between the crossing point and
    # the point before it (the estimate, for the first ladder point).
    ends, truncated = [ladder[-1] for ladder in ladders], [True, True]
    sides, brackets = [], []
    for s in (0, 1):
        xs, fs = [bhat] + ladders[s], [est_gap] + gaps[s]
        j = next((j for j, f in enumerate(fs) if f > 0.0), None)
        if j is not None:
            sides.append(s)
            truncated[s] = False
            brackets.append((xs[j - 1], xs[j], fs[j - 1], fs[j]))
    if sides:
        a, b, fa, fb = np.array(brackets).T
        for s, root in zip(sides, _bracket_roots(excess, a, b, fa, fb)):
            ends[s] = float(root)
    (lo, hi), (trunc_lo, trunc_hi) = ends, truncated
    _log.debug("%s interval of order %s: %d stacked rounds, %d problems solved; first ladder "
               "steps %.3g / %.3g, %d ladder and %d bracket rounds, %d Newton steps",
               method, order, rounds, solved, firsts[0], firsts[1], ladder_rounds,
               rounds - ladder_rounds, newton)
    for name, end, trunc in (("lower", lo, trunc_lo), ("upper", hi, trunc_hi)):
        if trunc:
            _log.info("%s interval of order %s: %s end truncated at %.8g without crossing "
                      "the threshold", method, order, name, end)
    return Interval(
        lo=lo, hi=hi, contains_estimate=bool(lo <= bhat <= hi), estimate=bhat,
        threshold=threshold, method=method, truncated_lo=trunc_lo, truncated_hi=trunc_hi,
    )


def _ladder(start: float, bound: float, step: float) -> list:
    """Search points from ``start`` towards ``bound``: a first step of
    ``step`` (> 0), each later step 1.6 times the last, the last point
    clamped at ``bound``."""
    direction = 1.0 if bound > start else -1.0
    points = []
    x = start
    while x != bound:
        x += direction * step
        if direction * (x - bound) >= 0.0:
            x = bound
        points.append(x)
        step *= 1.6
    return points


def _bracket_roots(f, a, b, fa, fb):
    """Roots of N brackets [a_i, b_i] solved in lockstep by Chandrupatla's
    safeguarded inverse-quadratic bracketing (Chandrupatla 1997, Adv. Eng.
    Software 28).

    ``f`` maps an array of points to their values; every iteration calls it
    once on the new point of each unfinished bracket, so a bracket's path
    does not depend on the others.  ``fa`` and ``fb`` are the values at the
    ends and must not share a sign; +inf is allowed (say, a point without a
    statistic).  The first point of a bracket is the regula-falsi point
    a + fa/(fa - fb) (b - a) where both end values are finite, its midpoint
    otherwise, so a linear f is solved by the first call and the bracket
    closed by the second.  A later step bisects wherever inverse-quadratic
    interpolation is not admissible or meets an infinite value.  A bracket
    stops when its width is below 2 (1e-12 + 8.9e-16 |x|) or f(x) = 0, x
    being its end with the smaller |f|, and returns that x.
    """
    x1, x2 = np.array(a, dtype=float), np.array(b, dtype=float)
    f1, f2 = np.array(fa, dtype=float), np.array(fb, dtype=float)
    x3, f3 = x2.copy(), f2.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(np.isfinite(f1) & np.isfinite(f2), f1 / (f1 - f2), 0.5)
    for _ in range(_MAX_ROOT_ITER):
        small = np.abs(f1) < np.abs(f2)
        root = np.where(small, x1, x2)
        width = np.abs(x2 - x1)
        tol = _ROOT_XTOL + _ROOT_RTOL * np.abs(root)
        i = np.flatnonzero((width >= 2.0 * tol) & (np.where(small, f1, f2) != 0.0))
        if not i.size:
            return root
        t[i] = np.clip(t[i], tol[i] / width[i], 1.0 - tol[i] / width[i])
        xt = x1[i] + t[i] * (x2[i] - x1[i])
        ft = f(xt)
        # The new point replaces the end whose value has its sign; the end
        # it drops becomes the third interpolation point.
        keep = np.sign(ft) == np.sign(f1[i])
        x3[i] = np.where(keep, x1[i], x2[i])
        f3[i] = np.where(keep, f1[i], f2[i])
        x2[i] = np.where(keep, x2[i], x1[i])
        f2[i] = np.where(keep, f2[i], f1[i])
        x1[i], f1[i] = xt, ft
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1[i] - x2[i]) / (x3[i] - x2[i])
            phi = (f1[i] - f2[i]) / (f3[i] - f2[i])
            iqi = (np.isfinite(f1[i]) & np.isfinite(f2[i]) & np.isfinite(f3[i])
                   & (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)))
            alpha = (x3[i] - x1[i]) / (x2[i] - x1[i])
            t[i] = np.where(
                iqi,
                f1[i] / (f1[i] - f2[i]) * f3[i] / (f3[i] - f2[i])
                - alpha * f1[i] / (f3[i] - f1[i]) * f2[i] / (f2[i] - f3[i]),
                0.5)
    raise ConvergenceError(f"root bracketing did not converge in {_MAX_ROOT_ITER} iterations")


def extract_contour(grid: RegionGrid) -> list[np.ndarray]:
    """Threshold-level contour polylines of a two-dimensional RegionGrid.

    Marching squares with linear interpolation on the statistic values;
    cells touching an undefined node (nosolution/failed/invalid) are
    skipped, and two segments join exactly where they cross the same grid
    edge.  Returns a list of (v, 2) vertex arrays in parameter coordinates,
    closed (first vertex repeated) where the region does not hit the grid
    boundary.  A region covering every node is reported as the node-extent
    rectangle; an empty region gives an empty list.
    """
    if len(grid.axes) != 2:
        raise InputError("contour extraction is defined for two-parameter grids only")
    xs, ys = grid.axes
    level = grid.threshold
    valid = grid.status == STATUS_OK
    if valid.all():
        if np.all(grid.stat <= level):
            x0, x1, y0, y1 = xs[0], xs[-1], ys[0], ys[-1]
            return [np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)])]
        if np.all(grid.stat > level):
            return []

    # The cells whose four corners are defined and lie on both sides of the
    # level, in row-major (i, j) order, with their corners as flat node indices.
    below = grid.stat <= level
    corners_ok = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    n_inside = below[:-1, :-1].astype(int) + below[1:, :-1] + below[1:, 1:] + below[:-1, 1:]
    cells = np.argwhere(corners_ok & (n_inside > 0) & (n_inside < 4))
    ny, stat = len(ys), grid.stat.ravel()
    nodes = (cells[:, 0] * ny + cells[:, 1])[:, None] + np.array([0, ny, ny + 1, 1])
    values = stat[nodes]
    case = (values <= level) @ np.array([1, 2, 4, 8])
    saddle = np.isin(case, (5, 10)) & (values.mean(axis=1) <= level)
    case = np.where(saddle, 16 + (case == 10), case)

    # Segment s has ends 2s and 2s + 1; each end lies on one cell edge,
    # interpolated from the edge's first corner to its second.
    pairs = _SEGMENTS[case].reshape(-1, 2)
    real = pairs[:, 0] >= 0
    edge = pairs[real].ravel()
    end_cell = np.repeat(np.flatnonzero(real) // 2, 2)
    a, b = nodes[end_cell, edge], nodes[end_cell, (edge + 1) % 4]
    t = (level - stat[a]) / (stat[b] - stat[a])
    px = xs[a // ny] + t * (xs[b // ny] - xs[a // ny])
    py = ys[a % ny] + t * (ys[b % ny] - ys[a % ny])

    # A grid edge joins nodes ny apart (an x-edge) or 1 apart (a y-edge);
    # number the x-edges first.  At most two segment ends cross one edge,
    # one from each cell beside it: link each end to the other.
    edge_id = np.minimum(a, b) + (np.abs(a - b) == 1) * stat.size
    order = np.argsort(edge_id)
    same = np.flatnonzero(np.diff(edge_id[order]) == 0)
    link = np.full(len(order), -1)
    link[order[same]], link[order[same + 1]] = order[same + 1], order[same]
    link = link.tolist()
    used = [False] * (len(link) // 2)

    def walk(end):
        """The far ends of the unused segments chained on from ``end``."""
        far = []
        while (end := link[end]) >= 0 and not used[end // 2]:
            used[end // 2] = True
            end ^= 1
            far.append(end)
        return far

    polylines = []
    for s in range(len(used)):
        if used[s]:
            continue
        used[s] = True
        ahead = [2 * s + 1] + walk(2 * s + 1)
        if link[ahead[-1]] == 2 * s:
            # Closed: the last far end lies on the first end's edge.
            path = [2 * s] + ahead[:-1] + [2 * s]
        else:
            path = walk(2 * s)[::-1] + [2 * s] + ahead
        polylines.append(np.column_stack((px[path], py[path])))
    return polylines
