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

from dataclasses import dataclass

import numpy as np

from .arma import ArmaSpec, STATIONARITY_MARGIN, stationary_invertible
from .bartlett import bartlett_constants, bartlett_scale, chi2_quantile
from .el import (
    MAX_HALF_LOG,
    STATUS_FAILED,
    STATUS_NO_SOLUTION,
    STATUS_OK,
    AdjustmentPolicy,
    adjust_rows,
    batch_slices,
    solve_duals,
)
from .errors import ConvergenceError, InputError, InvalidModelError
from .periodogram import Periodogram
from .whittle import FitResult, psi_profile_rows, whittle_fit

METHODS = ("el", "ael", "eb", "tb")

STATUS_INVALID = 3
STATUS_LABELS = {
    STATUS_OK: "ok",
    STATUS_NO_SOLUTION: "nosolution",
    STATUS_FAILED: "failed",
    STATUS_INVALID: "invalid",
}

_BIG = 1e12


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
    and NaN.  Hand-built grids may leave both None.
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
    if not hi > lo:
        raise InputError(f"empty axis range [{lo}, {hi}]")
    edges = np.linspace(lo, hi, steps + 1)
    return (edges[:-1] + edges[1:]) / 2.0


@dataclass(frozen=True, eq=False)
class MethodStats:
    """Per-problem effective statistic of one method: ``stat`` (NaN unless
    ``status`` is STATUS_OK), ``status``, and the dual's ``iterations`` and
    ``residual``."""

    stat: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray


def method_stats(rows, methods, policy: AdjustmentPolicy = MAX_HALF_LOG) -> dict:
    """Effective statistic of every method in ``methods`` on a stack of
    unadjusted profile psi rows (N, n, k); returns method -> MethodStats.

    "el" and "tb" give W, "ael" the adjusted W* (solved on the rows with
    the pseudo-observation appended under ``policy``), "eb" the
    Bartlett-scaled W/(1 + b_hat/n).  The methods built on W share one solve.
    "eb" needs k = 1; a degenerate psi column makes its status STATUS_FAILED.
    """
    out = {}
    if any(m != "ael" for m in methods):
        el = solve_duals(rows)
    for method in methods:
        if method == "ael":
            # Only an untrimmed psibar guarantees a solution (see
            # el.solve_duals), so trimmed problems are certified.
            adj = solve_duals(adjust_rows(rows, policy), adjusted=not policy.trim)
            out[method] = MethodStats(adj.stat, adj.status, adj.iterations, adj.residual)
            continue
        stat, status = el.stat, el.status
        if method == "eb":
            if rows.shape[2] != 1:
                raise InputError(
                    f"estimated Bartlett correction is scalar-parameter only, got k={rows.shape[2]}")
            # b_hat >= 1/2 (see estimate_bartlett), so the scale exceeds 1.
            stat = stat / (1.0 + bartlett_constants(rows[:, :, 0]) / rows.shape[1])
            status = np.where((status == STATUS_OK) & np.isnan(stat), STATUS_FAILED, status)
        out[method] = MethodStats(stat, status, el.iterations, el.residual)
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
    failures are flagged in ``status`` without aborting the scan.  All
    nodes are validated at once; the valid ones are solved in batches of up
    to several hundred nodes (fewer for long series) by one
    :func:`elspec.el.solve_duals` call each.
    """
    p, q = order
    k = p + q
    if k < 1:
        raise InputError("scan_region needs at least one free parameter")
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

    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    ar, ma = nodes[:, :p], nodes[:, p:]
    valid = stationary_invertible(ar, ma)
    stat = np.full(len(nodes), np.nan)
    status = np.where(valid, STATUS_OK, STATUS_INVALID)
    iterations = np.full(len(nodes), -1)
    residual = np.full(len(nodes), np.nan)
    solved = np.flatnonzero(valid)
    for part in batch_slices(solved.size, (pg.n + 1) * k):
        at = solved[part]
        rows = psi_profile_rows(pg.freqs, pg.ords, ar[at], ma[at])
        res = method_stats(rows, (method,), policy)[method]
        ok = res.status == STATUS_OK
        stat[at], status[at] = res.stat, res.status
        iterations[at] = np.where(ok, res.iterations, -1)
        residual[at] = np.where(ok, res.residual, np.nan)
    shape = tuple(len(ax) for ax in axes)
    return RegionGrid(
        axes=axes, stat=stat.reshape(shape), status=status.reshape(shape), threshold=threshold,
        method=method, alpha=alpha, order=order, iterations=iterations.reshape(shape),
        residual=residual.reshape(shape),
    )


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

    Expands outward from the Whittle estimate until the effective statistic
    crosses its threshold, then solves the crossing by root bracketing; a
    side that reaches the stationarity boundary (or the user ``bounds``)
    without crossing is clamped there and flagged.  Points where the EL
    problem has no solution count as beyond the region boundary.

    Raises ConvergenceError when the fit did not converge, and when the
    statistic at the estimate itself exceeds the threshold (possible for an
    estimate hugging the stationarity boundary, where the profile score
    need not vanish): the interval then has no interior to expand from.
    """
    p, q = order
    if p + q != 1:
        raise InputError(f"interval_1d handles exactly one free parameter, got order {order}")
    threshold = method_threshold(method, 1, 1.0 - alpha, pg.n, tb_constant)
    fitres = fit if fit is not None else whittle_fit(pg, order, profile=True)
    if not fitres.converged:
        raise ConvergenceError("Whittle fit did not converge; no center for the interval scan")
    bhat = float(fitres.estimate[0])

    limit = 1.0 - 2.0 * STATIONARITY_MARGIN
    lo_bound, hi_bound = (-limit, limit) if bounds is None else map(float, bounds)
    lo_bound, hi_bound = max(lo_bound, -limit), min(hi_bound, limit)
    if not lo_bound < bhat < hi_bound:
        raise InputError(f"estimate {bhat:.6g} is outside the search bounds")
    from scipy.optimize import brentq

    def excess(b):
        try:
            spec = ArmaSpec.from_beta1(order, [b])
        except InvalidModelError:
            return _BIG
        rows = psi_profile_rows(pg.freqs, pg.ords, spec.ar[None], spec.ma[None])
        res = method_stats(rows, (method,), policy)[method]
        if res.status[0] != STATUS_OK:
            return _BIG
        return float(res.stat[0]) - threshold

    def check_estimate_inside():
        gap = excess(bhat)
        if gap > 0.0:
            value = "undefined (no dual solution)" if gap == _BIG else f"{gap + threshold:.6g}"
            raise ConvergenceError(
                f"{method} statistic at the Whittle estimate {bhat:.8g} is {value}, above "
                f"the threshold {threshold:.6g}: the estimate lies outside its own region")

    def find_edge(direction):
        # direction +1 for the upper endpoint, -1 for the lower
        bound = hi_bound if direction > 0 else lo_bound
        span = abs(bound - bhat)
        if span <= 0:
            return bhat, True
        step = max(1e-4, 0.02 * span)
        prev = bhat
        while True:
            nxt = prev + direction * step
            if (direction > 0 and nxt >= bound) or (direction < 0 and nxt <= bound):
                nxt = bound
            if excess(nxt) > 0.0:
                if prev == bhat:  # brentq would start from the estimate
                    check_estimate_inside()
                left, right = (prev, nxt) if direction > 0 else (nxt, prev)
                root = brentq(excess, left, right, xtol=1e-12, rtol=8.9e-16)
                return float(root), False
            if nxt == bound:
                return float(bound), True
            prev = nxt
            step *= 1.6

    hi, trunc_hi = find_edge(+1)
    lo, trunc_lo = find_edge(-1)
    return Interval(
        lo=lo, hi=hi, contains_estimate=bool(lo <= bhat <= hi), estimate=bhat,
        threshold=threshold, method=method, truncated_lo=trunc_lo, truncated_hi=trunc_hi,
    )


def _interp(pa, pb, va, vb, level):
    t = (level - va) / (vb - va)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


def _cell_segments(corners, values, level):
    """Marching-squares segments for one cell.

    ``corners``/``values`` are ordered counterclockwise from the lower-left:
    (x0,y0), (x1,y0), (x1,y1), (x0,y1).  "Inside" means value <= level; the
    two ambiguous saddle cases are resolved by the cell-center average.
    """
    inside = [v <= level for v in values]
    idx = inside[0] | inside[1] << 1 | inside[2] << 2 | inside[3] << 3
    if idx in (0, 15):
        return []
    edges = {}
    for e, (a, b) in enumerate(((0, 1), (1, 2), (2, 3), (3, 0))):
        if inside[a] != inside[b]:
            edges[e] = _interp(corners[a], corners[b], values[a], values[b], level)
    pairs = {
        1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
        6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
        11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
    }
    if idx == 5:  # corners 0 and 2 inside
        center_inside = float(np.mean(values)) <= level
        pairs = {5: [(3, 2), (1, 0)] if center_inside else [(3, 0), (1, 2)]}
    elif idx == 10:  # corners 1 and 3 inside
        center_inside = float(np.mean(values)) <= level
        pairs = {10: [(0, 1), (2, 3)] if center_inside else [(0, 3), (2, 1)]}
    return [(edges[a], edges[b]) for a, b in pairs[idx]]


def _chain_segments(segments, tol):
    """Join segments sharing endpoints into polylines (closed where the ends
    meet)."""

    def key(point):
        return (round(point[0] / tol), round(point[1] / tol))

    remaining = {i: seg for i, seg in enumerate(segments)}
    by_end: dict = {}
    for i, (a, b) in remaining.items():
        by_end.setdefault(key(a), []).append(i)
        by_end.setdefault(key(b), []).append(i)

    def pop_at(point_key, skip):
        for i in by_end.get(point_key, []):
            if i != skip and i in remaining:
                return i
        return None

    polylines = []
    while remaining:
        i = next(iter(remaining))
        a, b = remaining.pop(i)
        chain = [a, b]
        # extend forward from b, then backward from a
        last = i
        while True:
            j = pop_at(key(chain[-1]), last)
            if j is None:
                break
            sa, sb = remaining.pop(j)
            chain.append(sb if key(sa) == key(chain[-1]) else sa)
            last = j
        last = i
        while True:
            j = pop_at(key(chain[0]), last)
            if j is None:
                break
            sa, sb = remaining.pop(j)
            chain.insert(0, sb if key(sa) == key(chain[0]) else sa)
            last = j
        if key(chain[0]) == key(chain[-1]) and len(chain) > 2:
            chain[-1] = chain[0]
        polylines.append(np.array(chain))
    return polylines


def extract_contour(grid: RegionGrid) -> list[np.ndarray]:
    """Threshold-level contour polylines of a two-dimensional RegionGrid.

    Marching squares with linear interpolation on the statistic values;
    cells touching an undefined node (nosolution/failed/invalid) are
    skipped.  Returns a list of (v, 2) vertex arrays in parameter
    coordinates, closed (first vertex repeated) where the region does not
    hit the grid boundary.  A region covering every node is reported as the
    node-extent rectangle; an empty region gives an empty list.
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

    # Marching squares needs only the cells whose four corners are defined
    # and lie on both sides of the level; find them all at once and visit
    # them in row-major (i, j) order.
    stat = grid.stat
    below = stat <= level
    corners_ok = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    n_inside = below[:-1, :-1].astype(int) + below[1:, :-1] + below[1:, 1:] + below[:-1, 1:]
    segments = []
    for i, j in np.argwhere(corners_ok & (n_inside > 0) & (n_inside < 4)):
        corners = (
            (xs[i], ys[j]), (xs[i + 1], ys[j]),
            (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1]),
        )
        values = (stat[i, j], stat[i + 1, j], stat[i + 1, j + 1], stat[i, j + 1])
        segments.extend(_cell_segments(corners, values, level))
    if not segments:
        return []
    span = max(xs[-1] - xs[0], ys[-1] - ys[0])
    return _chain_segments(segments, tol=1e-9 * span)
