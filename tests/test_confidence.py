import logging
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.stats import chi2

from elspec import (
    ArmaSpec,
    ConvergenceError,
    InputError,
    NoiseKind,
    NoSolutionError,
    bartlett_constants,
    compute_periodogram,
    extract_contour,
    grid_axis,
    interval_1d,
    sandwich,
    scan_region,
    simulate,
    whittle_fit,
)
from elspec.arma import STATIONARITY_MARGIN, batch_slices, lag_table, stationary_invertible
from elspec.confidence import (
    METHODS,
    STATUS_INVALID,
    STATUS_NO_SOLUTION,
    STATUS_OK,
    RegionGrid,
    _bracket_roots,
    method_stats,
    method_threshold,
)
from elspec.el import MAX_HALF_LOG, adjust_rows, solve_dual
from elspec.whittle import psi_profile, psi_profile_rows


def _point_in_polygon(point, poly):
    # ray casting; poly is (v, 2) with matching first/last vertex
    x, y = point
    inside = False
    for (x0, y0), (x1, y1) in zip(poly[:-1], poly[1:]):
        if (y0 > y) != (y1 > y):
            xcross = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xcross > x:
                inside = not inside
    return inside


class TestGridAxis:
    def test_nodes_at_cell_centers(self):
        ax = grid_axis(0.0, 1.0, 4)
        np.testing.assert_allclose(ax, [0.125, 0.375, 0.625, 0.875])

    def test_open_box_stays_interior(self):
        ax = grid_axis(0.0, 1.0, 40)
        assert 0.0 < ax[0] and ax[-1] < 1.0

    def test_rejects_empty_range(self):
        with pytest.raises(InputError):
            grid_axis(1.0, 1.0, 10)

    @pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
                                        (0.0, np.nan), (-1e308, 1e308),
                                        (np.float64(-1e308), np.float64(1e308))])
    def test_rejects_non_finite_range_without_warning(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"axis range \[.*\] is not finite"):
                grid_axis(lo, hi, 5)


class TestScanRegion:
    def test_estimate_node_inside(self, ma1_pg_t70):
        fit = whittle_fit(ma1_pg_t70, (0, 1), profile=True)
        bhat = fit.estimate[0]
        grid = scan_region(ma1_pg_t70, (0, 1), [(bhat - 0.2, bhat + 0.2)], 21, method="ael")
        nearest = int(np.argmin(np.abs(grid.axes[0] - bhat)))
        assert grid.inside()[nearest]
        assert grid.stat[nearest] < grid.threshold

    def test_ael_nodes_contain_el_nodes(self, arma11_pg_t60):
        box = [(0.0, 1.0), (0.0, 1.0)]
        el = scan_region(arma11_pg_t60, (1, 1), box, 15, method="el")
        ael = scan_region(arma11_pg_t60, (1, 1), box, 15, method="ael")
        defined = el.status == STATUS_OK
        assert np.all(ael.inside()[defined] >= el.inside()[defined])
        # AEL is defined everywhere on the grid
        assert np.all(ael.status == STATUS_OK)

    def test_threshold_is_chi2_quantile(self, arma11_pg_t60):
        grid = scan_region(arma11_pg_t60, (1, 1), [(0.1, 0.9), (0.1, 0.9)], 5,
                           method="ael", alpha=0.10)
        assert grid.threshold == pytest.approx(chi2.ppf(0.9, 2), rel=1e-12)

    def test_tb_threshold_scaled(self, arma11_pg_t60):
        grid = scan_region(arma11_pg_t60, (1, 1), [(0.1, 0.9), (0.1, 0.9)], 5,
                           method="tb", alpha=0.10, tb_constant=2.0)
        n = arma11_pg_t60.n
        assert grid.threshold == pytest.approx(chi2.ppf(0.9, 2) * (1 + 2.0 / n), rel=1e-12)

    def test_tb_requires_constant(self, arma11_pg_t60):
        with pytest.raises(InputError):
            scan_region(arma11_pg_t60, (1, 1), [(0.1, 0.9), (0.1, 0.9)], 5, method="tb")

    def test_box_outside_region_rejected(self, arma11_pg_t60):
        with pytest.raises(InputError):
            scan_region(arma11_pg_t60, (1, 1), [(0.5, 1.5), (0.1, 0.9)], 5, method="ael")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
    def test_alpha_outside_unit_interval_rejected(self, arma11_pg_t60, alpha):
        # alpha = 1.5 used to give threshold nan and an empty region
        with pytest.raises(InputError):
            scan_region(arma11_pg_t60, (1, 1), [(0.1, 0.9), (0.1, 0.9)], 5, alpha=alpha)

    def test_region_shrinks_as_alpha_grows(self, ma1_pg_t70):
        box = [(-0.6, 0.9)]
        wide = scan_region(ma1_pg_t70, (0, 1), box, 60, method="ael", alpha=0.05)
        narrow = scan_region(ma1_pg_t70, (0, 1), box, 60, method="ael", alpha=0.20)
        # alpha up => threshold down => node set shrinks
        assert np.all(wide.inside() >= narrow.inside())
        assert wide.inside().sum() > narrow.inside().sum()

    def test_eb_stat_is_bartlett_scaled(self, ma1_pg_t70):
        box = [(0.0, 0.5)]
        el = scan_region(ma1_pg_t70, (0, 1), box, 9, method="el")
        eb = scan_region(ma1_pg_t70, (0, 1), box, 9, method="eb")
        ok = (el.status == STATUS_OK) & (eb.status == STATUS_OK)
        # positive Bartlett factor shrinks the effective statistic
        assert np.all(eb.stat[ok] <= el.stat[ok] + 1e-9)


class TestInterval1d:
    def test_straddles_estimate_and_hits_threshold(self, ma1_pg_t70):
        fit = whittle_fit(ma1_pg_t70, (0, 1), profile=True)
        iv = interval_1d(ma1_pg_t70, (0, 1), method="ael", alpha=0.10, fit=fit)
        assert iv.contains_estimate
        assert iv.lo < fit.estimate[0] < iv.hi
        assert not iv.truncated_lo and not iv.truncated_hi
        for endpoint in (iv.lo, iv.hi):
            psi = psi_profile(ma1_pg_t70, ArmaSpec(ma=[endpoint]))
            stat = solve_dual(adjust_rows(psi), adjusted=True).stat
            assert abs(stat - iv.threshold) < 1e-6

    @pytest.mark.parametrize("bounds", [(0.9, -0.9), (0.5, 0.5), (1.5, 2.0), (-3.0, -1.0),
                                        (np.nan, 0.5)])
    def test_empty_bounds_rejected(self, ma1_pg_t70, bounds):
        # empty once clipped to the stationarity limits: the message names
        # the bounds, not the estimate
        with pytest.raises(InputError, match=r"search bounds \(.*\) are empty"):
            interval_1d(ma1_pg_t70, (0, 1), bounds=bounds)

    def test_el_interval_nested_in_ael(self, ma1_pg_t70):
        ael = interval_1d(ma1_pg_t70, (0, 1), method="ael", alpha=0.10)
        el = interval_1d(ma1_pg_t70, (0, 1), method="el", alpha=0.10)
        assert ael.lo <= el.lo + 1e-9 and el.hi <= ael.hi + 1e-9

    def test_requires_scalar_order(self, arma11_pg_t60):
        with pytest.raises(InputError):
            interval_1d(arma11_pg_t60, (1, 1))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, ma1_pg_t70, alpha):
        # alpha = 0 used to give threshold inf and both ends clamped
        with pytest.raises(InputError):
            interval_1d(ma1_pg_t70, (0, 1), method="ael", alpha=alpha)

    def test_boundary_truncation_flagged(self, caplog):
        # persistence near the unit root with a short series: the level-set
        # search on the AR coefficient hits the user bound before crossing
        ts = simulate(ArmaSpec(ar=[0.9]), 30, NoiseKind.STANDARD_NORMAL, seed=2)
        pg = compute_periodogram(ts)
        fit = whittle_fit(pg, (1, 0), profile=True)
        # clamp the search just above the estimate: the upper side cannot
        # cross the threshold before hitting the bound
        hi_bound = float(fit.estimate[0]) + 1e-4
        with caplog.at_level(logging.DEBUG, logger="elspec"):
            iv = interval_1d(pg, (1, 0), method="ael", alpha=0.10,
                             bounds=(-0.999, hi_bound), fit=fit)
        assert iv.truncated_hi
        assert iv.hi == pytest.approx(hi_bound)
        assert not iv.truncated_lo
        assert iv.lo <= iv.hi
        # one truncation record, for the truncated end only (the other
        # record is the DEBUG summary of the search)
        [record] = [r for r in caplog.records if r.levelno >= logging.INFO]
        assert record.name == "elspec.confidence" and "upper end truncated" in record.getMessage()

    def test_eb_upper_end_truncated_near_unit_root(self):
        # eb's statistic stays below its threshold up to the stationarity
        # bound: the Bartlett constant is scale-free, so the psi column
        # shrinking like 1 - beta does not make it undefined
        pg = compute_periodogram(simulate(ArmaSpec(ar=[0.5]), 30, NoiseKind.STANDARD_NORMAL, seed=0))
        iv = interval_1d(pg, (1, 0), method="eb", alpha=0.10)
        assert iv.truncated_hi and iv.hi == 1.0 - 2.0 * STATIONARITY_MARGIN
        assert not iv.truncated_lo

    def test_coverage_indicator_equivalence_100_cases(self):
        # interval contains the truth  <=>  stat at the truth is below the
        # threshold; both sides computed through different code paths
        thr_cache = {}
        cases = []
        for model, val in [("ma1", 0.3), ("ma1", 0.5), ("ar1", 0.4), ("ar1", 0.6)]:
            for T in (60, 100):
                for method in ("el", "ael", "eb"):
                    for alpha in (0.10, 0.05):
                        cases.append((model, val, T, method, alpha))
        assert len(cases) >= 48
        rng_seed = 0
        checked = 0
        for model, val, T, method, alpha in cases:
            for rep in range(3):
                if checked >= 100:
                    break
                rng_seed += 1
                spec = ArmaSpec(ma=[val]) if model == "ma1" else ArmaSpec(ar=[val])
                order = (0, 1) if model == "ma1" else (1, 0)
                ts = simulate(spec, T, NoiseKind.STANDARD_NORMAL, seed=rng_seed)
                pg = compute_periodogram(ts)
                fit = whittle_fit(pg, order, profile=True)
                if not fit.converged:
                    continue
                iv = interval_1d(pg, order, method=method, alpha=alpha, fit=fit)
                in_interval = iv.lo <= val <= iv.hi
                # direct statistic test at the true value
                psi = psi_profile(pg, spec)
                try:
                    if method == "ael":
                        stat = solve_dual(adjust_rows(psi, MAX_HALF_LOG), adjusted=True).stat
                        covered = stat <= iv.threshold
                    elif method == "el":
                        covered = solve_dual(psi).stat <= iv.threshold
                    else:
                        w = solve_dual(psi).stat
                        b = bartlett_constants(psi.T)[0]
                        covered = w / (1 + b / len(psi)) <= iv.threshold
                except NoSolutionError:
                    covered = False
                assert in_interval == covered, (model, val, T, method, alpha, rep)
                checked += 1
        assert checked == 100

    def test_width_matches_sandwich_at_large_t(self, ma1_pg_t2000):
        pg = ma1_pg_t2000
        fit = whittle_fit(pg, (0, 1), profile=True)
        iv = interval_1d(pg, (0, 1), method="ael", alpha=0.10, fit=fit)
        diag = sandwich(pg, ArmaSpec.from_beta1((0, 1), fit.estimate), profile=True)
        target = 2.0 * 1.645 * math.sqrt(diag.v_hat[0, 0] / pg.n)
        width = iv.hi - iv.lo
        assert abs(width - target) / target < 0.15


    @pytest.mark.parametrize("seed", [6, 14])
    @pytest.mark.parametrize("method", ["el", "ael", "eb", "tb"])
    def test_estimate_outside_its_region_raises(self, seed, method):
        # the fit hugs the unit root, where the profile score need not
        # vanish: the statistic at the estimate already exceeds the threshold
        ts = simulate(ArmaSpec(ar=[0.97]), 60, NoiseKind.STANDARD_NORMAL, seed=seed)
        pg = compute_periodogram(ts)
        fit = whittle_fit(pg, (1, 0), profile=True)
        assert fit.converged and fit.estimate[0] > 0.9999
        with pytest.raises(ConvergenceError, match="outside its own region"):
            interval_1d(pg, (1, 0), method=method, fit=fit,
                        tb_constant=1.0 if method == "tb" else None)

    def test_debug_record_counts_rounds_and_problems(self, ma1_pg_t70, caplog):
        fit = whittle_fit(ma1_pg_t70, (0, 1), profile=True)
        quiet = interval_1d(ma1_pg_t70, (0, 1), method="ael", fit=fit)
        with caplog.at_level(logging.DEBUG, logger="elspec"):
            iv = interval_1d(ma1_pg_t70, (0, 1), method="ael", fit=fit)
        assert iv == quiet
        [record] = caplog.records
        assert record.name == "elspec.confidence" and record.levelno == logging.DEBUG
        match = re.search(r"(\d+) stacked rounds, (\d+) problems solved", record.getMessage())
        rounds, problems = int(match[1]), int(match[2])
        # the first round holds the estimate and two ladder points a side
        assert 1 < rounds < problems and problems >= 5

    @pytest.mark.parametrize("model,T,method", [
        ("ma1", 200, "el"), ("ma1", 200, "ael"), ("ma1", 200, "eb"),
        ("ar1", 8000, "ael"), ("ma1", 8000, "ael"),
    ], ids=str)
    def test_round_budget(self, model, T, method, caplog):
        # the signed root is close to linear and the ladder starts at the
        # sandwich half-width: one ladder round, then regula falsi and a
        # few bracket-closing steps
        spec, order = _scalar_model(model)
        pg = compute_periodogram(simulate(spec, T, NoiseKind.STANDARD_NORMAL, seed=1))
        fit = whittle_fit(pg, order, profile=True)
        with caplog.at_level(logging.DEBUG, logger="elspec"):
            interval_1d(pg, order, method=method, fit=fit)
        [record] = caplog.records
        message = record.getMessage()
        rounds = int(re.search(r"(\d+) stacked rounds", message)[1])
        ladder, bracket = map(int, re.search(r"(\d+) ladder and (\d+) bracket rounds",
                                             message).groups())
        assert ladder + bracket == rounds <= 6
        assert int(re.search(r"(\d+) Newton steps", message)[1]) > 0

    def test_fit_of_another_order_is_rejected(self):
        pg = compute_periodogram(simulate(ArmaSpec(ma=[0.5]), 200, NoiseKind.STANDARD_NORMAL,
                                          seed=1))
        fit = whittle_fit(pg, (1, 0), profile=True)
        with pytest.raises(InputError, match=r"order \(1, 0\).*order \(0, 1\)"):
            interval_1d(pg, (0, 1), fit=fit)

    def test_full_fit_gives_the_profile_fit_interval(self, ma1_pg_t70):
        full = whittle_fit(ma1_pg_t70, (0, 1), profile=False)
        assert full.estimate.size == 2
        assert interval_1d(ma1_pg_t70, (0, 1), fit=full) == interval_1d(ma1_pg_t70, (0, 1))

    @pytest.mark.parametrize("cause", ["singular", "nan", "boundary"])
    def test_ladder_falls_back_to_two_percent(self, ma1_pg_t70, monkeypatch, caplog, cause):
        import elspec.confidence
        from elspec.errors import SingularMatrixError

        pg = ma1_pg_t70
        if cause == "boundary":
            # the fit ends at theta = .99999006, where the sandwich
            # half-width is 2.4e-5 but the lower end lies at .625
            pg = compute_periodogram(simulate(ArmaSpec(ma=[0.95]), 60,
                                              NoiseKind.STANDARD_NORMAL, seed=5))

        def sandwich_stub(*args, **kwargs):
            if cause == "singular":
                raise SingularMatrixError("averaged psi Jacobian is numerically singular",
                                          cond=math.inf)
            return type("Diag", (), {"v_hat": np.full((1, 1), np.nan)})()
        if cause != "boundary":
            monkeypatch.setattr(elspec.confidence, "_sandwich", sandwich_stub)
        fit = whittle_fit(pg, (0, 1), profile=True)
        expected = _oracle_interval(pg, (0, 1), "ael", fit)
        with caplog.at_level(logging.DEBUG, logger="elspec"):
            iv = interval_1d(pg, (0, 1), method="ael", fit=fit)
        fallback, summary = [r for r in caplog.records if r.levelno == logging.DEBUG]
        assert "2% of the spans" in fallback.getMessage()
        if cause == "boundary":
            assert "on the stationarity/invertibility boundary" in fallback.getMessage()
        limit = 1.0 - 2.0 * STATIONARITY_MARGIN
        steps = [max(1e-4, 0.02 * span) for span in (iv.estimate + limit, limit - iv.estimate)]
        assert f"first ladder steps {steps[0]:.3g} / {steps[1]:.3g}" in summary.getMessage()
        assert (iv.truncated_lo, iv.truncated_hi) == expected[2:]
        assert abs(iv.lo - expected[0]) < 1e-10 and abs(iv.hi - expected[1]) < 1e-10


def _oracle_excess(pg, order, method, threshold):
    """stat - threshold at one point, one N = 1 statistic call; 1e12 where
    the model is invalid or the statistic undefined."""
    def excess(b):
        beta = np.array([[b]])
        ar, ma = (beta, beta[:, :0]) if order[0] else (beta[:, :0], beta)
        if not stationary_invertible(ar, ma)[0]:
            return 1e12
        res = method_stats(psi_profile_rows(lag_table(pg.freqs, 1), pg.ords, ar, ma), (method,))[method]
        return float(res.stat[0]) - threshold if res.status[0] == STATUS_OK else 1e12
    return excess


def _oracle_interval(pg, order, method, fit, tb_constant=None):
    """(lo, hi, truncated_lo, truncated_hi) by the sequential search: the
    outward ladder one point at a time, then scipy's brentq on each side."""
    from scipy.optimize import brentq

    threshold = method_threshold(method, 1, 0.9, pg.n, tb_constant)
    excess = _oracle_excess(pg, order, method, threshold)
    bhat = float(fit.estimate[0])
    limit = 1.0 - 2.0 * STATIONARITY_MARGIN

    def edge(direction):
        bound = direction * limit
        step = max(1e-4, 0.02 * abs(bound - bhat))
        prev = bhat
        while True:
            nxt = prev + direction * step
            if (direction > 0 and nxt >= bound) or (direction < 0 and nxt <= bound):
                nxt = bound
            if excess(nxt) > 0.0:
                left, right = sorted((prev, nxt))
                return brentq(excess, left, right, xtol=1e-12, rtol=8.9e-16), False
            if nxt == bound:
                return bound, True
            prev = nxt
            step *= 1.6

    (lo, trunc_lo), (hi, trunc_hi) = edge(-1), edge(+1)
    return lo, hi, trunc_lo, trunc_hi


def _scalar_model(model, value=0.5):
    """(spec, order) of an AR(1) or MA(1) model with coefficient ``value``."""
    return (ArmaSpec(ar=[value]), (1, 0)) if model == "ar1" else (ArmaSpec(ma=[value]), (0, 1))


def _oracle_cases():
    for model in ("ar1", "ma1"):
        for T in (30, 70, 2000, 8000):
            for method in METHODS:
                yield pytest.param(model, 0.5, T, 1, method, id=f"{model}-T{T}-{method}")
    # eb's statistic stays below its threshold up to the bound: a truncated
    # upper end
    yield pytest.param("ar1", 0.5, 30, 0, "eb", id="ar1-T30-eb-infinite-end")


@pytest.mark.parametrize("model,value,T,seed,method", list(_oracle_cases()))
def test_interval_matches_sequential_brentq(model, value, T, seed, method):
    spec, order = _scalar_model(model, value)
    pg = compute_periodogram(simulate(spec, T, NoiseKind.STANDARD_NORMAL, seed=seed))
    fit = whittle_fit(pg, order, profile=True)
    tb_constant = 1.0 if method == "tb" else None
    iv = interval_1d(pg, order, method=method, alpha=0.10, fit=fit, tb_constant=tb_constant)
    lo, hi, trunc_lo, trunc_hi = _oracle_interval(pg, order, method, fit, tb_constant)
    assert (iv.truncated_lo, iv.truncated_hi) == (trunc_lo, trunc_hi)
    assert abs(iv.lo - lo) < 1e-10 and abs(iv.hi - hi) < 1e-10


class TestBracketRoots:
    # sin has a root at every multiple of pi; each bracket holds one
    A = np.array([-1.0, 2.5, 6.0, 8.5, 12.0])
    B = np.array([0.5, 4.0, 7.0, 10.0, 13.0])

    def test_roots_and_lockstep_calls(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.sin(x)
        roots = _bracket_roots(f, self.A, self.B, np.sin(self.A), np.sin(self.B))
        np.testing.assert_allclose(roots, np.pi * np.arange(5), rtol=0, atol=2e-12)
        # one call per iteration, on the brackets still running
        assert calls[0] == 5 and all(a >= b for a, b in zip(calls, calls[1:]))

    def test_bracket_does_not_depend_on_its_stack(self):
        stacked = _bracket_roots(np.sin, self.A, self.B, np.sin(self.A), np.sin(self.B))
        for i in range(len(self.A)):
            a, b = self.A[i:i + 1], self.B[i:i + 1]
            alone = _bracket_roots(np.sin, a, b, np.sin(a), np.sin(b))
            assert alone[0] == stacked[i]

    def test_infinite_end_converges(self):
        # no value beyond 0.5, as at a point without an EL solution
        def f(x):
            return np.where(x < 0.5, np.tanh(x - 0.3), np.inf)
        a, b = np.array([0.0, 0.2]), np.array([1.0, 0.9])
        roots = _bracket_roots(f, a, b, f(a), f(b))
        np.testing.assert_allclose(roots, 0.3, rtol=0, atol=2e-12)

    @pytest.mark.parametrize("slope", [-3.0, 0.5, 7.0])
    def test_linear_f_closes_in_two_calls(self, slope):
        # regula falsi lands on the root; the next, minimal step closes
        # the bracket across it
        calls = []

        def f(x):
            calls.append(x.size)
            return slope * (x - 0.3)
        a, b = np.array([-0.7, 0.29, -3.7]), np.array([0.8, 3.3, 0.301])
        fa, fb = f(a), f(b)
        calls.clear()
        roots = _bracket_roots(f, a, b, fa, fb)
        np.testing.assert_allclose(roots, 0.3, rtol=0, atol=2e-12)
        assert len(calls) <= 2

    def test_zero_at_an_end_returns_it(self):
        roots = _bracket_roots(np.sin, np.array([0.0]), np.array([1.0]),
                               np.array([0.0]), np.array([np.sin(1.0)]))
        assert roots[0] == 0.0


# The contour code as it chained marching-squares segments by a key of
# vertex coordinates rounded to 1e-9 of the grid span: the oracle of
# extract_contour on grids where no node value equals the level.
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


# Segments of each marching-squares case as pairs of cell edges, edge e
# running from corner e to corner (e + 1) % 4; a saddle's key adds whether
# its centre average is at or below the level.
_CASE_PAIRS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 6: [(0, 2)], 7: [(3, 2)],
    8: [(2, 3)], 9: [(2, 0)], 11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
    (5, True): [(3, 2), (1, 0)], (5, False): [(3, 0), (1, 2)],
    (10, True): [(0, 1), (2, 3)], (10, False): [(0, 3), (2, 1)],
}


def _edge_segments(nodes, corners, values, level):
    """Marching-squares segments of one cell with each end as (edge, vertex),
    the edge being the set of the two nodes it joins."""
    inside = [v <= level for v in values]
    case = sum(bit << c for c, bit in enumerate(inside))
    if case in (5, 10):
        case = (case, float(np.mean(values)) <= level)
    ends = {}
    for a in range(4):
        b = (a + 1) % 4
        if inside[a] != inside[b]:
            ends[a] = (frozenset((nodes[a], nodes[b])),
                       _interp(corners[a], corners[b], values[a], values[b], level))
    return [(ends[a], ends[b]) for a, b in _CASE_PAIRS.get(case, [])]


def _chain_by_edge(segments):
    """Join segments whose ends cross the same grid edge into polylines,
    closed where the forward walk returns to the first segment's edge."""
    at_edge: dict = {}
    for i, segment in enumerate(segments):
        for edge, _ in segment:
            at_edge.setdefault(edge, []).append(i)
    remaining = dict(enumerate(segments))

    def follow(end):
        far = []
        while nxt := [j for j in at_edge[end[0]] if j in remaining]:
            sa, sb = remaining.pop(nxt[0])
            end = sb if sa[0] == end[0] else sa
            far.append(end)
        return far

    polylines = []
    while remaining:
        a, b = remaining.pop(next(iter(remaining)))
        ahead = follow(b)
        chain = follow(a)[::-1] + [a, b] + ahead
        if chain[-1][0] == chain[0][0]:
            chain[-1] = chain[0]
        polylines.append(np.array([vertex for _, vertex in chain]))
    return polylines


def _loop_contour(grid, cell_segments, chain):
    """extract_contour with every cell visited in a Python loop."""
    xs, ys = grid.axes
    level = grid.threshold
    valid = grid.status == STATUS_OK
    if valid.all():
        if np.all(grid.stat <= level):
            x0, x1, y0, y1 = xs[0], xs[-1], ys[0], ys[-1]
            return [np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)])]
        if np.all(grid.stat > level):
            return []
    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            nodes = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            if all(valid[node] for node in nodes):
                corners = [(xs[a], ys[b]) for a, b in nodes]
                values = [grid.stat[node] for node in nodes]
                segments.extend(cell_segments(nodes, corners, values, level))
    return chain(segments) if segments else []


def _reference_contour(grid):
    return _loop_contour(grid, _edge_segments, _chain_by_edge)


def _rounding_key_contour(grid):
    xs, ys = grid.axes
    span = max(xs[-1] - xs[0], ys[-1] - ys[0])
    return _loop_contour(grid, lambda nodes, *cell: _cell_segments(*cell),
                         lambda segments: _chain_segments(segments, tol=1e-9 * span))


def _contour_grids():
    rng = np.random.default_rng(20)
    nx, ny = 17, 23
    smooth = np.add.outer(np.linspace(-2.0, 2.0, nx) ** 2, np.linspace(-1.5, 1.5, ny) ** 2)
    # a checkerboard of values below and above the level: every cell is a
    # saddle, case 5 or case 10, with centre averages on both sides
    parity = np.add.outer(np.arange(nx), np.arange(ny)) % 2 == 0
    checker = np.where(parity, rng.uniform(0.0, 1.0, (nx, ny)), rng.uniform(1.0, 3.0, (nx, ny)))
    fields = {"smooth": smooth, "checker": checker, "uniform": rng.uniform(0.0, 2.0, (nx, ny)),
              "inside": np.zeros((nx, ny)), "outside": np.full((nx, ny), 5.0)}
    for name, stat in fields.items():
        for share in (0.0, 0.1, 0.4):
            status = np.where(rng.random((nx, ny)) < share,
                              rng.choice([STATUS_NO_SOLUTION, STATUS_INVALID], (nx, ny)), STATUS_OK)
            yield pytest.param(stat, status, id=f"{name}-undefined{share}")


def _field_grid(stat, status):
    """A grid of ``stat`` at the level 1, NaN where ``status`` is not ok."""
    stat = np.where(status == STATUS_OK, stat, np.nan)
    return RegionGrid(axes=(grid_axis(-1.0, 1.0, stat.shape[0]), grid_axis(0.0, 1.0, stat.shape[1])),
                      stat=stat, status=status, threshold=1.0, method="el", alpha=0.1,
                      order=(1, 1))


@pytest.mark.parametrize("stat,status", list(_contour_grids()))
def test_contour_matches_all_cells_loop(stat, status):
    grid = _field_grid(stat, status)
    got, want = extract_contour(grid), _reference_contour(grid)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _arma11_scan(method, T):
    ts = simulate(ArmaSpec(ar=[0.7], ma=[0.5]), T, NoiseKind.STANDARD_NORMAL, seed=1)
    grid = scan_region(compute_periodogram(ts), (1, 1), [(0.0, 1.0), (0.0, 1.0)], 60, method=method)
    if (method, T) == ("el", 50):
        assert np.any(grid.status == STATUS_NO_SOLUTION)
    return grid


@pytest.mark.parametrize("make_grid", [
    *(pytest.param(partial(_field_grid, *p.values), id=p.id)
      for p in _contour_grids() if not p.id.startswith("smooth")),
    *(pytest.param(partial(_arma11_scan, method, T), id=f"{method}-T{T}")
      for method in ("el", "ael") for T in (50, 200)),
])
def test_contour_matches_rounding_key_chaining(make_grid):
    # Off the level, edge identity and the rounded-coordinate key join the
    # same segments, and each joined vertex keeps its first cell's bits.
    grid = make_grid()
    got, want = extract_contour(grid), _rounding_key_contour(grid)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_contour_through_nodes_at_the_level_is_one_loop():
    # x^2 + y^2 equals the level exactly at two nodes, where an x-edge and a
    # y-edge crossing share one vertex; a coordinate key merges the two.
    stat = np.add.outer(np.linspace(-2.0, 2.0, 17) ** 2, np.linspace(-1.5, 1.5, 23) ** 2)
    assert stat[4, 11] == stat[12, 11] == 1.0
    below = stat <= 1.0
    crossed = np.sum(below[:-1] != below[1:]) + np.sum(below[:, :-1] != below[:, 1:])
    assert crossed == 48
    polys = extract_contour(_field_grid(stat, np.full(stat.shape, STATUS_OK)))
    assert len(polys) == 1
    assert len(polys[0]) == crossed + 1
    assert np.array_equal(polys[0][0], polys[0][-1])


def test_contour_with_nearby_ends_stays_open():
    # One node just below the level: the polyline around it has its two ends
    # 1e-10 of a cell from that node, on different edges.
    stat = np.full((2, 3), 2.0)
    stat[0, 1] = 1.0 - 1e-10
    polys = extract_contour(_field_grid(stat, np.full(stat.shape, STATUS_OK)))
    assert len(polys) == 1 and len(polys[0]) == 3
    assert not np.array_equal(polys[0][0], polys[0][-1])


_ARMA21, _ARMA21_BOX = (ArmaSpec(ar=[0.5, 0.2], ma=[0.4]),), [(-0.3, 0.6), (-0.3, 0.3), (-0.5, 0.9)]
_SCAN_CASES = {
    # name: (spec, T, seed, order, box, steps, method)
    **{f"{method}-T{T}": (ArmaSpec(ar=[0.7], ma=[0.5]), T, 1, (1, 1), [(0.0, 1.0), (0.0, 1.0)],
                          60, method) for method in ("el", "ael") for T in (50, 200)},
    "ma1-el-k1": (ArmaSpec(ma=[0.5]), 200, 2, (0, 1), [(-0.95, 0.95)], 700, "el"),
    "ar1-eb-k1": (ArmaSpec(ar=[0.5]), 200, 3, (1, 0), [(-0.95, 0.95)], 700, "eb"),
    "ael-12-single-batch": (ArmaSpec(ar=[0.7], ma=[0.5]), 200, 1, (1, 1),
                            [(0.0, 1.0), (0.0, 1.0)], 12, "ael"),
    # AR-block table 64 x 199 x 3 entries, over the batch budget: built per
    # batch; the MA table is built once
    "ael-arma21-per-batch": _ARMA21 + (400, 1, (2, 1), _ARMA21_BOX, 8, "ael"),
    "el-arma21-single-batch": _ARMA21 + (200, 2, (2, 1), _ARMA21_BOX, 4, "el"),
}


def _cold_scan(pg, grid, order, method):
    """Status, statistic and iterations of every node of ``grid`` from one
    cold statistic call (no start) on all its valid nodes in row-major order:
    each problem's outcome is the one it has alone."""
    nodes = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1).reshape(-1, sum(order))
    ar, ma = nodes[:, :order[0]], nodes[:, order[0]:]
    valid = stationary_invertible(ar, ma)
    rows = psi_profile_rows(lag_table(pg.freqs, max(order)), pg.ords, ar[valid], ma[valid])
    res = method_stats(rows, (method,))[method]
    status = np.full(len(nodes), STATUS_INVALID)
    stat, iterations = np.full(len(nodes), np.nan), np.zeros(len(nodes), dtype=int)
    status[valid], stat[valid], iterations[valid] = res.status, res.stat, res.iterations
    return status.reshape(grid.status.shape), stat.reshape(grid.stat.shape), iterations


@pytest.mark.parametrize("case", list(_SCAN_CASES))
def test_warm_started_scan_matches_cold_solves(case):
    spec, T, seed, order, box, steps, method = _SCAN_CASES[case]
    pg = compute_periodogram(simulate(spec, T, NoiseKind.STANDARD_NORMAL, seed=seed))
    grid = scan_region(pg, order, box, steps, method=method)
    status, stat, iterations = _cold_scan(pg, grid, order, method)
    np.testing.assert_array_equal(grid.status, status)
    ok = status == STATUS_OK
    np.testing.assert_allclose(grid.stat[ok], stat[ok], rtol=1e-12, atol=1e-12)
    if case == "el-T50":
        assert np.any(status == STATUS_NO_SOLUTION)
    if len(order) == 2 and sum(order) == 2:  # the phi = theta nodes are solved
        assert np.all(status.diagonal() == STATUS_OK)
    if case.endswith("single-batch"):  # no solved parent: the cold solve, bitwise
        np.testing.assert_array_equal(grid.stat, stat)
        assert grid.iterations[ok].sum() == iterations.sum()
    else:  # coarse nodes' multipliers started the fine ones
        assert grid.iterations[ok].sum() < 0.9 * iterations.sum()


def _scan_record(records):
    [record] = [r for r in records if r.name == "elspec.confidence"]
    assert record.levelno == logging.DEBUG
    match = re.search(r"(\d+) nodes, (\d+) batches, (\d+) warm-started, (\d+) starts rejected, "
                      r"(\d+) Newton steps", record.getMessage())
    return tuple(int(x) for x in match.groups())


@pytest.mark.parametrize("steps", [40, 12])
def test_scan_debug_record(caplog, steps):
    pg = compute_periodogram(simulate(ArmaSpec(ar=[0.7], ma=[0.5]), 200, NoiseKind.STANDARD_NORMAL,
                                      seed=1))
    box = [(-0.9, 0.9), (0.0, 1.0)]
    quiet = scan_region(pg, (1, 1), box, steps, method="el")
    with caplog.at_level(logging.DEBUG, logger="elspec"):
        grid = scan_region(pg, (1, 1), box, steps, method="el")
    for name in ("stat", "status", "iterations", "residual"):
        np.testing.assert_array_equal(getattr(grid, name), getattr(quiet, name))
    nodes, batches, warm, rejected, newton = _scan_record(caplog.records)
    [record] = caplog.records
    factor_rows = re.search(r", (\d+) AR and (\d+) MA factor rows$", record.getMessage())
    assert tuple(map(int, factor_rows.groups())) == (steps, steps)
    assert nodes == np.count_nonzero(grid.status != STATUS_INVALID)
    assert batches == len(batch_slices(nodes, (pg.n + 1) * 2))
    assert newton == grid.iterations[grid.status == STATUS_OK].sum()
    if steps == 12:
        assert batches == 1 and warm == rejected == 0
    else:
        assert batches > 1 and 0 < rejected < warm < nodes


def test_scan_factor_tables_stay_in_budget(caplog, monkeypatch):
    # the per-batch case of _SCAN_CASES: each AR table holds one batch's
    # distinct values, the MA table all 8 values once
    import elspec.confidence

    spec, T, seed, order, box, steps, method = _SCAN_CASES["ael-arma21-per-batch"]
    pg = compute_periodogram(simulate(spec, T, NoiseKind.STANDARD_NORMAL, seed=seed))
    tables, original = {True: [], False: []}, elspec.confidence.factor_table

    def recording(coeffs, table, ar):
        tables[ar].append(coeffs)
        return original(coeffs, table, ar)

    monkeypatch.setattr(elspec.confidence, "factor_table", recording)
    with caplog.at_level(logging.DEBUG, logger="elspec"):
        scan_region(pg, order, box, steps, method=method)
    nodes, batches = _scan_record(caplog.records)[:2]
    assert nodes == 512 and len(tables[True]) == batches > 1 and len(tables[False]) == 1
    budget = elspec.confidence._BATCH_ENTRIES
    assert 64 * pg.n * 3 > budget >= 8 * pg.n * 2 and len(tables[False][0]) == 8
    size = batch_slices(nodes, (pg.n + 1) * 3)[0].stop
    for coeffs in tables[True]:
        assert len(coeffs) <= size and len(np.unique(coeffs, axis=0)) == len(coeffs)
    ar_rows = sum(map(len, tables[True]))
    assert caplog.records[0].getMessage().endswith(f", {ar_rows} AR and 8 MA factor rows")


class TestExtractContour:
    def _grid(self, stat, lo=-1.0, hi=1.0, threshold=1.0):
        n = stat.shape[0]
        ax = grid_axis(lo, hi, n)
        return RegionGrid(
            axes=(ax, ax), stat=stat, status=np.zeros_like(stat, dtype=int),
            threshold=threshold, method="ael", alpha=0.1, order=(1, 1),
        )

    def test_everything_inside_traces_box(self):
        grid = self._grid(np.zeros((8, 8)), threshold=1.0)
        polys = extract_contour(grid)
        assert len(polys) == 1
        poly = polys[0]
        assert np.array_equal(poly[0], poly[-1])
        xs = grid.axes[0]
        np.testing.assert_allclose(sorted(set(poly[:, 0])), [xs[0], xs[-1]])

    def test_empty_region(self):
        grid = self._grid(np.full((8, 8), 5.0), threshold=1.0)
        assert extract_contour(grid) == []

    def test_circular_level_set(self):
        # stat = n r^2: the contour is a circle of radius sqrt(threshold/n)
        n = 50.0
        steps = 60
        ax = grid_axis(-1.0, 1.0, steps)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        stat = n * (xx**2 + yy**2)
        grid = self._grid(stat, threshold=2.7)
        polys = extract_contour(grid)
        assert len(polys) == 1
        poly = polys[0]
        assert np.array_equal(poly[0], poly[-1])  # closed
        radius = math.sqrt(2.7 / n)
        cell = ax[1] - ax[0]
        dists = np.hypot(poly[:, 0], poly[:, 1])
        assert np.all(np.abs(dists - radius) < cell)

    def test_ael_contour_outside_el_contour(self, arma11_pg_t60):
        box = [(0.05, 0.95), (0.05, 0.95)]
        el_grid = scan_region(arma11_pg_t60, (1, 1), box, 30, method="el", alpha=0.10)
        ael_grid = scan_region(arma11_pg_t60, (1, 1), box, 30, method="ael", alpha=0.10)
        if not np.all(el_grid.status == STATUS_OK):
            pytest.skip("EL grid has undefined cells on this draw")
        polys = extract_contour(ael_grid)
        assert polys
        # every AEL contour vertex has EL stat at or above the shared
        # threshold: pointwise W >= W* makes the interpolated EL field exceed
        # the level wherever the AEL field equals it
        xs, ys = el_grid.axes
        for poly in polys:
            for x, y in poly:
                i = min(np.searchsorted(xs, x) - 1, len(xs) - 2)
                j = min(np.searchsorted(ys, y) - 1, len(ys) - 2)
                i, j = max(i, 0), max(j, 0)
                tx = np.clip((x - xs[i]) / (xs[i + 1] - xs[i]), 0, 1)
                ty = np.clip((y - ys[j]) / (ys[j + 1] - ys[j]), 0, 1)
                el_interp = (
                    el_grid.stat[i, j] * (1 - tx) * (1 - ty)
                    + el_grid.stat[i + 1, j] * tx * (1 - ty)
                    + el_grid.stat[i, j + 1] * (1 - tx) * ty
                    + el_grid.stat[i + 1, j + 1] * tx * ty
                )
                assert el_interp >= ael_grid.threshold - 1e-6

    def test_synthetic_arma11_contour_encloses_estimate(self):
        # stand-in for a moderately long observed ARMA(1,1) series; the AR
        # and MA roots are well separated so the 90% region closes inside
        # the unit box on this draw
        ts = simulate(ArmaSpec(ar=[0.85], ma=[0.3]), 197, NoiseKind.STANDARD_NORMAL, seed=1976)
        pg = compute_periodogram(ts)
        fit = whittle_fit(pg, (1, 1), profile=True)
        assert fit.converged
        grid = scan_region(pg, (1, 1), [(0.0, 1.0), (0.0, 1.0)], 60, method="ael", alpha=0.10)
        polys = extract_contour(grid)
        closed = [p for p in polys if np.array_equal(p[0], p[-1])]
        assert closed
        hit = any(_point_in_polygon(fit.estimate, p) for p in closed)
        assert hit

    def test_nosolution_cells_skipped_not_fabricated(self):
        stat = np.zeros((6, 6))
        status = np.zeros((6, 6), dtype=int)
        status[2, 2] = STATUS_NO_SOLUTION
        stat[2, 2] = np.nan
        ax = grid_axis(0.0, 1.0, 6)
        grid = RegionGrid(axes=(ax, ax), stat=stat, status=status,
                          threshold=1.0, method="el", alpha=0.1, order=(1, 1))
        polys = extract_contour(grid)  # must not crash on the NaN cell
        assert isinstance(polys, list)
        assert not grid.inside()[2, 2]
