import math

import numpy as np
import pytest
from scipy.stats import chi2

from elspec import (
    ArmaSpec,
    ConvergenceError,
    InputError,
    NoiseKind,
    NoSolutionError,
    compute_periodogram,
    el_stat,
    extract_contour,
    grid_axis,
    interval_1d,
    sandwich,
    scan_region,
    simulate,
    whittle_fit,
)
from elspec.confidence import (
    STATUS_INVALID,
    STATUS_NO_SOLUTION,
    STATUS_OK,
    RegionGrid,
    _cell_segments,
    _chain_segments,
)
from elspec.el import MAX_HALF_LOG, adjust, solve_dual
from elspec.whittle import psi_profile


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
            stat = el_stat(ma1_pg_t70, ArmaSpec(ma=[endpoint]), adjusted=True, profile=True).stat
            assert abs(stat - iv.threshold) < 1e-6

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

    def test_boundary_truncation_flagged(self):
        # persistence near the unit root with a short series: the level-set
        # search on the AR coefficient hits the user bound before crossing
        ts = simulate(ArmaSpec(ar=[0.9]), 30, NoiseKind.STANDARD_NORMAL, seed=2)
        pg = compute_periodogram(ts)
        fit = whittle_fit(pg, (1, 0), profile=True)
        # clamp the search just above the estimate: the upper side cannot
        # cross the threshold before hitting the bound
        hi_bound = float(fit.estimate[0]) + 1e-4
        iv = interval_1d(pg, (1, 0), method="ael", alpha=0.10,
                         bounds=(-0.999, hi_bound), fit=fit)
        assert iv.truncated_hi
        assert iv.hi == pytest.approx(hi_bound)
        assert not iv.truncated_lo
        assert iv.lo <= iv.hi

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
                        stat = solve_dual(adjust(psi, MAX_HALF_LOG)).stat
                        covered = stat <= iv.threshold
                    elif method == "el":
                        covered = solve_dual(psi).stat <= iv.threshold
                    else:
                        from elspec import estimate_bartlett

                        w = solve_dual(psi).stat
                        b = estimate_bartlett(psi)
                        covered = w / (1 + b / psi.m) <= iv.threshold
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


def _reference_contour(grid):
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
            ok = valid[i, j] and valid[i + 1, j] and valid[i + 1, j + 1] and valid[i, j + 1]
            if not ok:
                continue
            corners = (
                (xs[i], ys[j]), (xs[i + 1], ys[j]),
                (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1]),
            )
            values = (
                grid.stat[i, j], grid.stat[i + 1, j],
                grid.stat[i + 1, j + 1], grid.stat[i, j + 1],
            )
            segments.extend(_cell_segments(corners, values, level))
    if not segments:
        return []
    span = max(xs[-1] - xs[0], ys[-1] - ys[0])
    return _chain_segments(segments, tol=1e-9 * span)


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


@pytest.mark.parametrize("stat,status", list(_contour_grids()))
def test_contour_matches_all_cells_loop(stat, status):
    stat = np.where(status == STATUS_OK, stat, np.nan)
    grid = RegionGrid(axes=(grid_axis(-1.0, 1.0, stat.shape[0]), grid_axis(0.0, 1.0, stat.shape[1])),
                      stat=stat, status=status, threshold=1.0, method="el", alpha=0.1,
                      order=(1, 1))
    got, want = extract_contour(grid), _reference_contour(grid)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


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
