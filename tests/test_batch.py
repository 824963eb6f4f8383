"""The batched dual kernel and the stacked paths built on it: batch
invariance, the rank-deficient psi rows at phi = theta, grid telemetry,
stacked model validation and stored coverage payloads (generated by the
per-replication implementation this kernel replaced, R = 50 each)."""

import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from elspec import (
    ArmaSpec,
    ConvergenceError,
    InvalidModelError,
    NoSolutionError,
    NoiseKind,
    compute_periodogram,
    max_companion_modulus,
    scan_region,
    simulate,
)
from elspec.arma import stationary_invertible
from elspec.cli import main
from elspec.confidence import STATUS_FAILED, STATUS_INVALID, STATUS_NO_SOLUTION, STATUS_OK
from elspec.el import (
    _SINGULAR,
    MAX_HALF_LOG,
    PsiMatrix,
    adjust,
    adjust_rows,
    solve_dual,
    solve_duals,
)
from elspec.whittle import psi_profile

GOLDEN = Path(__file__).parent / "data" / "golden_coverage"


@st.composite
def psi_batches(draw):
    """Random (N, m, k) stacks mixing solvable problems, one-sided ones
    (zero far outside the hull of the rows) and exactly collinear ones, a
    cut, and random Newton starts (zero, small, moderate and large, so some
    are taken and some rejected)."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(4, 30))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, m, k)) + rng.choice([0.0, 0.4, 4.0], size=(n, 1, k))
    if k >= 2:
        collinear = rng.random(n) < 0.25
        rows[collinear, :, 1] = -rows[collinear, :, 0]
    cut = int(rng.integers(0, n + 1))
    start = rng.standard_normal((n, k)) * rng.choice([0.0, 0.05, 0.5, 5.0], size=(n, 1))
    return rows, cut, start


def _same(a, b, i, j):
    assert a.status[i] == b.status[j]
    assert a.iterations[i] == b.iterations[j]
    assert a.warm[i] == b.warm[j]
    if a.status[i] == STATUS_OK:
        assert abs(a.stat[i] - b.stat[j]) <= 1e-12 * max(1.0, abs(a.stat[i]))


@given(psi_batches())
@settings(max_examples=60, deadline=None)
def test_batch_invariance_and_nesting(batch):
    rows, cut, start = batch
    for stack, adjusted in ((rows, False), (adjust_rows(rows, MAX_HALF_LOG), True)):
        for x0 in (None, start):
            def part(sl):
                return solve_duals(stack[sl], adjusted, None if x0 is None else x0[sl])

            whole = part(slice(None))
            halves = [part(slice(None, cut)), part(slice(cut, None))]
            for i in range(len(stack)):
                _same(whole, part(slice(i, i + 1)), i, 0)
                half, j = (halves[0], i) if i < cut else (halves[1], i - cut)
                _same(whole, half, i, j)
    el = solve_duals(rows)
    ael = solve_duals(adjust_rows(rows, MAX_HALF_LOG), adjusted=True)
    both = (el.status == STATUS_OK) & (ael.status == STATUS_OK)
    assert np.all(ael.stat[both] <= el.stat[both] + 1e-9 * np.maximum(1.0, np.abs(el.stat[both])))
    assert not np.any(ael.status == STATUS_NO_SOLUTION)


@st.composite
def hull_stacks(draw):
    """Random (N, m, k) stacks with zero rows, collinear columns and
    one-sided problems, for the hull certificate."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(2, 30))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, m, k)) + rng.choice([0.0, 0.4, 4.0], size=(n, 1, k))
    if k >= 2:
        collinear = rng.random(n) < 0.3
        rows[collinear, :, 1] = -rows[collinear, :, 0]
    rows[rng.random((n, m)) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    return rows


def _max_min_weight(rows):
    """The largest s such that weights w_j >= s with sum_j w_j = 1 and
    sum_j w_j psi_j = 0 exist (-1 when none do): an LP in the original
    coordinates, positive exactly when zero is in the relative interior of
    the hull of the rows."""
    m, k = rows.shape
    lp = linprog(np.r_[np.zeros(m), -1.0], A_ub=np.c_[-np.eye(m), np.ones(m)], b_ub=np.zeros(m),
                 A_eq=np.r_[np.c_[rows.T, np.zeros(k)], [np.r_[np.ones(m), 0.0]]],
                 b_eq=np.r_[np.zeros(k), 1.0], bounds=[(0.0, None)] * m + [(None, None)])
    return lp.x[-1] if lp.status == 0 else -1.0


@given(hull_stacks())
@settings(max_examples=80, deadline=None)
def test_hull_certificate_matches_weight_lp(rows):
    res = solve_duals(rows)
    for i in range(len(rows)):
        assert (res.status[i] == STATUS_NO_SOLUTION) == (_max_min_weight(rows[i]) <= 1e-9)
    # the pseudo-observation always certifies: test the adjusted rows as plain ones
    adjusted = adjust_rows(rows, MAX_HALF_LOG)
    assert not np.any(solve_duals(adjusted).status == STATUS_NO_SOLUTION)


def test_solve_dual_is_the_single_problem_kernel():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((40, 2)) + 0.3
    sol = solve_dual(PsiMatrix(rows))
    res = solve_duals(rows[None])
    assert sol.stat == res.stat[0] and sol.inner_iterations == res.iterations[0]
    assert sol.residual == res.residual[0]
    with pytest.raises(NoSolutionError):
        solve_dual(PsiMatrix(rng.uniform(0.5, 2.0, size=(40, 2))))


def test_singular_newton_matrix_fails_only_its_problem():
    # one row a trillion times the others: the first Newton matrix has an
    # exactly zero pivot in floating point; at 1e10 the same rows still solve
    rows = np.array([[1.0, 0.0], [-1.0, 0.5], [0.2, -1.0], [-0.3, -0.4], [0.5, 0.9], [1e12, 1e9]])
    milder = rows.copy()
    milder[-1] = [1e10, 1e7]
    assert solve_duals(milder[None]).status[0] == STATUS_OK
    healthy = np.random.default_rng(0).standard_normal((6, 2)) + [0.1, 0.2]
    res = solve_duals(np.stack([healthy, rows, healthy]))
    assert list(res.status) == [STATUS_OK, STATUS_FAILED, STATUS_OK]
    assert res.reason[1] == _SINGULAR
    alone = solve_duals(healthy[None])
    for i in (0, 2):
        assert np.array_equal(res.xi[i], alone.xi[0])
        assert (res.stat[i], res.iterations[i], res.residual[i]) == (
            alone.stat[0], alone.iterations[0], alone.residual[0])
    with pytest.raises(ConvergenceError, match="singular"):
        solve_dual(PsiMatrix(rows))


def test_diagonal_nodes_match_single_solves(caplog):
    pg = compute_periodogram(simulate(ArmaSpec(ar=[0.5], ma=[0.3]), 60, NoiseKind.STANDARD_NORMAL,
                                      seed=11))
    box = [(0.0, 1.0), (0.0, 1.0)]
    for method in ("ael", "el"):
        with caplog.at_level(logging.DEBUG, logger="elspec"):
            caplog.clear()
            grid = scan_region(pg, (1, 1), box, 9, method=method)
        quiet = scan_region(pg, (1, 1), box, 9, method=method)
        np.testing.assert_array_equal(quiet.stat, grid.stat)
        np.testing.assert_array_equal(quiet.status, grid.status)
        for i, value in enumerate(grid.axes[0]):
            psi = psi_profile(pg, ArmaSpec(ar=[value], ma=[value]))
            try:
                want = solve_dual(adjust(psi, MAX_HALF_LOG) if method == "ael" else psi).stat
                status = STATUS_OK
            except NoSolutionError:
                want, status = np.nan, STATUS_NO_SOLUTION
            except ConvergenceError:
                want, status = np.nan, STATUS_FAILED
            assert grid.status[i, i] == status
            if status == STATUS_OK:
                assert grid.stat[i, i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_grid_telemetry():
    # the T=50 EL grid has nosolution nodes; non-ok nodes carry -1 and NaN
    ts = simulate(ArmaSpec(ar=[0.7], ma=[0.5]), 50, NoiseKind.STANDARD_NORMAL, seed=2)
    pg = compute_periodogram(ts)
    seen_other = False
    for method in ("el", "ael"):
        grid = scan_region(pg, (1, 1), [(0.0, 1.0), (0.0, 1.0)], 20, method=method)
        ok = grid.status == STATUS_OK
        assert grid.iterations.shape == grid.stat.shape == grid.residual.shape
        assert np.all(grid.residual[ok] < 1e-9)
        assert np.all(grid.iterations[ok] >= 0)
        assert np.all(grid.iterations[~ok] == -1)
        assert np.all(np.isnan(grid.residual[~ok]))
        seen_other |= bool((~ok).any())
    assert seen_other


def _roots_modulus(c):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.size == 0 or not np.any(c):
        return 0.0
    return float(np.max(np.abs(np.roots(np.concatenate(([1.0], -c))))))


@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_stacked_modulus_equals_roots(seed, r):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.6, 1.6, size=(40, r))
    coeffs[rng.random(coeffs.shape) < 0.3] = 0.0  # trailing and interior zeros
    coeffs[:3] = 0.0  # all-zero rows
    want = np.array([_roots_modulus(c) for c in coeffs])
    np.testing.assert_array_equal(max_companion_modulus(coeffs), want)
    assert max_companion_modulus(coeffs[5]) == want[5]


def test_stacked_validation_matches_armaspec_on_ar2_grid():
    # the grid reaches past the stationarity triangle of AR(2)
    phi1, phi2 = np.meshgrid(np.linspace(-2.2, 2.2, 45), np.linspace(-1.2, 1.2, 25), indexing="ij")
    ar = np.stack([phi1.ravel(), phi2.ravel()], axis=1)
    want = []
    for vec in ar:
        try:
            ArmaSpec(ar=vec)
            want.append(True)
        except InvalidModelError:
            want.append(False)
    got = stationary_invertible(ar, np.empty((len(ar), 0)))
    np.testing.assert_array_equal(got, want)
    assert 0 < got.sum() < got.size


def test_ar2_scan_statuses_match_per_node_specs():
    pg = compute_periodogram(simulate(ArmaSpec(ar=[0.5, 0.3]), 80, NoiseKind.STANDARD_NORMAL,
                                      seed=4))
    box = [(-0.5, 0.9), (-0.9, 0.05)]  # corners near the edges of the triangle
    grid = scan_region(pg, (2, 0), box, 15, method="el")
    for i, a in enumerate(grid.axes[0]):
        for j, b in enumerate(grid.axes[1]):
            try:
                spec = ArmaSpec(ar=[a, b])
            except InvalidModelError:
                assert grid.status[i, j] == STATUS_INVALID
                continue
            try:
                stat, status = solve_dual(psi_profile(pg, spec)).stat, STATUS_OK
            except NoSolutionError:
                stat, status = np.nan, STATUS_NO_SOLUTION
            except ConvergenceError:
                stat, status = np.nan, STATUS_FAILED
            assert grid.status[i, j] == status
            if status == STATUS_OK:
                assert grid.stat[i, j] == pytest.approx(stat, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("plan", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_golden_coverage_payload(plan, tmp_path):
    out = tmp_path / "coverage.csv"
    assert main(["coverage", "--plan", str(GOLDEN / f"{plan}.json"), "--out", str(out)]) == 0
    payload = "".join(ln for ln in out.read_text().splitlines(keepends=True) if not ln.startswith("#"))
    assert payload == (GOLDEN / f"{plan}.csv").read_text()


@pytest.mark.parametrize("plan", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_golden_coverage_without_numpy_seeding(plan, monkeypatch, tmp_path):
    # every replication's seeds come from the vectorized hash: a coverage
    # run that called SeedSequence or default_rng even once would fail here
    def forbidden(*args, **kwargs):
        raise AssertionError("per-replication numpy seeding")

    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    test_golden_coverage_payload(plan, tmp_path)
