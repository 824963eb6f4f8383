import logging
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import elspec.el
from elspec import (
    AdjustmentPolicy,
    ArmaSpec,
    ConvergenceError,
    InputError,
    NoiseKind,
    NoSolutionError,
    compute_periodogram,
    psi_profile,
    scan_region,
    simulate,
    whittle_fit,
)
from elspec.arma import lag_table
from elspec.confidence import method_stats
from elspec.el import (
    HALF_LOG,
    MAX_HALF_LOG,
    STATUS_FAILED,
    STATUS_NO_SOLUTION,
    STATUS_OK,
    adjust_rows,
    solve_dual,
    solve_duals,
)
from elspec.whittle import psi_profile_rows

from conftest import psi_full


class TestAdjustmentPolicy:
    def test_max_half_log_values(self):
        # ln(20)/2 = 1.4979 exceeds 1; ln(7)/2 = 0.9730 does not
        assert MAX_HALF_LOG.a_n(20) == pytest.approx(max(1.0, math.log(20) / 2), rel=1e-12)
        assert MAX_HALF_LOG.a_n(20) == pytest.approx(1.4979, abs=1e-4)
        assert MAX_HALF_LOG.a_n(7) == 1.0

    def test_half_log(self):
        assert HALF_LOG.a_n(20) == pytest.approx(math.log(20) / 2)

    def test_cap_at_half_n(self):
        # a_n stays o(n): never exceeds n/2, which binds at n = 1
        assert MAX_HALF_LOG.a_n(1) == 0.5

    def test_bad_rule_rejected(self):
        with pytest.raises(InputError):
            AdjustmentPolicy("bogus")

    def test_nonpositive_a_n_rejected(self):
        # ln(1)/2 = 0
        with pytest.raises(InputError):
            HALF_LOG.a_n(1)


class TestAdjust:
    def test_appends_minus_an_times_mean(self):
        rows = np.array([[1.0, 2.0], [3.0, -1.0], [-0.5, 0.5]])
        out = adjust_rows(rows, MAX_HALF_LOG)
        assert out.shape == (4, 2)
        a_n = MAX_HALF_LOG.a_n(3)
        np.testing.assert_allclose(out[-1], -(a_n / 3.0) * rows.sum(axis=0), rtol=1e-15)

    def test_zero_mean_rows_append_zero(self):
        rows = np.array([[1.0], [-1.0]])
        out = adjust_rows(rows, MAX_HALF_LOG)
        assert np.array_equal(out[-1], [0.0])


class TestSolveDual:
    def test_all_zero_rows(self):
        sol = solve_dual(np.zeros((6, 2)))
        assert sol.converged
        assert sol.stat == 0.0
        assert np.array_equal(sol.xi, np.zeros(2))
        np.testing.assert_allclose(sol.weights, np.full(6, 1 / 6))

    def test_scalar_closed_form(self):
        # rows {-1, 2}: -1/(1-xi) + 2/(1+2 xi) = 0  =>  xi = 1/4,
        # stat = 2[ln(3/4) + ln(3/2)] = 2 ln(9/8)
        sol = solve_dual(np.array([[-1.0], [2.0]]))
        assert sol.converged
        assert sol.xi[0] == pytest.approx(0.25, abs=1e-9)
        assert sol.stat == pytest.approx(2.0 * math.log(9.0 / 8.0), abs=1e-9)
        assert sol.residual < 1e-9

    def test_scalar_brute_force_oracle(self):
        # grid minimization of the dual objective on xi in (-0.5, 1)
        rows = np.array([[-1.0], [2.0]])
        grid = np.arange(-0.499999, 0.5, 1e-6)
        fvals = -(np.log1p(grid * -1.0) + np.log1p(grid * 2.0))
        xi_star = grid[np.argmin(fvals)]
        sol = solve_dual(rows)
        assert sol.xi[0] == pytest.approx(xi_star, abs=2e-6)

    def test_same_sign_rows_no_solution(self):
        with pytest.raises(NoSolutionError):
            solve_dual(np.array([[0.5], [2.0], [0.1]]))
        with pytest.raises(NoSolutionError):
            solve_dual(np.array([[-0.5], [-2.0]]))

    def test_hull_failure_k2_detected(self):
        # all rows strictly inside the positive quadrant: 0 outside the hull
        rng = np.random.default_rng(1)
        rows = rng.uniform(0.5, 2.0, size=(40, 2))
        with pytest.raises(NoSolutionError):
            solve_dual(rows)

    def test_adjustment_rescues_hull_failure(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(0.5, 2.0, size=(40, 2))
        sol = solve_dual(adjust_rows(rows, MAX_HALF_LOG), adjusted=True)
        assert sol.converged
        assert sol.stat > 0.0

    @staticmethod
    def _collinear_k3(seed):
        # drawn like the stacks of tests/test_batch.py, with column 1 the
        # negated column 0: the rows span a plane in R^3
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((20, 3)) + rng.choice([0.0, 0.4, 4.0], size=(1, 3))
        rows[:, 1] = -rows[:, 0]
        return rows

    def test_rank_deficient_k3_outside_hull(self):
        rows = self._collinear_k3(142)
        assert rows[:, 2].min() > 0.0  # d = e_3 separates zero from the rows
        res = solve_duals(rows[None])
        assert res.status[0] == STATUS_NO_SOLUTION
        assert res.iterations[0] == 0 and np.isnan(res.residual[0])
        with pytest.raises(NoSolutionError):
            solve_dual(rows)

    def test_rank_deficient_k3_inside_hull(self):
        rows = self._collinear_k3(163)
        res = solve_duals(rows[None])
        assert res.status[0] == STATUS_OK
        t = 1.0 + rows @ res.xi[0]
        assert np.linalg.norm((rows / t[:, None]).sum(axis=0)) < 1e-9
        sol = solve_dual(rows)
        assert sol.stat == res.stat[0] > 0.0
        assert np.all(sol.weights > 0)
        assert abs(sol.weights.sum() - 1.0) < 1e-12
        assert np.linalg.norm(sol.weights @ rows) < 1e-8

    def test_dual_objective_monotone_over_accepted_steps(self, monkeypatch):
        # record the dual objective f and min_j t_j at the start (xi = 0)
        # and after every step of the single problem
        trace = [(0.0, 1.0)]
        step = elspec.el._step

        def recording(w, *args):
            stuck = step(w, *args)
            trace.append((float(w.f[0]), float(w.t[0].min())))
            return stuck

        monkeypatch.setattr(elspec.el, "_step", recording)
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((60, 2)) + 0.4
        sol = solve_dual(rows)
        f, min_t = np.array(trace).T
        assert f.size == sol.inner_iterations + 1 >= 2
        assert np.all(min_t > 0.0)
        assert np.all(np.diff(f) <= 1e-10 * (1.0 + np.abs(f[:-1])))

    def test_node_once_pinned_at_t_one_over_m_solves(self):
        # This EL node is certified solvable, but an iterate held to
        # t_j >= 1/m + 1e-12 pinned there and stopped it as failed.
        pg = compute_periodogram(simulate(ArmaSpec(ar=[0.7], ma=[0.5]), 200, seed=0))
        grid = scan_region(pg, (1, 1), box=((0, 1), (0, 1)), steps=30, method="el")
        assert grid.status[16, 26] == STATUS_OK
        assert grid.stat[16, 26] == pytest.approx(316.232, abs=1e-3)
        assert grid.residual[16, 26] < 1e-9
        spec = ArmaSpec(ar=[grid.axes[0][16]], ma=[grid.axes[1][26]])
        rows = psi_profile(pg, spec)
        sol = solve_dual(rows)
        assert sol.stat == grid.stat[16, 26]
        # the multiplier equation sum_j psi_j / t_j = 0, with every t_j > 0
        t = 1.0 + rows @ sol.xi
        assert t.min() > 0.0
        assert np.linalg.norm((rows / t[:, None]).sum(axis=0)) < 1e-9

    def test_singular_trailing_direction_still_solves(self, monkeypatch):
        # once the squared Newton decrement meets eps the trailing step only
        # polishes: a NaN direction there leaves each problem solved at the
        # iterate it has
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((5, 40, 2)) + 0.3
        plain = solve_duals(rows)
        step, eps = elspec.el._step, np.finfo(float).eps

        def nan_when_met(w, d, lam2):
            return step(w, np.where(np.abs(lam2)[:, None] <= eps, np.nan, d), lam2)

        monkeypatch.setattr(elspec.el, "_step", nan_when_met)
        res = solve_duals(rows)
        assert np.all(res.status == STATUS_OK)
        assert np.array_equal(res.iterations, plain.iterations - 1)
        np.testing.assert_allclose(res.stat, plain.stat, rtol=1e-12)
        # each returned xi meets the stopping rule g'h^-1 g <= eps
        for x, xi in zip(rows, res.xi):
            r = x / (1.0 + x @ xi)[:, None]
            g = r.sum(axis=0)
            assert g @ np.linalg.solve(r.T @ r, g) <= eps

    def test_per_problem_fallback_is_logged(self, caplog):
        # one exactly singular h makes the batched solve raise; the others
        # are solved one by one, and one DEBUG record counts both
        h = np.stack([np.eye(2) * 2.0, np.zeros((2, 2)), np.array([[2.0, 1.0], [1.0, 3.0]])])
        g = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, 4.0]])
        with caplog.at_level(logging.DEBUG, logger="elspec"):
            caplog.clear()
            d = elspec.el._newton_directions(h, g)
        assert np.array_equal(d[0], np.linalg.solve(h[:1], g[:1, :, None])[0, :, 0])
        assert np.isnan(d[1]).all() and np.isfinite(d[2]).all()
        [record] = caplog.records
        assert record.levelno == logging.DEBUG and record.name.startswith("elspec")
        assert record.getMessage() == (
            "batched Newton solve of 3 problems raised; solved one by one, 1 singular")
        with caplog.at_level(logging.DEBUG, logger="elspec"):
            caplog.clear()
            elspec.el._newton_directions(h[[0, 2]], g[[0, 2]])
        assert not caplog.records

    def test_step_cap_fails_only_the_unfinished(self, monkeypatch):
        # rows {-1, 1} solve at xi = 0 and end after their trailing step;
        # rows {-1, 2} need more than three steps
        monkeypatch.setattr(elspec.el, "MAX_NEWTON_STEPS", 3)
        res = solve_duals(np.array([[[-1.0], [1.0]], [[-1.0], [2.0]]]))
        assert list(res.status) == [STATUS_OK, STATUS_FAILED]
        assert list(res.iterations) == [1, 3]
        assert res.stat[0] == 0.0 and np.isnan(res.stat[1])
        assert res.reason[1] == elspec.el._MAX_STEPS and res.residual[1] >= 1e-9

    def test_weights_reconstruct_constraints(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rows = rng.standard_normal((50, 3)) + rng.uniform(-0.3, 0.3, size=3)
            sol = solve_dual(rows)
            assert sol.converged
            assert abs(sol.weights.sum() - 1.0) < 1e-12
            assert np.all(sol.weights > 0)
            assert np.linalg.norm(sol.weights @ rows) < 1e-8
            # p_j = 1 / (m (1 + xi' psi_j))
            np.testing.assert_allclose(
                sol.weights, 1.0 / (50 * (1.0 + rows @ sol.xi)), rtol=1e-12
            )
            assert sol.stat >= 0.0

    def test_stat_invariant_under_row_permutation(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((30, 2)) + 0.2
        base = solve_dual(rows).stat
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(30)
            assert solve_dual(rows[perm]).stat == pytest.approx(base, abs=1e-9)

    def test_stat_invariant_under_joint_linear_map(self):
        # rows -> rows M' changes the basis, not the span: stat unchanged
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((40, 2)) + 0.1
        base = solve_dual(rows).stat
        for seed in range(5):
            m = np.random.default_rng(100 + seed).standard_normal((2, 2))
            m += np.eye(2) * 2.0  # keep it comfortably nonsingular
            mapped = solve_dual(rows @ m.T).stat
            assert mapped == pytest.approx(base, abs=1e-9)

    def test_residual_tolerance_met(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rows = rng.standard_normal((100, 2)) + 0.3
            assert solve_dual(rows).residual < 1e-9

    def test_zero_column_stack_rejected(self):
        with pytest.raises(InputError, match="no columns"):
            solve_duals(np.zeros((3, 8, 0)))
        with pytest.raises(InputError, match="no columns"):
            solve_dual(np.zeros((8, 0)))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 1), ()])
    def test_solve_dual_names_its_own_shape(self, shape):
        # 1-D rows are not read as one row of m columns or m rows of one
        with pytest.raises(InputError, match=r"must be \(m, k\), got shape " + re.escape(str(shape))):
            solve_dual(np.ones(shape))

    def test_nonfinite_rows_rejected(self):
        with pytest.raises(InputError):
            solve_dual(np.array([[np.nan], [1.0]]))

    @given(seed=st.integers(0, 2**20), m=st.integers(5, 60), k=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_adjusted_solve_always_succeeds(self, seed, m, k):
        rows = np.random.default_rng(seed).standard_normal((m, k)) * 3.0 + 1.0
        sol = solve_dual(adjust_rows(rows, MAX_HALF_LOG), adjusted=True)
        assert sol.converged
        assert sol.stat >= 0.0


@pytest.fixture(scope="module")
def grid_stacks():
    """Profile psi stacks of two simulated series: ARMA(1,1) at T = 40 on
    the cell centres of a 20 x 20 grid over (0,1)^2, whose phi = theta
    nodes have rank-1 rows, and ARMA(2,1) at T = 40 (k = 3), a quarter of
    its models with an AR root cancelled by the MA root (rank 2)."""
    nodes = (np.arange(20) + 0.5) / 20
    phi, theta = (g.reshape(-1, 1) for g in np.meshgrid(nodes, nodes, indexing="ij"))
    ts = simulate(ArmaSpec(ar=[0.7], ma=[0.5]), 40, NoiseKind.STANDARD_NORMAL, seed=4)
    pg = compute_periodogram(ts)
    arma11 = psi_profile_rows(lag_table(pg.freqs, 1), pg.ords, phi, theta)
    rng = np.random.default_rng(0)
    roots = rng.uniform(-0.8, 0.8, size=(80, 2))
    ar = np.stack([roots.sum(axis=1), -roots.prod(axis=1)], axis=1)
    ma = np.where(np.arange(80) < 20, roots[:, 0], rng.uniform(-0.8, 0.8, size=80))[:, None]
    ts = simulate(ArmaSpec(ar=[0.5, 0.2], ma=[0.4]), 40, NoiseKind.STANDARD_NORMAL, seed=3)
    pg = compute_periodogram(ts)
    return {"arma11": arma11, "arma21": psi_profile_rows(lag_table(pg.freqs, 2), pg.ords, ar, ma)}


class TestAdjustedExistence:
    """solve_dual and method_stats trust rows built by adjust_rows; the hull
    certificate, run on those rows as an independent oracle, must agree
    that every adjusted problem has a solution."""

    def test_stacks_include_rank_deficient_problems(self, grid_stacks):
        for rows in grid_stacks.values():
            k = rows.shape[2]
            ranks = np.array([np.linalg.matrix_rank(r) for r in rows])
            assert np.count_nonzero(ranks == k - 1) >= 20 and np.count_nonzero(ranks == k) > 0

    @pytest.mark.parametrize("policy", [MAX_HALF_LOG, HALF_LOG], ids=lambda p: p.rule)
    @pytest.mark.parametrize("model", ["arma11", "arma21"])
    def test_certificate_passes_every_adjusted_problem(self, grid_stacks, policy, model):
        rows = grid_stacks[model]
        cert = solve_duals(adjust_rows(rows, policy), adjusted=False)
        assert np.all(cert.status == STATUS_OK)
        for i in range(rows.shape[0]):
            ref = solve_duals(adjust_rows(rows[i:i + 1], policy), adjusted=False)
            sol = solve_dual(adjust_rows(rows[i], policy), adjusted=True)
            assert ref.status[0] == STATUS_OK
            assert sol.stat == ref.stat[0]
            assert sol.inner_iterations == ref.iterations[0]


class TestSolveDualsStart:
    """The optional start of solve_duals: where it is taken, and that a
    rejected start is a cold start."""

    @staticmethod
    def _stack():
        # solvable, one-sided (no solution) and collinear problems
        rng = np.random.default_rng(21)
        rows = rng.standard_normal((8, 40, 2)) + rng.choice([0.0, 0.3], size=(8, 1, 2))
        rows[2] = np.abs(rows[2])
        rows[5, :, 1] = -0.5 * rows[5, :, 0]
        return rows

    def test_none_and_zero_start_are_the_cold_solve(self):
        rows = self._stack()
        for stack, adjusted in ((rows, False), (adjust_rows(rows, MAX_HALF_LOG), True)):
            cold = solve_duals(stack, adjusted)
            zero = solve_duals(stack, adjusted, start=np.zeros((len(stack), 2)))
            assert not cold.warm.any() and not zero.warm.any()
            for name in ("stat", "status", "iterations", "residual", "xi", "reason"):
                np.testing.assert_array_equal(getattr(zero, name), getattr(cold, name))

    def test_rejected_start_is_cold(self):
        rows = self._stack()
        start = np.empty((len(rows), 2))
        for i, psi in enumerate(rows):
            if i % 2:  # outside the domain: t_j = -1 at the largest row
                j = np.argmax(np.sum(psi * psi, axis=1))
                start[i] = -2.0 * psi[j] / (psi[j] @ psi[j])
                assert np.min(1.0 + psi @ start[i]) < 0.0
            else:  # a short step up the dual: in the domain, f > 0 = f(0)
                up = -psi.sum(axis=0)
                start[i] = 1e-3 * up / (np.abs(psi @ up).max())
                t = 1.0 + psi @ start[i]
                assert t.min() > 0.0 and -np.log(t).sum() >= 0.0
        for stack, adjusted in ((rows, False), (adjust_rows(rows, MAX_HALF_LOG), True)):
            cold = solve_duals(stack, adjusted)
            res = solve_duals(stack, adjusted, start=start)
            assert not res.warm.any()
            np.testing.assert_array_equal(res.status, cold.status)
            np.testing.assert_array_equal(res.iterations, cold.iterations)
            np.testing.assert_array_equal(res.stat, cold.stat)

    def test_start_at_the_solution_ends_at_once(self):
        rows = self._stack()
        for stack, adjusted in ((rows, False), (adjust_rows(rows, MAX_HALF_LOG), True)):
            cold = solve_duals(stack, adjusted)
            ok = cold.status == STATUS_OK
            assert ok.sum() >= 6 and cold.iterations[ok].min() >= 4
            res = solve_duals(stack, adjusted, start=cold.xi)
            np.testing.assert_array_equal(res.status, cold.status)
            assert np.all(res.warm[ok]) and np.all(res.iterations[ok] <= 2)
            np.testing.assert_allclose(res.stat[ok], cold.stat[ok], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("adjusted", [False, True])
    def test_collinear_rows_solve_as_in_their_span(self, adjusted):
        # rank-1 rows padded with a zero column against the same problems
        # posed as k = 1, mixed with full-rank problems, cold and warm
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((6, 30, 2)) + 0.2
        rows[::2, :, 1] = 1.7 * rows[::2, :, 0]
        if adjusted:
            rows = adjust_rows(rows, MAX_HALF_LOG)
        v = np.linalg.svd(rows[::2], full_matrices=False)[2][:, :1].transpose(0, 2, 1)
        span = rows[::2] @ v
        eta0 = 0.5 * solve_duals(span, adjusted).xi
        start = rng.standard_normal((6, 2)) * 0.01
        start[::2] = (v @ eta0[:, :, None])[:, :, 0]
        for x0, s0 in ((None, None), (start, eta0)):
            padded = solve_duals(rows, adjusted, start=x0)
            alone = solve_duals(span, adjusted, start=s0)
            np.testing.assert_array_equal(padded.status[::2], STATUS_OK)
            np.testing.assert_array_equal(padded.iterations[::2], alone.iterations)
            np.testing.assert_array_equal(padded.warm[::2], alone.warm)
            np.testing.assert_allclose(padded.stat[::2], alone.stat, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(padded.xi[::2], (v @ alone.xi[:, :, None])[:, :, 0],
                                       rtol=1e-12, atol=1e-12)
        assert alone.warm.all()

    def test_start_shape_and_values_checked(self):
        rows = self._stack()
        for bad in (np.zeros((len(rows), 3)), np.full((len(rows), 2), np.nan)):
            with pytest.raises(InputError, match="start"):
                solve_duals(rows, start=bad)


@st.composite
def dual_stacks(draw):
    """Random (N, m, k) stacks like tests/test_batch.py's psi_batches, each
    column scaled by a power of ten: solvable, one-sided and collinear
    problems at mixed scales."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(4, 30))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, m, k)) + rng.choice([0.0, 0.4, 4.0], size=(n, 1, k))
    if k >= 2:
        collinear = rng.random(n) < 0.25
        rows[collinear, :, 1] = -rows[collinear, :, 0]
    return rows * 10.0 ** rng.integers(-3, 4, size=(n, 1, k))


@given(dual_stacks())
@settings(max_examples=60, deadline=None)
def test_every_step_stays_in_domain_and_never_raises_f(rows):
    # f and min_j t_j of every running problem before and after each step,
    # on the plain rows and on the adjusted ones (which every problem solves)
    steps = []
    step = elspec.el._step

    def recording(w, *args):
        before = w.f.copy()
        stuck = step(w, *args)
        steps.append((before, w.f.copy(), w.t.min(axis=1)))
        return stuck

    with mock.patch.object(elspec.el, "_step", recording):
        solve_duals(rows)
        solve_duals(adjust_rows(rows, MAX_HALF_LOG), adjusted=True)
    assert steps
    for before, after, min_t in steps:
        assert np.all(min_t > 0.0)
        assert np.all(after <= before + 1e-10 * (1.0 + np.abs(before)))


def _stat(pg, spec, adjusted, profile=True, policy=MAX_HALF_LOG):
    """EL or adjusted-EL statistic of one parameter value from the profile
    (or full-form) psi rows."""
    rows = psi_profile(pg, spec) if profile else psi_full(pg, spec)
    return solve_dual(adjust_rows(rows, policy) if adjusted else rows, adjusted=adjusted)


class TestElStat:
    def test_zero_at_whittle_estimate(self, ma1_pg_t2000):
        fit = whittle_fit(ma1_pg_t2000, (0, 1), profile=True)
        # polish the fitted point so the score is tiny at the test point
        from scipy.optimize import minimize
        from elspec import profile_loglik

        res = minimize(
            lambda x: -profile_loglik(ma1_pg_t2000, ArmaSpec.from_beta1((0, 1), x, validate=False)),
            fit.estimate, method="Nelder-Mead",
            options=dict(xatol=1e-12, fatol=1e-15, maxiter=500),
        )
        spec_hat = ArmaSpec.from_beta1((0, 1), res.x)
        for adjusted in (False, True):
            sol = _stat(ma1_pg_t2000, spec_hat, adjusted)
            assert sol.stat == pytest.approx(0.0, abs=1e-8)

    def test_nesting_on_grid(self, arma11_pg_t60):
        # adjusted stat never exceeds the unadjusted one where both solve
        checked = 0
        for phi in np.linspace(0.025, 0.975, 20):
            for theta in np.linspace(0.025, 0.975, 20):
                spec = ArmaSpec(ar=[phi], ma=[theta])
                try:
                    w = _stat(arma11_pg_t60, spec, False).stat
                except (NoSolutionError, ConvergenceError):
                    continue
                wstar = _stat(arma11_pg_t60, spec, True).stat
                assert wstar <= w + 1e-8
                checked += 1
        assert checked >= 350

    def test_full_vs_profile_dimensions(self, ma1_pg_t70):
        spec = ArmaSpec(ma=[0.25], sigma2=1.1)
        full = _stat(ma1_pg_t70, spec, True, profile=False)
        prof = _stat(ma1_pg_t70, spec, True)
        assert full.xi.size == 2  # theta and sigma2
        assert prof.xi.size == 1

    def test_propagates_policy(self):
        # T = 15 gives n = 7 ordinates, where half_log's a_n = ln(7)/2 is
        # below max_half_log's 1
        pg = compute_periodogram(simulate(ArmaSpec(ma=[0.25]), 15, NoiseKind.STANDARD_NORMAL, seed=3))
        assert pg.n == 7 and HALF_LOG.a_n(pg.n) < MAX_HALF_LOG.a_n(pg.n)
        spec = ArmaSpec(ma=[0.6])
        a = _stat(pg, spec, True, policy=HALF_LOG)
        b = _stat(pg, spec, True, policy=MAX_HALF_LOG)
        # a smaller pseudo-observation pulls the statistic down less
        assert a.stat > b.stat
