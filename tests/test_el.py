import math

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
    el_stat,
    simulate,
    whittle_fit,
)
from elspec.confidence import method_stats
from elspec.el import (
    HALF_LOG,
    MAX_HALF_LOG,
    STATUS_NO_SOLUTION,
    STATUS_OK,
    PsiMatrix,
    adjust,
    solve_dual,
    solve_duals,
)


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
        out = adjust(PsiMatrix(rows), MAX_HALF_LOG)
        assert out.adjusted and out.m == 4
        a_n = MAX_HALF_LOG.a_n(3)
        assert out.a_n == a_n
        np.testing.assert_allclose(out.rows[-1], -(a_n / 3.0) * rows.sum(axis=0), rtol=1e-15)

    def test_zero_mean_rows_append_zero(self):
        rows = np.array([[1.0], [-1.0]])
        out = adjust(PsiMatrix(rows), MAX_HALF_LOG)
        assert np.array_equal(out.rows[-1], [0.0])

    def test_double_adjust_rejected(self):
        out = adjust(PsiMatrix(np.ones((5, 1))), MAX_HALF_LOG)
        with pytest.raises(InputError):
            adjust(out, MAX_HALF_LOG)

    def test_trim_winsorizes_only_the_mean(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((200, 1))
        rows[0, 0] = 1e6  # gross outlier
        plain = adjust(PsiMatrix(rows), HALF_LOG)
        trimmed = adjust(PsiMatrix(rows), AdjustmentPolicy("half_log", trim=True))
        assert np.array_equal(plain.rows[:-1], trimmed.rows[:-1])
        assert abs(trimmed.rows[-1, 0]) < abs(plain.rows[-1, 0])


class TestSolveDual:
    def test_all_zero_rows(self):
        sol = solve_dual(PsiMatrix(np.zeros((6, 2))))
        assert sol.converged
        assert sol.stat == 0.0
        assert np.array_equal(sol.xi, np.zeros(2))
        np.testing.assert_allclose(sol.weights, np.full(6, 1 / 6))

    def test_scalar_closed_form(self):
        # rows {-1, 2}: -1/(1-xi) + 2/(1+2 xi) = 0  =>  xi = 1/4,
        # stat = 2[ln(3/4) + ln(3/2)] = 2 ln(9/8)
        sol = solve_dual(PsiMatrix(np.array([[-1.0], [2.0]])))
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
        sol = solve_dual(PsiMatrix(rows))
        assert sol.xi[0] == pytest.approx(xi_star, abs=2e-6)

    def test_same_sign_rows_no_solution(self):
        with pytest.raises(NoSolutionError):
            solve_dual(PsiMatrix(np.array([[0.5], [2.0], [0.1]])))
        with pytest.raises(NoSolutionError):
            solve_dual(PsiMatrix(np.array([[-0.5], [-2.0]])))

    def test_hull_failure_k2_detected(self):
        # all rows strictly inside the positive quadrant: 0 outside the hull
        rng = np.random.default_rng(1)
        rows = rng.uniform(0.5, 2.0, size=(40, 2))
        with pytest.raises(NoSolutionError):
            solve_dual(PsiMatrix(rows))

    def test_adjustment_rescues_hull_failure(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(0.5, 2.0, size=(40, 2))
        sol = solve_dual(adjust(PsiMatrix(rows), MAX_HALF_LOG))
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
            solve_dual(PsiMatrix(rows))

    def test_rank_deficient_k3_inside_hull(self):
        rows = self._collinear_k3(163)
        res = solve_duals(rows[None])
        assert res.status[0] == STATUS_OK
        t = 1.0 + rows @ res.xi[0]
        assert np.linalg.norm((rows / t[:, None]).sum(axis=0)) < 1e-9
        sol = solve_dual(PsiMatrix(rows))
        assert sol.stat == res.stat[0] > 0.0
        assert np.all(sol.weights > 0)
        assert abs(sol.weights.sum() - 1.0) < 1e-12
        assert np.linalg.norm(sol.weights @ rows) < 1e-8

    def test_dual_objective_monotone_over_accepted_steps(self, monkeypatch):
        # record the dual objective f at the start (xi = 0) and after every
        # accepted step of the single problem
        trace = [0.0]
        line_search = elspec.el._line_search

        def recording(w, *args):
            accepted = line_search(w, *args)
            if accepted is None or accepted[0]:
                trace.append(float(w.f[0]))
            return accepted

        monkeypatch.setattr(elspec.el, "_line_search", recording)
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((60, 2)) + 0.4
        solve_dual(PsiMatrix(rows))
        trace = np.array(trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 1e-10 * (1.0 + np.abs(trace[:-1])))

    def test_weights_reconstruct_constraints(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rows = rng.standard_normal((50, 3)) + rng.uniform(-0.3, 0.3, size=3)
            sol = solve_dual(PsiMatrix(rows))
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
        base = solve_dual(PsiMatrix(rows)).stat
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(30)
            assert solve_dual(PsiMatrix(rows[perm])).stat == pytest.approx(base, abs=1e-9)

    def test_stat_invariant_under_joint_linear_map(self):
        # rows -> rows M' changes the basis, not the span: stat unchanged
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((40, 2)) + 0.1
        base = solve_dual(PsiMatrix(rows)).stat
        for seed in range(5):
            m = np.random.default_rng(100 + seed).standard_normal((2, 2))
            m += np.eye(2) * 2.0  # keep it comfortably nonsingular
            mapped = solve_dual(PsiMatrix(rows @ m.T)).stat
            assert mapped == pytest.approx(base, abs=1e-9)

    def test_residual_tolerance_met(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rows = rng.standard_normal((100, 2)) + 0.3
            assert solve_dual(PsiMatrix(rows)).residual < 1e-9

    def test_nonfinite_rows_rejected(self):
        with pytest.raises(InputError):
            solve_dual(PsiMatrix(np.array([[np.nan], [1.0]])))

    @given(seed=st.integers(0, 2**20), m=st.integers(5, 60), k=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_adjusted_solve_always_succeeds(self, seed, m, k):
        rows = np.random.default_rng(seed).standard_normal((m, k)) * 3.0 + 1.0
        sol = solve_dual(adjust(PsiMatrix(rows), MAX_HALF_LOG))
        assert sol.converged
        assert sol.stat >= 0.0

    def test_trimmed_psibar_is_certified(self):
        # The 99th-percentile clip zeroes the second component of psibar, so
        # the pseudo-observation lies on the first axis and every row has a
        # second component >= 0: zero is on the boundary of the hull.
        rows = np.array([(j, 0.0) for j in range(1, 120)] + [(1.0, 0.2)])
        trim = AdjustmentPolicy("max_half_log", trim=True)
        assert adjust(PsiMatrix(rows), trim).rows[-1, 1] == 0.0
        with pytest.raises(NoSolutionError):
            solve_dual(adjust(PsiMatrix(rows), trim))
        res = method_stats(rows[None], ("ael",), trim)["ael"]
        assert res.status[0] == STATUS_NO_SOLUTION and np.isnan(res.stat[0])
        # without trim the mean row certifies the same rows
        plain = method_stats(rows[None], ("ael",), MAX_HALF_LOG)["ael"]
        assert plain.status[0] == STATUS_OK
        assert plain.stat[0] == solve_dual(adjust(PsiMatrix(rows), MAX_HALF_LOG)).stat
        assert plain.stat[0] == pytest.approx(71.3127, abs=1e-4)


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
            sol = el_stat(ma1_pg_t2000, spec_hat, adjusted=adjusted, profile=True)
            assert sol.stat == pytest.approx(0.0, abs=1e-8)

    def test_nesting_on_grid(self, arma11_pg_t60):
        # adjusted stat never exceeds the unadjusted one where both solve
        checked = 0
        for phi in np.linspace(0.025, 0.975, 20):
            for theta in np.linspace(0.025, 0.975, 20):
                spec = ArmaSpec(ar=[phi], ma=[theta])
                try:
                    w = el_stat(arma11_pg_t60, spec, adjusted=False, profile=True).stat
                except (NoSolutionError, ConvergenceError):
                    continue
                wstar = el_stat(arma11_pg_t60, spec, adjusted=True, profile=True).stat
                assert wstar <= w + 1e-8
                checked += 1
        assert checked >= 350

    def test_full_vs_profile_dimensions(self, ma1_pg_t70):
        spec = ArmaSpec(ma=[0.25], sigma2=1.1)
        full = el_stat(ma1_pg_t70, spec, adjusted=True, profile=False)
        prof = el_stat(ma1_pg_t70, spec, adjusted=True, profile=True)
        assert full.xi.size == 2  # theta and sigma2
        assert prof.xi.size == 1

    def test_propagates_policy(self):
        # T = 15 gives n = 7 ordinates, where half_log's a_n = ln(7)/2 is
        # below max_half_log's 1
        pg = compute_periodogram(simulate(ArmaSpec(ma=[0.25]), 15, NoiseKind.STANDARD_NORMAL, seed=3))
        assert pg.n == 7 and HALF_LOG.a_n(pg.n) < MAX_HALF_LOG.a_n(pg.n)
        spec = ArmaSpec(ma=[0.6])
        a = el_stat(pg, spec, adjusted=True, profile=True, policy=HALF_LOG)
        b = el_stat(pg, spec, adjusted=True, profile=True, policy=MAX_HALF_LOG)
        # a smaller pseudo-observation pulls the statistic down less
        assert a.stat > b.stat
