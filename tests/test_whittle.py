import itertools
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar

from elspec import (
    ArmaSpec,
    DegenerateInputError,
    NoiseKind,
    Periodogram,
    TimeSeries,
    all_fourier_ordinates,
    compute_periodogram,
    el_stat,
    interval_1d,
    profile_loglik,
    profile_sigma2,
    psi_full,
    psi_profile,
    sandwich,
    scan_region,
    simulate,
    spectrum_shape,
    whittle_fit,
    whittle_loglik,
)
from elspec.arma import STATIONARITY_MARGIN, max_companion_modulus
from elspec.errors import InputError
from elspec.periodogram import periodogram_stack
from elspec.whittle import (
    _bfgs_path,
    _lockstep,
    _neg_loglik_stack,
    _pacf_coefficients,
    _pacf_from_coefficients,
)

TWO_PI = 2.0 * math.pi


def _polish_profile(pg, order, x0):
    """High-precision profile maximizer via derivative-free refinement,
    independent of the psi machinery (test oracle)."""
    res = minimize(
        lambda x: -profile_loglik(pg, ArmaSpec.from_beta1(order, x, validate=False)),
        np.atleast_1d(x0),
        method="Nelder-Mead",
        options=dict(xatol=1e-12, fatol=1e-15, maxiter=2000),
    )
    return res.x


def _fixed_starts(order, profile, pg):
    """The fit's fixed starts in u: 0 and, for p + q >= 2, the corners at
    partial autocorrelation +-1/2 (plus log(2 pi mean I) in full fits)."""
    k = sum(order)
    s0 = [] if profile else [np.log(TWO_PI * np.mean(pg.ords))]
    corners = itertools.product((-1.0, 1.0), repeat=k) if k >= 2 else ()
    return [np.append(np.arctanh(0.5) * np.array(c), s0) for c in [[0.0] * k, *corners]]


def _oracle_objective(pg, order, profile):
    """-L/n and its u-gradient one point at a time, from profile_loglik /
    whittle_loglik and the psi column sums (test oracle of the batched
    evaluation); also returns the map from u to the spec."""
    p, q = order
    loglik = profile_loglik if profile else whittle_loglik

    def spec_at(x):
        ar, jar = _pacf_coefficients(x[:p])
        ma, jma = _pacf_coefficients(x[p : p + q])
        return ArmaSpec(ar, ma, 1.0 if profile else math.exp(x[-1]), validate=False), jar, jma

    def objective(x):
        spec, jar, jma = spec_at(x)
        score = (psi_profile(pg, spec) if profile else psi_full(pg, spec)).rows.sum(axis=0)
        grad = np.concatenate([score[:p] @ jar, score[p : p + q] @ jma, score[p + q :] * spec.sigma2])
        return -loglik(pg, spec) / pg.n, -grad / pg.n

    return objective, spec_at


def _scipy_bfgs_fit(pg, order, profile=True):
    """Test oracle of whittle_fit: scipy's BFGS (gtol 1e-9) from the same
    fixed starts, one after another; the lowest end point wins, ties going
    to the earliest start.  Returns the partial autocorrelations, the
    estimate and the loglik."""
    objective, spec_at = _oracle_objective(pg, order, profile)
    ends = [minimize(objective, x0, jac=True, method="BFGS", options=dict(gtol=1e-9, maxiter=2000))
            for x0 in _fixed_starts(order, profile, pg)]
    best = min(ends, key=lambda res: res.fun)
    spec = spec_at(best.x)[0]
    loglik = profile_loglik(pg, spec) if profile else whittle_loglik(pg, spec)
    return np.tanh(best.x[: sum(order)]), spec.beta1 if profile else spec.beta, loglik


class TestWhittleLoglik:
    def test_model_spectrum_as_data(self):
        # I_j = g_j makes every ratio term one: loglik = -sum ln g_j - n
        spec = ArmaSpec(ar=[0.5], sigma2=1.3)
        freqs = TWO_PI * np.arange(1, 11) / 24
        g = spec.sigma2 * spectrum_shape(spec, freqs)
        pg = Periodogram(freqs=freqs, ords=g, T=24)
        assert whittle_loglik(pg, spec) == pytest.approx(-np.log(g).sum() - 10, rel=1e-12)

    def test_white_noise_closed_form(self, ma1_pg_t70):
        pg = ma1_pg_t70
        spec = ArmaSpec(sigma2=1.0)
        expected = -pg.n * math.log(1.0 / TWO_PI) - TWO_PI * pg.ords.sum()
        assert whittle_loglik(pg, spec) == pytest.approx(expected, rel=1e-12)

    def test_truth_beats_wrong_parameter_at_large_t(self, ma1_pg_t2000):
        assert whittle_loglik(ma1_pg_t2000, ArmaSpec(ma=[0.5])) > whittle_loglik(
            ma1_pg_t2000, ArmaSpec(ma=[0.9])
        )

    def test_invariant_to_ordinate_ordering(self, ma1_pg_t70):
        pg = ma1_pg_t70
        perm = np.random.default_rng(0).permutation(pg.n)
        shuffled = Periodogram(freqs=pg.freqs[perm], ords=pg.ords[perm], T=pg.T)
        spec = ArmaSpec(ma=[0.4])
        assert whittle_loglik(shuffled, spec) == pytest.approx(
            whittle_loglik(pg, spec), rel=1e-12
        )


class TestProfileLoglik:
    def test_profile_equals_max_over_sigma2(self, ma1_pg_t70):
        # 10-point grid: profile value matches a numeric 1-D maximization,
        # with a beta1-independent constant (here zero)
        pg = ma1_pg_t70
        diffs = []
        for theta in np.linspace(-0.8, 0.8, 10):
            spec1 = ArmaSpec(ma=[theta])
            prof = profile_loglik(pg, spec1)
            res = minimize_scalar(
                lambda ls2: -whittle_loglik(pg, ArmaSpec(ma=[theta], sigma2=math.exp(ls2))),
                bounds=(-6, 6), method="bounded",
                options=dict(xatol=1e-12),
            )
            diffs.append(prof - (-res.fun))
        assert np.max(np.abs(diffs)) < 1e-4
        assert np.ptp(diffs) < 1e-4

    def test_profile_maximizer_matches_joint_fit(self, ma1_pg_t70):
        prof_fit = whittle_fit(ma1_pg_t70, (0, 1), profile=True)
        joint_fit = whittle_fit(ma1_pg_t70, (0, 1), profile=False)
        assert prof_fit.converged and joint_fit.converged
        assert prof_fit.estimate[0] == pytest.approx(joint_fit.estimate[0], abs=1e-4)
        # implied sigma2 agrees with the jointly fitted one
        s2 = profile_sigma2(ma1_pg_t70, ArmaSpec.from_beta1((0, 1), prof_fit.estimate))
        assert s2 == pytest.approx(joint_fit.estimate[1], rel=1e-3)

    def test_ma0_constant(self, ma1_pg_t70):
        # no free parameters: value computed directly with g1 = 1/(2 pi)
        pg = ma1_pg_t70
        expected = -pg.n * math.log(np.mean(TWO_PI * pg.ords)) + pg.n * math.log(TWO_PI) - pg.n
        assert profile_loglik(pg, ArmaSpec()) == pytest.approx(expected, rel=1e-12)

    def test_finite_on_open_unit_grid(self, arma11_pg_t60):
        # 50x50 grid strictly inside (0,1)^2
        vals = []
        for phi in np.linspace(0.01, 0.99, 50):
            for theta in np.linspace(0.01, 0.99, 50):
                vals.append(profile_loglik(arma11_pg_t60, ArmaSpec(ar=[phi], ma=[theta])))
        assert np.all(np.isfinite(vals))

    def test_sigma2_convention(self, ma1_pg_t70):
        # sigma2_hat = n^{-1} sum I_j / g1_j
        pg = ma1_pg_t70
        spec = ArmaSpec(ma=[0.3])
        g1 = spectrum_shape(spec, pg.freqs)
        assert profile_sigma2(pg, spec) == pytest.approx(np.mean(pg.ords / g1), rel=1e-14)


class TestPsiFull:
    def test_zero_when_data_equals_model(self):
        spec = ArmaSpec(ar=[0.4], sigma2=2.0)
        freqs = TWO_PI * np.arange(1, 16) / 40
        g = spec.sigma2 * spectrum_shape(spec, freqs)
        pg = Periodogram(freqs=freqs, ords=g, T=40)
        assert np.allclose(psi_full(pg, spec).rows, 0.0, atol=1e-14)

    def test_white_noise_reduces_to_ratio_over_sigma2(self, ma1_pg_t70):
        # ln g = ln sigma2 - ln 2pi, so psi_j = (I_j/g_j - 1)/sigma2
        pg = ma1_pg_t70
        spec = ArmaSpec(sigma2=1.7)
        g = spec.sigma2 / TWO_PI
        expected = (pg.ords / g - 1.0) / spec.sigma2
        np.testing.assert_allclose(psi_full(pg, spec).rows[:, 0], expected, rtol=1e-12)

    def test_column_sums_vanish_at_maximizer(self, ma1_pg_t70):
        # first-order condition of the joint likelihood: the root of the psi
        # column sums sits at the likelihood maximizer
        from scipy.optimize import root

        pg = ma1_pg_t70
        fit = whittle_fit(pg, (0, 1), profile=False)
        sol = root(
            lambda x: psi_full(pg, ArmaSpec.from_beta((0, 1), x, validate=False)).rows.sum(axis=0),
            fit.estimate,
            tol=1e-12,
        )
        assert sol.success
        spec_hat = ArmaSpec.from_beta((0, 1), sol.x)
        colsums = psi_full(pg, spec_hat).rows.sum(axis=0)
        assert np.linalg.norm(colsums) < 1e-8
        # the root is the fitted maximizer (within its tolerance) and no
        # nearby point has higher likelihood
        np.testing.assert_allclose(sol.x, fit.estimate, atol=1e-3)
        base = whittle_loglik(pg, spec_hat)
        assert base >= fit.loglik - 1e-6
        for delta in ([1e-4, 0.0], [-1e-4, 0.0], [0.0, 1e-4], [0.0, -1e-4]):
            nearby = ArmaSpec.from_beta((0, 1), sol.x + np.array(delta))
            assert whittle_loglik(pg, nearby) <= base + 1e-12

    def test_colsum_norm_bound_at_fit_output(self, ma1_pg_t2000):
        fit = whittle_fit(ma1_pg_t2000, (0, 1), profile=False)
        colsums = psi_full(ma1_pg_t2000, fit.to_spec()).rows.sum(axis=0)
        assert np.linalg.norm(colsums) < 1e-6 * ma1_pg_t2000.n


class TestPsiProfile:
    def test_degenerate_gradient_gives_zero_matrix(self, ma1_pg_t70):
        # AR(1) at phi=0, omega grid symmetric? Not degenerate; use the
        # genuinely degenerate case: no free parameters
        rows = psi_profile(ma1_pg_t70, ArmaSpec()).rows
        assert rows.shape == (34, 0)

    def test_column_sums_vanish_at_profile_maximizer(self, ma1_pg_t70):
        from scipy.optimize import brentq

        pg = ma1_pg_t70
        fit = whittle_fit(pg, (0, 1), profile=True)
        bhat = fit.estimate[0]

        def colsum(b):
            return float(
                psi_profile(pg, ArmaSpec.from_beta1((0, 1), [b], validate=False)).rows.sum()
            )

        root = brentq(colsum, bhat - 0.05, bhat + 0.05, xtol=1e-14)
        assert abs(colsum(root)) < 1e-8
        # the score root is the profile maximizer found independently
        assert root == pytest.approx(bhat, abs=1e-3)
        base = profile_loglik(pg, ArmaSpec.from_beta1((0, 1), [root]))
        for delta in (1e-4, -1e-4):
            nearby = profile_loglik(pg, ArmaSpec.from_beta1((0, 1), [root + delta]))
            assert nearby <= base + 1e-12

    def test_rows_match_fd_gradient_oracle(self):
        # studentized ratio times the centered finite-difference gradient
        spec = ArmaSpec(ma=[0.5])
        ts = simulate(spec, 70, NoiseKind.STANDARD_NORMAL, seed=77)
        pg = compute_periodogram(ts)
        g1 = spectrum_shape(spec, pg.freqs)
        h = 1e-6
        up = np.log(spectrum_shape(ArmaSpec(ma=[0.5 + h]), pg.freqs))
        dn = np.log(spectrum_shape(ArmaSpec(ma=[0.5 - h]), pg.freqs))
        d = (up - dn) / (2 * h)
        ratio = pg.ords / g1
        expected = (ratio / ratio.mean() - 1.0) * (d - d.mean())
        np.testing.assert_allclose(psi_profile(pg, spec).rows[:, 0], expected, atol=1e-5)

    def test_score_identity_with_profile_loglik(self, arma11_pg_t60):
        # column sums equal the numeric gradient of the profile loglik
        pg = arma11_pg_t60
        spec = ArmaSpec(ar=[0.55], ma=[0.35])
        colsums = psi_profile(pg, spec).rows.sum(axis=0)
        h = 1e-6
        for i in range(2):
            up = np.array([0.55, 0.35])
            dn = up.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                profile_loglik(pg, ArmaSpec.from_beta1((1, 1), up))
                - profile_loglik(pg, ArmaSpec.from_beta1((1, 1), dn))
            ) / (2 * h)
            assert colsums[i] == pytest.approx(fd, abs=1e-4)


class TestWhittleFit:
    def test_ma1_consistency(self, ma1_pg_t2000):
        fit = whittle_fit(ma1_pg_t2000, (0, 1), profile=True)
        assert fit.converged
        assert 0.45 <= fit.estimate[0] <= 0.55

    def test_ar1_consistency(self):
        ts = simulate(ArmaSpec(ar=[0.7]), 2000, NoiseKind.STANDARD_NORMAL, seed=4)
        fit = whittle_fit(compute_periodogram(ts), (1, 0), profile=True)
        assert fit.converged
        assert 0.65 <= fit.estimate[0] <= 0.75

    def test_init_matches_multistart(self):
        ts = simulate(ArmaSpec(ar=[0.6], ma=[0.3]), 2000, NoiseKind.STANDARD_NORMAL, seed=21)
        pg = compute_periodogram(ts)
        from_truth = whittle_fit(pg, (1, 1), profile=True, init=[0.6, 0.3])
        multi = whittle_fit(pg, (1, 1), profile=True)
        assert from_truth.converged
        np.testing.assert_allclose(from_truth.estimate, multi.estimate, atol=1e-3)

    def test_nonconvergence_reported_via_flag(self, ma1_pg_t70):
        fit = whittle_fit(ma1_pg_t70, (0, 1), profile=True, max_iter=3)
        assert not fit.converged

    def test_zero_order_profile(self, ma1_pg_t70):
        fit = whittle_fit(ma1_pg_t70, (0, 0), profile=True)
        assert fit.converged and fit.estimate.size == 0

    @pytest.mark.parametrize("profile", [True, False])
    def test_repeat_fit_bitwise_equal(self, arma11_pg_t60, profile):
        a = whittle_fit(arma11_pg_t60, (1, 1), profile=profile)
        b = whittle_fit(arma11_pg_t60, (1, 1), profile=profile)
        assert np.array_equal(a.estimate, b.estimate)
        assert (a.loglik, a.iterations, a.converged) == (b.loglik, b.iterations, b.converged)

    def test_init_outside_region_rejected(self, ma1_pg_t70):
        with pytest.raises(InputError):
            whittle_fit(ma1_pg_t70, (0, 1), init=[1.5])

    def test_joint_white_noise_sigma2(self, ma1_pg_t70):
        # order (0,0) joint fit: sigma2_hat = 2 pi mean(I)
        fit = whittle_fit(ma1_pg_t70, (0, 0), profile=False)
        assert fit.converged
        assert fit.estimate[0] == pytest.approx(TWO_PI * np.mean(ma1_pg_t70.ords), rel=1e-4)


# ARMA(1,1) at T = 100 over 20 seeds, one ARMA(2,1) at T = 500, and one
# full (sigma2 = exp(s)) fit: (ar, ma, T, seed, profile)
ORACLE_CASES = [((0.7,), (0.5,), 100, seed, True) for seed in range(20)] + [
    ((0.5, 0.3), (0.4,), 500, 0, True),
    ((0.7,), (0.5,), 100, 0, False),
]


class TestBatchedBfgs:
    @pytest.mark.parametrize("ar, ma, T, seed, profile", ORACLE_CASES)
    def test_matches_scipy_bfgs_oracle(self, ar, ma, T, seed, profile):
        pg = compute_periodogram(simulate(ArmaSpec(ar=list(ar), ma=list(ma)), T,
                                          NoiseKind.STANDARD_NORMAL, seed=seed))
        order = (len(ar), len(ma))
        fit = whittle_fit(pg, order, profile=profile)
        pacf, estimate, loglik = _scipy_bfgs_fit(pg, order, profile)
        assert fit.converged
        assert fit.loglik >= loglik - 1e-9 * abs(loglik)
        # a boundary estimate is fixed only to about 1e-4 (the score's factor
        # 1 - r^2 vanishes there); an interior one to the score tolerance
        tol = 1e-6 if np.all(np.abs(pacf) < 0.999) else 1e-4
        np.testing.assert_allclose(fit.estimate, estimate, rtol=0, atol=tol)

    @pytest.mark.parametrize("order", [(1, 1), (2, 1)])
    def test_stack_matches_pointwise_oracle(self, arma11_pg_t60, order):
        pg = arma11_pg_t60
        objective, _ = _oracle_objective(pg, order, True)
        u = np.random.default_rng(3).uniform(-2.0, 2.0, (6, sum(order)))
        values, grads = _neg_loglik_stack(pg, order, u)
        for x, value, grad in zip(u, values, grads):
            want_value, want_grad = objective(x)
            assert value == pytest.approx(want_value, rel=1e-13)
            np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("order", [(1, 1), (2, 1)])
    def test_start_does_not_depend_on_its_batch(self, arma11_pg_t60, order):
        def objective(u):
            return _neg_loglik_stack(arma11_pg_t60, order, u)

        starts = _fixed_starts(order, True, arma11_pg_t60)
        together = _lockstep(objective, [_bfgs_path(x0, 2000) for x0 in starts])
        for x0, (x, f, g, steps) in zip(starts, together):
            [(x1, f1, g1, steps1)] = _lockstep(objective, [_bfgs_path(x0, 2000)])
            assert np.array_equal(x, x1) and f == f1 and np.array_equal(g, g1)
            assert steps == steps1

    @pytest.mark.parametrize("order", [(0, 1), (1, 1), (2, 1)])
    def test_iteration_cap_reported_as_nonconvergence(self, ma1_pg_t70, order):
        fit = whittle_fit(ma1_pg_t70, order, max_iter=3)
        assert not fit.converged
        assert fit.iterations <= 3


class TestJointFitIsProfileFit:
    """A full fit (profile=False) is the profile fit with the profiled sigma2
    appended: sigma2 profiles out of the Whittle likelihood exactly."""

    @pytest.mark.parametrize("order", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)])
    def test_joint_fit_extends_profile_fit(self, order):
        p, q = order
        spec = ArmaSpec(ar=[0.5, 0.3][:p], ma=[0.4][:q])
        pg = compute_periodogram(simulate(spec, 150, NoiseKind.STANDARD_NORMAL, seed=11))
        prof = whittle_fit(pg, order, profile=True)
        joint = whittle_fit(pg, order, profile=False)
        assert np.array_equal(joint.estimate[:-1], prof.estimate)
        assert joint.estimate[-1] == profile_sigma2(pg, prof.to_spec())
        assert (joint.iterations, joint.converged) == (prof.iterations, prof.converged)
        assert joint.loglik == whittle_loglik(pg, joint.to_spec())

    @pytest.mark.parametrize("T, seed", [(50, 16), (200, 25)])
    def test_joint_fit_takes_the_profile_mode(self, T, seed):
        # series on which a separate optimizer over (u, log sigma2) ended on a
        # lower mode than the profile fit
        pg = compute_periodogram(simulate(ArmaSpec(ar=[0.7], ma=[0.5]), T,
                                          NoiseKind.STANDARD_NORMAL, seed=seed))
        joint = whittle_fit(pg, (1, 1), profile=False)
        prof = whittle_fit(pg, (1, 1), profile=True)
        assert np.array_equal(joint.estimate[:2], prof.estimate)
        assert joint.loglik == pytest.approx(prof.loglik, rel=1e-12)

    def test_init_is_beta1(self, ma1_pg_t70):
        fit = whittle_fit(ma1_pg_t70, (0, 1), profile=False, init=[0.3])
        assert fit.converged and fit.estimate.size == 2
        with pytest.raises(InputError):
            whittle_fit(ma1_pg_t70, (0, 1), profile=False, init=[0.3, 1.0])


class TestFitLogging:
    def test_elspec_logger_has_null_handler(self):
        assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("elspec").handlers)

    def test_nonconvergence_logged_with_score_and_iterations(self, ma1_pg_t70, caplog):
        with caplog.at_level(logging.DEBUG, logger="elspec"):
            fit = whittle_fit(ma1_pg_t70, (0, 1), max_iter=3)
        [record] = caplog.records
        assert record.name == "elspec.whittle" and record.levelno == logging.WARNING
        assert "did not converge" in record.getMessage()
        assert f"after {fit.iterations} iterations" in record.getMessage()

    def test_boundary_estimate_logged(self, caplog):
        # over-differenced white noise has an MA unit root: the fit ends on
        # the invertibility boundary
        e = np.random.default_rng(1).standard_normal(51)
        pg = compute_periodogram(TimeSeries(np.diff(e)))
        with caplog.at_level(logging.DEBUG, logger="elspec"):
            fit = whittle_fit(pg, (0, 1))
        assert fit.converged and round(float(fit.estimate[0]), 4) == 1.0
        [record] = caplog.records
        assert record.levelno == logging.INFO and "boundary" in record.getMessage()

    def test_interior_fit_logs_nothing(self, ma1_pg_t2000, caplog):
        with caplog.at_level(logging.DEBUG, logger="elspec"):
            whittle_fit(ma1_pg_t2000, (0, 1))
        assert caplog.records == []


def _u_vectors(bound):
    """Unconstrained coordinates of orders 1-4."""
    return st.lists(st.floats(-bound, bound), min_size=1, max_size=4).map(np.array)


class TestPacfMap:
    @given(u=_u_vectors(3.0), big=st.floats(-20.0, 20.0), pos=st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_images_pass_validation(self, u, big, pos):
        # One coordinate anywhere up to saturation (tanh rounds to +-1 for
        # |u| > 19), the others moderate.  With several coordinates near
        # saturation the roots cluster on the circle of radius
        # 1 - 2 STATIONARITY_MARGIN, and the float weights fix clustered roots
        # only to eps^(1/multiplicity) (about 1e-4 at order 4), so those
        # images can land outside; a fit's boundary maximum has one unit root.
        u[pos % u.size] = big
        c, _ = _pacf_coefficients(u)
        assert max_companion_modulus(c) < 1.0 - STATIONARITY_MARGIN

    @given(u=_u_vectors(5.0))
    @settings(max_examples=200, deadline=None)
    def test_jacobian_matches_central_differences(self, u):
        _, jac = _pacf_coefficients(u)
        h = 1e-6
        fd = np.column_stack([
            (_pacf_coefficients(u + h * e)[0] - _pacf_coefficients(u - h * e)[0]) / (2 * h)
            for e in np.eye(u.size)
        ])
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-7)

    @given(u=_u_vectors(3.0))
    @settings(max_examples=200, deadline=None)
    def test_step_down_inverts_the_map(self, u):
        np.testing.assert_allclose(_pacf_from_coefficients(_pacf_coefficients(u)[0]), u,
                                   rtol=0, atol=1e-6)


class TestSandwich:
    def test_sigma_hat_psd_and_symmetric(self):
        rng = np.random.default_rng(6)
        for i in range(100):
            theta = rng.uniform(-0.7, 0.7)
            ts = simulate(ArmaSpec(ma=[theta]), 60, NoiseKind.STANDARD_NORMAL, seed=1000 + i)
            pg = compute_periodogram(ts)
            fit = whittle_fit(pg, (0, 1), profile=True)
            diag = sandwich(pg, ArmaSpec.from_beta1((0, 1), fit.estimate), profile=True)
            np.testing.assert_allclose(diag.sigma_hat, diag.sigma_hat.T, rtol=1e-12)
            assert np.all(np.linalg.eigvalsh(diag.sigma_hat) >= -1e-12)

    def test_zero_psi_gives_zero_sigma(self):
        # Sigma_hat of an exactly-fitting model is the zero matrix (the
        # Jacobian A_hat is not, so the sandwich itself is well defined)
        spec = ArmaSpec(ar=[0.4], sigma2=2.0)
        freqs = TWO_PI * np.arange(1, 16) / 40
        g = spec.sigma2 * spectrum_shape(spec, freqs)
        pg = Periodogram(freqs=freqs, ords=g, T=40)
        diag = sandwich(pg, spec, profile=False)
        assert np.allclose(diag.sigma_hat, 0.0, atol=1e-20)
        assert np.allclose(diag.v_hat, 0.0, atol=1e-15)

    def test_quadratic_approximation_matches_stat(self, ma1_pg_t2000):
        # (n+1) (b - bhat)' Vhat^{-1} (b - bhat) tracks the adjusted statistic
        pg = ma1_pg_t2000
        fit = whittle_fit(pg, (0, 1), profile=True)
        bhat = fit.estimate[0]
        diag = sandwich(pg, ArmaSpec.from_beta1((0, 1), fit.estimate), profile=True)
        n = pg.n
        delta = 0.5 / math.sqrt(n)
        wstar = el_stat(pg, ArmaSpec(ma=[bhat + delta]), adjusted=True, profile=True).stat
        quad = (n + 1) * delta**2 / diag.v_hat[0, 0]
        assert abs(wstar - quad) / quad < 0.25

    def test_full_parameterization_dimensions(self, ma1_pg_t70):
        fit = whittle_fit(ma1_pg_t70, (0, 1), profile=False)
        diag = sandwich(ma1_pg_t70, fit.to_spec(), profile=False)
        assert diag.a_hat.shape == (2, 2)
        assert diag.v_hat.shape == (2, 2)


class TestConstantSeries:
    """A constant series has a zero periodogram, so the profiled variance is
    zero: every inference entry point rejects it before any 0/0."""

    CALLS = {
        "whittle_fit": lambda pg: whittle_fit(pg, (1, 1)),
        "whittle_fit_full": lambda pg: whittle_fit(pg, (1, 0), profile=False),
        "scan_region": lambda pg: scan_region(pg, (1, 1), ((0, 1), (0, 1)), 6),
        "interval_1d": lambda pg: interval_1d(pg, (0, 1)),
        "sandwich": lambda pg: sandwich(pg, ArmaSpec(ar=[0.5])),
        "el_stat": lambda pg: el_stat(pg, ArmaSpec(ma=[0.3])),
    }

    def test_random_constants_have_zero_ordinates_and_are_rejected(self):
        # centring by the mean leaves a rounding residue (ordinates ~1e-60)
        # for most constants; centring by the common value leaves none
        rng = np.random.default_rng(2000)
        for value, T in zip(rng.uniform(-100.0, 100.0, 2000), rng.integers(5, 501, 2000)):
            series = TimeSeries(np.full(T, value))
            pg = compute_periodogram(series)
            assert not np.any(pg.ords)
            assert not np.any(all_fourier_ordinates(series)[1])
            assert not np.any(periodogram_stack(series.values[None])[1])
            for call in self.CALLS.values():
                with pytest.raises(DegenerateInputError):
                    call(pg)

    def test_reported_case(self):
        pg = compute_periodogram(TimeSeries(np.full(258, 27.39233746429086)))
        assert not np.any(pg.ords)
        with pytest.raises(DegenerateInputError):
            whittle_fit(pg, (1, 0))

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejected_without_warning(self, call):
        pg = compute_periodogram(TimeSeries(np.full(50, 3.0)))
        assert not np.any(pg.ords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="constant series"):
                self.CALLS[call](pg)
