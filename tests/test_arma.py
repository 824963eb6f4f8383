import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.signal
from scipy.integrate import simpson
from scipy.stats import skew

from elspec import (
    ArmaSpec,
    InputError,
    InvalidModelError,
    NoiseKind,
    TimeSeries,
    log_spectral_gradient,
    simulate,
    spectral_density,
)
from elspec import arma
from elspec.arma import (
    _seed_sequence_state,
    _seed_states,
    batch_slices,
    lag_table,
    shape_and_gradient_stack,
    simulate_stack,
)
from conftest import rng_specs

TWO_PI = 2.0 * math.pi


class TestArmaSpec:
    def test_valid_spec_roundtrip(self):
        spec = ArmaSpec(ar=[0.5], ma=[0.3], sigma2=2.0)
        assert spec.order == (1, 1)
        np.testing.assert_allclose(spec.beta, [0.5, 0.3, 2.0])
        np.testing.assert_allclose(spec.beta1, [0.5, 0.3])

    @pytest.mark.parametrize("bad", [dict(ar=[1.0]), dict(ar=[1.2]), dict(ma=[-1.0]),
                                     dict(ma=[1.01]), dict(sigma2=0.0), dict(sigma2=-1.0)])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(InvalidModelError):
            ArmaSpec(**bad)

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma2_raises(self, sigma2):
        with pytest.raises(InvalidModelError, match="sigma2 must be positive and finite"):
            ArmaSpec(ma=[0.3], sigma2=sigma2)
        assert math.isnan(ArmaSpec(sigma2=math.nan, validate=False).sigma2)

    def test_ar2_stationarity_triangle(self):
        # (phi1, phi2) = (0.5, 0.4) is stationary; (0.5, 0.6) is not
        ArmaSpec(ar=[0.5, 0.4])
        with pytest.raises(InvalidModelError):
            ArmaSpec(ar=[0.5, 0.6])

    def test_from_beta1_length_check(self):
        with pytest.raises(InputError):
            ArmaSpec.from_beta1((1, 1), [0.5])


class TestTimeSeries:
    def test_mean_cached(self):
        ts = TimeSeries([1.0, 2.0, 3.0, 4.0])
        assert ts.mean == 2.5
        assert ts.T == 4

    def test_too_short(self):
        with pytest.raises(InputError):
            TimeSeries([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("values", [[1e308, 1.5e308, -1e308, 1.7e308, 1e308, 1e308],
                                        [-1.7e308] * 4])
    def test_overflowing_sum_raises(self, values):
        # every value is finite, but the mean is not
        with pytest.raises(InputError, match="mean is not finite"):
            TimeSeries(values)

    def test_largest_finite_mean_accepted(self):
        ts = TimeSeries([1.7e308, -1.7e308, 1.7e308, -1.7e308])
        assert ts.mean == 0.0


class TestSpectralDensity:
    def test_white_noise_flat(self):
        # flat spectrum sigma2/(2*pi)
        spec = ArmaSpec()
        assert spectral_density(spec, 1.0) == pytest.approx(1.0 / TWO_PI, rel=1e-12)
        assert spectral_density(spec, 1.0) == pytest.approx(0.159155, abs=1e-6)

    def test_ma1_at_zero(self):
        # |1 - theta|^2 / (2*pi) at omega=0: direct evaluation of the closed form
        spec = ArmaSpec(ma=[0.5])
        expected = (1.0 - 2.0 * 0.5 + 0.25) / TWO_PI
        assert spectral_density(spec, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.039789, abs=1e-6)

    def test_ar1_at_pi(self):
        # 1 / (2*pi*|1 + 0.7|^2), direct evaluation of 1/|1 - phi e^{-i pi}|^2
        spec = ArmaSpec(ar=[0.7])
        expected = 1.0 / (TWO_PI * (1.0 + 2.0 * 0.7 + 0.49))
        assert spectral_density(spec, math.pi) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.055071, abs=1e-6)

    def test_symmetric_in_omega_exactly(self):
        spec = ArmaSpec(ar=[0.6], ma=[-0.4], sigma2=1.7)
        w = np.linspace(0.1, math.pi, 25)
        assert np.array_equal(spectral_density(spec, w), spectral_density(spec, -w))

    def test_positive_everywhere(self):
        for spec in rng_specs(10, seed=5):
            w = np.linspace(-math.pi, math.pi, 101)
            assert np.all(spectral_density(spec, w) > 0)

    @pytest.mark.parametrize(
        "spec,variance",
        [
            (ArmaSpec(ar=[0.5]), 1.0 / (1 - 0.25)),
            (ArmaSpec(ar=[-0.7], sigma2=2.0), 2.0 / (1 - 0.49)),
            (ArmaSpec(ar=[0.9]), 1.0 / (1 - 0.81)),
            (ArmaSpec(ma=[0.5]), 1.0 + 0.25),
            (ArmaSpec(ma=[-0.8], sigma2=0.5), 0.5 * (1 + 0.64)),
            (ArmaSpec(), 1.0),
            # ARMA(1,1): sigma2 * (1 - 2*phi*theta + theta^2) / (1 - phi^2)
            (ArmaSpec(ar=[0.7], ma=[0.5]), (1 - 2 * 0.7 * 0.5 + 0.25) / (1 - 0.49)),
        ],
    )
    def test_integrates_to_process_variance(self, spec, variance):
        # composite Simpson on 4096 panels over [-pi, pi]
        w = np.linspace(-math.pi, math.pi, 4097)
        total = simpson(spectral_density(spec, w), x=w)
        assert total == pytest.approx(variance, rel=1e-6)


def _fd_log_gradient(spec, omega, profile, h=1e-6):
    """Central finite differences of ln g in each parameter (test oracle)."""
    base = spec.beta1 if profile else spec.beta
    if base.size == 0:
        return np.empty(np.shape(omega) + (0,))
    out = []
    for i in range(base.size):
        up, dn = base.copy(), base.copy()
        up[i] += h
        dn[i] -= h
        if profile:
            s_up = ArmaSpec.from_beta1(spec.order, up, validate=False)
            s_dn = ArmaSpec.from_beta1(spec.order, dn, validate=False)
        else:
            s_up = ArmaSpec.from_beta(spec.order, up, validate=False)
            s_dn = ArmaSpec.from_beta(spec.order, dn, validate=False)
        out.append(
            (np.log(spectral_density(s_up, omega)) - np.log(spectral_density(s_dn, omega)))
            / (2 * h)
        )
    return np.stack(out, axis=-1)


class TestLogSpectralGradient:
    def test_ma1_at_theta_zero(self):
        # d/dtheta ln(1 - 2 theta cos w + theta^2) at theta=0 is -2 cos w
        spec = ArmaSpec(ma=[0.0])
        for w in (0.3, 1.0, 2.5):
            g = log_spectral_gradient(spec, w, profile=True)
            assert g.shape == (1,)
            assert g[0] == pytest.approx(-2.0 * math.cos(w), rel=1e-12)

    def test_ar1_zero_at_pi_half(self):
        spec = ArmaSpec(ar=[0.0])
        g = log_spectral_gradient(spec, math.pi / 2.0, profile=True)
        assert g[0] == pytest.approx(0.0, abs=1e-15)

    def test_arma11_matches_finite_difference(self):
        spec = ArmaSpec(ar=[0.7], ma=[0.5])
        w = 1.0
        got = log_spectral_gradient(spec, w, profile=True)
        want = _fd_log_gradient(spec, w, profile=True)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_full_gradient_includes_sigma2(self):
        spec = ArmaSpec(ar=[0.3], sigma2=4.0)
        g = log_spectral_gradient(spec, 0.7, profile=False)
        assert g.shape == (2,)
        assert g[-1] == pytest.approx(0.25, rel=1e-12)  # d ln g / d sigma2 = 1/sigma2

    def test_grid_of_50_pairs_vs_finite_differences(self):
        # 50 (spec, omega) pairs, closed forms vs the central-difference oracle
        rng = np.random.default_rng(7)
        specs = rng_specs(50, seed=42)
        for spec in specs:
            w = float(rng.uniform(0.05, math.pi - 0.05))
            for profile in (True, False):
                got = log_spectral_gradient(spec, w, profile=profile)
                want = _fd_log_gradient(spec, w, profile=profile)
                np.testing.assert_allclose(got, want, atol=1e-5)

    def test_higher_order_fd_path_consistent_with_embedded_ar1(self):
        # AR(2) with phi2=0 must match the AR(1) closed form in phi1
        w = np.array([0.4, 1.3, 2.8])
        g2 = log_spectral_gradient(ArmaSpec(ar=[0.6, 0.0]), w, profile=True)
        g1 = log_spectral_gradient(ArmaSpec(ar=[0.6]), w, profile=True)
        np.testing.assert_allclose(g2[:, 0], g1[:, 0], atol=1e-7)

    def test_vectorized_over_omega(self):
        spec = ArmaSpec(ar=[0.5], ma=[0.2])
        w = np.linspace(0.1, 3.0, 9)
        g = log_spectral_gradient(spec, w, profile=False)
        assert g.shape == (9, 3)
        np.testing.assert_allclose(g[4], log_spectral_gradient(spec, w[4], profile=False))


def _from_pacf(pacf):
    """Lag coefficients of a stationary polynomial 1 - sum c_k B^k built from
    partial autocorrelations in (-1, 1) by the Durbin-Levinson recursion."""
    c = np.empty(0)
    for r in pacf:
        c = np.append(c - r * c[::-1], r)
    return c


def _complex_step_log_gradient(spec, omega, profile, h=1e-30):
    """Complex-step derivatives Im f(beta + i h e_l) / h of
    f = ln|P_ma|^2 - ln|P_ar|^2 [+ ln sigma2], with |P|^2 = A^2 + B^2 for
    A = 1 - sum_k c_k cos(wk) and B = sum_k c_k sin(wk) (the real and
    imaginary parts of P at real c).  A and B are polynomials in c, so f is
    analytic in real beta and the complex step is exact to rounding."""
    p, q = spec.order
    base = (spec.beta1 if profile else spec.beta).astype(complex)

    def log_g(beta):
        def mod2(coeffs):
            lags = np.arange(1, coeffs.size + 1)
            a = 1.0 - coeffs @ np.cos(omega * lags)
            b = coeffs @ np.sin(omega * lags)
            return a * a + b * b

        out = np.log(mod2(beta[p : p + q])) - np.log(mod2(beta[:p]))
        return out if profile else out + np.log(beta[-1])

    steps = np.eye(base.size) * 1j * h
    return np.array([log_g(base + step).imag / h for step in steps])


_pacfs = st.lists(st.floats(-0.9, 0.9), max_size=3)


@given(
    ar_pacf=_pacfs,
    ma_pacf=_pacfs,
    sigma2=st.floats(0.1, 10.0),
    omega=st.floats(0.01, math.pi - 0.01),
    profile=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_log_spectral_gradient_matches_complex_step(ar_pacf, ma_pacf, sigma2, omega, profile):
    spec = ArmaSpec(ar=_from_pacf(ar_pacf), ma=_from_pacf(ma_pacf), sigma2=sigma2)
    got = log_spectral_gradient(spec, omega, profile=profile)
    want = _complex_step_log_gradient(spec, omega, profile)
    scale = np.abs(want).max(initial=0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def _complex_step_log_curvature(ar, ma, omega, h=1e-30):
    """Complex-step derivatives of the gradient of ln g1 in beta1, with the
    gradient written in real arithmetic: -2 (cos(wl) A - sin(wl) B) /
    (A^2 + B^2) per lag polynomial (negated for phi), A and B as in
    :func:`_complex_step_log_gradient`.  The gradient is analytic in real
    beta1, so the complex step is exact to rounding and independent of the
    curvature formula."""
    p = ar.size
    base = np.concatenate([ar, ma]).astype(complex)

    def grad(beta1):
        out = []
        for coeffs, sign in ((beta1[:p], -1.0), (beta1[p:], 1.0)):
            lags = np.arange(1, coeffs.size + 1)
            cos, sin = np.cos(omega * lags), np.sin(omega * lags)
            a, b = 1.0 - coeffs @ cos, coeffs @ sin
            out.append(-2.0 * sign * (cos * a - sin * b) / (a * a + b * b))
        return np.concatenate(out)

    steps = np.eye(base.size) * 1j * h
    return np.array([grad(base + step).imag / h for step in steps]).reshape(base.size, base.size)


@given(ar_pacf=_pacfs, ma_pacf=_pacfs, omega=st.floats(0.01, math.pi - 0.01))
@settings(max_examples=200, deadline=None)
def test_log_spectral_curvature_matches_complex_step(ar_pacf, ma_pacf, omega):
    ar, ma = _from_pacf(ar_pacf), _from_pacf(ma_pacf)
    table = lag_table(np.array([omega]), max(ar.size, ma.size))
    curv = shape_and_gradient_stack(ar[None], ma[None], table, hessian=True)[2][0, 0]
    want = _complex_step_log_curvature(ar, ma, omega)
    scale = np.abs(want).max(initial=0.0)
    np.testing.assert_allclose(curv, want, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("order", [(1, 0), (0, 1), (1, 1), (2, 1), (0, 3), (3, 3)])
def test_lag_table_width_and_curvature_keep_shape_and_gradient(order):
    # a wider table's columns, and so g1 and grad ln g1, are bitwise those
    # of the narrow one; asking for the curvature changes neither; and each
    # row of a stack is what that model gives alone
    p, q = order
    rng = np.random.default_rng(11)
    ar = np.array([_from_pacf(r) for r in rng.uniform(-0.9, 0.9, (25, p))]).reshape(25, p)
    ma = np.array([_from_pacf(r) for r in rng.uniform(-0.9, 0.9, (25, q))]).reshape(25, q)
    freqs = TWO_PI * np.arange(1, 100) / 199
    narrow, wide = lag_table(freqs, max(order)), lag_table(freqs, 2 * max(order))
    for col, full in zip(narrow, wide):
        np.testing.assert_array_equal(col, full[:, : max(order)])
    g1, grad = shape_and_gradient_stack(ar, ma, narrow)
    for table in (narrow, wide):
        np.testing.assert_array_equal(shape_and_gradient_stack(ar, ma, table, False)[0], g1)
        np.testing.assert_array_equal(shape_and_gradient_stack(ar, ma, table)[1], grad)
    hess_g1, hess_grad, curv = shape_and_gradient_stack(ar, ma, narrow, hessian=True)
    np.testing.assert_array_equal(hess_g1, g1)
    np.testing.assert_array_equal(hess_grad, grad)
    np.testing.assert_array_equal(curv, np.swapaxes(curv, 2, 3))
    assert not curv[..., :p, p:].any()
    for i in (0, 13, 24):
        alone = shape_and_gradient_stack(ar[i : i + 1], ma[i : i + 1], narrow, hessian=True)
        for got, want in zip(alone, (g1, grad, curv)):
            np.testing.assert_array_equal(got[0], want[i])


class TestSimulate:
    def test_white_noise_sample_variance(self):
        ts = simulate(ArmaSpec(), 100, NoiseKind.STANDARD_NORMAL, seed=7)
        assert 0.6 <= ts.values.var() <= 1.5

    def test_ma1_lag1_autocorrelation(self):
        # MA(1) with theta(B) = 1 - theta B has rho(1) = -theta/(1+theta^2)
        theta = 0.5
        ts = simulate(ArmaSpec(ma=[theta]), 100_000, NoiseKind.STANDARD_NORMAL, seed=17)
        x = ts.values - ts.mean
        rho1 = float(x[:-1] @ x[1:] / (x @ x))
        assert rho1 == pytest.approx(-theta / (1 + theta**2), abs=0.01)

    def test_deterministic_given_seed(self):
        a = simulate(ArmaSpec(ar=[0.4]), 200, NoiseKind.CENTERED_CHI2_5, seed=5)
        b = simulate(ArmaSpec(ar=[0.4]), 200, NoiseKind.CENTERED_CHI2_5, seed=5)
        assert np.array_equal(a.values, b.values)
        c = simulate(ArmaSpec(ar=[0.4]), 200, NoiseKind.CENTERED_CHI2_5, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_series_owns_its_values(self):
        # the retained slice is a copy, so the burn-in buffer is not kept alive
        ts = simulate(ArmaSpec(ar=[0.4]), 50, NoiseKind.STANDARD_NORMAL, seed=3)
        assert ts.values.base is None

    def test_chi2_noise_mean_and_skewness(self):
        ts = simulate(ArmaSpec(), 100_000, NoiseKind.CENTERED_CHI2_5, seed=13)
        assert abs(ts.mean) < 0.05
        assert skew(ts.values) > 0.5  # chi-square(5) is right-skewed

    def test_chi2_noise_variance_scale(self):
        # centered chi-square(5) has variance 10 (not re-standardized)
        ts = simulate(ArmaSpec(), 100_000, NoiseKind.CENTERED_CHI2_5, seed=29)
        assert ts.values.var() == pytest.approx(10.0, rel=0.05)

    def test_empirical_centering(self):
        # empirical centering subtracts the realized innovation mean from the
        # whole generated stream; for white noise the retained series is a
        # constant shift of the exact-centered one
        exact = simulate(ArmaSpec(), 500, NoiseKind.CENTERED_CHI2_5, seed=3, center="exact")
        emp = simulate(ArmaSpec(), 500, NoiseKind.CENTERED_CHI2_5, seed=3, center="empirical")
        diff = exact.values - emp.values
        np.testing.assert_allclose(diff, diff[0], rtol=1e-12)
        assert abs(diff[0]) > 0.0
        assert abs(emp.mean) < abs(exact.mean) + 0.5

    def test_rejects_short_series_and_bad_center(self):
        with pytest.raises(InputError):
            simulate(ArmaSpec(), 3, NoiseKind.STANDARD_NORMAL, seed=0)
        with pytest.raises(InputError):
            simulate(ArmaSpec(), 50, NoiseKind.STANDARD_NORMAL, seed=0, center="nope")
        with pytest.raises(InputError):
            simulate(ArmaSpec(), 50, "normal", seed=0)  # a name, not a NoiseKind
        with pytest.raises(InputError):
            simulate_stack(ArmaSpec(), 3, [0, 1], NoiseKind.STANDARD_NORMAL, "exact")

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "3", None])
    def test_rejects_negative_and_non_integer_seeds(self, seed):
        with pytest.raises(InputError, match="seeds must be"):
            simulate(ArmaSpec(), 20, NoiseKind.STANDARD_NORMAL, seed=seed)
        with pytest.raises(InputError, match="seeds must be"):
            simulate_stack(ArmaSpec(), 20, [0, seed], NoiseKind.STANDARD_NORMAL, "exact")

    def test_ar1_empirical_autocorrelation(self):
        phi = 0.7
        ts = simulate(ArmaSpec(ar=[phi]), 100_000, NoiseKind.STANDARD_NORMAL, seed=23)
        x = ts.values - ts.mean
        rho1 = float(x[:-1] @ x[1:] / (x @ x))
        assert rho1 == pytest.approx(phi, abs=0.01)


def _reference_series(spec, T, noise, seed, center):
    """The one-series simulation loop, written out independently."""
    rng = np.random.default_rng(seed)
    burn = 500 + 10 * (spec.p + spec.q)
    if noise is NoiseKind.STANDARD_NORMAL:
        a = rng.standard_normal(T + burn)
    else:
        a = np.sum(rng.standard_normal((T + burn, 5)) ** 2, axis=1) - 5.0
    a *= np.sqrt(spec.sigma2)
    if center == "empirical":
        a = a - a.mean()
    z = scipy.signal.lfilter(np.r_[1.0, -spec.ma], np.r_[1.0, -spec.ar], a)
    return z[burn:]


STACK_SPECS = {
    (0, 0): ArmaSpec(sigma2=2.0),
    (1, 0): ArmaSpec(ar=[0.6]),
    (0, 1): ArmaSpec(ma=[-0.5], sigma2=0.7),
    (0, 2): ArmaSpec(ma=[0.5, -0.3], sigma2=1.3),
    (0, 3): ArmaSpec(ma=[0.4, 0.2, -0.3], sigma2=0.4),
    (1, 1): ArmaSpec(ar=[0.7], ma=[0.4]),
    (2, 1): ArmaSpec(ar=[0.5, -0.3], ma=[0.4], sigma2=1.5),
}


@pytest.mark.parametrize("order", sorted(STACK_SPECS))
@pytest.mark.parametrize("noise", list(NoiseKind))
@pytest.mark.parametrize("center", ["exact", "empirical"])
@pytest.mark.parametrize("T", [4, 20, 500])
def test_simulate_stack_rows_equal_single_seeds(order, noise, center, T):
    spec = STACK_SPECS[order]
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 7, 2**130 + 3, 3, 11, 2**63 + 5]
    stack = simulate_stack(spec, T, seeds, noise, center)
    assert stack.shape == (len(seeds), T)
    for row, seed in zip(stack, seeds):
        single = simulate(spec, T, noise, seed, center).values
        assert np.array_equal(row, single)
        assert np.array_equal(row, _reference_series(spec, T, noise, seed, center))


@pytest.mark.parametrize("noise", list(NoiseKind))
@pytest.mark.parametrize("center", ["exact", "empirical"])
def test_simulate_stack_across_chunks(noise, center):
    # an ARMA(1,1) innovation row at T = 20 holds 540 samples, so a chunk
    # takes 60 rows and 150 seeds fill three chunks, the last one partly
    spec = STACK_SPECS[(1, 1)]
    assert [s.stop - s.start for s in batch_slices(150, 20 + 520)] == [60, 60, 30]
    seeds = list(range(100, 250))
    stack = simulate_stack(spec, 20, seeds, noise, center)
    for row, seed in zip(stack, seeds):
        assert np.array_equal(row, simulate(spec, 20, noise, seed, center).values)


@pytest.mark.parametrize("noise", list(NoiseKind))
def test_pure_ma_stack_across_chunks(noise):
    # a pure-MA series filters only its last T + q innovations; over three
    # chunks every row is still the whole-row lfilter series
    spec = STACK_SPECS[(0, 2)]
    seeds = np.arange(100, 250, dtype=np.uint64)
    draws = 1 if noise is NoiseKind.STANDARD_NORMAL else 5
    assert len(batch_slices(len(seeds), draws * (20 + 520))) >= 3
    stack = simulate_stack(spec, 20, seeds, noise, "exact")
    for row, seed in zip(stack, seeds.tolist()):
        assert np.array_equal(row, _reference_series(spec, 20, noise, seed, "exact"))


@pytest.mark.parametrize("order", [(1, 1), (0, 2)], ids=["lfilter", "lag sum"])
@pytest.mark.parametrize("noise", list(NoiseKind))
@pytest.mark.parametrize("center", ["exact", "empirical"])
@pytest.mark.parametrize("count", [1, 2, 151])
def test_thread_count_does_not_change_rows(monkeypatch, order, noise, center, count):
    # 151 rows split into three blocks at rows 50 and 100, which fall inside
    # a chunk of draws (60 normal or 12 chi-square rows at T = 20)
    spec = STACK_SPECS[order]
    seeds = list(range(300, 300 + count))
    default = simulate_stack(spec, 20, seeds, noise, center)
    for row, seed in zip(default, seeds):
        assert np.array_equal(row, _reference_series(spec, 20, noise, seed, center))
    for threads in (1, 3):
        monkeypatch.setattr(arma, "_THREADS", threads)
        assert np.array_equal(simulate_stack(spec, 20, seeds, noise, center), default)


def test_more_threads_than_cpus_with_short_switch_interval(monkeypatch):
    # four blocks on any CPU count, switching threads every microsecond:
    # a block writing outside its own rows would change the stack
    spec, seeds = STACK_SPECS[(2, 1)], range(700, 1001)
    monkeypatch.setattr(arma, "_THREADS", 1)
    serial = simulate_stack(spec, 30, seeds, NoiseKind.CENTERED_CHI2_5, "empirical")
    monkeypatch.setattr(arma, "_THREADS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            stack = simulate_stack(spec, 30, seeds, NoiseKind.CENTERED_CHI2_5, "empirical")
            assert np.array_equal(stack, serial)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("noise, count, helpers", [
    (NoiseKind.STANDARD_NORMAL, 20, None),  # under one full chunk of 60 rows: inline
    (NoiseKind.STANDARD_NORMAL, 151, 1),  # two full chunks: two threads
    (NoiseKind.CENTERED_CHI2_5, 151, 3),  # twelve full chunks of 12 rows: one per CPU
])
def test_one_thread_per_cpu_with_a_full_chunk_each(monkeypatch, noise, count, helpers):
    seen = []
    pool = arma._helper_pool
    monkeypatch.setattr(arma, "_allowed_cpus", lambda: 4)
    monkeypatch.setattr(arma, "_helper_pool", lambda n, pid: seen.append(n) or pool(n, pid))
    simulate_stack(STACK_SPECS[(1, 1)], 20, range(count), noise, "exact")
    assert seen == ([] if helpers is None else [helpers])


SEED_VALUES = [0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1]


@pytest.mark.parametrize("prefix", [(), (7,), (2**33,), (1, 2**40)],
                         ids=["0 words", "1 word", "2 words", "3 words"])
@pytest.mark.parametrize("seeds", [
    np.array(SEED_VALUES, dtype=np.uint64),
    np.array([0, 5, 2**32 - 1, 2**32, 2**62], dtype=np.int64),
    range(0, 6),
    range(2**32 - 2, 2**32 + 2),
    range(2**64 - 3, 2**64),
    range(5, 40, 7),
    range(3, 3),
], ids=["uint64", "int64", "range", "range_32", "range_64", "range_step", "range_empty"])
@pytest.mark.parametrize("n_words, dtype", [(1, np.uint64), (4, np.uint64), (5, np.uint32)])
def test_seed_states_of_arrays_and_ranges_match_numpy(prefix, seeds, n_words, dtype):
    got = _seed_states(prefix, seeds, n_words, dtype)
    assert got.dtype == dtype and got.shape == (len(seeds), n_words)
    for row, v in zip(got, [int(v) for v in seeds]):
        want = np.random.SeedSequence((*prefix, v)).generate_state(n_words, dtype)
        assert np.array_equal(row, want)


def test_seed_states_rejects_arrays_as_it_does_lists():
    with pytest.raises(InputError, match="seeds must be non-negative integers"):
        _seed_states((), np.array([3, -1]), 4, np.uint64)
    with pytest.raises(InputError, match="seeds must be non-negative integers"):
        _seed_states((), range(-2, 3), 4, np.uint64)
    with pytest.raises(InputError, match="seeds must be integers"):
        _seed_states((), np.array([1.0, 2.0]), 4, np.uint64)
    with pytest.raises(InputError, match="seeds must be integers"):
        _seed_states((), np.array([[1, 2]]), 4, np.uint64)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 9])
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_seed_sequence_hash_matches_numpy(width, dtype):
    # widths above 4 run the mixing of entropy beyond SeedSequence's pool
    entropy = np.random.default_rng(width).integers(0, 2**32, size=(40, width), dtype=np.uint32)
    entropy[0], entropy[1] = 0, 2**32 - 1
    got = _seed_sequence_state(entropy, 5, dtype)
    assert got.dtype == dtype and got.shape == (40, 5)
    for row, e in zip(got, entropy):
        assert np.array_equal(row, np.random.SeedSequence(e).generate_state(5, dtype))
