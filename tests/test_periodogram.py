import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elspec import (
    InputError,
    TimeSeries,
    compute_periodogram,
)
from elspec.periodogram import _fft_slices, periodogram_stack

from conftest import all_fourier_ordinates

TWO_PI = 2.0 * math.pi


def test_constant_series_has_zero_ordinates():
    # dyadic constant: mean-centering cancels exactly
    pg = compute_periodogram(TimeSeries(np.full(12, 2.5)))
    assert np.array_equal(pg.ords, np.zeros(5))
    # non-dyadic constant: cancellation up to rounding of the mean
    pg2 = compute_periodogram(TimeSeries(np.full(12, 3.7)))
    assert np.all(pg2.ords < 1e-30)


@pytest.mark.parametrize("values", [[1e200, -2e200, 3e200, 1e200, -1e200, 2e200],
                                    [1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.0]])
def test_overflowing_ordinates_raise(values):
    # finite values and mean; the squared Fourier sums overflow, and in the
    # second series the Fourier sums themselves
    with pytest.raises(InputError, match="ordinates are not finite"):
        compute_periodogram(TimeSeries(values))


def test_alternating_series_t4_hand_value():
    # z = (1,-1,1,-1): all power sits at omega=pi, which is not retained;
    # the single kept ordinate at omega=pi/2 is zero by the displayed sums.
    pg = compute_periodogram(TimeSeries([1.0, -1.0, 1.0, -1.0]))
    assert pg.n == 1
    assert pg.freqs[0] == pytest.approx(math.pi / 2.0)
    assert abs(pg.ords[0]) < 1e-30


def test_single_tone_concentrates_power():
    T = 32
    t = np.arange(1, T + 1)
    pg = compute_periodogram(TimeSeries(np.cos(2.0 * math.pi * 3.0 * t / T)))
    assert pg.n == 15
    assert pg.ords[2] / pg.ords.sum() > 0.99  # j = 3


@pytest.mark.parametrize("T,n", [(4, 1), (5, 2), (20, 9), (21, 10), (70, 34), (100, 49)])
def test_ordinate_count(T, n):
    pg = compute_periodogram(TimeSeries(np.sin(np.arange(T) * 0.7) + 0.1 * np.arange(T)))
    assert pg.n == n
    assert pg.freqs.size == n
    # frequencies strictly increasing in (0, pi)
    assert np.all(np.diff(pg.freqs) > 0)
    assert 0.0 < pg.freqs[0] and pg.freqs[-1] < math.pi


def test_short_series_rejected():
    with pytest.raises(InputError):
        TimeSeries([1.0, 2.0, 3.0])


def test_parseval_full_frequency_set():
    rng = np.random.default_rng(2)
    for T in (8, 21, 64, 157):
        ts = TimeSeries(rng.standard_normal(T) * 2.3 + 5.0)
        _, ords = all_fourier_ordinates(ts)
        lhs = ords.sum()
        rhs = np.sum((ts.values - ts.mean) ** 2) / TWO_PI
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_shift_invariance_exact_on_integer_series():
    # integer data plus an integer shift: mean-centering cancels bit-for-bit
    rng = np.random.default_rng(3)
    vals = rng.integers(-50, 50, size=32).astype(float)
    a = compute_periodogram(TimeSeries(vals))
    b = compute_periodogram(TimeSeries(vals + 1000.0))
    assert np.array_equal(a.ords, b.ords)


@given(
    shift=st.floats(-1e3, 1e3, allow_nan=False),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=25, deadline=None)
def test_shift_invariance_float(shift, seed):
    vals = np.random.default_rng(seed).standard_normal(24)
    a = compute_periodogram(TimeSeries(vals))
    b = compute_periodogram(TimeSeries(vals + shift))
    scale = max(a.ords.max(), 1e-30)
    np.testing.assert_allclose(b.ords, a.ords, rtol=1e-9, atol=1e-9 * scale)


@given(c=st.floats(-100.0, 100.0).filter(lambda x: abs(x) > 1e-3), seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_quadratic_scaling(c, seed):
    vals = np.random.default_rng(seed).standard_normal(30)
    a = compute_periodogram(TimeSeries(vals))
    b = compute_periodogram(TimeSeries(c * vals))
    np.testing.assert_allclose(b.ords, c * c * a.ords, rtol=1e-12)


def test_matches_direct_formula_small_case():
    # independent evaluation of the sine/cosine sums for one small series
    vals = np.array([0.3, -1.2, 2.5, 0.7, -0.4, 1.1, 0.0])
    ts = TimeSeries(vals)
    pg = compute_periodogram(ts)
    T = 7
    for j in range(1, pg.n + 1):
        w = TWO_PI * j / T
        s = sum((vals[t - 1] - ts.mean) * math.sin(w * t) for t in range(1, T + 1))
        c = sum((vals[t - 1] - ts.mean) * math.cos(w * t) for t in range(1, T + 1))
        expected = (s * s + c * c) / (TWO_PI * T)
        assert pg.ords[j - 1] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("T", [20000, 9999])
def test_matches_direct_sums_long_series(T):
    # Direct sine/cosine sums at a handful of frequencies; j*t is reduced
    # mod T before the sine is taken, so the oracle keeps full accuracy.
    rng = np.random.default_rng(T)
    ts = TimeSeries(rng.standard_normal(T) + 0.5 * np.sin(0.01 * np.arange(T)))
    pg = compute_periodogram(ts)
    x = ts.values - ts.mean
    t = np.arange(1, T + 1)
    for j in (1, 2, 17, T // 5, pg.n - 1, pg.n):
        arg = TWO_PI * ((j * t) % T) / T
        expected = ((x @ np.sin(arg)) ** 2 + (x @ np.cos(arg)) ** 2) / (TWO_PI * T)
        assert pg.freqs[j - 1] == TWO_PI * j / T
        assert pg.ords[j - 1] == pytest.approx(expected, rel=1e-12, abs=1e-12 * pg.ords.mean())


@pytest.mark.parametrize("R, T, chunks", [(7, 4, 1), (7, 9, 1), (7, 70, 1), (7, 501, 1),
                                           (300, 70, 2), (70, 501, 3)])
def test_stack_rows_equal_single_periodograms(R, T, chunks):
    values = np.random.default_rng(T).standard_normal((R, T)) * 3.0 + 1.5
    freqs, ords = periodogram_stack(values)
    assert ords.shape == (R, (T - 1) // 2)
    assert len(_fft_slices(R, T)) == chunks
    for row, o in zip(values, ords):
        pg = compute_periodogram(TimeSeries(row))
        assert np.array_equal(freqs, pg.freqs)
        assert np.array_equal(o, pg.ords)
