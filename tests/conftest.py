import numpy as np
import pytest

from elspec import (
    ArmaSpec,
    NoiseKind,
    compute_periodogram,
    log_spectral_gradient,
    simulate,
    spectral_density,
)
from elspec.periodogram import _centred, _ordinates


@pytest.fixture(scope="session")
def ma1_series_t70():
    return simulate(ArmaSpec(ma=[0.25]), 70, NoiseKind.STANDARD_NORMAL, seed=101)


@pytest.fixture(scope="session")
def ma1_pg_t70(ma1_series_t70):
    return compute_periodogram(ma1_series_t70)


@pytest.fixture(scope="session")
def arma11_series_t60():
    return simulate(ArmaSpec(ar=[0.5], ma=[0.3]), 60, NoiseKind.STANDARD_NORMAL, seed=11)


@pytest.fixture(scope="session")
def arma11_pg_t60(arma11_series_t60):
    return compute_periodogram(arma11_series_t60)


@pytest.fixture(scope="session")
def ma1_series_t2000():
    return simulate(ArmaSpec(ma=[0.5]), 2000, NoiseKind.STANDARD_NORMAL, seed=3)


@pytest.fixture(scope="session")
def ma1_pg_t2000(ma1_series_t2000):
    return compute_periodogram(ma1_series_t2000)


def rng_specs(count, seed=0, max_order=1):
    """Random valid specs with p,q <= max_order for property sweeps."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        p = rng.integers(0, max_order + 1)
        q = rng.integers(0, max_order + 1)
        ar = rng.uniform(-0.9, 0.9, size=p)
        ma = rng.uniform(-0.9, 0.9, size=q)
        sigma2 = rng.uniform(0.2, 3.0)
        try:
            specs.append(ArmaSpec(ar=ar, ma=ma, sigma2=sigma2))
        except Exception:
            continue
    return specs


def psi_full(pg, spec):
    """Estimating-function rows of the full parameterization, an oracle:
    psi_j = (I_j/g_j - 1) * grad ln g_j, one row per retained ordinate,
    k = p + q + 1 columns."""
    g = spectral_density(spec, pg.freqs)
    grad = log_spectral_gradient(spec, pg.freqs, profile=False)
    return (pg.ords / g - 1.0)[:, None] * grad


def all_fourier_ordinates(series):
    """Ordinates at every Fourier frequency 2*pi*j/T, j = 1..T-1, an oracle
    for whole-set identities: their sum is sum_t (z_t - zbar)^2 / (2*pi)."""
    T = series.T
    freqs = 2.0 * np.pi * np.arange(1, T, dtype=float) / T
    return freqs, _ordinates(_centred(series.values, series.mean), T - 1)
