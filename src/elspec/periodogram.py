"""Periodogram ordinates at Fourier frequencies of a mean-centered series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arma import TimeSeries, batch_slices
from .errors import DegenerateInputError, InputError


@dataclass(frozen=True, eq=False)
class Periodogram:
    """Ordinates I(w_j) at the Fourier frequencies w_j = 2*pi*j/T kept in
    (0, pi), i.e. j = 1..floor((T-1)/2).

    Frequencies at 0 (killed by mean-centering) and pi, and the symmetric
    upper half, are dropped; this is the standard retained set for Whittle
    estimation.  Instances built by :func:`compute_periodogram` satisfy:
    freqs strictly increasing in (0, pi), ords finite and >= 0,
    n = floor((T-1)/2).
    """

    freqs: np.ndarray
    ords: np.ndarray
    T: int

    @property
    def n(self) -> int:
        return int(self.ords.size)

    def require_power(self) -> None:
        """Raise DegenerateInputError when every retained ordinate is zero, as
        for a constant series: the profiled innovation variance is then zero
        and no Whittle likelihood or estimating function is defined."""
        if not np.any(self.ords):
            raise DegenerateInputError(
                "periodogram is zero at every retained frequency (constant series?)")


def _ordinates(centered: np.ndarray, count: int) -> np.ndarray:
    # |sum_t c_t e^{-i w_j t}|^2 / (2*pi*T) for j = 1..count by FFT along the
    # last axis of the mean-centred values.  The modulus does not depend on
    # where t starts, so numpy's t = 0..T-1 gives the same ordinates as
    # t = 1..T.
    dft = np.fft.fft(centered, axis=-1)[..., 1 : count + 1]
    return (dft.real**2 + dft.imag**2) / (2.0 * np.pi * centered.shape[-1])


def _centred(values: np.ndarray, mean) -> np.ndarray:
    # values - mean along the last axis.  A constant row is centred by its
    # common value instead, so its ordinates are exactly zero rather than the
    # rounding residue of its mean.
    centred = values - mean
    constant = (values == values[..., :1]).all(axis=-1)
    if constant.any():
        centred[constant] = 0.0
    return centred


def _retained_freqs(T: int) -> np.ndarray:
    n = (T - 1) // 2
    return 2.0 * np.pi * np.arange(1, n + 1, dtype=float) / T


def _fft_slices(count: int, T: int):
    """The chunks of :func:`periodogram_stack`'s FFT for ``count`` series of
    length T: at most ``_BATCH_ENTRIES // (2T)`` series each, so that an
    FFT call's complex buffers hold about as many doubles as a dual batch
    holds psi entries."""
    return batch_slices(count, 2 * T)


def compute_periodogram(series: TimeSeries) -> Periodogram:
    """Periodogram of a series: I(w_j) = [ (sum_t (z_t - zbar) sin(w_j t))^2
    + (sum_t (z_t - zbar) cos(w_j t))^2 ] / (2*pi*T) at w_j = 2*pi*j/T for
    j = 1..floor((T-1)/2), computed by FFT in O(T log T).  A series whose
    centred values or ordinates overflow raises InputError."""
    T = series.T
    if T < 4:
        raise InputError(f"need T >= 4, got {T}")
    freqs = _retained_freqs(T)
    with np.errstate(over="ignore", invalid="ignore"):
        ords = _ordinates(_centred(series.values, series.mean), freqs.size)
    if not np.isfinite(ords).all():
        raise InputError("periodogram ordinates are not finite: the series values are too "
                         "large for their squared Fourier sums")
    return Periodogram(freqs=freqs, ords=ords, T=T)


def periodogram_stack(values) -> tuple[np.ndarray, np.ndarray]:
    """Retained frequencies (n,) and ordinates (R, n) of the R rows of an
    (R, T) array of series, row r exactly as :func:`compute_periodogram`
    gives it for a TimeSeries of row r: each row is centred by its own mean
    (a constant row by its common value).  The rows are centred and
    transformed in chunks (:func:`_fft_slices`), so the temporaries stay
    the same size however many rows are given."""
    values = np.asarray(values, dtype=float)
    freqs = _retained_freqs(values.shape[1])
    ords = np.empty((values.shape[0], freqs.size))
    for part in _fft_slices(*values.shape):
        chunk = values[part]
        ords[part] = _ordinates(_centred(chunk, chunk.mean(axis=1, keepdims=True)), freqs.size)
    return freqs, ords

