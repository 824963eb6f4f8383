"""ARMA(p,q) models: validation, spectral densities, log-spectral gradients,
and simulation.

Sign convention: the operators are phi(B) = 1 - phi_1 B - ... - phi_p B^p and
theta(B) = 1 - theta_1 B - ... - theta_q B^q, so an MA(1) reads
Z_t = a_t - theta * a_{t-1}.  Coefficients exported from tools that use the
opposite MA sign must be negated before building an ArmaSpec.

The full parameter vector is beta = (phi_1..phi_p, theta_1..theta_q, sigma2);
beta1 drops sigma2.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass, field

import numpy as np

from .el import batch_slices
from .errors import InputError, InvalidModelError

# Root-modulus slack used by the stationarity/invertibility test; avoids
# flakiness for coefficients sitting numerically on the unit circle.
STATIONARITY_MARGIN = 1e-8


class NoiseKind(enum.Enum):
    """Innovation distribution; both members are mean zero with finite
    fourth moment."""

    STANDARD_NORMAL = "normal"
    CENTERED_CHI2_5 = "chi2_5"  # chi-square(5) draw minus its mean 5


def max_companion_modulus(coeffs):
    """Largest eigenvalue modulus of the companion matrix of the recursion
    x_t = c_1 x_{t-1} + ... + c_r x_{t-r}.

    The coefficients are the lag weights of 1 - c_1 B - ... - c_r B^r, so a
    value below 1 means all polynomial roots lie outside the unit circle.
    A 1-D ``coeffs`` gives a float; an (N, r) stack gives one modulus per
    row.  Each value is bitwise what ``np.roots`` of the polynomial gives:
    trailing zero coefficients (roots at zero) are dropped, order 1 is |c_1|,
    and higher orders take the eigenvalues of the same companion matrix,
    batched over the rows of each order.  Rows with a non-finite entry give
    inf.
    """
    c = np.asarray(coeffs, dtype=float)
    stack = c.reshape(1, -1) if c.ndim <= 1 else c
    if stack.shape[1] == 0:
        out = np.zeros(len(stack))
    elif stack.shape[1] == 1:  # the 1 x 1 companion matrix [c_1]
        out = np.abs(stack[:, 0])
        out[np.isnan(out)] = np.inf
    else:
        # np.roots drops trailing zero coefficients, so each row's companion
        # matrix has the order of its last nonzero coefficient.
        nonzero = stack != 0.0
        order = (stack.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)) * nonzero.any(axis=1)
        order[~np.isfinite(stack).all(axis=1)] = -1
        out = np.where(order == -1, np.inf, 0.0)
        out[order == 1] = np.abs(stack[order == 1, 0])
        for r in range(2, stack.shape[1] + 1):
            rows = stack[order == r, :r]
            if len(rows):
                companion = np.zeros((len(rows), r, r))
                companion[:, 0, :] = rows
                companion[:, np.arange(1, r), np.arange(r - 1)] = 1.0
                out[order == r] = np.abs(np.linalg.eigvals(companion)).max(axis=1)
    return float(out[0]) if c.ndim <= 1 else out


def stationary_invertible(ar, ma) -> np.ndarray:
    """The ArmaSpec stationarity/invertibility invariant for stacks of
    models: True where both the AR rows ``ar`` (N, p) and the MA rows ``ma``
    (N, q) have companion modulus below 1 - STATIONARITY_MARGIN."""
    limit = 1.0 - STATIONARITY_MARGIN
    return (max_companion_modulus(ar) < limit) & (max_companion_modulus(ma) < limit)


@dataclass(frozen=True, eq=False)
class ArmaSpec:
    """ARMA(p,q) parameterization.

    Invariants (checked unless ``validate=False``): the AR polynomial is
    stationary, the MA polynomial invertible (all companion eigenvalues of
    modulus < 1 - STATIONARITY_MARGIN), and sigma2 > 0.
    """

    ar: np.ndarray = field(default=())
    ma: np.ndarray = field(default=())
    sigma2: float = 1.0
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        object.__setattr__(self, "ar", np.atleast_1d(np.asarray(self.ar, dtype=float)))
        object.__setattr__(self, "ma", np.atleast_1d(np.asarray(self.ma, dtype=float)))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if validate:
            if self.sigma2 <= 0.0:
                raise InvalidModelError(f"sigma2 must be positive, got {self.sigma2}")
            mod_ar = max_companion_modulus(self.ar)
            if mod_ar >= 1.0 - STATIONARITY_MARGIN:
                raise InvalidModelError(
                    f"AR polynomial is not stationary (companion modulus {mod_ar:.6g})"
                )
            mod_ma = max_companion_modulus(self.ma)
            if mod_ma >= 1.0 - STATIONARITY_MARGIN:
                raise InvalidModelError(
                    f"MA polynomial is not invertible (companion modulus {mod_ma:.6g})"
                )

    @property
    def p(self) -> int:
        return int(self.ar.size)

    @property
    def q(self) -> int:
        return int(self.ma.size)

    @property
    def order(self) -> tuple[int, int]:
        return (self.p, self.q)

    @property
    def beta1(self) -> np.ndarray:
        """Parameters of interest (phi's then theta's), sigma2 excluded."""
        return np.concatenate([self.ar, self.ma])

    @property
    def beta(self) -> np.ndarray:
        """Full parameter vector (phi's, theta's, sigma2)."""
        return np.concatenate([self.ar, self.ma, [self.sigma2]])

    @classmethod
    def from_beta1(cls, order, beta1, sigma2=1.0, validate=True) -> "ArmaSpec":
        p, q = order
        beta1 = np.asarray(beta1, dtype=float)
        if beta1.size != p + q:
            raise InputError(f"expected {p + q} parameters for order {order}, got {beta1.size}")
        return cls(ar=beta1[:p], ma=beta1[p:], sigma2=sigma2, validate=validate)

    @classmethod
    def from_beta(cls, order, beta, validate=True) -> "ArmaSpec":
        p, q = order
        beta = np.asarray(beta, dtype=float)
        if beta.size != p + q + 1:
            raise InputError(f"expected {p + q + 1} parameters for order {order}, got {beta.size}")
        return cls(ar=beta[:p], ma=beta[p : p + q], sigma2=beta[-1], validate=validate)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Observed real-valued series (an owned 1-D copy) with its sample mean cached."""

    values: np.ndarray
    mean: float = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).flatten()
        if vals.size < 4:
            raise InputError(f"series must have at least 4 observations, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise InputError("series contains non-finite values")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mean", float(vals.mean()))

    @property
    def T(self) -> int:
        return int(self.values.size)


def _lag_poly(coeffs, cos, sin, grad=None):
    """|P|^2 of P(w) = 1 - sum_k c_k e^{-iwk} for a stack of coefficient
    vectors ``coeffs`` (N, r) from the lag table cos(wl), sin(wl) (n, L >= r);
    when ``grad`` (an (N, n, r) array) is given, its log-derivatives are
    written into it.

    Real arithmetic throughout: Re P = 1 - sum_k c_k cos(wk) and
    Im P = sum_k c_k sin(wk), so |P|^2 = Re P^2 + Im P^2 and, exactly for
    every order,

        d ln|P|^2 / d c_l = -2 (cos(wl) Re P - sin(wl) Im P) / |P|^2.

    The sums run lag by lag, so each row's values do not depend on the
    stack it is in.
    """
    r = coeffs.shape[1]
    c, s = cos[:, :r], sin[:, :r]
    re, im = coeffs[:, :1] * c[:, 0], coeffs[:, :1] * s[:, 0]
    for lag in range(1, r):
        re += coeffs[:, lag : lag + 1] * c[:, lag]
        im += coeffs[:, lag : lag + 1] * s[:, lag]
    np.subtract(1.0, re, out=re)
    mod2 = re * re + im * im
    if grad is not None:
        np.multiply(c, re[..., None], out=grad)
        grad -= s * im[..., None]
        grad *= -2.0
        grad /= mod2[..., None]
    return mod2


def shape_and_gradient_stack(ar, ma, omega, gradient: bool = True):
    """g1(w) and, when ``gradient``, the (phi's, theta's) columns of
    grad ln g1 (else None) for a stack of models, all from one lag table.

    ``ar`` is (N, p) and ``ma`` (N, q), one model per row; ``omega`` is a
    1-D frequency grid of length n.  Returns g1 of shape (N, n) and the
    gradient of shape (N, n, p + q).  ln g1 = ln|theta|^2 - ln|phi|^2 -
    ln(2 pi), so the AR columns are the negated lag-polynomial derivatives;
    empty polynomials (P = 1) are skipped.
    """
    ar, ma = np.asarray(ar, dtype=float), np.asarray(ma, dtype=float)
    w = np.asarray(omega, dtype=float)
    count, p, q = max(len(ar), len(ma)), ar.shape[1], ma.shape[1]
    grad = np.empty((count, w.size, p + q)) if gradient else None
    if not (p or q):
        return np.full((count, w.size), 1.0 / (2.0 * np.pi)), grad
    arg = w[:, None] * np.arange(1.0, max(p, q) + 1.0)
    cos, sin = np.cos(arg), np.sin(arg)
    ar_mod2 = _lag_poly(ar, cos, sin, None if grad is None else grad[..., :p]) if p else 1.0
    ma_mod2 = _lag_poly(ma, cos, sin, None if grad is None else grad[..., p:]) if q else 1.0
    if grad is not None:
        np.negative(grad[..., :p], out=grad[..., :p])
    return ma_mod2 / ar_mod2 / (2.0 * np.pi), grad


def _shape_and_gradient(spec: ArmaSpec, omega, gradient: bool = True):
    """:func:`shape_and_gradient_stack` for one model at frequencies of any
    shape; the gradient gets a trailing parameter axis."""
    w = np.asarray(omega, dtype=float)
    g1, grad = shape_and_gradient_stack(spec.ar[None], spec.ma[None], w.ravel(), gradient)
    g1 = g1[0].reshape(w.shape)
    return g1, None if grad is None else grad[0].reshape(w.shape + (spec.p + spec.q,))


def spectrum_shape(spec: ArmaSpec, omega):
    """Variance-free spectrum g1(w) = |theta(e^{-iw})|^2 / |phi(e^{-iw})|^2 / (2*pi),
    so that the spectral density is sigma2 * g1."""
    return _shape_and_gradient(spec, omega, gradient=False)[0]


def spectral_density(spec: ArmaSpec, omega):
    """Spectral density g(w) = sigma2/(2*pi) * |theta(e^{-iw})|^2 / |phi(e^{-iw})|^2."""
    return spec.sigma2 * spectrum_shape(spec, omega)


def log_spectral_gradient(spec: ArmaSpec, omega, profile: bool = False):
    """Gradient of ln g (or of the sigma2-free ln g1 when ``profile``).

    Components are ordered (phi's, theta's[, sigma2]).  With P the AR or MA
    lag polynomial 1 - sum_k c_k e^{-iwk}, the exact formula
    d ln|P|^2 / d c_l = -2 (cos(wl) Re P - sin(wl) Im P) / |P|^2 holds for
    every (p, q); it enters ln g with a minus sign for phi, and
    d ln g / d sigma2 = 1/sigma2.  Returns shape (k,) for scalar omega,
    (len(omega), k) otherwise.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    grad = _shape_and_gradient(spec, w)[1]
    if not profile:
        grad = np.concatenate([grad, np.full(w.shape + (1,), 1.0 / spec.sigma2)], axis=-1)
    return grad[0] if np.ndim(omega) == 0 else grad


def simulate(
    spec: ArmaSpec,
    T: int,
    noise: NoiseKind = NoiseKind.STANDARD_NORMAL,
    seed: int = 0,
    center: str = "exact",
) -> TimeSeries:
    """Simulate a length-T realization of phi(B) Z_t = theta(B) a_t: the
    one-seed call of :func:`simulate_stack`, which gives the rules.
    Centering is "exact" by default.  Deterministic given ``seed``."""
    return TimeSeries(simulate_stack(spec, T, [seed], noise, center)[0])


def simulate_stack(spec: ArmaSpec, T: int, seeds, noise: NoiseKind, center: str) -> np.ndarray:
    """Simulate one length-T realization of phi(B) Z_t = theta(B) a_t per
    seed; returns an (R, T) array, row i drawn from ``seeds[i]`` alone
    (``seeds`` is a sequence of integers).

    Innovations are sqrt(sigma2) times a standard-normal draw or a centered
    chi-square(5) draw (five squared standard normals minus 5; variance 10
    before scaling, not re-standardized).  ``center`` selects exact-mean
    centering ("exact": chi-square draws have their mean 5
    removed) or additional per-sample centering ("empirical": each row's
    realized innovation mean is subtracted too).  A presample of
    500 + 10*(p+q) steps, started from zero, is discarded.

    Each row's random stream comes from ``np.random.default_rng(seed)``;
    scaling, centring and the filter run on a whole chunk of rows at once,
    with every row bitwise what it would be alone.  A chunk holds at most
    ``el._BATCH_ENTRIES`` innovation samples, so the innovation buffer stays
    near the solver batches' size however many seeds are given.
    """
    if T < 4:
        raise InputError(f"need T >= 4, got {T}")
    if center not in ("exact", "empirical"):
        raise InputError(f"unknown centering {center!r}; use 'exact' or 'empirical'")
    if noise not in (NoiseKind.STANDARD_NORMAL, NoiseKind.CENTERED_CHI2_5):
        raise InputError(f"unknown noise kind {noise!r}")
    from scipy.signal import lfilter

    burn = 500 + 10 * (spec.p + spec.q)
    m = T + burn
    # lfilter applies z_t = sum phi_i z_{t-i} + a_t - sum theta_m a_{t-m}
    # with zero initial conditions.
    b = np.concatenate(([1.0], -spec.ma))
    a_poly = np.concatenate(([1.0], -spec.ar))
    out = np.empty((len(seeds), T))
    for part in batch_slices(len(seeds), m):
        buf = np.empty((part.stop - part.start, m))
        for row, seed in zip(buf, seeds[part]):
            rng = np.random.default_rng(seed)
            if noise is NoiseKind.STANDARD_NORMAL:
                rng.standard_normal(out=row)
            else:
                row[:] = np.sum(rng.standard_normal((m, 5)) ** 2, axis=1) - 5.0
        buf *= np.sqrt(spec.sigma2)
        if center == "empirical":
            buf -= buf.mean(axis=1, keepdims=True)
        out[part] = lfilter(b, a_poly, buf, axis=1)[:, burn:]
    return out
