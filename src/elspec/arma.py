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
import functools
import operator
import os
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InputError, InvalidModelError

# Root-modulus slack used by the stationarity/invertibility test; avoids
# flakiness for coefficients sitting numerically on the unit circle.
STATIONARITY_MARGIN = 1e-8

# Callers batch at most about this many psi entries (N * m * k) per
# el.solve_duals call, simulate_stack this many innovation samples per
# chunk and periodogram_stack half as many series samples per FFT call,
# which keeps the temporaries near 1 MB.
_BATCH_ENTRIES = 1 << 15

# numpy's SeedSequence (O'Neill's seed_seq mixer, PCG report HMC-CS-2014-0905):
# pool size in uint32 words, and its hash constants.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
    modulus < 1 - STATIONARITY_MARGIN), and sigma2 is positive and finite.
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
            if not 0.0 < self.sigma2 < np.inf:
                raise InvalidModelError(f"sigma2 must be positive and finite, got {self.sigma2}")
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
    """Observed real-valued series (an owned 1-D copy) with its sample mean
    cached.  Fewer than 4 values, a non-finite value and a sum that
    overflows raise InputError."""

    values: np.ndarray
    mean: float = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).flatten()
        if vals.size < 4:
            raise InputError(f"series must have at least 4 observations, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise InputError("series contains non-finite values")
        with np.errstate(over="ignore"):
            mean = float(vals.mean())
        if not np.isfinite(mean):
            raise InputError("series mean is not finite: the sum of the values overflows")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mean", mean)

    @property
    def T(self) -> int:
        return int(self.values.size)


def lag_table(omega, lags: int):
    """The lag table cos(wl), sin(wl) for l = 1..``lags`` at the 1-D
    frequency grid ``omega``: a pair of (n, lags) arrays.

    Entry (j, l - 1) is the cosine or sine of the product w_j * l alone, so
    column l of a wider table is bitwise the same column of a narrower one,
    and a lag polynomial of order r reads the first r columns of any table
    as it would read its own.  One table to lag max(p, q) serves every
    value, gradient and curvature evaluation of a request.
    """
    arg = np.asarray(omega, dtype=float)[:, None] * np.arange(1.0, lags + 1.0)
    return np.cos(arg), np.sin(arg)


def _lag_poly(coeffs, table, grad=None, curv=None):
    """|P|^2 of P(w) = 1 - sum_k c_k e^{-iwk} for a stack of coefficient
    vectors ``coeffs`` (N, r) from the :func:`lag_table` ``table`` (lags
    >= r); when ``grad`` (an (N, n, r) array) is given, its log-derivatives
    are written into it, and when ``curv`` (an (N, n, r, r) array) is given
    too, its log-curvatures (from ``grad``).

    Real arithmetic throughout: Re P = 1 - sum_k c_k cos(wk) and
    Im P = sum_k c_k sin(wk), so |P|^2 = Re P^2 + Im P^2 and, exactly for
    every order,

        d ln|P|^2 / d c_l = -2 Re z_l = -2 (cos(wl) Re P - sin(wl) Im P) / |P|^2

    with z_l = e^{-iwl} / P = (cos(wl) - i sin(wl)) (Re P - i Im P) / |P|^2,
    whose imaginary part is -y_l, y_l = (sin(wl) Re P + cos(wl) Im P) / |P|^2.
    So the curvature is

        d^2 ln|P|^2 / d c_l d c_m = -2 Re(z_l z_m) = 2 y_l y_m - grad_l grad_m / 2,

    which needs no lag beyond r and no complex numbers.  The sums run lag
    by lag and the curvature lag pair by lag pair, so each row's values do
    not depend on the stack it is in.
    """
    cos, sin = table
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
    if curv is not None:
        y = s * re[..., None]
        y += c * im[..., None]
        y /= mod2[..., None]
        for l in range(r):
            for m in range(l, r):
                curv[..., l, m] = 2.0 * y[..., l] * y[..., m] - grad[..., l] * grad[..., m] / 2.0
                curv[..., m, l] = curv[..., l, m]
    return mod2


def shape_and_gradient_stack(ar, ma, table, gradient: bool = True, hessian: bool = False):
    """g1(w) and, when ``gradient``, the (phi's, theta's) columns of
    grad ln g1 (else None) for a stack of models, all from one lag table;
    with ``hessian`` also the curvature of ln g1, as a third result.

    ``ar`` is (N, p) and ``ma`` (N, q), one model per row; ``table`` is the
    :func:`lag_table` of a frequency grid of length n, with lags >=
    max(p, q).  Returns g1 of shape (N, n), the gradient of shape
    (N, n, p + q) and the curvature of shape (N, n, p + q, p + q).
    ln g1 = ln|theta|^2 - ln|phi|^2 - ln(2 pi), so the AR columns and block
    are the negated lag-polynomial derivatives, and the curvature has no
    AR-MA cross terms; empty polynomials (P = 1) are skipped.

    The gradient is stored column-major: it is the (N, n, p + q) view of an
    (N, p + q, n) array, so each model's column over the frequencies is
    contiguous, and so are the reductions over frequencies downstream (the
    psi centring and the dual's sums over rows).
    """
    ar, ma = np.asarray(ar, dtype=float), np.asarray(ma, dtype=float)
    count, n, p, q = max(len(ar), len(ma)), len(table[0]), ar.shape[1], ma.shape[1]
    grad = np.empty((count, p + q, n)).transpose(0, 2, 1) if gradient or hessian else None
    curv = np.zeros((count, n, p + q, p + q)) if hessian else None
    if p or q:
        ar_mod2 = _lag_poly(ar, table, *_blocks(grad, curv, slice(0, p))) if p else 1.0
        ma_mod2 = _lag_poly(ma, table, *_blocks(grad, curv, slice(p, p + q))) if q else 1.0
        g1 = ma_mod2 / ar_mod2 / (2.0 * np.pi)
        if grad is not None:
            np.negative(grad[..., :p], out=grad[..., :p])
        if curv is not None:
            np.negative(curv[..., :p, :p], out=curv[..., :p, :p])
    else:
        g1 = np.full((count, n), 1.0 / (2.0 * np.pi))
    if hessian:
        return g1, grad, curv
    return g1, grad


def _blocks(grad, curv, cols):
    """The gradient columns and curvature block of one lag polynomial."""
    return (None if grad is None else grad[..., cols],
            None if curv is None else curv[..., cols, cols])


def _shape_and_gradient(spec: ArmaSpec, omega, gradient: bool = True):
    """:func:`shape_and_gradient_stack` for one model at frequencies of any
    shape; the gradient gets a trailing parameter axis."""
    w = np.asarray(omega, dtype=float)
    table = lag_table(w.ravel(), max(spec.order))
    g1, grad = shape_and_gradient_stack(spec.ar[None], spec.ma[None], table, gradient)
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


@functools.cache
def _hash_constants(width: int, n32: int):
    """Constants of numpy's SeedSequence hash for ``width`` entropy words and
    ``n32`` uint32 output words, as read-only uint32 arrays.

    Returns the xor and multiply constants of every ``hashmix`` round,
    (rounds, 4, 1), and those of ``generate_state``, (n32, 1).  Call i of
    ``hashmix`` xors its word with INIT_A * MULT_A^i and multiplies it by the
    next power (all modulo 2^32); a round makes four calls side by side:
    round 0 hashes the pool, round 1 + s mixes pool word s into the three
    others (its own slot takes a dummy constant) or, past the pool, entropy
    word s into all four.
    """
    def powers(init, mult, count):
        out = [init]
        for _ in range(count):
            out.append(out[-1] * mult & _MASK32)
        return np.array(out, dtype=np.uint32)

    rounds, call = [list(range(_POOL))], _POOL
    for src in range(_POOL):
        rounds.append([])
        for dst in range(_POOL):
            rounds[-1].append(call if dst != src else 0)
            call += dst != src
    for _ in range(_POOL, width):
        rounds.append(list(range(call, call + _POOL)))
        call += _POOL
    idx = np.array(rounds)[..., None]
    hash_a, hash_b = powers(_INIT_A, _MULT_A, call), powers(_INIT_B, _MULT_B, n32)[:, None]
    tables = (hash_a[idx], hash_a[idx + 1], hash_b[:-1], hash_b[1:])
    for table in tables:
        table.flags.writeable = False
    return tables


def _seed_sequence_state(entropy, n_words: int, dtype=np.uint32) -> np.ndarray:
    """``np.random.SeedSequence(e).generate_state(n_words, dtype)`` for every
    row ``e`` of the (N, w) uint32 ``entropy`` array, as an (N, n_words) array.

    numpy's hash steps its constants from call to call whatever the data, so
    it runs here on whole columns, with the calls that do not feed each
    other side by side in one array operation (see :func:`_hash_constants`).
    uint32 array arithmetic wraps as numpy's C code does.
    """
    words = np.asarray(entropy, dtype=np.uint32).T  # one row per entropy word
    width, count = words.shape
    n32 = 2 * n_words if np.dtype(dtype) == np.uint64 else n_words
    xor, mul, xor_b, mul_b = _hash_constants(width, n32)

    def hashmix(value, r):
        value = value ^ xor[r]
        value *= mul[r]
        value ^= value >> 16
        return value

    def mix(pool, value):  # pool <- mix(pool, value), in place
        pool *= np.uint32(_MIX_MULT_L)
        value *= np.uint32(_MIX_MULT_R)
        pool -= value
        pool ^= pool >> 16

    pool = np.zeros((_POOL, count), dtype=np.uint32)
    pool[:width] = words[:_POOL]
    pool = hashmix(pool, 0)
    for src in range(_POOL):  # mix each pool word into the three others
        keep = pool[src].copy()
        mix(pool, hashmix(keep, 1 + src))
        pool[src] = keep
    for src in range(_POOL, width):  # entropy wider than the pool
        mix(pool, hashmix(words[src], 1 + src))
    state = pool[np.arange(n32) % _POOL] ^ xor_b  # generate_state cycles the pool
    state *= mul_b
    state ^= state >> 16
    state = np.ascontiguousarray(state.T)
    if n32 == n_words:
        return state
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _word_count(v: int) -> int:
    return max(1, -(-v.bit_length() // 32))


def _value_words(values):
    """The little-endian uint32 words of the non-negative integers
    ``values``, one zero-padded row per value, and each value's word count.

    Integer arrays, and ranges with a positive step, of values below 2^64
    split with array shifts; other values are read one by one."""
    if isinstance(values, range) and values.step > 0 and 0 <= values.start and values.stop <= 1 << 64:
        values = np.arange(values.start, values.stop, values.step, dtype=np.uint64)
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        if values.size and values.min() < 0:
            raise InputError("seeds must be non-negative integers")
        v = values.astype(np.uint64, copy=False)
        words = np.stack([v & np.uint64(_MASK32), v >> np.uint64(32)], axis=1).astype(np.uint32)
        return words, 1 + (words[:, 1] != 0)
    values = [operator.index(v) for v in values]
    if min(values, default=0) < 0:
        raise InputError("seeds must be non-negative integers")
    counts = np.array([_word_count(v) for v in values], dtype=int)
    words = np.zeros((len(values), counts.max(initial=1)), dtype=np.uint32)
    for j in range(words.shape[1]):
        words[:, j] = [v >> 32 * j & _MASK32 for v in values]
    return words, counts


def _seed_states(prefix, values, n_words: int, dtype=np.uint32) -> np.ndarray:
    """``np.random.SeedSequence((*prefix, v)).generate_state(n_words, dtype)``
    for each non-negative integer ``v`` of ``values``, one row per value.

    A SeedSequence's entropy is the little-endian uint32 words of each
    integer in turn (one word for 0).  Entropy no wider than the 4-word pool
    hashes as if zero-padded to it, so all such rows share one hash call;
    wider rows are hashed once per width.
    """
    try:
        head = [operator.index(v) for v in prefix]
        words, counts = _value_words(values)
    except TypeError:
        raise InputError("seeds must be integers")
    if min(head, default=0) < 0:
        raise InputError("seeds must be non-negative integers")
    head = [v >> 32 * j & _MASK32 for v in head for j in range(_word_count(v))]
    widths = np.maximum(len(head) + counts, _POOL)
    out = np.empty((len(counts), n_words), dtype=dtype)
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        cols = min(width - len(head), words.shape[1])
        entropy = np.zeros((len(rows), width), dtype=np.uint32)
        entropy[:, : len(head)] = head
        entropy[:, len(head) : len(head) + cols] = words[rows, :cols]
        out[rows] = _seed_sequence_state(entropy, n_words, dtype)
    return out


@functools.cache
def _generator_from_words():
    """A function that builds ``np.random.default_rng``'s Generator from the
    four uint64 seed words its SeedSequence would hand PCG64.

    The words pass through numpy's seed-sequence interface
    ``numpy.random.bit_generator.ISeedSequence``; numpy.random is imported on
    first use only."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for generate_state(4, np.uint64)

    return lambda words: Generator(PCG64(SeedWords(words)))


# Threads that draw simulate_stack's rows: None for the default rule (one
# per allowed CPU, each with at least one full chunk of draws).
_THREADS = None


def _allowed_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _helper_pool(count: int, pid: int):
    """A pool of ``count`` helper threads for :func:`simulate_stack`, made on
    first use and kept for the process ``pid`` (a forked child, which has
    none of its parent's threads, makes its own): starting threads on
    every call costs more than drawing a few short rows."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(count, thread_name_prefix="elspec-simulate")


def batch_slices(count: int, entries: int):
    """Consecutive slices of ``count`` problems with ``entries`` values each,
    every slice within the batch budget ``_BATCH_ENTRIES``."""
    size = max(1, _BATCH_ENTRIES // max(1, entries))
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


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

    Row i draws from the stream of ``np.random.default_rng(seeds[i])``
    (seeds must be non-negative integers).  Every seed's PCG64 seed words
    come from one vectorized SeedSequence hash; each row then draws into a
    chunk of at most ``_BATCH_ENTRIES`` standard normals, so the buffers
    stay near the solver batches' size however many seeds are given.

    Every normal is drawn, so each row keeps its seed's stream, but only
    the innovations that reach the output are formed: for p = 0 with exact
    centring the last T + q, filtered by the lag sum
    b_q a_{t-q} + ... + b_0 a_t added oldest first; otherwise whole rows
    (empirical centring takes every innovation's mean), filtered by
    ``scipy.signal.lfilter``.  Rows are bitwise those of the whole-row
    ``lfilter`` loop, whose pure-MA path (``np.convolve``) adds the lags in
    the same order while its dot product runs sequentially (q <= 10 with
    numpy 2.4.6's OpenBLAS; longer sums differ by rounding).

    Rows are drawn on up to one thread per CPU the process may run on
    (``os.sched_getaffinity``, else ``os.cpu_count()``), each thread
    filling at least one full chunk: every Generator is built in the
    calling thread, the rows are split into contiguous blocks, the calling
    thread fills the first and a pool of helper threads, started on first
    use and kept for the process, the others.  numpy fills a row with the
    GIL released, so the draws run side by side.  Fewer rows than two full
    chunks, or one CPU, stay in the calling thread.  Each row depends on
    its seed alone, so the rows do not depend on the thread count.
    """
    if T < 4:
        raise InputError(f"need T >= 4, got {T}")
    if center not in ("exact", "empirical"):
        raise InputError(f"unknown centering {center!r}; use 'exact' or 'empirical'")
    if noise not in (NoiseKind.STANDARD_NORMAL, NoiseKind.CENTERED_CHI2_5):
        raise InputError(f"unknown noise kind {noise!r}")
    words = _seed_states((), seeds, 4, np.uint64)  # what default_rng(seed) hands PCG64
    generator = _generator_from_words()
    burn = 500 + 10 * (spec.p + spec.q)
    m = T + burn
    draws = 1 if noise is NoiseKind.STANDARD_NORMAL else 5  # per innovation
    # z_t = sum phi_i z_{t-i} + a_t - sum theta_m a_{t-m}, from zero
    # initial conditions.
    b = np.concatenate(([1.0], -spec.ma))
    lag_sum = spec.p == 0 and center == "exact"
    first = burn - spec.q if lag_sum else 0  # the first innovation used
    if not lag_sum:
        from scipy.signal import lfilter

        a_poly = np.concatenate(([1.0], -spec.ar))
    out = np.empty((len(words), T))
    gens = [generator(row_words) for row_words in words]

    def fill(lo, hi):
        """Draw and filter rows lo..hi - 1 of ``out``."""
        for part in batch_slices(hi - lo, draws * m):
            buf = np.empty((part.stop - part.start, m, draws))
            for row, gen in zip(buf, gens[lo + part.start : lo + part.stop]):
                gen.standard_normal(out=row)
            used = buf[:, first:]
            if draws == 1:
                a = used[..., 0]
            else:  # np.sum's order over the five squares
                np.square(used, out=used)
                a = used[..., 0] + used[..., 1]
                for d in range(2, draws):
                    a += used[..., d]
                a -= 5.0
            if spec.sigma2 != 1.0:
                a *= np.sqrt(spec.sigma2)
            rows = slice(lo + part.start, lo + part.stop)
            if lag_sum:
                z = out[rows]
                np.multiply(a[:, :T], b[-1], out=z)
                for lag in range(spec.q - 1, -1, -1):
                    z += b[lag] * a[:, spec.q - lag : spec.q - lag + T]
            else:
                if center == "empirical":
                    a -= a.mean(axis=1, keepdims=True)
                out[rows] = lfilter(b, a_poly, a, axis=1)[:, burn:]

    full_chunks = len(gens) // max(1, _BATCH_ENTRIES // (draws * m))
    threads = max(1, min(len(gens), _THREADS or min(_allowed_cpus(), full_chunks)))
    edges = [len(gens) * i // threads for i in range(threads + 1)]
    pool = _helper_pool(threads - 1, os.getpid()) if threads > 1 else None
    blocks = [pool.submit(fill, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    fill(0, edges[1])
    for block in blocks:
        block.result()
    return out
