r"""Log-scaled modified Bessel functions of integer order.

The spectral kernels of this package mix factors like I_n(beta)/K_n(beta)
and K_m(alpha*beta)/I_m(alpha*beta) whose magnitudes overflow double
precision long before the physically relevant truncation orders are
reached (K_300(1) alone is ~1e700).  Everything here therefore works with
natural logarithms of the function values and exponentiates as late as
possible.

Evaluation strategy:

* Both ladders run a ratio recurrence vectorized over the arguments and
  then take one ``log`` and one ``cumsum``: each ratio lies between 1 and
  about 2N/x, so nothing overflows or needs renormalizing on the way.
* ``log_k_ladder`` starts from e^x K_0 and e^x K_1, computed by the
  trapezoidal rule on e^x K_n(x) = int_0^inf exp(-2x sinh^2(t/2)) cosh(nt) dt
  (DLMF 10.32.9): in t for x < 1, and for x >= 1 in s = sqrt(2x) sinh(t/2),
  where the integrand becomes exp(-s^2) 2/sqrt(2x + s^2), times
  (1 + s^2/x) for K_1.  The rule converges exponentially for these
  integrands (Trefethen & Weideman, SIAM Review 56, 2014).  It then
  recurs upward, the stable direction for K,
  sigma_n = K_{n+1}/K_n = 2n/x + 1/sigma_{n-1}.
* ``log_i_ladder`` recurs downward, rho_k = I_k/I_{k+1} = 2(k+1)/x + 1/rho_{k+1}
  (Miller's algorithm; Gautschi, SIAM Review 9, 1967), from L(N, x) orders
  above the top ratio rho_{N-1}, seeded there by Amos's bound (Math. Comp.
  28, 1974) and damped below rounding by the recurrence.  The absolute
  scale comes from the Wronskian I_0 K_1 + I_1 K_0 = 1/x (DLMF 10.28.2),
  log I_0 = x - log x - log(e^x K_1 + e^x K_0/rho_0), whose terms are
  all positive.
* Below ``_SMALL_ARGUMENT`` both ladders use the exact small-argument
  forms instead, where 2n/x would overflow the recurrences and
  cosh(t) the quadrature.

Derivatives use I'_n = (I_{n-1} + I_{n+1})/2 and
K'_n = -(K_{n-1} + K_{n+1})/2; only the (positive) magnitude of K' is
stored, its sign being constant.  ``log_di_ladder`` and ``log_dk_ladder``
add neighbouring ladder entries in log space.

``log_diag_pair`` gives the kernels' diagonal factors d_n = I_n/K_n (TM)
and I'_n/|K'_n| (TE) in one pass per argument: one K_0/K_1 seed serves
both ratio recurrences, log d_n = log(I_0/K_0) - sum_{k<n} log(rho_k sigma_k)
takes one ``log`` and one ``cumsum``, and the ratios themselves give

    I'_n/I_n = (rho_{n-1} + 1/rho_n)/2,   |K'_n|/K_n = (1/sigma_{n-1} + sigma_n)/2,

(1/rho_0 and sigma_0 at n = 0), so TE adds one ``log`` of a quotient of
positive sums to TM.  Below ``_SMALL_ARGUMENT`` the pass runs at x = 1
instead, and each block's columns there are overwritten from the
small-argument ladders, taken in log space.  The pass runs over
blocks of orders (``log_diag_blocks``; ``order_blocks`` gives each block
2^14 order-by-argument elements per polarization): only rho, which
recurs downward from n_max, is held whole, while sigma recurs upward a
block at a time, TE and TM are formed per block and the TM cumulative
sum carries its last row into the next block.  Each value takes the same operations in the same
order as in one whole-array pass, so the blocks change no bit.

The module also provides the large-order uniform (Debye) expansion
machinery: the phase function eta, the first correction polynomial u(t)
and the asymptotic ratios K_n(n*alpha*y)/K_n(n*y) and
I_n(n*alpha*y)/I_n(n*y).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_ORDER",
    "MAX_ARGUMENT",
    "ScaledBesselPair",
    "bessel_i",
    "bessel_k",
    "bessel_i_prime",
    "bessel_k_prime",
    "log_bessel_i",
    "log_bessel_k",
    "scaled_bessel_pair",
    "log_i_ladder",
    "log_k_ladder",
    "log_di_ladder",
    "log_dk_ladder",
    "log_diag_pair",
    "debye_eta",
    "debye_u",
    "debye_t",
    "uniform_k_ratio",
    "uniform_i_ratio",
]

# Caps sized so that truncation studies at radius ratios down to ~1.01
# never hit them (orders of a few hundred, arguments of a few hundred).
# The ladder routines accept a wider argument range than the scalar
# accessors because fine-tolerance frequency grids reach beyond the
# scalar cap while staying fully scaled.
MAX_ORDER = 512
MAX_ARGUMENT = 700.0
LADDER_MAX_ARGUMENT = 2000.0

_SMALL_ARGUMENT = 1e-8  # the ladders switch to the small-argument forms below this
_BLOCK_ELEMENTS = 1 << 14  # order rows x arguments per polarization in one block of orders
_DAMPING_ROWS = 35.0 / (2.0 * math.asinh(1.0))  # unit-bound rows of e^35 I-ratio seed damping

# Trapezoidal rules for e^x K_0 and e^x K_1 (``_k01_scaled``), built once:
# step _STEP in t for x < 1, up to t = log(100/_SMALL_ARGUMENT) + 2, of which
# a call uses the nodes up to log(100/min x) + 2; for x >= 1 step _STEP in
# s = sqrt(2x) sinh(t/2) up to s = 6.4, beyond which exp(-s^2) < 2e-18.
# Row 0 of the weights is the rule for K_0; row 1 carries cosh(t) for K_1
# in t, and s^2 for the s^2/x part of the K_1 integrand in s.
_STEP = 0.2


def _t_node_count(x_min):
    """Nodes t = 0, _STEP, ... up to log(100/x_min) + 2."""
    return int((math.log(100.0 / x_min) + 2.0) / _STEP) + 1


_T_NODES = _STEP * np.arange(_t_node_count(_SMALL_ARGUMENT))
_T_EXPONENTS = -2.0 * np.sinh(0.5 * _T_NODES) ** 2
_T_WEIGHTS = _STEP * np.array([np.ones_like(_T_NODES), np.cosh(_T_NODES)])
_T_WEIGHTS[:, 0] *= 0.5
_S_SQUARES = (_STEP * np.arange(33)) ** 2
_S_WEIGHTS = _STEP * np.exp(-_S_SQUARES) * np.array([np.ones_like(_S_SQUARES), _S_SQUARES])
_S_WEIGHTS[:, 0] *= 0.5


def _validate_argument(x, cap=LADDER_MAX_ARGUMENT):
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise ValueError("argument must not be NaN")
    if np.any(x < 0.0):
        raise ValueError("argument must be nonnegative")
    if np.any(x > cap):
        raise ValueError(f"argument exceeds supported range x <= {cap}")
    return x


def _piecewise(x, edge, below, above, *args):
    """``below(x, *args)`` where x < edge and ``above(x, *args)`` elsewhere, each an
    array with x along its last axis, merged into one such array."""
    low = x < edge
    if not low.any():
        return above(x, *args)
    if low.all():
        return below(x, *args)
    part = below(x[low], *args)
    out = np.empty(part.shape[:-1] + x.shape)
    out[..., low] = part
    out[..., ~low] = above(x[~low], *args)
    return out


def _checked(x, n_max, zero_ok=False):
    """x as a float array (0 only if ``zero_ok``) and n_max >= 0 as an int, both checked."""
    x = _validate_argument(x)
    if not zero_ok and np.any(x == 0.0):
        raise ValueError("K_n diverges at x = 0")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return x, n_max


def _ladder_entry(x, n_max, below, above, zero_ok=False):
    """The I and K ladders' entry: ``_checked``, then ``_piecewise`` at
    ``_SMALL_ARGUMENT`` on the flattened x, shaped like x."""
    x, n_max = _checked(x, n_max, zero_ok)
    out = _piecewise(x.reshape(-1), _SMALL_ARGUMENT, below, above, n_max)
    return out.reshape(out.shape[:-1] + x.shape)


def _log_factorial(n):
    """log n! for the column n = 0, 1, ..., N, as a cumulative sum of logs."""
    return np.cumsum(np.log(np.maximum(n, 1.0)), axis=0)


def _i_small(x, n_max):
    """n log(x/2) - log n! + log(1 + x^2/(4(n+1))), with the limits at x = 0."""
    n = np.arange(n_max + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = n * (np.log(x) - math.log(2.0)) - _log_factorial(n) + np.log1p(0.25 * x * x / (n + 1))
    out[:, x == 0.0] = -np.inf
    out[0, x == 0.0] = 0.0
    return out


def log_i_ladder(x, n_max):
    """log I_n(x) for n = 0..n_max, shape (n_max+1,) + x.shape.

    Downward ratio recurrence started above the top order (see
    ``_i_ratios``); x may be an array.  Below ``_SMALL_ARGUMENT`` the exact
    small-argument form n log(x/2) - log n! + log(1 + x^2/(4(n+1))) is
    used instead, whose neglected terms are O(x^4).  x == 0 entries yield
    the exact limits log I_0(0) = 0 and log I_n(0) = -inf for n > 0.
    """
    return _ladder_entry(x, n_max, _i_small, _i_ladder_above, zero_ok=True)


def _k_small(x, n_max):
    """log K_0 = log(-log(x/2) - gamma_E) and log K_n = log((n-1)!/2) + n log(2/x),
    n >= 1, whose relative corrections, O(x^2 log x), are below rounding here."""
    n = np.arange(n_max + 1)[:, None]
    log_half_x = np.log(x) - math.log(2.0)  # 0.5 * x would round the least subnormal to 0
    out = _log_factorial(n) - np.log(np.maximum(n, 1.0)) - n * log_half_x - math.log(2.0)
    out[0] = np.log(-log_half_x - np.euler_gamma)
    return out


def _k01_t(x):
    """(e^x K_0, e^x K_1) for _SMALL_ARGUMENT <= x < 1: the rule in t."""
    m = _t_node_count(x.min())
    return _T_WEIGHTS[:, :m] @ np.exp(np.multiply.outer(_T_EXPONENTS[:m], x))


def _k01_s(x):
    """(e^x K_0, e^x K_1) for x >= 1: the rule in s."""
    k = _S_WEIGHTS @ (2.0 / np.sqrt(np.add.outer(_S_SQUARES, 2.0 * x)))
    k[1] /= x
    k[1] += k[0]
    return k


def _k01_scaled(x):
    """(e^x K_0(x), e^x K_1(x)), shape (2, x.size), for x >= ``_SMALL_ARGUMENT``, by the
    trapezoidal rules described in the module docstring."""
    return _piecewise(x, 1.0, _k01_t, _k01_s)


def _extension_rows(x, n):
    """Orders L above n - 1 from which the downward I-ratio recurrence damps its seed's
    error (at most 2.3e-2, at nu = 1) by e^35: row k damps it by rho_k rho_{k+1} >=
    exp(2 asinh((k + 1/2)/x)) >= exp(2 asinh(1) min((k + 1/2)/x, 1)).  L solves the
    quadratic sum of the rows whose min is below 1, or adds unit rows after them.
    Elementwise in x, so no column depends on its batch."""
    ramp = np.maximum(np.ceil(x - (n - 0.5)), 0.0)  # rows with (k + 1/2)/x < 1
    ramp_sum = (ramp * (n - 0.5) + 0.5 * ramp * (ramp - 1.0)) / x
    quadratic = np.ceil(np.sqrt((n - 1.0) ** 2 + 2.0 * _DAMPING_ROWS * x) - (n - 1.0))
    rows = np.where(ramp_sum >= _DAMPING_ROWS, quadratic, ramp + np.ceil(_DAMPING_ROWS - ramp_sum))
    return rows.astype(int)


def _i_ratios(x, n, spare=0):
    """A buffer whose first n rows hold rho_k = I_k/I_{k+1}, k = 0..n-1 (n >= 1), and then
    at least ``spare`` free rows.  Column j runs rho_k = 2(k+1)/x + 1/rho_{k+1} down from
    nu = n - 1 + ``_extension_rows``, seeded by Amos's rho_nu ~ (nu + 1/2 + sqrt((nu + 3/2)^2
    + x^2))/x under a row of +inf: 1/inf = 0 keeps the seed, so one row loop serves all."""
    top = n + _extension_rows(x, n)  # row nu + 1 of each column
    rows = top.max() + 1
    work = np.empty((max(rows, n + spare), x.size))
    rho = np.multiply.outer(np.arange(1.0, rows + 1), 2.0 / x, out=work[:rows])
    nu, columns = top - 1.0, np.arange(x.size)
    rho[top - 1, columns] = (nu + 0.5 + np.sqrt((nu + 1.5) ** 2 + x * x)) / x
    rho[top, columns] = np.inf
    inverse = np.empty(x.size)
    for row, above in zip(rho[-2::-1], rho[:0:-1]):
        row += np.reciprocal(above, out=inverse)
    return work


def _k_ratios(x, k0, k1, n):
    """sigma_k = K_{k+1}/K_k for k = 0..n-1, shape (n, x.size), n >= 1: sigma_0 = K_1/K_0
    from the seed, and sigma_k = 2k/x + 1/sigma_{k-1} runs upward."""
    sigma = np.multiply.outer(np.arange(float(n)), 2.0 / x)
    sigma[0] = k1 / k0
    inverse = np.empty(x.size)
    for row, below in zip(sigma[1:], sigma):
        row += np.reciprocal(below, out=inverse)
    return sigma


def _log_i0(x, k0, k1, rho0):
    """log I_0 from the Wronskian I_0 K_1 + I_1 K_0 = 1/x, given rho_0 = I_0/I_1."""
    return x - np.log(x) - np.log(k1 + k0 / rho0)


def _cumulate(out, ratios, step):
    """out[1:] = step(out[0], cumsum(log ratios)) down the order axis; overwrites ratios."""
    np.log(ratios, out=ratios)
    np.cumsum(ratios, axis=0, out=ratios)
    step(out[0], ratios, out=out[1:])
    return out


def _i_ladder_above(x, n_max):
    k0, k1 = _k01_scaled(x)
    rho = _i_ratios(x, max(n_max, 1))
    out = np.empty((n_max + 1, x.size))
    out[0] = _log_i0(x, k0, k1, rho[0])
    return _cumulate(out, rho[:n_max], np.subtract)


def _k_ladder_above(x, n_max):
    k0, k1 = _k01_scaled(x)
    out = np.empty((n_max + 1, x.size))
    out[0] = np.log(k0) - x
    return _cumulate(out, _k_ratios(x, k0, k1, max(n_max, 1))[:n_max], np.add)


def log_k_ladder(x, n_max):
    """log K_n(x) for n = 0..n_max, shape (n_max+1,) + x.shape.

    Upward ratio recurrence from K_0, K_1; stable because K grows with
    order.  Below ``_SMALL_ARGUMENT`` the small-argument form
    log K_n = log((n-1)!/2) + n log(2/x) (n >= 1) is used instead, exact
    to double precision there.  Requires x > 0.
    """
    return _ladder_entry(x, n_max, _k_small, _k_ladder_above)


def _log_derivative(ladder, n_max):
    """log (F_{n-1} + F_{n+1})/2 for n = 0..n_max from a log ladder of F_0..F_{n_max+1}.

    F_{-1} = F_1 for integer order, so this is log I'_n from the I ladder
    and log |K'_n| from the K ladder.
    """
    out = np.empty((n_max + 1,) + ladder.shape[1:])
    out[0] = ladder[1]
    np.logaddexp(ladder[: n_max], ladder[2 : n_max + 2], out=out[1:])
    out[1:] -= math.log(2.0)
    return out


def _diag_small(x, n_max):
    """``log_diag_pair`` below ``_SMALL_ARGUMENT``, from the small-argument ladders."""
    log_i, log_k = _i_small(x, n_max + 1), _k_small(x, n_max + 1)
    tm = log_i[: n_max + 1] - log_k[: n_max + 1]
    return np.array([tm, _log_derivative(log_i, n_max) - _log_derivative(log_k, n_max)])


def order_blocks(rows, width):
    """(a, b) ranges covering the order rows 0..rows-1 of a ladder over ``width`` arguments,
    ``_BLOCK_ELEMENTS`` // width rows each (at least one)."""
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    return [(a, min(a + step, rows)) for a in range(0, rows, step)]


def _diag_above(x, n_max):
    """``log_diag_pair`` of x >= ``_SMALL_ARGUMENT`` over the blocks of ``order_blocks``.

    Yields (a, b, block), block[:, j] the (TM, TE) log d_{a+j}.  One K_0/K_1 seed
    serves both ratio ladders.  Only rho is held whole, since it recurs downward from
    n_max; sigma recurs upward a block at a time, and each block's products rho_k sigma_k
    overwrite the rho rows no later block reads, their cumulative log sum included, so
    the last of them carries the TM sum into the next block.  Every block reuses one
    buffer: read it before asking for the next.
    """
    blocks = order_blocks(n_max + 1, x.size)
    rows = blocks[0][1]
    # rho, the block and the sigma rows share one allocation, the latter two over rho's
    # extension rows.  Apart, glibc's trim threshold (twice the largest chunk freed)
    # fell below the footprint of a pass, and sweep workers returned and refaulted
    # those pages solve after solve.
    work = _i_ratios(x, n_max + 1, spare=1 + 3 * rows)
    rho = work[: n_max + 1]
    out = work[n_max + 1 : n_max + 1 + 2 * rows].reshape(2, rows, x.size)
    sigma = work[n_max + 1 + 2 * rows :]  # sigma_{a-1}..sigma_{b-1}
    k0, k1 = _k01_scaled(x)
    tm0 = _log_i0(x, k0, k1, rho[0]) - np.log(k0) + x
    two_over_x, inverse = 2.0 / x, np.empty(x.size)
    sigma[1] = k1 / k0
    for a, b in blocks:
        m = b - a
        lo = int(a == 0)  # the block's first row with n >= 1
        tm, te = out[:, :m]
        s = sigma[: m + 1]
        if a:
            s[0] = sigma[rows]
        # sigma_k = 2k/x + 1/sigma_{k-1}, upward
        np.multiply.outer(np.arange(a + lo, b, dtype=float), two_over_x, out=s[1 + lo :])
        for row, below in zip(s[1 + lo :], s[lo:]):
            row += np.reciprocal(below, out=inverse)
        # TE over TM: (rho_{n-1} + 1/rho_n) / (1/sigma_{n-1} + sigma_n), 1/(rho_0 sigma_0) at
        # n = 0; the TM rows hold the denominator until they are written
        np.divide(1.0, rho[a:b], out=te)
        te[lo:] += rho[a + lo - 1 : b - 1]
        if lo:
            tm[0] = s[1]
        np.divide(1.0, s[lo:m], out=tm[lo:])
        tm[lo:] += s[lo + 1 :]
        te /= tm
        np.log(te, out=te)
        # TM: log(I_0/K_0) - sum_{k<n} log(rho_k sigma_k), the sum carried in rho
        k = a + lo - 1
        prod = rho[k : b - 1]
        prod *= s[lo:m]
        np.log(prod, out=prod)
        if k:
            prod[0] += rho[k - 1]
        np.cumsum(prod, axis=0, out=prod)
        if lo:
            tm[0] = tm0
        np.subtract(tm0, prod, out=tm[lo:])
        te += tm
        yield a, b, out[:, :m]


def _diag_blocks(x, n_max):
    """``_diag_above``'s blocks over flat x; the columns below ``_SMALL_ARGUMENT`` run
    at x = 1 and are overwritten in each block from ``_diag_small``."""
    low = x < _SMALL_ARGUMENT
    if not low.any():
        yield from _diag_above(x, n_max)
        return
    small = _diag_small(x[low], n_max)
    for a, b, block in _diag_above(np.where(low, 1.0, x), n_max):
        block[..., low] = small[:, a:b]
        yield a, b, block


def log_diag_blocks(x, n_max):
    """``log_diag_pair(x, n_max)`` over the flattened x, one order block at a time.

    Returns an iterator of (a, b, block), block of shape (2, b - a, x.size) holding
    orders a..b-1, in increasing order; x and n_max are checked at once.  A block is
    overwritten by the next, so read each before advancing.
    """
    x, n_max = _checked(x, n_max)
    return _diag_blocks(x.reshape(-1), n_max)


def log_diag_pair(x, n_max):
    """(TM, TE) log d_n for n = 0..n_max, shape (2, n_max+1) + x.shape.

    d_n = I_n(x)/K_n(x) for TM and I'_n(x)/|K'_n(x)| for TE.  One pass per
    argument: one K_0/K_1 seed, the I and K ratio ladders, then
    log d_n = log(I_0/K_0) - sum_{k<n} log(rho_k sigma_k) and
    log d_n^TE = log d_n + log[(I'_n/I_n) / (|K'_n|/K_n)], every term of
    the ratio positive, filled in from ``log_diag_blocks``.  Below
    ``_SMALL_ARGUMENT`` the small-argument ladders serve instead.
    Requires x > 0.
    """
    shape = np.shape(x)
    blocks = log_diag_blocks(x, n_max)
    out = np.empty((2, int(n_max) + 1, math.prod(shape)))
    for a, b, block in blocks:
        out[:, a:b] = block
    return out.reshape(out.shape[:2] + shape)


def log_di_ladder(x, n_max):
    """log I'_n(x) for n = 0..n_max (I' > 0 for x > 0)."""
    return _log_derivative(log_i_ladder(x, n_max + 1), n_max)


def log_dk_ladder(x, n_max):
    """log |K'_n(x)| for n = 0..n_max; the sign of K'_n is always -1."""
    return _log_derivative(log_k_ladder(x, n_max + 1), n_max)


@dataclass(frozen=True)
class ScaledBesselPair:
    """Natural logs of I_n(x) and K_n(x) at one order and argument."""

    log_i: float
    log_k: float


def _scalar(ladder, n, x):
    """``ladder(x, |n|)[|n|]`` as a float, for |n| <= MAX_ORDER and 0 <= x <= MAX_ARGUMENT
    (I_{-n} = I_n, K_{-n} = K_n for integer order; the K ladders reject x = 0)."""
    n = abs(int(n))
    if n > MAX_ORDER:
        raise ValueError(f"order |n| <= {MAX_ORDER} supported")
    return float(ladder(_validate_argument(float(x), cap=MAX_ARGUMENT), n)[n])


def log_bessel_i(n, x):
    """log I_n(x) with exact integer-order reflection; -inf at x = 0, n != 0."""
    return _scalar(log_i_ladder, n, x)


def log_bessel_k(n, x):
    """log K_n(x); raises for x <= 0."""
    return _scalar(log_k_ladder, n, x)


def scaled_bessel_pair(n, x):
    """Overflow-safe (log I_n(x), log K_n(x)) for x > 0."""
    return ScaledBesselPair(log_bessel_i(n, x), log_bessel_k(n, x))


def _exp_checked(log_value, what):
    if log_value > math.log(np.finfo(float).max):
        raise OverflowError(f"{what} exceeds double-precision range; use the log-scaled form")
    return math.exp(log_value)


def bessel_i(n, x):
    """Modified Bessel function I_n(x) of integer order, x >= 0."""
    return _exp_checked(log_bessel_i(n, x), "I_n(x)")


def bessel_k(n, x):
    """Modified Bessel function K_n(x) of integer order, x > 0."""
    return _exp_checked(log_bessel_k(n, x), "K_n(x)")


def bessel_i_prime(n, x):
    """I'_n(x) = (I_{n-1}(x) + I_{n+1}(x))/2."""
    return _exp_checked(_scalar(log_di_ladder, n, x), "I'_n(x)")


def bessel_k_prime(n, x):
    """K'_n(x) = -(K_{n-1}(x) + K_{n+1}(x))/2, always negative."""
    return -_exp_checked(_scalar(log_dk_ladder, n, x), "K'_n(x)")


# ---------------------------------------------------------------------------
# Large-order uniform (Debye) asymptotics.

def debye_eta(y):
    """Phase function eta(y) = sqrt(1+y^2) + log(y / (1 + sqrt(1+y^2)))."""
    y = np.asarray(y, dtype=float)
    root = np.sqrt(1.0 + y * y)
    return root + np.log(y / (1.0 + root))


def debye_u(t):
    """First uniform-expansion correction u(t) = (3t - 5t^3)/24."""
    t = np.asarray(t, dtype=float)
    return (3.0 * t - 5.0 * t ** 3) / 24.0


def debye_t(y):
    """t(y) = 1/sqrt(1 + y^2), in (0, 1]; t -> 1 as y -> 0."""
    y = np.asarray(y, dtype=float)
    return 1.0 / np.sqrt(1.0 + y * y)


def uniform_k_ratio(n, y, alpha):
    """Uniform-asymptotic approximation to K_n(n*alpha*y)/K_n(n*y).

    ((1+y^2)/(1+alpha^2 y^2))^(1/4)
        * (1 - u(t_alpha)/n) / (1 - u(t_1)/n)
        * exp(-n [eta(alpha y) - eta(y)])

    valid for large order n; the relative error at n = 50 is below 1e-3
    for alpha > 1 and decreases with n.
    """
    return _uniform_ratio(n, y, alpha, -1.0)


def uniform_i_ratio(n, y, alpha):
    """Uniform-asymptotic approximation to I_n(n*alpha*y)/I_n(n*y).

    Same structure as the K ratio with the exponent sign flipped and
    (1 + u/n) correction factors.
    """
    return _uniform_ratio(n, y, alpha, 1.0)


def _uniform_ratio(n, y, alpha, sign):
    """The K (sign -1.0) or I (sign 1.0) uniform ratio; the sign flips exactly."""
    if n < 1:
        raise ValueError("uniform expansion requires n >= 1")
    y = float(y)
    alpha = float(alpha)
    t1 = debye_t(y)
    ta = debye_t(alpha * y)
    prefactor = ((1.0 + y * y) / (1.0 + (alpha * y) ** 2)) ** 0.25
    correction = (1.0 + sign * debye_u(ta) / n) / (1.0 + sign * debye_u(t1) / n)
    return prefactor * correction * math.exp(sign * n * (debye_eta(alpha * y) - debye_eta(y)))
