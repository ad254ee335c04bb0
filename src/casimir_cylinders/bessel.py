r"""Log-scaled modified Bessel functions of integer order.

The spectral kernels of this package mix factors like I_n(beta)/K_n(beta)
and K_m(alpha*beta)/I_m(alpha*beta) whose magnitudes overflow double
precision long before the physically relevant truncation orders are
reached (K_300(1) alone is ~1e700).  Everything here therefore works with
natural logarithms of the function values and exponentiates as late as
possible.

Evaluation strategy:

* ``log_k_ladder`` seeds K_0, K_1 from the exponentially scaled
  ``scipy.special.kve`` and runs the three-term recurrence upward, which
  is the stable direction for K.  The recurrence is carried out in log
  space with ``logaddexp`` so it can never overflow.
* ``log_i_ladder`` seeds the ratio I_N/I_{N+1} with a continued fraction
  and recurs downward (Miller's algorithm), renormalizing on the fly; the
  absolute scale is fixed at order zero by ``scipy.special.ive``.  This
  remains accurate in the large-order / small-argument corner where the
  scaled scipy routines underflow to zero.

Derivatives use I'_n = (I_{n-1} + I_{n+1})/2 and
K'_n = -(K_{n-1} + K_{n+1})/2; only the (positive) magnitude of K' is
stored, its sign being constant.

The module also provides the large-order uniform (Debye) expansion
machinery: the phase function eta, the first correction polynomial u(t)
and the asymptotic ratios K_n(n*alpha*y)/K_n(n*y) and
I_n(n*alpha*y)/I_n(n*y).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

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

_LOG_BIG = 575.6462732485114  # log(1e250), renormalization threshold
_BIG = 1e250
_TINY = 1e-250
_SMALL_ARGUMENT = 1e-8  # log_i_ladder switches to the series below this


def _validate_argument(x, cap=LADDER_MAX_ARGUMENT):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("argument must be nonnegative")
    if np.any(x > cap):
        raise ValueError(f"argument exceeds supported range x <= {cap}")
    return x


def _i_ratio_cf(n, x):
    """Continued fraction for the ratio I_n(x)/I_{n+1}(x), vectorized in x.

    Modified Lentz evaluation of

        I_n/I_{n+1} = b_1 + 1/(b_2 + 1/(b_3 + ...)),   b_k = 2(n+k)/x.

    All partial numerators are positive, so the iteration cannot hit a
    vanishing denominator for x > 0.
    """
    invx = 1.0 / x
    b = 2.0 * (n + 1) * invx
    f = b.copy()
    c = b.copy()
    d = np.zeros_like(x)
    active = np.ones(x.shape, dtype=bool)
    for k in range(2, 40000):
        b = 2.0 * (n + k) * invx
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        f = np.where(active, f * delta, f)
        active &= np.abs(delta - 1.0) > 1e-15
        if not active.any():
            return f
    raise RuntimeError("continued fraction for I_n/I_{n+1} did not converge")


def log_i_ladder(x, n_max):
    """log I_n(x) for n = 0..n_max, shape (n_max+1,) + x.shape.

    Miller downward recurrence seeded by the continued-fraction ratio at
    the top order; x may be an array.  Below ``_SMALL_ARGUMENT`` the exact
    small-argument form n log(x/2) - log n! + log(1 + x^2/(4(n+1))) is
    used instead, whose neglected terms are O(x^4); the recurrence would
    overflow there before it could renormalize.  x == 0 entries yield the
    exact limits log I_0(0) = 0 and log I_n(0) = -inf for n > 0.
    """
    x = _validate_argument(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")

    out = np.full((n_max + 1, x.size), -np.inf)
    out[0, x == 0.0] = 0.0
    small = (x > 0.0) & (x < _SMALL_ARGUMENT)
    if np.any(small):
        n = np.arange(n_max + 1)[:, None]
        xs = x[small]
        out[:, small] = n * np.log(0.5 * xs) - special.gammaln(n + 1) + np.log1p(0.25 * xs * xs / (n + 1))
    pos = x >= _SMALL_ARGUMENT
    if np.any(pos):
        xp = x[pos]
        log_i0 = np.log(special.ive(0, xp)) + xp
        if n_max == 0:
            out[0, pos] = log_i0
        else:
            # y_k proportional to I_k; start exactly on the minimal solution.
            y_hi = np.ones_like(xp)                # ~ I_{n_max+1}
            y_lo = _i_ratio_cf(n_max, xp)          # ~ I_{n_max}
            offset = np.zeros_like(xp)
            logs = np.empty((n_max + 1, xp.size))
            logs[n_max] = np.log(y_lo)
            for k in range(n_max, 0, -1):
                y_hi, y_lo = y_lo, y_hi + (2.0 * k / xp) * y_lo
                big = y_lo > _BIG
                if np.any(big):
                    y_lo[big] *= _TINY
                    y_hi[big] *= _TINY
                    offset[big] += _LOG_BIG
                logs[k - 1] = np.log(y_lo) + offset
            out[:, pos] = logs - logs[0] + log_i0
    return out[:, 0] if scalar else out


def log_k_ladder(x, n_max):
    """log K_n(x) for n = 0..n_max, shape (n_max+1,) + x.shape.

    Upward recurrence K_{n+1} = (2n/x) K_n + K_{n-1} in log space; stable
    because K grows with order.  Requires x > 0.
    """
    x = _validate_argument(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x == 0.0):
        raise ValueError("K_n diverges at x = 0")
    n_max = int(n_max)
    out = np.empty((n_max + 1, x.size))
    out[0] = np.log(special.kve(0, x)) - x
    if n_max >= 1:
        out[1] = np.log(special.kve(1, x)) - x
        log_2_over_x = math.log(2.0) - np.log(x)
        for n in range(1, n_max):
            out[n + 1] = np.logaddexp(np.log(n) + log_2_over_x + out[n], out[n - 1])
    return out[:, 0] if scalar else out


def _log_derivative(ladder, n_max):
    """log (F_{n-1} + F_{n+1})/2 for n = 0..n_max from a log ladder of F_0..F_{n_max+1}.

    F_{-1} = F_1 for integer order, so this is log I'_n from the I ladder
    and log |K'_n| from the K ladder.
    """
    n = np.arange(n_max + 1)
    return np.logaddexp(ladder[np.abs(n - 1)], ladder[n + 1]) - math.log(2.0)


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


def _check_order(n):
    n = int(n)
    if abs(n) > MAX_ORDER:
        raise ValueError(f"order |n| <= {MAX_ORDER} supported")
    return abs(n)  # I_{-n} = I_n, K_{-n} = K_n for integer order


def _check_scalar_argument(x):
    x = float(x)
    _validate_argument(x, cap=MAX_ARGUMENT)
    return x


def log_bessel_i(n, x):
    """log I_n(x) with exact integer-order reflection; -inf at x = 0, n != 0."""
    n = _check_order(n)
    return float(log_i_ladder(_check_scalar_argument(x), n)[n])


def log_bessel_k(n, x):
    """log K_n(x); raises for x <= 0."""
    n = _check_order(n)
    if x <= 0.0:
        raise ValueError("K_n requires x > 0")
    return float(log_k_ladder(_check_scalar_argument(x), n)[n])


def scaled_bessel_pair(n, x):
    """Overflow-safe (log I_n(x), log K_n(x)) for x > 0."""
    return ScaledBesselPair(log_bessel_i(n, x), log_bessel_k(n, x))


def _exp_checked(log_value, what):
    if log_value > math.log(np.finfo(float).max):
        raise OverflowError(f"{what} exceeds double-precision range; use the log-scaled form")
    return math.exp(log_value)


def bessel_i(n, x):
    """Modified Bessel function I_n(x) of integer order, x >= 0."""
    n = _check_order(n)
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    return _exp_checked(log_bessel_i(n, x), "I_n(x)")


def bessel_k(n, x):
    """Modified Bessel function K_n(x) of integer order, x > 0."""
    return _exp_checked(log_bessel_k(n, x), "K_n(x)")


def bessel_i_prime(n, x):
    """I'_n(x) = (I_{n-1}(x) + I_{n+1}(x))/2."""
    n = _check_order(n)
    if x == 0.0:
        return 0.5 if n == 1 else 0.0
    return _exp_checked(float(log_di_ladder(_check_scalar_argument(x), n)[n]), "I'_n(x)")


def bessel_k_prime(n, x):
    """K'_n(x) = -(K_{n-1}(x) + K_{n+1}(x))/2, always negative."""
    n = _check_order(n)
    if x <= 0.0:
        raise ValueError("K'_n requires x > 0")
    return -_exp_checked(float(log_dk_ladder(_check_scalar_argument(x), n)[n]), "K'_n(x)")


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
    if n < 1:
        raise ValueError("uniform expansion requires n >= 1")
    y = float(y)
    alpha = float(alpha)
    t1 = debye_t(y)
    ta = debye_t(alpha * y)
    prefactor = ((1.0 + y * y) / (1.0 + (alpha * y) ** 2)) ** 0.25
    correction = (1.0 - debye_u(ta) / n) / (1.0 - debye_u(t1) / n)
    return prefactor * correction * math.exp(-n * (debye_eta(alpha * y) - debye_eta(y)))


def uniform_i_ratio(n, y, alpha):
    """Uniform-asymptotic approximation to I_n(n*alpha*y)/I_n(n*y).

    Same structure as the K ratio with the exponent sign flipped and
    (1 + u/n) correction factors.
    """
    if n < 1:
        raise ValueError("uniform expansion requires n >= 1")
    y = float(y)
    alpha = float(alpha)
    t1 = debye_t(y)
    ta = debye_t(alpha * y)
    prefactor = ((1.0 + y * y) / (1.0 + (alpha * y) ** 2)) ** 0.25
    correction = (1.0 + debye_u(ta) / n) / (1.0 + debye_u(t1) / n)
    return prefactor * correction * math.exp(n * (debye_eta(alpha * y) - debye_eta(y)))
