"""Independent oracles the tests check production code against.

Nothing here may import evaluation routines from the package: each
oracle recomputes its quantity from scratch (power series, asymptotic
series, integral representations, high-precision direct summation or
eigenvalue factorizations) so agreement is evidence, not tautology.
"""

import functools
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

mp.mp.dps = 30


def bessel_i_series(n, x, terms=None):
    """Power series I_n(x) = sum_k (x/2)^(n+2k) / (k! (n+k)!), small/mid x."""
    n = abs(int(n))
    x = mp.mpf(x)
    half = x / 2
    total = mp.mpf(0)
    term = half ** n / mp.factorial(n)
    k = 0
    while True:
        total += term
        k += 1
        term *= half * half / (k * (n + k))
        if terms is not None:
            if k >= terms:
                break
        elif k > 20 and term < 1e-40 * total:
            break
    return total


def bessel_i_asymptotic(n, x, terms=20):
    """Large-argument series I_n(x) ~ e^x/sqrt(2 pi x) sum_k (-)^k a_k(n)/x^k."""
    n = abs(int(n))
    x = mp.mpf(x)
    mu = mp.mpf(4 * n * n)
    total = mp.mpf(1)
    term = mp.mpf(1)
    for k in range(1, terms):
        term *= -(mu - (2 * k - 1) ** 2) / (8 * k * x)
        total += term
    return mp.e ** x / mp.sqrt(2 * mp.pi * x) * total


def log_bessel_k_from_integral(n, x):
    """log K_n(x) via K_n(x) = integral(0,inf) e^{-x cosh t} cosh(n t) dt.

    The exponent -x cosh t + nt peaks at t* = asinh(n/x); the domain is
    cut where the integrand has fallen 10^60 below the peak and the peak
    magnitude is factored out before quadrature (mpmath's adaptive rule
    terminates poorly on integrands of magnitude e^{-300}).
    """
    n = abs(int(n))
    x = mp.mpf(x)

    def exponent(t):
        return -x * mp.cosh(t) + (n * t if n else mp.mpf(0))

    t_peak = mp.asinh(mp.mpf(n) / x) if n else mp.mpf(0)
    peak = exponent(t_peak)
    drop = peak - 60 * mp.log(10)
    hi = t_peak + 1
    while exponent(hi) > drop:
        hi += 1
    # split points resolve the peak, whose width is ~ 1/sqrt(x cosh t*)
    width = 1 / mp.sqrt(x * mp.cosh(t_peak))
    points = sorted({mp.mpf(0), t_peak, t_peak + width, t_peak + 4 * width, hi})
    points = [p for p in points if p <= hi]
    scaled = mp.quad(lambda t: mp.e ** (-x * mp.cosh(t) - peak) * mp.cosh(n * t), points)
    return mp.log(scaled) + peak


def bessel_k_integral(n, x):
    """Integral-representation K_n(x); overflows only through mp.exp."""
    return mp.e ** log_bessel_k_from_integral(n, x)


def log_bessel_i_reference(n, x):
    """log I_n(x) from the series regime that applies.

    The power series handles small and moderate x; the large-argument
    series needs x >> n^2 to reach 1e-12 before its terms turn.  The
    regimes overlap for small n around x ~ 30 (cross-checked in tests);
    in the remaining mid-range mpmath's independent implementation is
    the reference.
    """
    n = abs(int(n))
    x = float(x)
    if x <= 60.0:
        return float(mp.log(bessel_i_series(n, x)))
    if x >= 30.0 and x >= n * n:
        return float(mp.log(bessel_i_asymptotic(n, x)))
    return float(mp.log(mp.besseli(n, x)))


def log_bessel_k_reference(n, x):
    return float(log_bessel_k_from_integral(n, x))


def uniform_k_ratio_direct(n, y, alpha):
    """Direct high-precision K_n(n alpha y)/K_n(n y)."""
    n = int(n)
    return float(mp.besselk(n, n * alpha * y) / mp.besselk(n, n * y))


def uniform_i_ratio_direct(n, y, alpha):
    n = int(n)
    return float(mp.besseli(n, n * alpha * y) / mp.besseli(n, n * y))


@functools.lru_cache(maxsize=None)
def _memo_bessel(fn, order, arg, dps):
    """fn(order, arg) for mpmath's besseli/besselk, once per working precision."""
    return fn(order, arg)


def bessel_k_upward(top, arg):
    """[K_0(arg), ..., K_top(arg)] by K_{m+1} = K_{m-1} + (2m/arg) K_m from direct K_0, K_1.

    K grows with the order, so the upward recurrence is stable.  Run it
    inside extra working precision (see ``addition_sum``).
    """
    values = [mp.besselk(0, arg), mp.besselk(1, arg)]
    for m in range(1, top):
        values.append(values[m - 1] + 2 * m / arg * values[m])
    return values[: top + 1]


def bessel_i_downward(top, arg):
    """[I_0(arg), ..., I_top(arg)] by I_{m-1} = I_{m+1} + (2m/arg) I_m from direct I_top, I_{top-1}.

    I falls with the order, so the downward recurrence is stable.
    """
    values = [mp.besseli(top, arg), mp.besseli(top - 1, arg)]
    for m in range(top - 1, 0, -1):
        values.append(values[-2] + 2 * m / arg * values[-1])
    return values[::-1]


def addition_top(x, h, n, p):
    """(m_cut, top): ``addition_sum``'s default cutoff and the highest Bessel order it uses.

    The summand has a secondary hump near |m| ~ x and its tail decays
    only like exp(-2 m h / x), so the cutoff scales with x and with x/h.
    """
    m_cut = int(4 * float(x) + 16.0 * float(x) / float(h)) + abs(n) + abs(p) + 40
    return m_cut, m_cut + abs(n) + abs(p) + 1


def addition_sum(x, h, n, p, pol):
    """Direct high-precision evaluation of the inner addition-theorem sum.

    The sum runs over |m| <= m_cut (see ``addition_top``).  The Bessel
    values come from the stable three-term recurrences at 30 extra
    digits, seeded by four direct mpmath values per argument.
    """
    m_cut, top = addition_top(x, h, n, p)
    with mp.workdps(mp.mp.dps + 30):
        x = mp.mpf(x)
        y = x + mp.mpf(h)
        i_x = bessel_i_downward(top, x)
        i_y = bessel_i_downward(top, y)
        k_y = bessel_k_upward(top, y)
        total = mp.mpf(0)
        for m in range(-m_cut, m_cut + 1):
            am = abs(m)
            if pol == "TM":
                c = k_y[am] / i_y[am]
            else:
                kp = -(k_y[abs(m - 1)] + k_y[abs(m + 1)]) / 2
                ip = (i_y[abs(m - 1)] + i_y[abs(m + 1)]) / 2
                c = kp / ip
            total += c * i_x[abs(n - m)] * i_x[abs(p - m)]
        return float(total)


def _besselk(order, arg):
    """mpmath's K_n.  Near order 512 its default term budget gives up at
    x ~ 2000 and takes seconds to get there at x = 700; from x = 500 on the
    large-argument series converges with more terms (which at moderate x
    would run on instead)."""
    return mp.besselk(order, arg, maxterms=10**6) if arg >= 500 else mp.besselk(order, arg)


def log_diag_factors(n, x):
    """(TM, TE) log d_n(x) by direct high-precision evaluation.

    d_n = I_n/K_n for TM and I'_n/|K'_n| for TE, with
    I'_n = (I_{n-1} + I_{n+1})/2 and |K'_n| = (K_{n-1} + K_{n+1})/2.  Each
    Bessel value is computed once per (kind, order, argument), so
    neighbouring orders at the same argument share them.
    """
    x = mp.mpf(x)

    def i(order):
        return _memo_bessel(mp.besseli, abs(order), x, mp.mp.dps)

    def k(order):
        return _memo_bessel(_besselk, abs(order), x, mp.mp.dps)

    tm = mp.log(i(n) / k(n))
    te = mp.log((i(n - 1) + i(n + 1)) / (k(n - 1) + k(n + 1)))
    return float(tm), float(te)


def logdet_one_minus_eig(a):
    """Brute-force ln det(1 - A) from the eigenvalues of symmetric A."""
    eigenvalues = np.linalg.eigvalsh(np.asarray(a, dtype=float))
    return float(np.sum(np.log1p(-eigenvalues)))


def theta_integral_scipy(gap, radius, profile=None):
    """integral(0, 2 pi) J(d(theta)/lambda)/d(theta)^5 dtheta by scipy quad."""
    profile = profile or (lambda r: 1.0)

    def f(theta):
        d = gap + radius * (1.0 - math.cos(theta))
        return profile(d) / d ** 5

    value, _ = quad(f, 0.0, 2.0 * math.pi, limit=800, epsabs=1e-300, epsrel=1e-12)
    return value


def tilde_energy_quadrature(alpha, n_terms=600, nodes=3000):
    """Numeric integration of the subtracted-kernel energy.

    4 sum_{n>=1} integral(0,inf) dbeta beta ln(1 - exp(-2(alpha-1)
    sqrt(n^2+beta^2))), evaluated on a mapped Gauss grid built here from
    scratch.
    """
    s = alpha - 1.0
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    scale = 1.0 / (2.0 * s)
    beta = -scale * np.log1p(-u)
    weights = scale * wu / (1.0 - u)
    total = 0.0
    for n in range(1, n_terms + 1):
        q = np.exp(-2.0 * s * np.sqrt(n * n + beta ** 2))
        total += 4.0 * float(np.dot(weights, beta * np.log1p(-q)))
    return total


def tilde_energy_series(alpha):
    """The resummed uniform-approximant energy from its k-series at 30 digits.

    -(1/s^2) sum_{k>=1} [q_k/(k^3 (1 - q_k)) + 2 s q_k/(k^2 (1 - q_k)^2)],
    q_k = exp(-2 k s), s = alpha - 1, over every k: mpmath's Euler-Maclaurin
    rule adds the tail as an integral, so no truncation point is shared with
    the production sum.
    """
    s = mp.mpf(alpha) - 1

    def term(k):
        q = mp.exp(-2 * k * s)
        one_minus = -mp.expm1(-2 * k * s)
        return q / (k ** 3 * one_minus) + 2 * s * q / (k ** 2 * one_minus ** 2)

    return float(-mp.nsum(term, [1, mp.inf], method="euler-maclaurin") / s ** 2)


def concentric_energy_scipy(alpha, n_terms=60, beta_max=60.0):
    """Independent concentric energy from scipy's own Bessel implementation.

    Uses scipy.special.iv/kv directly (a different evaluation lineage
    from the package's recurrence ladders) with an explicit n-sum and
    QUADPACK adaptive integration.  Only valid where the unscaled Bessel
    values stay inside double range, i.e. moderate alpha; plenty for a
    cross-implementation check at alpha ~ 2.
    """
    from scipy.special import iv, kv

    def i_prime(n, x):
        return 0.5 * (iv(abs(n - 1), x) + iv(n + 1, x))

    def k_prime(n, x):
        return -0.5 * (kv(abs(n - 1), x) + kv(n + 1, x))

    def ratio(num_lo, num_hi, den_hi, den_lo):
        with np.errstate(invalid="ignore", over="ignore"):
            r = num_lo * num_hi / (den_hi * den_lo)
        # iv underflows at double precision only where the true ratio is
        # ~ alpha^(-2n) < 1e-30 for the moderate alpha this oracle serves
        return float(r) if np.isfinite(r) else 0.0

    def integrand(b):
        total = 0.0
        for n in range(0, n_terms + 1):
            weight = 1.0 if n == 0 else 2.0
            r_tm = ratio(iv(n, b), kv(n, alpha * b), iv(n, alpha * b), kv(n, b))
            r_te = ratio(
                i_prime(n, b), k_prime(n, alpha * b), i_prime(n, alpha * b), k_prime(n, b)
            )
            total += weight * (math.log1p(-r_tm) + math.log1p(-r_te))
        return b * total

    value, _ = quad(integrand, 0.0, beta_max, limit=300, epsabs=1e-13, epsrel=1e-11)
    return value


def _log_scaled_ik(orders, x, pol):
    """log(e^-x I_n(x)) and log(e^x |K_n(x)|) at ``orders`` from scipy ive/kve, primed for
    TE; -inf and +inf where the scaled values leave double range."""
    from scipy.special import ive, kve

    if pol == "TM":
        i, k = ive(orders, x), kve(orders, x)
    else:
        wide = np.arange(orders[-1] + 2)
        i, k = ive(wide, x), kve(wide, x)
        lo, hi = np.abs(orders - 1), orders + 1
        i, k = 0.5 * (i[lo] + i[hi]), 0.5 * (k[lo] + k[hi])
    with np.errstate(divide="ignore"):
        return np.log(i), np.log(k)


def eccentric_log_det_x2(beta, alpha, pol, n_max=60):
    """The x^2 coefficient of ln det(1 - A) for nearly concentric shells, x = beta delta.

    Small-eccentricity expansion (cf. Dalvit, Lombardo, Mazzitelli & Onofrio,
    Europhys. Lett. 67, 517, 2004).  In A_np = d_n sum_m c_m I_{m-n}(x) I_{m-p}(x),
    I_0(x) ~ 1 + x^2/4 and I_{+-1}(x) ~ x/2 give the diagonal
    A_nn = r_n + x^2 [r_n/2 + d_n (c_{n-1} + c_{n+1})/4], r_n = d_n c_n, and the
    first off-diagonal A_{n,n+1} = d_n (x/2)(c_n + c_{n+1}); to second order

        ln det(1 - A) = sum ln(1 - r_n) - x^2 sum [r_n/2 + d_n (c_{n-1} + c_{n+1})/4] / (1 - r_n)
                        - (x/2)^2 sum d_n d_{n+1} (c_n + c_{n+1})^2 / ((1 - r_n)(1 - r_{n+1})),

    sums over |n| <= n_max with d_{-n} = d_n and c_{-n} = c_n; d_n = I_n(beta)/K_n(beta)
    and c_m = K_m(alpha beta)/I_m(alpha beta) (TM), the magnitudes of the primed ones for
    TE.  Every term pairs each d with one c, so the sums take log d_n - 2(alpha - 1) beta
    and log c_m from the scaled scipy ive/kve and exponentiate only sums of the two (the
    unscaled iv/kv overflow to 0 * inf).  Orders from the first whose scaled values leave
    double range (n >= 54 at beta = 1e-4) are dropped, where r_n ~ alpha^(-2n).
    """
    orders = np.arange(n_max + 2)  # c_{n+1} at n = n_max
    log_i, log_k = _log_scaled_ik(orders, beta, pol)
    log_d = log_i - log_k - 2.0 * (alpha - 1.0) * beta
    log_i, log_k = _log_scaled_ik(orders, alpha * beta, pol)
    log_c = log_k - log_i
    finite = np.isfinite(log_d) & np.isfinite(log_c)
    if not finite.all():
        n_max = int(np.argmin(finite)) - 2
    n = np.abs(np.arange(-n_max, n_max + 1))  # n[j + 1] = |n + 1| for n[j] = |n|
    r = np.exp(log_d[n] + log_c[n])
    side = np.exp(log_d[n] + log_c[np.abs(n - 1)]) + np.exp(log_d[n] + log_c[n + 1])
    diagonal = (r / 2 + side / 4) / (1 - r)
    half = 0.5 * (log_d[n[:-1]] + log_d[n[1:]])  # sqrt(d_n d_{n+1})
    pairs = (np.exp(half + log_c[n[:-1]]) + np.exp(half + log_c[n[1:]])) ** 2 / ((1 - r[:-1]) * (1 - r[1:]))
    return float(-diagonal.sum() - pairs.sum() / 4)


def eccentric_energy_x2(alpha, pol):
    """The delta^2 coefficient of one polarization's eccentric-minus-concentric energy.

    The energy is the integral over beta of beta ln det(1 - A) per polarization, so
    its delta^2 coefficient integrates beta^3 times ``eccentric_log_det_x2`` (x = beta
    delta), here over 1e-4 <= beta <= 80/(alpha - 1): below, the weight beta^3 leaves
    less than 1e-16 of it, and above, every r_n is below e^-160.
    """
    value, _ = quad(
        lambda b: b ** 3 * eccentric_log_det_x2(b, alpha, pol), 1e-4, 80.0 / (alpha - 1.0),
        limit=200, epsabs=0.0, epsrel=1e-10,
    )
    return value
