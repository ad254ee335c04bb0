"""Closed-form reference energies and the series-acceleration warm-up.

Proximity-force results for concentric shells in e_hat units:

    leading:  e = -(pi^4/90) / (alpha-1)^3
    bracket corrections: 1 + (alpha-1)/2 - (2/pi^2 + 1/10)(alpha-1)^2

and the large-separation asymptote e ~ -0.63 / (alpha^2 ln alpha), whose
0.63 constant is known to three significant figures only.

``slow_series``/``accelerated_series`` demonstrate the subtraction trick
on z_M = sum n^(-1.1): adding and subtracting integral(1,M) x^(-1.1) dx
turns a sum needing ~1e20 terms for 1% accuracy into one converged by
M ~ 10.
"""

import math
from enum import Enum

import numpy as np

__all__ = [
    "PfaOrder",
    "pfa_concentric",
    "large_alpha_asymptote",
    "slow_series",
    "accelerated_series",
]

PFA_LEADING_COEFF = math.pi ** 4 / 90.0
SECOND_ORDER_COEFF = 2.0 / math.pi ** 2 + 0.1
LARGE_ALPHA_CONST = 0.63


class PfaOrder(Enum):
    LEADING = "leading"
    NTL = "ntl"    # next-to-leading
    NNTL = "nntl"  # next-to-next-to-leading


def pfa_bracket(alpha, order):
    """Correction bracket multiplying the leading proximity energy."""
    s = alpha - 1.0
    if order is PfaOrder.LEADING:
        return 1.0
    if order is PfaOrder.NTL:
        return 1.0 + 0.5 * s
    if order is PfaOrder.NNTL:
        return 1.0 + 0.5 * s - SECOND_ORDER_COEFF * s * s
    raise ValueError(f"unknown order {order!r}")


def pfa_concentric(alpha, order=PfaOrder.LEADING):
    """Proximity-force energy for concentric shells in e_hat units."""
    if not 1.0 < alpha < math.inf:
        raise ValueError("alpha must exceed 1 and be finite")
    s = alpha - 1.0
    return -PFA_LEADING_COEFF / s ** 3 * pfa_bracket(alpha, order)


def large_alpha_asymptote(alpha):
    """Large-separation energy -0.63/(alpha^2 ln alpha), e_hat units.

    Only the n = 0 TM channel survives at leading order, hence the
    logarithmic falloff.  Enforced for alpha >= 2; the approximation
    keeps improving as alpha grows.
    """
    if not 1.0 < alpha < math.inf:
        raise ValueError("alpha must exceed 1 and be finite")
    if alpha < 2.0:
        raise ValueError("asymptote is meaningful for alpha >= 2")
    return -LARGE_ALPHA_CONST / (alpha * alpha * math.log(alpha))


def _check_terms(m):
    if not 1 <= m < math.inf:
        raise ValueError("M must be at least 1 and finite")


def slow_series(m):
    """Partial sum z_M = sum_{n=1..M} n^(-1.1); converges very slowly."""
    _check_terms(m)
    n = np.arange(1, int(m) + 1, dtype=float)
    return float(np.sum(n ** -1.1))


def accelerated_series(m):
    """Subtraction-accelerated estimate of z_inf from only M terms.

    D_M = z_M - integral(1,M) x^(-1.1) dx tends to its limit fast, and
    the integral contributes exactly 10 as M -> inf, so D_M + 10
    estimates z_inf.
    """
    _check_terms(m)
    integral = 10.0 * (1.0 - float(m) ** -0.1)
    return slow_series(m) - integral + 10.0
