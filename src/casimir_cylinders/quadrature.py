"""Quadrature rules for the semi-infinite frequency axis.

The spectral integrands decay like exp(-2 * gap * beta), so the default
rule maps Gauss-Legendre nodes u in (0, 1) through the rational transform

    beta = S u / (1 - u),      S = scale / (2 * gap),

under which exponentially decaying integrands are handled to near machine
precision with ~64 nodes (a logarithmic map would leave an endpoint
singularity and only algebraic convergence).  ``adaptive_panels``, a
bisection rule over the same mapped variable, is a cross-check; the
engine picks which of the two rules runs.
"""

from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre_01", "semi_infinite_nodes", "adaptive_panels"]


@lru_cache(maxsize=64)
def gauss_legendre_01(n):
    """Gauss-Legendre nodes and weights on (0, 1), cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    u.flags.writeable = wu.flags.writeable = False
    return u, wu


def semi_infinite_nodes(decay_scale, node_count, a=0.0, b=1.0):
    """Nodes and weights for integral(0, inf) with decay length decay_scale, from the
    Gauss rule on (a, b) of u in beta = decay_scale u / (1 - u); (0, 1) is the whole axis."""
    u, wu = gauss_legendre_01(node_count)
    u = a + (b - a) * u
    beta = decay_scale * u / (1.0 - u)
    weights = (b - a) * decay_scale * wu / (1.0 - u) ** 2
    return beta, weights


_PANEL_REL_TOL = 1e-10  # a panel is final when halving changes it by this share of the integral
_PANEL_MAX_DEPTH = 24  # or when it is this many bisections deep


def _panel(f, scale, a, b, n):
    beta, w = semi_infinite_nodes(scale, n, a, b)
    return np.dot(w, f(beta))


def adaptive_panels(f, scale, node_count):
    """Integral of f over (0, inf) with decay length scale by recursive bisection in
    the mapped variable, a Gauss panel per half.

    f maps a 1-d array of abscissas to values of shape (len(beta),) or
    (len(beta), k) for k simultaneous integrands.
    """
    n = max(8, min(node_count, 64))
    coarse = _panel(f, scale, 0.0, 1.0, n)
    total_ref = np.max(np.abs(coarse))

    def recurse(a, b, coarse, depth):
        mid = 0.5 * (a + b)
        left = _panel(f, scale, a, mid, n)
        right = _panel(f, scale, mid, b, n)
        fine = left + right
        err = np.max(np.abs(fine - coarse))
        if depth >= _PANEL_MAX_DEPTH or err <= _PANEL_REL_TOL * max(total_ref, np.max(np.abs(fine))):
            return fine
        return recurse(a, mid, left, depth + 1) + recurse(mid, b, right, depth + 1)

    return recurse(0.0, 1.0, coarse, 0)
