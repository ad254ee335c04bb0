r"""Spectral round-trip matrices and their log-determinants.

At each imaginary frequency beta the interaction energy picks up
log det(1 - A) per polarization.  For eccentric shells the matrix is

    A_np = d_n * sum_m c_m(alpha beta) I_{m-n}(beta delta) I_{m-p}(beta delta)

with d_n = I_n(beta)/K_n(beta) and c_m = K_m(alpha beta)/I_m(alpha beta)
for TM (Dirichlet) modes, and the primed-function analogues for TE
(Neumann) modes.  We assemble the determinant-equivalent symmetrized form

    A_np = sqrt(d_n d_p) * S_np,

(the raw form is diag(d) * S with S symmetric, so the determinant is
unchanged) which keeps every matrix real-symmetric with positive entries;
for TE the two negative factors K'_m/I'_m and I'_n/K'_n cancel, so the
magnitudes assemble the same way.

Concentric shells (delta = 0) collapse to the diagonal ratios

    r_n = I_n(beta) K_n(alpha beta) / (I_n(alpha beta) K_n(beta)),

and in the cylinder-plane limit the inner sum reduces, via the addition
theorem for modified Bessel functions, to a single K:

    A_np = sqrt(d_n d_p) * K_{n+p}(2 beta H/a).

All entries are assembled from log-magnitude ladders and exponentiated
last; the inner m-sum is evaluated as a column-scaled Gram product so the
whole matrix comes out of one BLAS call per (beta, polarization).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .bessel import log_di_ladder, log_dk_ladder, log_i_ladder, log_k_ladder
from .geometry import (
    Concentric,
    CylinderPlane,
    Eccentric,
    Polarization,
    TruncationSpec,
    validate,
)

__all__ = [
    "NonContractiveError",
    "TruncationError",
    "SpectralMatrix",
    "build_concentric",
    "build_eccentric",
    "build_cylinder_plane",
    "addition_theorem_check",
    "log_det_one_minus",
]


class NonContractiveError(RuntimeError):
    """The round-trip operator has spectral radius >= 1.

    Signals a touching/invalid geometry or a truncation failure; the
    log-determinant formula is meaningless in that regime.
    """


class TruncationError(RuntimeError):
    """Inner m-sum could not reach the requested tolerance within its cap."""


@dataclass(frozen=True)
class SpectralMatrix:
    """Dense symmetric kernel matrix for one polarization at one frequency."""

    beta: float
    pol: Polarization
    entries: np.ndarray  # (2N+1, 2N+1), indices n, p = -N..N
    m_used: int = 0

    @property
    def half_bandwidth(self):
        return (self.entries.shape[0] - 1) // 2

    def orders(self):
        n = self.half_bandwidth
        return np.arange(-n, n + 1)

    def to_text(self):
        """Plain-text dump: header line plus one row of entries per line."""
        n = self.half_bandwidth
        lines = [f"# beta={self.beta!r} pol={self.pol.value} half_bandwidth={n} m_used={self.m_used}"]
        for row in self.entries:
            lines.append(" ".join(format(v, ".17e") for v in row))
        return "\n".join(lines) + "\n"


def _log_diag_factors(beta, pol, n_max):
    """log d_n = log |I_n/K_n| (TM) or log |I'_n/K'_n| (TE), n = 0..n_max."""
    if pol is Polarization.TM:
        return log_i_ladder(beta, n_max) - log_k_ladder(beta, n_max)
    return log_di_ladder(beta, n_max) - log_dk_ladder(beta, n_max)


def _log_sum_factors(x, pol, m_max):
    """log |K_m/I_m| (TM) or log |K'_m/I'_m| (TE) at argument x, m = 0..m_max."""
    return -_log_diag_factors(x, pol, m_max)


def concentric_log_ratios(beta, alpha, pol, n_max):
    """log r_n for n = 0..n_max at a single beta (or an array of betas).

    r_n = d_n(beta) / d_n(alpha beta), d_n the diagonal factor above.
    """
    betas = np.asarray(beta, dtype=float)
    return _log_diag_factors(betas, pol, n_max) - _log_diag_factors(alpha * betas, pol, n_max)


def build_concentric(beta, g, pol, n_max=32):
    """Diagonal ratios r_n(beta), n = -n_max..n_max, for concentric shells.

    Every ratio lies in (0, 1) for alpha > 1; the TM sequence decreases
    in |n| (the TE n = 0 entry coincides with the TM n = 1 ratio and may
    sit below its neighbour at small beta).
    """
    if not isinstance(g, Concentric):
        raise TypeError("build_concentric expects a Concentric geometry")
    validate(g)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    log_r = concentric_log_ratios(float(beta), g.alpha, pol, n_max)
    folded = np.concatenate([log_r[::-1], log_r[1:]])
    return np.exp(folded)


def build_eccentric(beta, g, pol, t=None):
    """Spectral matrix for eccentric shells at one frequency.

    The half-bandwidth is t.n_max; the inner sum starts from the floor
    m = n_max + ceil(4 beta delta) (the I_{m-n}(beta delta) factors peak
    near |m - n| ~ beta delta) and doubles until the |m| = m_cut terms
    contribute less than t.rel_tol of every entry, capped at t.m_max.
    """
    if not isinstance(g, Eccentric):
        raise TypeError("build_eccentric expects an Eccentric geometry")
    validate(g)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    t = t or TruncationSpec(n_max=16)
    n = t.n_max
    beta = float(beta)
    x_sum = g.alpha * beta
    x_bridge = g.delta * beta

    log_d = _log_diag_factors(beta, pol, n)
    orders = np.arange(-n, n + 1)
    m_cut = n + math.ceil(4.0 * x_bridge)
    while True:
        m_cut = min(m_cut, t.m_max)
        log_c = _log_sum_factors(x_sum, pol, m_cut)
        log_bridge = log_i_ladder(x_bridge, m_cut + n)
        m_vals = np.arange(-m_cut, m_cut + 1)
        # exponent of the half-weighted summand, shape (2M+1, 2N+1)
        expo = 0.5 * log_c[np.abs(m_vals)][:, None] + log_bridge[np.abs(m_vals[:, None] - orders[None, :])]
        col_max = expo.max(axis=0)
        col_max = np.where(np.isfinite(col_max), col_max, 0.0)
        u = np.exp(expo - col_max[None, :])
        gram = u.T @ u
        edge = np.outer(u[0], u[0]) + np.outer(u[-1], u[-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(gram > 0.0, edge / gram, 0.0)
        if tail.max() <= t.rel_tol or x_bridge == 0.0:
            break
        if m_cut >= t.m_max:
            raise TruncationError(
                f"inner sum still contributes {tail.max():.2e} of an entry at m_max = {m_cut}"
            )
        m_cut = 2 * m_cut

    half_d = 0.5 * log_d[np.abs(orders)]
    with np.errstate(divide="ignore"):
        log_entries = half_d[:, None] + half_d[None, :] + col_max[:, None] + col_max[None, :] + np.log(gram)
    entries = np.exp(log_entries)
    return SpectralMatrix(beta=beta, pol=pol, entries=entries, m_used=m_cut)


def build_cylinder_plane(beta, g, pol, t=None):
    """Spectral matrix for a cylinder facing a conducting plane.

    A_np = sqrt(d_n d_p) K_{n+p}(2 beta H/a); for TE the explicit minus
    sign and the negative K'_n cancel, so all entries are positive.
    """
    if not isinstance(g, CylinderPlane):
        raise TypeError("build_cylinder_plane expects a CylinderPlane geometry")
    validate(g)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    t = t or TruncationSpec(n_max=16)
    n = t.n_max
    beta = float(beta)
    log_d = _log_diag_factors(beta, pol, n)
    log_k2h = log_k_ladder(2.0 * beta * g.h_over_a, 2 * n)
    orders = np.arange(-n, n + 1)
    half_d = 0.5 * log_d[np.abs(orders)]
    log_entries = half_d[:, None] + half_d[None, :] + log_k2h[np.abs(orders[:, None] + orders[None, :])]
    return SpectralMatrix(beta=beta, pol=pol, entries=np.exp(log_entries))


def addition_theorem_check(x, h, n, p, pol, m_max=None):
    """Both sides of the large-x reduction of the inner sum.

    lhs = sum_m (K_m(x+h)/I_m(x+h)) I_{n-m}(x) I_{p-m}(x)  (primed for TE)
    rhs = +K_{n+p}(2h) for TM, -K_{n+p}(2h) for TE.

    The relative deviation vanishes as x/h grows; used by tests only.
    The summand has a secondary hump near |m| ~ x, so the cutoff grows
    with x and is extended until the edge terms are negligible.
    """
    if x <= 0.0 or h <= 0.0:
        raise ValueError("x and h must be positive")
    m_cut = m_max or max(64, math.ceil(4.0 * x)) + abs(n) + abs(p)
    while True:
        log_c = _log_sum_factors(x + h, pol, m_cut)
        log_i = log_i_ladder(x, m_cut + max(abs(n), abs(p)))
        m_vals = np.arange(-m_cut, m_cut + 1)
        terms = (
            log_c[np.abs(m_vals)]
            + log_i[np.abs(n - m_vals)]
            + log_i[np.abs(p - m_vals)]
        )
        total = logsumexp(terms)
        if m_max is not None or max(terms[0], terms[-1]) - total < math.log(1e-14):
            break
        m_cut *= 2
        if m_cut > 100_000:
            raise TruncationError("addition-theorem sum did not close")
    magnitude = math.exp(total)
    rhs_mag = math.exp(log_k_ladder(2.0 * h, abs(n + p))[abs(n + p)])
    if pol is Polarization.TM:
        return magnitude, rhs_mag
    return -magnitude, -rhs_mag


def log_det_one_minus(mat):
    """ln det(1 - A) <= 0 via dense LU with partial pivoting.

    Raises NonContractiveError when the determinant is not positive,
    which for these positive symmetric kernels happens exactly when the
    leading eigenvalue reaches 1 (touching geometry or broken truncation).
    """
    a = mat.entries if isinstance(mat, SpectralMatrix) else np.asarray(mat, dtype=float)
    sign, value = np.linalg.slogdet(np.eye(a.shape[0]) - a)
    if not np.isfinite(value) or sign <= 0.0:
        raise NonContractiveError(
            "round-trip operator is not a contraction (spectral radius >= 1)"
        )
    # det(1 - A) lies in (0, 1]; tiny positive values are roundoff.
    return min(float(value), 0.0)
