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
last.  ``matrix_log_dets`` works on chunks of frequencies: one I and one
K ladder per argument (beta, alpha beta, delta beta or 2 beta H/a) serve
the whole chunk and both polarizations, TE taking its derivative ladders
from the same values.  Since A_{-n,-p} = A_np only the columns n >= 0 are
formed, as two column-scaled half-width Gram products of the inner m-sum,
G = U^T U and G' = U^T R U (R reflects m).  G + G' and G - G' are the
even and odd parity blocks of the matrix, and ln det(1 - A) is the sum of
their log-determinants from one batched Cholesky each; a failed Cholesky
is a NonContractiveError.  The single-frequency builders unfold the same
factors into the full (2N+1)^2 matrix.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .bessel import (
    _log_derivative,
    log_di_ladder,
    log_dk_ladder,
    log_i_ladder,
    log_k_ladder,
)
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
    "matrix_log_dets",
    "addition_theorem_check",
    "log_det_one_minus",
]

_POLARIZATIONS = (Polarization.TM, Polarization.TE)  # column order of every (TM, TE) pair
_CHUNK = 32  # frequencies assembled together by matrix_log_dets
_GRAM_ELEMENTS = 1 << 15  # elements per batched Gram array; bounds the memory of one group
_SQRT_HALF = math.sqrt(0.5)


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


def _log_diag_pair(x, n_max):
    """(TM, TE) log d_n at argument(s) x, n = 0..n_max, from one I and one K ladder.

    Shape (2, n_max + 1) + x.shape; TE takes I'_n, K'_n from the same
    ladders through ``_log_derivative``.
    """
    log_i = log_i_ladder(x, n_max + 1)
    log_k = log_k_ladder(x, n_max + 1)
    return np.stack([
        log_i[: n_max + 1] - log_k[: n_max + 1],
        _log_derivative(log_i, n_max) - _log_derivative(log_k, n_max),
    ])


def _inner_grams(half_c, log_bridge, m_cut, n):
    """Column-scaled half-width Grams of the inner m-sum for a batch of items.

    Item k has the exponent rows 0.5 log c_|m| + log I_|m-q|(beta delta)
    for |m| <= m_cut[k] and columns q = 0..n (half_c: (K, M+1),
    log_bridge: (K, M+n+1), M = max(m_cut)).  Returns the log column
    scales (K, n+1), G = U^T U and G' = U^T R U (K, n+1, n+1), R
    reflecting m, and each item's largest share of an entry of the full
    (2n+1)^2 matrix carried by its two edge rows m = +-m_cut.
    """
    top = int(m_cut.max())
    m = np.arange(-top, top + 1)
    expo = log_bridge[:, np.abs(m[:, None] - np.arange(n + 1))]
    expo += half_c[:, np.abs(m), None]
    expo[np.abs(m) > m_cut[:, None]] = -np.inf
    col_max = expo.max(axis=1)
    col_max[~np.isfinite(col_max)] = 0.0
    expo -= col_max[:, None, :]
    u = np.exp(expo, out=expo)
    # A summand 1e150 below its column's peak adds nothing to an entry,
    # while its subnormal products would slow the Gram products many-fold.
    u[u < 1e-150] = 0.0
    u_t = u.transpose(0, 2, 1)
    gram = u_t @ u
    gram_r = u_t @ np.ascontiguousarray(u[:, ::-1])
    k = np.arange(m_cut.size)
    lo, hi = u[k, top - m_cut], u[k, top + m_cut]
    edge = lo[:, :, None] * lo[:, None, :] + hi[:, :, None] * hi[:, None, :]
    edge_r = lo[:, :, None] * hi[:, None, :] + hi[:, :, None] * lo[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.maximum(
            np.where(gram > 0.0, edge / gram, 0.0).max(axis=(1, 2)),
            np.where(gram_r > 0.0, edge_r / gram_r, 0.0).max(axis=(1, 2)),
        )
    return col_max, gram, gram_r, tail


def _eccentric_grams(betas, g, t, pols):
    """Eccentric-shell factors for ``_matrix_grams``.

    Each (beta, pol) item starts its inner sum at m = n + ceil(4 beta
    delta) (the I_{m-n}(beta delta) factors peak near |m - n| ~ beta
    delta) and doubles it until the edge rows carry at most t.rel_tol of
    every entry, capped at t.m_max.  Each doubling round takes one I and
    one K ladder at alpha beta and one I ladder at delta beta for all the
    frequencies still pending.
    """
    n, npol = t.n_max, len(pols)
    x_sum, x_bridge = g.alpha * betas, g.delta * betas
    half_d = 0.5 * _log_diag_pair(betas, n)[list(pols)]  # (npol, n+1, nb)
    m_cut = np.repeat(np.minimum(n + np.ceil(4.0 * x_bridge).astype(int), t.m_max), npol)
    pending = np.arange(m_cut.size)
    while pending.size:
        rows = np.unique(pending // npol)
        top = int(m_cut[pending].max())
        half_c = -0.5 * _log_diag_pair(x_sum[rows], top)[list(pols)]  # (npol, top+1, nr)
        log_bridge = log_i_ladder(x_bridge[rows], top + n)
        group = max(1, _GRAM_ELEMENTS // ((2 * top + 1) * (n + 1)))
        retry = []
        for s in range(0, pending.size, group):
            items = pending[s : s + group]
            beta_i, pol_i = items // npol, items % npol
            r = np.searchsorted(rows, beta_i)
            col_max, gram, gram_r, tail = _inner_grams(
                half_c[pol_i, :, r], log_bridge[:, r].T, m_cut[items], n
            )
            done = (tail <= t.rel_tol) | (x_bridge[beta_i] == 0.0)
            stuck = ~done & (m_cut[items] >= t.m_max)
            if stuck.any():
                raise TruncationError(
                    f"inner sum still contributes {tail[stuck].max():.2e} of an entry at m_max = {t.m_max}"
                )
            if done.any():
                log_w = half_d[pol_i[done], :, beta_i[done]] + col_max[done]
                yield items[done], log_w, gram[done], gram_r[done], m_cut[items[done]]
            retry.append(items[~done])
        pending = np.concatenate(retry)
        m_cut[pending] = np.minimum(2 * m_cut[pending], t.m_max)


def _plane_grams(betas, g, t, pols):
    """Cylinder-plane factors for ``_matrix_grams``.

    The inner sum is K_{|q+s|}(2 beta H/a), so G_qs = K_{q+s} and
    G'_qs = K_{|q-s|}, scaled by sqrt(K_2q K_2s) (log-convexity of K in
    its order keeps every scaled entry <= 1).  The inner-sum cutoff is 0.
    """
    n, npol = t.n_max, len(pols)
    log_k2h = log_k_ladder(2.0 * g.h_over_a * betas, 2 * n).T  # (nb, 2n+1)
    half_d = 0.5 * _log_diag_pair(betas, n)[list(pols)]
    q = np.arange(n + 1)
    plus, minus = q[:, None] + q[None, :], np.abs(q[:, None] - q[None, :])
    group = max(1, _GRAM_ELEMENTS // (n + 1) ** 2)
    for s in range(0, betas.size * npol, group):
        items = np.arange(s, min(s + group, betas.size * npol))
        beta_i, pol_i = items // npol, items % npol
        log_k = log_k2h[beta_i]
        half = 0.5 * log_k[:, 2 * q]
        scale = half[:, :, None] + half[:, None, :]
        gram, gram_r = log_k[:, plus], log_k[:, minus]
        for a in (gram, gram_r):
            a -= scale
            np.exp(a, out=a)
        yield items, half_d[pol_i, :, beta_i] + half, gram, gram_r, np.zeros(items.size, dtype=int)


def _matrix_grams(betas, g, t, pols=(0, 1)):
    """Half-width factors of the round-trip matrices, yielded group by group.

    Item k is (betas[k // npol], _POLARIZATIONS[pols[k % npol]]).  With
    A_{-q,-s} = A_qs only the columns q = 0..t.n_max are formed:
    A_qs = w_q w_s G_qs and A_{q,-s} = w_q w_s G'_qs.  Each group is
    (items, log w (K, n+1), G and G' (K, n+1, n+1), inner-sum cutoffs (K,)).
    """
    grams = _eccentric_grams if isinstance(g, Eccentric) else _plane_grams
    return grams(betas, g, t, pols)


def _log_det_one_minus(a):
    """ln det(1 - A) for symmetric A (..., k, k) from one batched Cholesky."""
    try:
        chol = np.linalg.cholesky(np.eye(a.shape[-1]) - a)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or not np.all(np.isfinite(chol)):
        raise NonContractiveError(
            "round-trip operator is not a contraction (spectral radius >= 1)"
        )
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def _parity_log_dets(log_w, gram, gram_r):
    """ln det(1 - A) <= 0 as the sum over the even and odd parity blocks.

    In the basis e_0, (e_q +- e_{-q})/sqrt 2 the matrix splits into the
    even block w w^T (G + G') (row and column 0 scaled by 1/sqrt 2) and
    the odd block w w^T (G - G') on q, s >= 1.
    """
    scale = log_w[:, :, None] + log_w[:, None, :]
    even = gram + gram_r
    odd = gram[:, 1:, 1:] - gram_r[:, 1:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(scale, out=scale)
        even *= scale
        odd *= scale[:, 1:, 1:]
    even[:, 0, :] *= _SQRT_HALF
    even[:, :, 0] *= _SQRT_HALF
    # det(1 - A) lies in (0, 1]; tiny positive values are roundoff.
    return np.minimum(_log_det_one_minus(even) + _log_det_one_minus(odd), 0.0)


def matrix_log_dets(betas, g, t):
    """ln det(1 - A) for TM and TE at every frequency, shape (len(betas), 2).

    Eccentric shells or cylinder-plane at half-bandwidth t.n_max, taken in
    chunks of ``_CHUNK`` frequencies.  Also returns the largest inner-sum
    cutoff used (0 for cylinder-plane).
    """
    betas = np.asarray(betas, dtype=float)
    out = np.empty(2 * betas.size)  # (beta, pol) item order
    m_used = 0
    for s in range(0, betas.size, _CHUNK):
        for items, log_w, gram, gram_r, m_cut in _matrix_grams(betas[s : s + _CHUNK], g, t):
            out[2 * s + items] = _parity_log_dets(log_w, gram, gram_r)
            m_used = max(m_used, int(m_cut.max()))
    return out.reshape(-1, 2), m_used


def _spectral_matrix(beta, g, pol, t):
    """One frequency of the batched assembler, unfolded to the (2N+1)^2 matrix."""
    pols = (_POLARIZATIONS.index(pol),)
    _, log_w, gram, gram_r, m_cut = next(_matrix_grams(np.array([beta]), g, t, pols))
    orders = np.arange(-t.n_max, t.n_max + 1)
    q = np.abs(orders)
    same_sign = orders[:, None] * orders[None, :] >= 0
    full = np.where(same_sign, gram[0][np.ix_(q, q)], gram_r[0][np.ix_(q, q)])
    w = log_w[0][q]
    entries = np.exp(w[:, None] + w[None, :]) * full
    return SpectralMatrix(beta=beta, pol=pol, entries=entries, m_used=int(m_cut[0]))


def build_eccentric(beta, g, pol, t=None):
    """Spectral matrix for eccentric shells at one frequency.

    The half-bandwidth is t.n_max; the inner sum starts from the floor
    m = n_max + ceil(4 beta delta) and doubles until the |m| = m_cut terms
    contribute less than t.rel_tol of every entry, capped at t.m_max.
    """
    if not isinstance(g, Eccentric):
        raise TypeError("build_eccentric expects an Eccentric geometry")
    validate(g)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return _spectral_matrix(float(beta), g, pol, t or TruncationSpec(n_max=16))


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
    return _spectral_matrix(float(beta), g, pol, t or TruncationSpec(n_max=16))


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
    """ln det(1 - A) <= 0 for a symmetric kernel matrix, via Cholesky.

    Raises NonContractiveError when 1 - A is not positive definite, which
    for these positive symmetric kernels happens exactly when the leading
    eigenvalue reaches 1 (touching geometry or broken truncation).
    """
    a = mat.entries if isinstance(mat, SpectralMatrix) else np.asarray(mat, dtype=float)
    # det(1 - A) lies in (0, 1]; tiny positive values are roundoff.
    return min(float(_log_det_one_minus(a)), 0.0)
