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

    r_n = I_n(beta) K_n(alpha beta) / (I_n(alpha beta) K_n(beta))

(primed functions for TE), and ``concentric_log_ratios`` takes both
polarizations at beta and alpha beta from one pass of
``bessel.log_diag_blocks``: one K_0/K_1 seed per argument and the I and K
ratio recurrences, whose ratios rho_n = I_n/I_{n+1} and
sigma_n = K_{n+1}/K_n also give the TE factors through
I'_n/I_n = (rho_{n-1} + 1/rho_n)/2 and |K'_n|/K_n = (1/sigma_{n-1} + sigma_n)/2.
The pass runs over blocks of orders, and ``concentric_log_ratios``
yields each block's beta-minus-alpha-beta difference in turn, so neither
the (TM, TE) ladder over both arguments nor the log ratios over all
orders are ever formed whole.
In the cylinder-plane limit the inner sum reduces, via the addition
theorem for modified Bessel functions, to a single K:

    A_np = sqrt(d_n d_p) * K_{n+p}(2 beta H/a).

All entries are assembled from log-magnitude ladders and exponentiated
last.  ``matrix_log_dets`` takes each ladder of the frequency alone once
per call: ``log_diag_pair`` at beta and the cylinder-plane K ladder at
2 beta H/a, whose Grams serve both polarizations.  Eccentric inner sums
run in chunks of frequencies, each with one ``log_diag_pair`` pass at
alpha beta and an I ladder at delta beta, taken at twice the first
cutoff and retaken only for a cutoff beyond that.  Since
A_{-n,-p} = A_np only the columns n >= 0 are formed, as two
column-scaled half-width Gram products of the inner m-sum, G = U^T U
and G' = U^T R U (R reflects m).  When an item's cutoff doubles, only
the shell of new rows is added to the G and G' it already has.
G + G' and G - G' are the even and odd parity blocks of the matrix,
and one batched Cholesky factors both; a failed Cholesky is a
NonContractiveError.  The factor of a block at order N holds the factor
of every leading minor, so the cumulative sums of 2 log diag L give
ln det(1 - A) at every order n <= N from one assembly.  The
single-frequency builders unfold the same factors into the full
(2N+1)^2 matrix, and ``addition_theorem_check`` (used by ``selftest``
and the tests) reads its inner sum off them too.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bessel import (  # noqa: F401 -- perfbench/tracer.py looks up the derivative ladders here
    log_di_ladder,
    log_diag_blocks,
    log_diag_pair,
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
_CHUNK = 32  # frequencies whose eccentric inner sums share their ladders
_GRAM_ELEMENTS = 1 << 15  # elements per batched Gram array; bounds the memory of one group
_SQRT_HALF = math.sqrt(0.5)
_NEGLIGIBLE = 1e-150  # share of a column's peak below which a summand is dropped
_LOG_NEGLIGIBLE = math.log(_NEGLIGIBLE)


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

    def to_text(self):
        """Plain-text dump: header line plus one row of entries per line."""
        n = self.half_bandwidth
        lines = [f"# beta={self.beta!r} pol={self.pol.value} half_bandwidth={n} m_used={self.m_used}"]
        lines += [" ".join(format(v, ".17e") for v in row) for row in self.entries]
        return "\n".join(lines) + "\n"


def concentric_log_ratios(beta, alpha, n_max):
    """log r_n for n = 0..n_max at the flattened betas, one block of orders at a time.

    r_n = d_n(beta) / d_n(alpha beta), d_n the diagonal factor of
    ``bessel.log_diag_pair``, taken in one pass over beta and alpha beta
    together.  Yields (a, b, log_r) in increasing order, log_r of shape
    (2, b - a, nb) holding orders a..b-1 of both polarizations in (TM, TE)
    order: the difference of the two halves of a ``bessel.log_diag_blocks``
    block, a new array that outlives the block.
    """
    betas = np.asarray(beta, dtype=float).reshape(-1)
    nb = betas.size
    for a, b, block in log_diag_blocks(np.concatenate([betas, alpha * betas]), n_max):
        yield a, b, block[..., :nb] - block[..., nb:]


def _checked_beta(beta, g, cls, type_message):
    """The argument checks shared by the single-frequency builders; returns float(beta)."""
    if not isinstance(g, cls):
        raise TypeError(type_message)
    validate(g)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return float(beta)


def build_concentric(beta, g, pol, n_max=32):
    """Diagonal ratios r_n(beta), n = -n_max..n_max, for concentric shells.

    Every ratio lies in (0, 1) for alpha > 1; the TM sequence decreases
    in |n| (the TE n = 0 entry coincides with the TM n = 1 ratio and may
    sit below its neighbour at small beta).
    """
    beta = _checked_beta(beta, g, Concentric, "build_concentric expects a Concentric geometry")
    blocks = [log_r for _, _, log_r in concentric_log_ratios(beta, g.alpha, n_max)]
    log_r = np.concatenate(blocks, axis=1)[_POLARIZATIONS.index(pol), :, 0]
    folded = np.concatenate([log_r[::-1], log_r[1:]])
    return np.exp(folded)


def _exp_significant(log_u):
    """exp(log_u) in place, with every share below 1e-150 of its reference set to 0.

    Such a summand adds nothing to an entry, while its subnormal products
    would slow the Gram products many-fold, and so would exp's underflow
    path: clip, exponentiate, then zero.
    """
    np.maximum(log_u, 2.0 * _LOG_NEGLIGIBLE, out=log_u)
    u = np.exp(log_u, out=log_u)
    u[u < _NEGLIGIBLE] = 0.0
    return u


def _add_shell(acc, half_c, log_bridge, lo, hi, n):
    """Add the inner-sum rows lo < |m| <= hi to column-scaled half-width Grams.

    Item k has the exponent rows 0.5 log c_|m| + log I_|m-q|(beta delta)
    for columns q = 0..n (half_c: (K, L), log_bridge: (K, L+n), L > max
    hi).  ``acc`` holds the log column maxima (K, n+1) and G = U^T U and
    G' = U^T R U (K, n+1, n+1), R reflecting m, in units of those maxima;
    it is updated in place, so that it equals a rebuild over |m| <= hi.
    Returns each item's largest share of an entry of the full (2n+1)^2
    matrix carried by its two edge rows m = +-hi.
    """
    col_max, gram, gram_r = acc
    top, inner = int(hi.max()), int(lo.min()) + 1
    # window[k, m + top, q] = log I_|m-q| for m = -top..top (a Toeplitz view)
    ext = np.concatenate([log_bridge[:, top + n : 0 : -1], log_bridge[:, : top + 1]], axis=1)
    window = sliding_window_view(ext, n + 1, axis=1)[:, :, ::-1]
    # rows m = -neg_inner..-top (neg rows), then m = inner..top
    neg_inner = max(inner, 1)
    neg = top - neg_inner + 1
    abs_m = np.concatenate([np.arange(neg_inner, top + 1), np.arange(inner, top + 1)])
    expo = np.concatenate([window[:, top - neg_inner :: -1], window[:, top + inner :]], axis=1)
    expo += half_c[:, abs_m, None]
    expo[(abs_m <= lo[:, None]) | (abs_m > hi[:, None])] = -np.inf
    new_max = np.maximum(col_max, expo.max(axis=1))
    ref = np.where(np.isfinite(new_max), new_max, 0.0)
    shift = np.where(np.isfinite(col_max), col_max - ref, 0.0)  # <= 0
    if shift.any():
        rescale = np.exp(shift)
        rescale = rescale[:, :, None] * rescale[:, None, :]
        gram *= rescale
        gram_r *= rescale
    col_max[:] = new_max
    expo -= ref[:, None, :]
    u = _exp_significant(expo)
    gram += u.transpose(0, 2, 1) @ u
    # G' pairs row m with row -m: sum over m > 0 of u_m u_-m^T, its
    # transpose, and u_0 u_0^T
    cross = u[:, neg + neg_inner - inner :].transpose(0, 2, 1) @ u[:, :neg]
    gram_r += cross
    gram_r += cross.transpose(0, 2, 1)
    if inner == 0:
        gram_r += u[:, neg, :, None] * u[:, neg, None, :]
    # rows (K, 2, n+1) holds the edge rows m = -hi, +hi; edge and edge_r are
    # their own shares of G and G' (R restricted to them swaps the two)
    rows = u[np.arange(hi.size)[:, None], np.stack((hi - neg_inner, neg + hi - inner), axis=1)]
    edge = rows.transpose(0, 2, 1) @ rows
    edge_r = rows.transpose(0, 2, 1) @ rows[:, ::-1]
    # edge <= gram entrywise, and 0/0 = nan where both vanish: fmax skips it
    # (G_qq >= 1, since every column has a row at its maximum).
    with np.errstate(divide="ignore", invalid="ignore"):
        edge /= gram
        edge_r /= gram_r
    return np.fmax(np.fmax.reduce(edge.reshape(hi.size, -1), axis=1),
                   np.fmax.reduce(edge_r.reshape(hi.size, -1), axis=1))


def _eccentric_grams(betas, g, t, pols, half_d):
    """Eccentric-shell factors for ``_matrix_grams``, ``_CHUNK`` frequencies at a time.

    Each (beta, pol) item starts its inner sum at m = n + ceil(4 beta
    delta) (the I_{m-n}(beta delta) factors peak near |m - n| ~ beta
    delta) and doubles it until the edge rows carry at most t.rel_tol of
    every entry, capped at t.m_max.  A doubling adds only the new shell
    of rows to the Grams the item already has.  Each group of items runs
    all its rounds before the next group starts, so only one group's
    Grams are held.  The ladders at alpha beta and delta beta serve every
    group of a chunk: they are taken at twice its largest first cutoff,
    and again at twice any cutoff that outgrows them.
    """
    for c in range(0, betas.size, _CHUNK):
        for items, *grams in _chunk_grams(betas[c : c + _CHUNK], g, t, pols, half_d[:, :, c : c + _CHUNK]):
            yield c * len(pols) + items, *grams


def _chunk_grams(betas, g, t, pols, half_d):
    """One chunk of ``_eccentric_grams``; half_d holds its factors 0.5 log d_n."""
    n, npol = t.n_max, len(pols)
    x_sum, x_bridge = g.alpha * betas, g.delta * betas
    first = np.repeat(np.minimum(n + np.ceil(4.0 * x_bridge).astype(int), t.m_max), npol)

    def ladders(top):
        c = -0.5 * log_diag_pair(x_sum, top)[list(pols)]  # (npol, top+1, nb)
        return top, c, log_i_ladder(x_bridge, top + n).T  # (nb, top+n+1)

    ladder_top, half_c, log_bridge = ladders(min(2 * int(first.max()), t.m_max))
    group = max(1, _GRAM_ELEMENTS // ((2 * int(first.max()) + 1) * (n + 1)))
    for s in range(0, first.size, group):
        items = np.arange(s, min(s + group, first.size))
        beta_i, pol_i = items // npol, items % npol
        m_cut, lo = first[items], np.full(items.size, -1)
        log_w, (gram, gram_r) = np.empty((items.size, n + 1)), np.empty((2, items.size, n + 1, n + 1))
        pending = np.arange(items.size)
        acc = (np.full((items.size, n + 1), -np.inf), np.zeros(gram.shape), np.zeros(gram.shape))
        while pending.size:
            b = beta_i[pending]
            if m_cut[pending].max() > ladder_top:
                ladder_top, half_c, log_bridge = ladders(min(2 * int(m_cut[pending].max()), t.m_max))
            tail = _add_shell(acc, half_c[pol_i[pending], :, b], log_bridge[b], lo[pending], m_cut[pending], n)
            done = (tail <= t.rel_tol) | (x_bridge[b] == 0.0)
            stuck = ~done & (m_cut[pending] >= t.m_max)
            if stuck.any():
                raise TruncationError(
                    f"inner sum still contributes {tail[stuck].max():.2e} of an entry at m_max = {t.m_max}"
                )
            finished = pending[done]
            log_w[finished] = np.where(np.isfinite(acc[0][done]), acc[0][done], 0.0)
            gram[finished], gram_r[finished] = acc[1][done], acc[2][done]
            pending, acc = pending[~done], tuple(a[~done] for a in acc)
            lo[pending] = m_cut[pending]
            m_cut[pending] = np.minimum(2 * m_cut[pending], t.m_max)
        yield items, log_w + half_d[pol_i, :, beta_i], gram, gram_r, m_cut


def _plane_grams(betas, g, t, pols, half_d):
    """Cylinder-plane factors for ``_matrix_grams``.

    The inner sum is K_{|q+s|}(2 beta H/a), so G_qs = K_{q+s} and
    G'_qs = K_{|q-s|}, scaled by sqrt(K_2q K_2s) (log-convexity of K in
    its order keeps every scaled entry <= 1, and G_qq = 1).  Each group
    yields the same G and G' once per polarization; the cutoff is 0.
    """
    n, npol = t.n_max, len(pols)
    log_k2h = log_k_ladder(2.0 * g.h_over_a * betas, 2 * n).T  # (nb, 2n+1)
    half = 0.5 * log_k2h[:, :: 2]  # (nb, n+1)
    group = max(1, _GRAM_ELEMENTS // (npol * (n + 1) ** 2))
    for s in range(0, betas.size, group):
        b = np.arange(s, min(s + group, betas.size))
        log_k = log_k2h[b]
        hankel = sliding_window_view(log_k, n + 1, axis=1)  # log K_{q+s}
        ext = np.concatenate([log_k[:, n:0:-1], log_k[:, : n + 1]], axis=1)
        toeplitz = sliding_window_view(ext, n + 1, axis=1)[:, ::-1]  # log K_|q-s|
        scale = half[b, :, None] + half[b, None, :]
        grams = [_exp_significant(a - scale) for a in (hankel, toeplitz)]
        for p in range(npol):
            yield npol * b + p, half_d[p, :, b] + half[b], *grams, np.zeros(b.size, dtype=int)


def _matrix_grams(betas, g, t, pols=(0, 1)):
    """Half-width factors of the round-trip matrices, yielded group by group.

    Item k is (betas[k // npol], _POLARIZATIONS[pols[k % npol]]).  With
    A_{-q,-s} = A_qs only the columns q = 0..t.n_max are formed:
    A_qs = w_q w_s G_qs and A_{q,-s} = w_q w_s G'_qs.  Each group is
    (items, log w (K, n+1), G and G' (K, n+1, n+1), inner-sum cutoffs (K,)).
    """
    grams = _eccentric_grams if isinstance(g, Eccentric) else _plane_grams
    return grams(betas, g, t, pols, 0.5 * log_diag_pair(betas, t.n_max)[list(pols)])


def _log_det_terms(m):
    """2 log diag L of the Cholesky factor L L^T = m, m symmetric (..., k, k).

    L's leading j x j block factors the leading j x j minor of m, so the
    cumulative sum of the terms is log det of every leading minor.
    """
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or not np.all(np.isfinite(chol)):
        raise NonContractiveError("round-trip operator is not a contraction (spectral radius >= 1)")
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1))


def _parity_log_dets(log_w, gram, gram_r):
    """ln det(1 - A) <= 0 at every half-bandwidth 0..n, shape (K, n+1).

    In the basis e_0, (e_q +- e_{-q})/sqrt 2 the matrix splits into the
    even block w w^T (G + G') (row and column 0 scaled by 1/sqrt 2) on
    q, s >= 0 and the odd block w w^T (G - G') on q, s >= 1, padded here
    with a zero row and column 0.  The matrix at half-bandwidth j has the
    leading minors of both blocks, so entry j sums the Cholesky terms of
    both over q <= j.
    """
    blocks = np.empty((2,) + gram.shape)
    np.add(gram, gram_r, out=blocks[0])
    np.subtract(gram, gram_r, out=blocks[1])
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(log_w)  # <= 1 on a contraction, since G_qq >= 1 and A_qq < 1
        w[:, 0] *= _SQRT_HALF
        blocks *= w[:, :, None] * -w[:, None, :]
    blocks[1, :, 0, :] = 0.0
    blocks[1, :, :, 0] = 0.0
    blocks.reshape(2, len(w), -1)[:, :, :: w.shape[1] + 1] += 1.0
    cum = np.cumsum(_log_det_terms(blocks).sum(axis=0), axis=1)
    # det(1 - A) lies in (0, 1]; tiny positive values are roundoff.
    return np.minimum(cum, 0.0)


def matrix_log_dets(betas, g, t):
    """ln det(1 - A) for TM and TE at every frequency and every half-bandwidth.

    Eccentric shells or cylinder-plane, assembled once at half-bandwidth
    t.n_max for the whole batch; entry [k, p, j] is
    frequency k, polarization p (TM, TE) at half-bandwidth j <= t.n_max,
    shape (len(betas), 2, t.n_max + 1), read off the leading minors.
    Also returns the largest inner-sum cutoff used (0 for cylinder-plane).
    """
    betas = np.asarray(betas, dtype=float)
    out = np.empty((2 * betas.size, t.n_max + 1))  # (beta, pol) item order
    m_used = 0
    for items, log_w, gram, gram_r, m_cut in _matrix_grams(betas, g, t):
        out[items] = _parity_log_dets(log_w, gram, gram_r)
        m_used = max(m_used, int(m_cut.max()))
    return out.reshape(betas.size, 2, -1), m_used


def _spectral_matrix(beta, g, pol, t):
    """One frequency of the batched assembler, unfolded to the (2N+1)^2 matrix."""
    pols = (_POLARIZATIONS.index(pol),)
    _, log_w, gram, gram_r, m_cut = next(_matrix_grams(np.array([beta]), g, t, pols))
    orders = np.arange(-t.n_max, t.n_max + 1)
    q = np.abs(orders)
    full = np.where(np.multiply.outer(orders, orders) >= 0, gram[0][np.ix_(q, q)], gram_r[0][np.ix_(q, q)])
    w = log_w[0][q]
    entries = np.exp(w[:, None] + w[None, :]) * full
    return SpectralMatrix(beta=beta, pol=pol, entries=entries, m_used=int(m_cut[0]))


def build_eccentric(beta, g, pol, t=None):
    """Spectral matrix for eccentric shells at one frequency.

    The half-bandwidth is t.n_max; the inner sum starts from the floor
    m = n_max + ceil(4 beta delta) and doubles until the |m| = m_cut terms
    contribute less than t.rel_tol of every entry, capped at t.m_max.
    """
    beta = _checked_beta(beta, g, Eccentric, "build_eccentric expects an Eccentric geometry")
    return _spectral_matrix(beta, g, pol, t or TruncationSpec(n_max=16))


def build_cylinder_plane(beta, g, pol, t=None):
    """Spectral matrix for a cylinder facing a conducting plane.

    A_np = sqrt(d_n d_p) K_{n+p}(2 beta H/a); for TE the explicit minus
    sign and the negative K'_n cancel, so all entries are positive.
    """
    beta = _checked_beta(beta, g, CylinderPlane, "build_cylinder_plane expects a CylinderPlane geometry")
    return _spectral_matrix(beta, g, pol, t or TruncationSpec(n_max=16))


def addition_theorem_check(x, h, n, p, pol):
    """Both sides of the large-x reduction of the inner sum.

    lhs = sum_m (K_m(x+h)/I_m(x+h)) I_{n-m}(x) I_{p-m}(x)  (primed for TE)
    rhs = +K_{n+p}(2h) for TM, -K_{n+p}(2h) for TE.

    The lhs is read off the production assembler: one frequency
    beta = h/2 of the eccentric shells with alpha beta = x + h and
    delta beta = x, entry G_|n||p| (G' when n p < 0) scaled by its column
    maxima in log space, with the inner sum closed to 1e-14.  The relative
    deviation vanishes as x/h grows; ``selftest`` and the tests use it.
    """
    if x <= 0.0 or h <= 0.0:
        raise ValueError("x and h must be positive")
    beta, pol_i, top = 0.5 * h, _POLARIZATIONS.index(pol), max(abs(n), abs(p), 1)
    t = TruncationSpec(n_max=top, m_max=100_000, rel_tol=1e-14)
    g = Eccentric((x + h) / beta, x / beta)  # valid: alpha - 1 - delta = h / beta - 1 = 1
    _, log_w, gram, gram_r, _ = next(_matrix_grams(np.array([beta]), g, t, (pol_i,)))
    col = log_w[0] - 0.5 * log_diag_pair(beta, top)[pol_i]
    entry = (gram if n * p >= 0 else gram_r)[0, abs(n), abs(p)]
    magnitude = math.exp(col[abs(n)] + col[abs(p)] + math.log(entry))
    rhs_mag = math.exp(log_k_ladder(2.0 * h, abs(n + p))[abs(n + p)])
    sign = 1.0 if pol is Polarization.TM else -1.0
    return sign * magnitude, sign * rhs_mag


def log_det_one_minus(mat):
    """ln det(1 - A) <= 0 for a symmetric kernel matrix, via Cholesky.

    Raises NonContractiveError when 1 - A is not positive definite, which
    for these positive symmetric kernels happens exactly when the leading
    eigenvalue reaches 1 (touching geometry or broken truncation).
    """
    a = mat.entries if isinstance(mat, SpectralMatrix) else np.asarray(mat, dtype=float)
    # det(1 - A) lies in (0, 1]; tiny positive values are roundoff.
    return min(float(_log_det_terms(np.eye(a.shape[-1]) - a).sum()), 0.0)
