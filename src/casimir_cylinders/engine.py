r"""Interaction-energy evaluators.

Every evaluator computes the dimensionless energy

    e_hat = integral(0, inf) dbeta  beta [ln det(1 - A_TE) + ln det(1 - A_TM)]

through one path for all geometries.  A per-geometry integrand returns
the TM and TE log-determinant sums at a batch of frequencies (for the
dense eccentric and cylinder-plane matrices ``kernel.matrix_log_dets``
assembles and factors the whole batch); one quadrature step clips the
frequencies at ``_beta_limit`` and applies the transformed Gauss (or
adaptive-panel) rule; and ``_refine`` grows the matrix half-bandwidth
and the node count until the result is stable to the requested
tolerance.  Resource caps turn a runaway refinement into
NoConvergenceError instead of a silent bad number.

For concentric shells the matrices are diagonal and the determinant is a
plain sum over azimuthal index n.  That sum converges painfully slowly as
alpha -> 1, so ``energy_concentric_accelerated`` subtracts, inside every
n >= 1 term of both polarizations, the leading large-order approximant

    r_n(beta) ~ q_n(beta) = exp(-2 (alpha - 1) sqrt(n^2 + beta^2)),

whose energy contribution resums in closed form (``tilde_energy``), and
integrates only the rapidly converging remainder.  The n = 0 term has no
large-order approximant and is kept exactly.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernel
from .bessel import LADDER_MAX_ARGUMENT
from .geometry import (
    NODE_CAP,
    Concentric,
    ConvergenceReport,
    CylinderPlane,
    Eccentric,
    EnergyResult,
    QuadratureRule,
    QuadratureSpec,
    TruncationSpec,
    gap,
    validate,
)
from .quadrature import integrate_semi_infinite, semi_infinite_nodes

__all__ = [
    "NoConvergenceError",
    "energy_exact",
    "energy_concentric_accelerated",
    "tilde_energy",
    "tm_te_split",
    "energy_difference",
]

_N_START = 16
_LN2 = math.log(2.0)


class NoConvergenceError(RuntimeError):
    """Refinement hit a resource cap before reaching the tolerance."""


def _log1mexp(a):
    """log(1 - exp(a)) for a < 0, accurate over the whole range."""
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    small = a > -_LN2
    with np.errstate(divide="ignore"):
        out[small] = np.log(-np.expm1(a[small]))
        out[~small] = np.log1p(-np.exp(a[~small]))
    return out


def _rel_delta(new, old):
    scale = max(abs(new), 1e-300)
    return abs(new - old) / scale


def _beta_limit(g):
    """Largest frequency worth evaluating.

    The spectral integrands carry the envelope exp(-2 gap beta); beyond
    the point where that factor is 1e-18 nothing contributes at any
    accepted tolerance, while the Bessel ladder orders (and for eccentric
    geometry the inner-sum floor ~ 4 beta delta) would keep growing.  The
    ladder argument cap provides a second, normally looser, clip.
    """
    decay_limit = -math.log(1e-18) / (2.0 * gap(g))
    if isinstance(g, CylinderPlane):
        ladder_limit = LADDER_MAX_ARGUMENT / (2.0 * g.h_over_a)
    else:
        ladder_limit = LADDER_MAX_ARGUMENT / g.alpha
    return min(decay_limit, ladder_limit)


def _eval_factory(g, q, integrand, offset=0.0):
    """The ``eval_at(n_top, node_count) -> (e_tm, e_te, m_used)`` of ``_refine``.

    ``integrand(betas, n_top)`` returns the TM and TE log-determinant sums
    at each frequency, shape (len(betas), 2), and the largest inner-sum
    cutoff it used.  Frequencies beyond ``_beta_limit`` contribute zero and
    are never evaluated.  ``offset`` is added to the energy of each
    polarization.
    """
    decay = 1.0 / (2.0 * gap(g))
    limit = _beta_limit(g)

    def eval_at(n_top, node_count):
        m_seen = 0

        def weighted(betas):
            nonlocal m_seen
            out = np.zeros((betas.size, 2))
            keep = betas <= limit
            if keep.any():
                sums, m_used = integrand(betas[keep], n_top)
                out[keep] = betas[keep, None] * sums
                m_seen = max(m_seen, m_used)
            return out

        if q.rule is QuadratureRule.ADAPTIVE_PANEL:
            spec = replace(q, node_count=node_count)
            e_tm, e_te = integrate_semi_infinite(weighted, decay, spec)
        else:
            betas, w = semi_infinite_nodes(q.scale * decay, node_count)
            e_tm, e_te = np.dot(w, weighted(betas))
        return float(e_tm) + offset, float(e_te) + offset, m_seen

    return eval_at


# ---------------------------------------------------------------------------
# Concentric shells: diagonal kernel, vectorized over the frequency grid.

def _concentric_integrand(alpha, accelerated):
    """Folded sums g_0 + 2 sum_{n=1..n_top} g_n with g_n = ln(1 - r_n).

    In the accelerated variant every n >= 1 term of either polarization
    has ln(1 - q_n) subtracted, q_n being the resummed uniform approximant.
    """

    def integrand(betas, n_top):
        terms = np.stack([
            _log1mexp(kernel.concentric_log_ratios(betas, alpha, pol, n_top))
            for pol in kernel._POLARIZATIONS
        ])  # (2, n_top + 1, nb)
        if accelerated:
            n = np.arange(1, n_top + 1)[:, None]
            terms[:, 1:] -= _log1mexp(-2.0 * (alpha - 1.0) * np.sqrt(n * n + betas[None, :] ** 2))
        return (terms[:, 0] + 2.0 * terms[:, 1:].sum(axis=1)).T, 0

    return integrand


def tilde_energy(alpha):
    """Closed form of the resummed uniform-approximant energy (e_hat units).

    Inserting q_n = exp(-2 n (alpha-1) sqrt(1+y^2)) for every n >= 1 and
    both polarizations, expanding ln(1 - q) in powers and integrating
    y exp(-c sqrt(1+y^2)) term by term (integral(1,inf) u e^{-cu} du =
    e^{-c}(1+c)/c^2) resums the n-series geometrically:

        E(1+s) = -(1/s^2) sum_{k>=1} [ q_k / (k^3 (1-q_k))
                                       + 2 s q_k / (k^2 (1-q_k)^2) ],
        q_k = exp(-2 k s).

    Satisfies s^3 E -> -pi^4/90 as s -> 0 and E -> 0 as alpha -> inf.
    """
    s = float(alpha) - 1.0
    if s <= 0.0:
        raise ValueError("alpha must exceed 1")
    total = 0.0
    k0 = 1
    block = 64
    while True:
        k = np.arange(k0, k0 + block, dtype=float)
        qk = np.exp(-2.0 * k * s)
        one_minus = -np.expm1(-2.0 * k * s)
        chunk = qk / (k ** 3 * one_minus) + 2.0 * s * qk / (k ** 2 * one_minus ** 2)
        total += float(chunk.sum())
        if chunk[-1] < 1e-17 * total or k0 > 10_000_000:
            break
        k0 += block
        block *= 2
    return -total / (s * s)


# ---------------------------------------------------------------------------
# Matrix geometries: eccentric shells and cylinder-plane.

def _matrix_integrand(g, t):
    """ln det(1 - A) per polarization from the frequency-batched assembler."""

    def integrand(betas, n_top):
        return kernel.matrix_log_dets(betas, g, replace(t, n_max=n_top))

    return integrand


# ---------------------------------------------------------------------------
# Shared adaptive refinement harness.

@dataclass
class _Converged:
    e_tm: float
    e_te: float
    n_final: int
    m_used: int
    nodes_final: int
    trunc_delta: float
    quad_delta: float


def _refine(eval_at, t, q, n_start=_N_START):
    rel_tol = t.rel_tol

    # Grow the truncation order on the base grid (factor 1.5 keeps the
    # certificate fine-grained near the cap) until the last step moves
    # the total by less than rel_tol.  When the cap clips a step the
    # threshold shrinks proportionally, so a sliver of a step cannot fake
    # convergence.
    if t.adapt:
        n = min(max(n_start, _N_START), t.n_max)
        e_tm, e_te, _ = eval_at(n, q.node_count)
        trunc_delta = math.inf
        converged = False
        while n < t.n_max:
            planned = max(n + 8, (3 * n) // 2)
            n_next = min(planned, t.n_max)
            fraction = (n_next - n) / (planned - n)
            e_tm2, e_te2, _ = eval_at(n_next, q.node_count)
            trunc_delta = _rel_delta(e_tm2 + e_te2, e_tm + e_te)
            n, e_tm, e_te = n_next, e_tm2, e_te2
            if trunc_delta <= rel_tol * fraction:
                converged = True
                break
        if not converged:
            raise NoConvergenceError(
                f"truncation cap n_max = {t.n_max} reached with relative change {trunc_delta:.2e}"
            )
    else:
        n = t.n_max
        lo_tm, lo_te, _ = eval_at(max(1, n // 2), q.node_count)
        e_tm, e_te, _ = eval_at(n, q.node_count)
        trunc_delta = _rel_delta(e_tm + e_te, lo_tm + lo_te)

    # Grow the node count at the final order.
    nodes = q.node_count
    m_used = 0
    while True:
        if 2 * nodes > NODE_CAP:
            raise NoConvergenceError(f"node cap {NODE_CAP} reached without quadrature convergence")
        e_tm2, e_te2, m_used = eval_at(n, 2 * nodes)
        quad_delta = _rel_delta(e_tm2 + e_te2, e_tm + e_te)
        nodes *= 2
        e_tm, e_te = e_tm2, e_te2
        if quad_delta <= rel_tol:
            break
    if e_tm + e_te == 0.0:
        raise NoConvergenceError(
            f"energy underflowed to 0.0 at n_max = {n} with {nodes} nodes"
        )

    return _Converged(
        e_tm=e_tm,
        e_te=e_te,
        n_final=n,
        m_used=m_used,
        nodes_final=nodes,
        trunc_delta=trunc_delta,
        quad_delta=quad_delta,
    )


def _result(conv, t, q, accelerated):
    est = max(conv.trunc_delta, conv.quad_delta)
    report = ConvergenceReport(
        n_max_final=conv.n_final,
        m_max_final=max(conv.m_used, conv.n_final),
        node_count_final=conv.nodes_final,
        rel_change_last=conv.trunc_delta,
        accelerated=accelerated,
    )
    return EnergyResult(
        e_hat=conv.e_tm + conv.e_te,
        e_tm=conv.e_tm,
        e_te=conv.e_te,
        truncation_used=replace(t, n_max=conv.n_final, m_max=max(conv.m_used, conv.n_final)),
        quadrature_used=replace(q, node_count=conv.nodes_final),
        # with adapt=False a user-pinned n_max may stop short of the
        # tolerance; report that honestly instead of raising
        converged=est <= t.rel_tol,
        est_rel_error=est,
        report=report,
    )


def energy_exact(g, t=None, q=None):
    """Exact interaction energy for any supported geometry.

    Concentric shells use the diagonal reduction; eccentric and
    cylinder-plane geometries assemble dense spectral matrices.  Raises
    NoConvergenceError when the resource caps preclude the tolerance and
    propagates NonContractiveError from the kernel.
    """
    validate(g)
    t = t or TruncationSpec()
    q = q or QuadratureSpec()
    if isinstance(g, Concentric):
        integrand = _concentric_integrand(g.alpha, accelerated=False)
    else:
        integrand = _matrix_integrand(g, t)
    conv = _refine(_eval_factory(g, q, integrand), t, q)
    return _result(conv, t, q, accelerated=False)


def energy_concentric_accelerated(g, t=None, q=None):
    """Subtraction-accelerated concentric evaluator.

    Agrees with ``energy_exact`` wherever both converge and remains
    convergent much closer to touching (down to alpha = 1.01 within the
    default caps).  The closed-form ``tilde_energy`` is split evenly
    between the polarizations, which is exact at the order subtracted.
    """
    if not isinstance(g, Concentric):
        raise TypeError("accelerated evaluator applies to concentric shells")
    validate(g)
    t = t or TruncationSpec()
    q = q or QuadratureSpec()
    # The leftover terms ln(1-r_n) - ln(1-q_n) rise to a hump near
    # n ~ 1/(alpha-1) before decaying; starting the refinement ladder
    # beyond the hump keeps the small early deltas from faking
    # convergence against the tilde-dominated total.
    n_start = max(_N_START, math.ceil(1.5 / (g.alpha - 1.0)))
    eval_at = _eval_factory(
        g, q, _concentric_integrand(g.alpha, accelerated=True), offset=0.5 * tilde_energy(g.alpha)
    )
    conv = _refine(eval_at, t, q, n_start=n_start)
    return _result(conv, t, q, accelerated=True)


def tm_te_split(result):
    """Fractions (TM, TE) of the total energy; they sum to 1 exactly."""
    f_tm = result.e_tm / (result.e_tm + result.e_te)
    return f_tm, 1.0 - f_tm


def energy_difference(g1, g2, t=None, q=None):
    """e_hat(eccentric) - e_hat(concentric) at the same radius ratio.

    Negative for delta > 0: displacing the inner shell lowers the energy,
    the concentric configuration being an unstable equilibrium.
    """
    if not isinstance(g1, Eccentric) or not isinstance(g2, Concentric):
        raise TypeError("expects (Eccentric, Concentric)")
    if g1.alpha != g2.alpha:
        raise ValueError("geometries must share the same alpha")
    e1 = energy_exact(g1, t, q).e_hat
    e2 = energy_exact(g2, t, q).e_hat
    return e1 - e2
