r"""Interaction-energy evaluators.

Every evaluator computes the dimensionless energy

    e_hat = integral(0, inf) dbeta  beta [ln det(1 - A_TE) + ln det(1 - A_TM)]

through one path for all geometries.  Each geometry family supplies
only ``evaluate(betas, top)``: the TM and TE log-determinant sums at a
batch of frequencies for every truncation order up to top.  One
quadrature step (``_eval_factory``) keeps the last evaluation to answer
every lower order ``_refine`` asks for on the same frequencies, picks
the orders evaluated by one policy for every family (first the rung of
the truncation ladder nearest the predicted order, then exactly the
order asked for), clips the frequencies at ``_beta_limit`` and chooses
the quadrature rule (transformed Gauss or adaptive panels); ``_refine``
climbs that one ladder (``_ladder``; fixed truncation is n_max // 2,
n_max, order 0 allowed), then grows the node count until the result is
stable to the requested tolerance.  Resource caps turn a runaway
refinement into NoConvergenceError instead of a silent bad number.

For the dense eccentric and cylinder-plane matrices
``kernel.matrix_log_dets`` assembles and factors the whole batch once
and reads every lower order off the leading minors.  For concentric
shells the matrices are diagonal and the determinant is a plain sum over
azimuthal index n: one ``kernel.concentric_log_ratios`` call per
evaluation gives the TM and TE terms from one fused ``log_diag_pair``
pass over beta and alpha beta, and their cumulative sums over n give
every lower order.  That sum converges painfully slowly as alpha -> 1,
so ``energy_concentric_accelerated`` subtracts, inside every n >= 1
term of both polarizations, the leading large-order approximant

    r_n(beta) ~ q_n(beta) = exp(-2 (alpha - 1) sqrt(n^2 + beta^2)),

whose energy contribution resums in closed form (``tilde_energy``), and
integrates only the rapidly converging remainder.  The n = 0 term has no
large-order approximant and is kept exactly.
"""

import math
from dataclasses import replace

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
from .quadrature import adaptive_panels, semi_infinite_nodes

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
    small = a > -_LN2
    out = np.exp(a, out=np.empty_like(a))
    np.expm1(a, out=out, where=small)
    np.negative(out, out=out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out, where=small)
        np.log1p(out, out=out, where=~small)
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


def _predicted_order(g, t):
    """Order at which the exp(-2 gap n) envelope of the terms falls to rel_tol (>= 1)."""
    return max(1, math.ceil(-math.log(t.rel_tol) / gap(g)))


def _first_rung(predicted, rungs):
    """The order of ``rungs[1:]`` nearest ``predicted`` in log; the cap (the last rung)
    counts only when the prediction reaches it or when it is the only candidate."""
    candidates = rungs[1:]
    if predicted < rungs[-1] and len(candidates) > 1:
        candidates = candidates[:-1]
    return min(candidates or rungs, key=lambda n: abs(math.log(n / predicted)))


def _eval_factory(g, t, q, evaluate, n_start=_N_START, offset=0.0):
    """The ``eval_at(n_top, node_count) -> (e_tm, e_te, m_used)`` of ``_refine``.

    ``evaluate(betas, top)`` returns the cumulative TM and TE
    log-determinant sums over the orders 0..top, shape
    (len(betas), 2, top+1), and the largest inner-sum cutoff it used.  One
    cache keeps the last evaluation, so a request at n_top <= top on the
    same frequencies reads entry n_top.  The first evaluation runs at the
    rung of ``_ladder`` from ``n_start`` nearest the predicted order
    (n_max without adapt); a miss and new frequencies (the node doubling
    at the final order) run at exactly n_top.  Frequencies beyond
    ``_beta_limit`` contribute zero and are never evaluated.  ``offset``
    is added to the energy of each polarization.
    """
    decay = 1.0 / (2.0 * gap(g))
    limit = _beta_limit(g)
    first = _first_rung(_predicted_order(g, t), _ladder(t, n_start))
    seen, cum, m_used = None, None, 0

    def sums(betas, n_top):
        nonlocal seen, cum, m_used
        if seen is None or n_top >= cum.shape[2] or not np.array_equal(betas, seen):
            top = max(n_top, first) if seen is None else n_top
            seen, (cum, m_used) = betas, evaluate(betas, top)
        return cum[:, :, n_top], m_used

    def eval_at(n_top, node_count):
        m_seen = 0

        def weighted(betas):
            nonlocal m_seen
            out = np.zeros((betas.size, 2))
            keep = betas <= limit
            if keep.any():
                s, m = sums(betas[keep], n_top)
                out[keep] = betas[keep, None] * s
                m_seen = max(m_seen, m)
            return out

        if q.rule is QuadratureRule.ADAPTIVE_PANEL:
            e_tm, e_te = adaptive_panels(weighted, q.scale * decay, node_count)
        else:
            betas, w = semi_infinite_nodes(q.scale * decay, node_count)
            e_tm, e_te = np.dot(w, weighted(betas))
        return float(e_tm) + offset, float(e_te) + offset, m_seen

    return eval_at


# ---------------------------------------------------------------------------
# Concentric shells: diagonal kernel, vectorized over the frequency grid.

def _concentric_integrand(g, accelerated):
    """``evaluate`` of the folded sums g_0 + 2 sum_{n=1..top} g_n, g_n = ln(1 - r_n).

    In the accelerated variant every n >= 1 term of either polarization
    has ln(1 - q_n) subtracted, q_n being the resummed uniform approximant.
    A term at order n does not depend on the truncation, so the cumulative
    folded sums of one evaluation serve every lower order.
    """
    alpha = g.alpha

    def evaluate(betas, top):
        terms = _log1mexp(kernel.concentric_log_ratios(betas, alpha, top))  # (2, top + 1, nb)
        if accelerated:
            n = np.arange(1, top + 1)[:, None]
            terms[:, 1:] -= _log1mexp(-2.0 * (alpha - 1.0) * np.sqrt(n * n + betas[None, :] ** 2))
        terms[:, 1:] *= 2.0
        return np.cumsum(terms, axis=1, out=terms).transpose(2, 0, 1), 0

    return evaluate


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
    """``evaluate`` of ln det(1 - A) per polarization at every order up to top.

    One ``kernel.matrix_log_dets`` call gives the whole truncation ladder
    up to its order from the leading minors.  With adapt a shape whose
    predicted order exceeds twice n_max fails before any assembly
    (converging shapes end at 0.87-1.26 times their prediction).
    """
    predicted = _predicted_order(g, t)
    if t.adapt and predicted > 2 * t.n_max:
        raise NoConvergenceError(
            f"predicted truncation order {predicted} exceeds twice the cap n_max = {t.n_max}"
        )

    def evaluate(betas, top):
        return kernel.matrix_log_dets(betas, g, replace(t, n_max=top))

    return evaluate


# ---------------------------------------------------------------------------
# Shared adaptive refinement harness.

def _next_order(n):
    """The truncation order ``_refine`` tries after n, before the cap."""
    return max(n + 8, (3 * n) // 2)


def _ladder(t, start=_N_START):
    """The truncation orders ``_refine`` evaluates: with adapt from ``start`` (at least 16)
    by ``_next_order``, the cap n_max clipping the last step; without, n_max // 2 (0 allowed)
    and n_max, so a fixed ladder never compares an order with itself."""
    if not t.adapt:
        return [t.n_max // 2, t.n_max]
    rungs = [min(max(start, _N_START), t.n_max)]
    while rungs[-1] < t.n_max:
        rungs.append(min(_next_order(rungs[-1]), t.n_max))
    return rungs


def _check_node_cap(nodes):
    if 2 * nodes > NODE_CAP:
        raise NoConvergenceError(f"node cap {NODE_CAP} reached without quadrature convergence")


def _refine(eval_at, t, q, n_start=_N_START, accelerated=False):
    """Grow the truncation order, then the node count; return the EnergyResult.

    ``accelerated`` is copied to its ConvergenceReport.
    """
    rel_tol = t.rel_tol
    # The node doubling at the end needs room for one step; without it
    # the truncation ladder below would be wasted work.
    _check_node_cap(q.node_count)

    # Climb the truncation ladder on the base grid (factor 1.5 keeps the
    # certificate fine-grained near the cap).  With adapt, stop once a step
    # moves the total by less than rel_tol; when the cap clips a step the
    # threshold shrinks proportionally, so a sliver of a step cannot fake
    # convergence.
    rungs = _ladder(t, n_start)
    n = rungs[0]
    e_tm, e_te, _ = eval_at(n, q.node_count)
    trunc_delta = math.inf
    for n_next in rungs[1:]:
        fraction = (n_next - n) / (_next_order(n) - n)
        e_tm2, e_te2, _ = eval_at(n_next, q.node_count)
        trunc_delta = _rel_delta(e_tm2 + e_te2, e_tm + e_te)
        n, e_tm, e_te = n_next, e_tm2, e_te2
        if trunc_delta <= rel_tol * fraction:
            break
    else:
        if t.adapt:
            raise NoConvergenceError(
                f"truncation cap n_max = {t.n_max} reached with relative change {trunc_delta:.2e}"
            )

    # Grow the node count at the final order.
    nodes = q.node_count
    while True:
        e_tm2, e_te2, m_used = eval_at(n, 2 * nodes)
        quad_delta = _rel_delta(e_tm2 + e_te2, e_tm + e_te)
        nodes *= 2
        e_tm, e_te = e_tm2, e_te2
        if quad_delta <= rel_tol:
            break
        _check_node_cap(nodes)
    if e_tm + e_te == 0.0:
        raise NoConvergenceError(
            f"energy underflowed to 0.0 at n_max = {n} with {nodes} nodes"
        )

    m_final = max(m_used, n)
    est = max(trunc_delta, quad_delta)
    report = ConvergenceReport(
        n_max_final=n,
        m_max_final=m_final,
        node_count_final=nodes,
        rel_change_last=trunc_delta,
        accelerated=accelerated,
    )
    return EnergyResult(
        e_hat=e_tm + e_te,
        e_tm=e_tm,
        e_te=e_te,
        truncation_used=replace(t, n_max=n, m_max=m_final),
        quadrature_used=replace(q, node_count=nodes),
        # with adapt=False a user-pinned n_max may stop short of the
        # tolerance; report that honestly instead of raising
        converged=est <= rel_tol,
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
        evaluate = _concentric_integrand(g, accelerated=False)
    else:
        evaluate = _matrix_integrand(g, t)
    return _refine(_eval_factory(g, t, q, evaluate), t, q)


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
    n_start = math.ceil(1.5 / (g.alpha - 1.0))
    evaluate = _concentric_integrand(g, accelerated=True)
    eval_at = _eval_factory(g, t, q, evaluate, n_start, offset=0.5 * tilde_energy(g.alpha))
    return _refine(eval_at, t, q, n_start=n_start, accelerated=True)


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
