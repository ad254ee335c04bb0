r"""Interaction-energy evaluators.

Every evaluator computes the dimensionless energy

    e_hat = integral(0, inf) dbeta  beta [ln det(1 - A_TE) + ln det(1 - A_TM)]

through one path for all geometries.  Each geometry family supplies
only ``evaluate(betas, orders)``: the TM and TE log-determinant sums at
a batch of frequencies, truncated at each of the requested orders.  One
quadrature step (``_eval_factory``) keeps the last evaluation to answer
the later orders ``_refine`` asks for on the same frequencies, picks
the orders evaluated by one policy for every family (first the rungs of
the truncation ladder up to the one nearest the predicted order, then
exactly the order asked for), clips the frequencies at ``_beta_limit``
and chooses the quadrature rule (transformed Gauss or adaptive panels);
``_refine`` climbs that one ladder (``_ladder``; fixed truncation is
n_max // 2, n_max, order 0 allowed), then grows the node count until the
result is stable to the requested tolerance.  Resource caps turn a
runaway refinement into NoConvergenceError instead of a silent bad
number.

For the dense eccentric and cylinder-plane matrices
``kernel.matrix_log_dets`` assembles and factors the whole batch once
at the last order and reads the others off the leading minors.  For
concentric shells the matrices are diagonal and the determinant is a
plain sum over azimuthal index n: one ``kernel.concentric_log_ratios``
pass per evaluation yields the TM and TE log ratios a block of orders
at a time, from one fused pass of the diagonal ladder over beta and
alpha beta, and each block joins a running sum over n, carried from
block to block and read at each requested order.  An evaluation holds
only the I-ratio ladder over both arguments whole, and one block: a
working set of about 3·(top+1)·nb·8 bytes for nb frequencies.  That
sum converges painfully slowly as alpha -> 1, so
``energy_concentric_accelerated`` subtracts, inside every n >= 1 term of
both polarizations, the leading large-order approximant

    r_n(beta) ~ q_n(beta) = exp(-2 (alpha - 1) sqrt(n^2 + beta^2)),

whose energy contribution resums in closed form (``tilde_energy``, one
sum of at most 17783 terms), and integrates only the rapidly converging
remainder.  The n = 0 term has no large-order approximant and is kept
exactly.
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
_TILDE_NATS = math.log(1e17)  # ``tilde_energy`` drops terms below e^-this of its first


class NoConvergenceError(RuntimeError):
    """Refinement hit a resource cap before reaching the tolerance."""


def _log1mexp(a):
    """log(1 - exp(a)) for a < 0: log1p(-exp(a)), then log(-expm1(a)) where a > -ln 2
    (Maechler, "Accurately computing log(1 - exp(-|a|))", 2012)."""
    a = np.asarray(a, dtype=float)
    out = np.exp(a, out=np.empty_like(a))
    np.negative(out, out=out)
    small = a > -_LN2
    with np.errstate(divide="ignore"):
        np.log1p(out, out=out)
        if small.any():
            out[small] = np.log(-np.expm1(a[small]))
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

    ``evaluate(betas, orders)`` returns the TM and TE log-determinant
    sums truncated at each of the increasing ``orders``, shape
    (len(betas), 2, len(orders)), and the largest inner-sum cutoff it
    used.  One cache keeps the last evaluation, so a request at one of its
    orders on the same frequencies reads that column; it lets go of the
    last before the next is formed.  The first evaluation asks for the
    rungs of ``_ladder`` from ``n_start`` up to the rung nearest the
    predicted order (n_max without adapt); a miss and new frequencies (the
    node doubling at the final order) ask for exactly n_top.  Only
    0 < beta <= ``_beta_limit`` is evaluated; the rest contributes zero (a
    huge shape's nodes underflow to beta = 0).  ``offset`` is added to the
    energy of each polarization.
    """
    decay = 1.0 / (2.0 * gap(g))
    limit = _beta_limit(g)
    rungs = _ladder(t, n_start)
    first = _first_rung(_predicted_order(g, t), rungs)
    seen, orders, sums, m_used = None, [], None, 0

    def sums_at(betas, n_top):
        nonlocal seen, orders, sums, m_used
        if seen is None or n_top not in orders or not np.array_equal(betas, seen):
            if seen is None:
                top = max(n_top, first)
                wanted = sorted({n for n in rungs if n <= top} | {n_top})
            else:
                wanted = [n_top]
            seen = sums = None  # so that two evaluations are never held at once
            sums, m_used = evaluate(betas, wanted)
            seen, orders = betas, wanted
        return sums[:, :, orders.index(n_top)], m_used

    def eval_at(n_top, node_count):
        m_seen = 0

        def weighted(betas):
            nonlocal m_seen
            out = np.zeros((betas.size, 2))
            keep = (betas > 0.0) & (betas <= limit)
            if keep.any():
                s, m = sums_at(betas[keep], n_top)
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

def _order_sum(rows, out):
    """``rows`` (2, m, nb) summed over the order axis into ``out`` (2, nb), row after row
    as ``np.cumsum`` adds them.  numpy reduces an axis that is not the innermost row by
    row; with one frequency the order axis is the innermost, where it sums pairwise, so
    that case accumulates instead."""
    if rows.shape[2] > 1:
        return np.add.reduce(rows, axis=1, out=out)
    out[...] = np.add.accumulate(rows, axis=1)[:, -1]
    return out


def _concentric_integrand(g, accelerated):
    """``evaluate`` of the folded sums g_0 + 2 sum_{n=1..N} g_n, g_n = ln(1 - r_n), at N in orders.

    In the accelerated variant every n >= 1 term of either polarization
    has ln(1 - q_n) subtracted, q_n being the resummed uniform approximant.
    A term at order n does not depend on the truncation, so one pass up to
    the last order serves every order asked for.  The terms are formed from
    each block that ``kernel.concentric_log_ratios`` yields, and a running
    sum crosses the blocks: each stretch of rows up to an order asked for,
    or to a block's end, joins it by one ``_order_sum``, so every sum is
    the cumulative sum's row bit for bit.
    """
    alpha = g.alpha

    def evaluate(betas, orders):
        beta2 = betas * betas
        sums = np.empty((len(orders), 2, betas.size))
        block_end = np.empty((2, betas.size))  # the running sum at the end of a block
        k, carry = 0, None
        for a, b, log_r in kernel.concentric_log_ratios(betas, alpha, orders[-1]):
            terms = _log1mexp(log_r)
            lo = max(a, 1) - a  # the block's first row with n >= 1
            if accelerated:
                n = np.arange(a + lo, b)[:, None]
                terms[:, lo:] -= _log1mexp(-2.0 * (alpha - 1.0) * np.sqrt(n * n + beta2))
            terms[:, lo:] *= 2.0
            start = a
            while start < b:
                stop = min(orders[k] + 1, b)
                rows = terms[:, start - a : stop - a]
                if carry is not None:
                    rows[:, 0] += carry
                closes = stop == orders[k] + 1
                carry = _order_sum(rows, sums[k] if closes else block_end)
                k, start = k + closes, stop
        return sums.transpose(2, 1, 0), 0

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

    The sum runs to k = ceil(min(L/(2s), e^{L/4})), L = ``_TILDE_NATS``: past it a
    term is below e^{-L} of the first, through q_k once ks >= 1 and through 1/k^4
    before.  That is at most 17783 terms, and one from alpha = 1 + L/2 ~ 20.6 on.
    s^3 E -> -pi^4/90 as s -> 0 and E -> 0 as alpha -> inf; non-finite alpha raises.
    """
    s = float(alpha) - 1.0
    if not 0.0 < s < math.inf:
        raise ValueError("alpha must exceed 1 and be finite")
    k = np.arange(1.0, 1.0 + math.ceil(min(_TILDE_NATS / (2.0 * s), math.exp(_TILDE_NATS / 4.0))))
    qk = np.exp(-2.0 * k * s)
    one_minus = -np.expm1(-2.0 * k * s)
    series = qk / (k ** 3 * one_minus) + 2.0 * s * qk / (k ** 2 * one_minus ** 2)
    return -float(series.sum()) / (s * s)


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

    def evaluate(betas, orders):
        log_dets, m_used = kernel.matrix_log_dets(betas, g, replace(t, n_max=orders[-1]))
        return log_dets[:, :, orders], m_used

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
    if t.adapt and len(rungs) == 1:
        raise NoConvergenceError(
            f"truncation cap n_max = {t.n_max} leaves no step above the starting order {max(n_start, _N_START)}"
        )
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
