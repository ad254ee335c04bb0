import inspect
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_cylinders import bessel, kernel
from casimir_cylinders.baselines import PfaOrder, pfa_bracket, pfa_concentric
from casimir_cylinders import engine
from casimir_cylinders.engine import (
    NoConvergenceError,
    _beta_limit,
    _concentric_integrand,
    _eval_factory,
    _matrix_integrand,
    _refine,
    energy_concentric_accelerated,
    energy_difference,
    energy_exact,
    tilde_energy,
    tm_te_split,
)
from casimir_cylinders.geometry import (
    Concentric,
    CylinderPlane,
    Eccentric,
    QuadratureRule,
    QuadratureSpec,
    TruncationSpec,
)
from casimir_cylinders.quadrature import semi_infinite_nodes
import oracles

PI4_OVER_90 = math.pi ** 4 / 90.0


def pfa_ratio(result, alpha):
    return result.e_hat / pfa_concentric(alpha, PfaOrder.LEADING)


# ---------------------------------------------------------------------------
# Exact concentric evaluator.

def test_exact_matches_nntl_bracket_at_1_05():
    ratio = pfa_ratio(energy_exact(Concentric(1.05)), 1.05)
    assert ratio == pytest.approx(1.0242, rel=0.01)


def test_exact_energy_is_negative_with_consistent_split():
    r = energy_exact(Concentric(1.3))
    assert r.e_hat < 0.0 and r.e_tm < 0.0 and r.e_te < 0.0
    assert r.e_hat == pytest.approx(r.e_tm + r.e_te, abs=1e-12 * abs(r.e_hat))
    assert r.converged and r.est_rel_error >= 0.0


@pytest.mark.parametrize("solve, g", [
    (energy_exact, Concentric(1.5)),
    (energy_exact, CylinderPlane(2.0)),
    (energy_concentric_accelerated, Concentric(1.1)),
])
def test_result_record_agrees_with_its_report(solve, g):
    r = solve(g)
    report = r.report
    assert r.e_hat == r.e_tm + r.e_te
    assert r.truncation_used.n_max == report.n_max_final <= report.m_max_final == r.truncation_used.m_max
    assert r.quadrature_used.node_count == report.node_count_final
    assert report.rel_change_last <= r.est_rel_error <= r.truncation_used.rel_tol
    assert r.converged and report.accelerated == (solve is energy_concentric_accelerated)


def test_exact_against_independent_scipy_oracle():
    # scipy's iv/kv implementation + QUADPACK adaptive integration share
    # nothing with the production ladders and mapped Gauss grid
    mine = energy_exact(Concentric(2.0), TruncationSpec(rel_tol=1e-6)).e_hat
    oracle = oracles.concentric_energy_scipy(2.0)
    assert mine == pytest.approx(oracle, rel=1e-9)


def test_pfa_limit_monotone_from_above():
    ratios = [pfa_ratio(energy_exact(Concentric(a)), a) for a in (1.2, 1.1, 1.05, 1.02)]
    assert all(r > 1.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_exact_below_1_02_exceeds_resource_caps():
    with pytest.raises(NoConvergenceError):
        energy_exact(Concentric(1.01))


def test_large_alpha_logarithmic_decrease():
    # e_hat * alpha^2 ln(alpha) approaches -0.63 from below in magnitude;
    # still 13-14% away at alpha = 16 (the constant is leading-log only)
    deviations = []
    for alpha in (4.0, 16.0):
        r = energy_exact(Concentric(alpha))
        deviations.append(abs(r.e_hat * alpha ** 2 * math.log(alpha) / -0.63 - 1.0))
    assert deviations[1] < deviations[0]
    assert deviations[1] < 0.25


def test_quadrature_refinement_validates_error_estimate():
    alpha = 1.3
    r = energy_exact(Concentric(alpha))
    q2 = QuadratureSpec(node_count=2 * r.quadrature_used.node_count)
    t = TruncationSpec(n_max=r.report.n_max_final, adapt=False)
    refined = energy_exact(Concentric(alpha), t, q2)
    assert abs(refined.e_hat - r.e_hat) / abs(r.e_hat) < r.est_rel_error


def test_truncation_refinement_stable_beyond_adaptive_choice():
    alpha = 1.3
    r = energy_exact(Concentric(alpha))
    t = TruncationSpec(n_max=2 * r.report.n_max_final, adapt=False)
    refined = energy_exact(Concentric(alpha), t, r.quadrature_used)
    assert abs(refined.e_hat - r.e_hat) / abs(r.e_hat) < r.truncation_used.rel_tol


def test_rel_tol_is_honored():
    r = energy_exact(Concentric(1.4), TruncationSpec(rel_tol=1e-5))
    assert r.est_rel_error <= 1e-5
    assert r.report.rel_change_last <= 1e-5


def test_adaptive_panel_rule_agrees():
    # one diagonal and one dense-matrix geometry
    for g in (Concentric(1.5), CylinderPlane(3.0)):
        gauss = energy_exact(g)
        panel = energy_exact(
            g,
            q=QuadratureSpec(node_count=32, rule=QuadratureRule.ADAPTIVE_PANEL),
        )
        assert panel.e_hat == pytest.approx(gauss.e_hat, rel=1e-4)


# ---------------------------------------------------------------------------
# Accelerated evaluator and the resummed tilde energy.

def test_tilde_energy_pfa_limit():
    for s in (1e-3, 1e-4):
        assert s ** 3 * tilde_energy(1.0 + s) == pytest.approx(-PI4_OVER_90, rel=30.0 * s)


def test_tilde_energy_vanishes_at_large_alpha():
    assert tilde_energy(50.0) == pytest.approx(0.0, abs=1e-40)
    assert abs(tilde_energy(5.0)) < abs(tilde_energy(2.0)) < abs(tilde_energy(1.2))


def test_tilde_energy_against_quadrature_oracle():
    assert tilde_energy(1.2) == pytest.approx(
        oracles.tilde_energy_quadrature(1.2), rel=1e-6
    )


def test_tilde_energy_domain():
    with pytest.raises(ValueError):
        tilde_energy(1.0)


# below s = 1e-3 the sum stops at e^{L/4} terms, and the 1/k^4 tail it drops
# reads about 5e-14 at s = 1e-5
@pytest.mark.parametrize("s, rel", [
    (1e-5, 5e-13), (1e-4, 5e-13), (1e-3, 1e-14), (0.032189, 1e-14),
    (0.118484, 1e-14), (1.0, 1e-14), (10.0, 1e-14), (300.0, 1e-14),
])
def test_tilde_energy_against_series_oracle(s, rel):
    ref = oracles.tilde_energy_series(1.0 + s)
    assert abs(tilde_energy(1.0 + s) - ref) <= rel * abs(ref)


@pytest.mark.parametrize("alpha", [373.0, 400.0, 1e6, 1e308])
def test_tilde_energy_is_zero_at_once_where_every_term_underflows(alpha):
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = tilde_energy(alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0.0
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_tilde_energy_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="finite"):
        tilde_energy(alpha)


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.2, 1.5, 2.0])
def test_acceleration_equivalence(alpha):
    exact = energy_exact(Concentric(alpha))
    accel = energy_concentric_accelerated(Concentric(alpha))
    assert accel.e_hat == pytest.approx(exact.e_hat, rel=1e-3)
    assert accel.report.accelerated and not exact.report.accelerated


def test_accelerated_needs_fewer_terms_at_1_05():
    # the subtraction removes the leading exponential, so the remainder
    # closes at a smaller half-bandwidth (measured ~1.2x here; the gain
    # is additive in n, not multiplicative, because the residual is only
    # a factor O(n s^2 + s/n) smaller term by term)
    exact = energy_exact(Concentric(1.05))
    accel = energy_concentric_accelerated(Concentric(1.05))
    assert accel.report.n_max_final < exact.report.n_max_final


def test_accelerated_converges_at_1_01_where_direct_cannot():
    with pytest.raises(NoConvergenceError):
        energy_exact(Concentric(1.01))
    r = energy_concentric_accelerated(Concentric(1.01))
    assert r.converged
    bracket = pfa_bracket(1.01, PfaOrder.NNTL)  # 1.00497
    assert pfa_ratio(r, 1.01) == pytest.approx(bracket, rel=0.01)


def test_accelerated_rejects_other_geometries():
    with pytest.raises(TypeError):
        energy_concentric_accelerated(Eccentric(2.0, 0.1))


def test_n0_term_is_kept_exactly():
    # the n = 0 term, ln(1 - r_0), is finite on the frequency grid: it
    # carries the only channel with no uniform approximant
    alpha = 1.2
    betas, _ = semi_infinite_nodes(1.0 / (2.0 * (alpha - 1.0)), 32)
    betas = betas[betas <= _beta_limit(Concentric(alpha))]
    a, _, log_r = next(kernel.concentric_log_ratios(betas, alpha, 24))
    assert a == 0
    assert np.abs(np.log1p(-np.exp(log_r[0, 0]))).max() > 1e-3  # TM, n = 0


# ---------------------------------------------------------------------------
# Concentric work: one evaluation serves the whole truncation ladder.

def test_concentric_work_is_pinned():
    # the shared ladders and the cumulative sums keep every truncation
    # decision: final (n_max, nodes) of the reference concentric solves
    for evaluate, alpha, work in (
        (energy_exact, 1.05, (181, 256)),
        (energy_exact, 1.02, (512, 256)),
        (energy_concentric_accelerated, 1.05, (150, 256)),
        (energy_concentric_accelerated, 1.01, (512, 256)),
    ):
        report = evaluate(Concentric(alpha)).report
        assert (report.n_max_final, report.node_count_final) == work


@pytest.mark.parametrize("adapt", [True, False])
@pytest.mark.parametrize("accelerated", [False, True])
def test_cached_orders_match_fresh_evaluations(accelerated, adapt, monkeypatch):
    g, q = Concentric(1.1), QuadratureSpec()
    t = TruncationSpec(n_max=120, adapt=adapt)
    calls = []
    ratios = kernel.concentric_log_ratios
    monkeypatch.setattr(kernel, "concentric_log_ratios", lambda *a: calls.append(a) or ratios(*a))
    cached = _eval_factory(g, t, q, _concentric_integrand(g, accelerated))
    evaluations = []  # integrand evaluations per refinement step

    def eval_at(n_top, node_count):
        before = len(calls)
        got = cached(n_top, node_count)
        evaluations.append(len(calls) - before)
        # a fresh integrand capped at n_top evaluates at exactly that order
        fresh_t = replace(t, n_max=n_top)
        fresh = _eval_factory(g, fresh_t, q, _concentric_integrand(g, accelerated))(n_top, node_count)
        assert got[:2] == pytest.approx(fresh[:2], rel=1e-12, abs=0.0)
        return got

    _refine(eval_at, t, q)
    assert len(evaluations) >= 3
    if adapt:  # the first evaluation serves several refinement steps
        assert sum(evaluations) < len(evaluations)


def test_concentric_call_sequence_is_pinned(monkeypatch):
    # the truncation policy shared with the matrix family: (frequencies,
    # alpha, order) of every concentric_log_ratios call
    calls = []
    ratios = kernel.concentric_log_ratios
    monkeypatch.setattr(
        kernel, "concentric_log_ratios", lambda *a: calls.append((a[0].size,) + a[1:]) or ratios(*a)
    )
    for evaluate, alpha, t, expected in (
        (energy_exact, 1.3, None, [(116, 36), (231, 36)]),
        (energy_concentric_accelerated, 1.05, None, [(116, 225), (231, 150)]),
        (energy_exact, 1.5, TruncationSpec(n_max=60, adapt=False), [(116, 60), (231, 60)]),
        (energy_concentric_accelerated, 1.1, TruncationSpec(n_max=80, adapt=False), [(116, 80), (231, 80)]),
    ):
        calls.clear()
        evaluate(Concentric(alpha), t)
        assert calls == [(size, alpha, order) for size, order in expected]


def _concentric_grid(g, nodes):
    """The frequencies a concentric evaluation sees on a ``nodes``-point grid."""
    betas, _ = semi_infinite_nodes(QuadratureSpec().scale / (2.0 * (g.alpha - 1.0)), nodes)
    return betas[betas <= _beta_limit(g)]


@pytest.mark.parametrize("accelerated", [False, True])
def test_concentric_evaluation_working_set(accelerated):
    # the order-block pass holds only the I-ratio ladder over beta and alpha
    # beta whole (two units and its extension rows); the log ratios are
    # folded one block at a time
    g = Concentric(1.02)
    betas = _concentric_grid(g, 256)
    unit = 513 * betas.size * 8  # one (top + 1, nb) float64 array
    evaluate = _concentric_integrand(g, accelerated)
    tracemalloc.start()
    try:
        sums, _ = evaluate(betas, [512])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.shape == (betas.size, 2, 1)
    assert peak <= 3.5 * unit, peak / unit


def test_eval_factory_lets_go_of_the_last_evaluation():
    # new frequencies evaluate again; the sums of the first evaluation are
    # dropped before the second is formed, so the two are never held at once
    g = Concentric(1.02)
    evaluate = _concentric_integrand(g, accelerated=False)
    held = []  # a weak reference to the sums of every evaluation

    def traced(betas, orders):
        assert all(ref() is None for ref in held)
        sums, m_used = evaluate(betas, orders)
        held.append(weakref.ref(sums.base))
        return sums, m_used

    eval_at = _eval_factory(g, TruncationSpec(), QuadratureSpec(), traced)
    eval_at(512, 256)
    eval_at(512, 512)
    assert len(held) == 2 and held[1]() is not None


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("block_elements", [bessel._BLOCK_ELEMENTS, 64])
@pytest.mark.parametrize("nb", [1, 2, 37, 116])
@pytest.mark.parametrize("accelerated", [False, True])
def test_concentric_fold_matches_cumulative_sums(accelerated, nb, block_elements, monkeypatch):
    # the running sum at every order asked for is the cumulative sum of the
    # terms bit for bit: numpy adds a reduced order axis row by row, as
    # cumsum does, and the carry enters each stretch of rows as cumsum's
    # previous row would; small blocks put block edges among the orders
    monkeypatch.setattr(bessel, "_BLOCK_ELEMENTS", block_elements)
    g, top = Concentric(1.05), 300
    rng = np.random.default_rng(nb)
    betas = np.sort(rng.uniform(1e-3, 60.0, nb))
    blocks = [log_r for _, _, log_r in kernel.concentric_log_ratios(betas, g.alpha, top)]
    terms = engine._log1mexp(np.concatenate(blocks, axis=1))
    if accelerated:
        n = np.arange(1, top + 1)[:, None]
        terms[:, 1:] -= engine._log1mexp(-2.0 * (g.alpha - 1.0) * np.sqrt(n * n + betas * betas))
    terms[:, 1:] *= 2.0
    reference = np.cumsum(terms, axis=1).transpose(2, 0, 1)
    edges = {e + d for e, _ in bessel.order_blocks(top + 1, 2 * nb) for d in (-1, 0, 1)}
    edges = sorted(e for e in edges if 0 <= e < top)
    evaluate = _concentric_integrand(g, accelerated)
    for _ in range(4):
        picked = rng.choice(top, size=rng.integers(0, 12), replace=False).tolist()
        picked += rng.choice(edges, size=min(3, len(edges)), replace=False).tolist()
        orders = sorted(set(picked) | {top})  # the reference cumulates up to top
        sums, m_used = evaluate(betas, orders)
        assert sums.shape == (nb, 2, len(orders)) and m_used == 0
        assert np.array_equal(_bits(sums), _bits(reference[:, :, orders]))


@pytest.mark.parametrize("accelerated", [False, True])
@pytest.mark.parametrize("alpha", [1.01, 1.05, 1.3])
def test_concentric_sums_do_not_depend_on_the_top_order(accelerated, alpha):
    # the first rung and the ladder retakes cost work, not bytes: the sum to
    # order n reads the same from an evaluation to any higher top
    rng = np.random.default_rng(7)
    beta_max = min(40.0 / (alpha - 1.0), bessel.LADDER_MAX_ARGUMENT / alpha)
    betas = np.sort(np.exp(rng.uniform(math.log(1e-4), math.log(beta_max), 116)))
    evaluate = _concentric_integrand(Concentric(alpha), accelerated)
    for n, top in ((24, 36), (54, 512), (150, 225), (406, 512)):
        alone, _ = evaluate(betas, [n])
        inside, _ = evaluate(betas, [16, n, top])
        assert np.array_equal(_bits(alone[:, :, 0]), _bits(inside[:, :, 1])), (n, top)


def _log1mexp_branches(a):
    """The two-branch formula, one element at a time."""
    out = [np.log(-np.expm1(x)) if x > -math.log(2.0) else np.log1p(-np.exp(x)) for x in a.ravel()]
    return np.array(out).reshape(a.shape)


def _edge_points():
    edge = np.float64(-math.log(2.0))
    points = [edge]
    for direction in (-np.inf, np.inf):
        x = edge
        for _ in range(3):
            x = np.nextafter(x, direction)
            points.append(x)
    return np.array(points + [-1e-17, -5e-324, -745.0, -1e3, -0.5, -1.0, -36.0, -40.0])


def test_log1mexp_matches_the_branch_formula_bit_for_bit():
    rng = np.random.default_rng(5)
    block = -np.exp(rng.uniform(math.log(1e-20), math.log(1e3), (2, 9, 13)))
    block[0, 0, :6] = _edge_points()[:6]
    for a in (_edge_points(), block, block[:, 2:5], np.float64(-0.25), -1e-300):
        got = engine._log1mexp(a)  # a RuntimeWarning here fails the test
        assert np.shape(got) == np.shape(a)
        assert np.array_equal(_bits(got), _bits(_log1mexp_branches(np.asarray(a, dtype=float))))


def test_log1mexp_against_mpmath():
    for a in _edge_points():
        with mp.workdps(50):
            exact = float(mp.log(-mp.expm1(mp.mpf(float(a)))))
        assert engine._log1mexp(a) == pytest.approx(exact, rel=4e-16, abs=5e-324), a


@settings(max_examples=12, deadline=None)
@given(alphas=st.floats(1.02, 2.999).flatmap(lambda lo: st.tuples(st.just(lo), st.floats(lo + 1e-3, 3.0))))
def test_accelerated_energy_negative_and_decreasing_in_alpha(alphas):
    near, far = (energy_concentric_accelerated(Concentric(a)).e_hat for a in alphas)
    assert near < far < 0.0


@settings(max_examples=12, deadline=None)
@given(alphas=st.floats(1.05, 2.999).flatmap(lambda lo: st.tuples(st.just(lo), st.floats(lo + 1e-3, 3.0))))
def test_exact_concentric_energy_increases_with_alpha(alphas):
    near, far = (energy_exact(Concentric(a)).e_hat for a in alphas)
    assert near < far < 0.0


@settings(max_examples=5, deadline=None)
@given(alpha=st.floats(1.6, 3.0), share=st.floats(0.2, 1.0))
def test_eccentric_energy_tends_to_concentric_as_delta_halves(alpha, share):
    concentric = energy_exact(Concentric(alpha))
    deltas = [share * (alpha - 1.0) / 4.0 / 2 ** k for k in range(3)]
    gaps = []
    for delta in deltas:
        eccentric = energy_exact(Eccentric(alpha, delta))
        noise = eccentric.est_rel_error * abs(eccentric.e_hat) + concentric.est_rel_error * abs(concentric.e_hat)
        gaps.append((abs(eccentric.e_hat - concentric.e_hat), noise))
    for (wide, _), (narrow, noise) in zip(gaps, gaps[1:]):
        assert narrow <= wide + noise
    # the displacement energy falls like delta^2: two halvings shrink it 16-fold
    assert gaps[-1][0] <= gaps[0][0] / 4.0 + gaps[-1][1]


# ---------------------------------------------------------------------------
# TM/TE split.

def test_split_fractions_sum_to_one_exactly():
    r = energy_exact(Concentric(1.5))
    f_tm, f_te = tm_te_split(r)
    assert f_tm + f_te == 1.0
    assert 0.0 < f_tm < 1.0


def test_equal_weight_near_contact():
    f_tm, f_te = tm_te_split(energy_exact(Concentric(1.02)))
    assert abs(f_tm - f_te) <= 0.02


def test_tm_dominates_at_large_alpha():
    fractions = [tm_te_split(energy_exact(Concentric(a)))[0] for a in (4.0, 8.0, 16.0)]
    assert fractions[1] >= 0.75
    assert fractions[0] < fractions[1] < fractions[2]


# ---------------------------------------------------------------------------
# Eccentric and cylinder-plane energies.

@pytest.mark.parametrize("alpha", [1.2, 2.0, 4.0])
def test_eccentric_delta_zero_equals_concentric(alpha):
    ecc = energy_exact(Eccentric(alpha, 0.0))
    con = energy_exact(Concentric(alpha))
    assert ecc.e_hat == pytest.approx(con.e_hat, rel=1e-10)


def test_energy_difference_zero_at_delta_zero():
    assert energy_difference(Eccentric(1.6, 0.0), Concentric(1.6)) == pytest.approx(
        0.0, abs=1e-12 * abs(energy_exact(Concentric(1.6)).e_hat)
    )


def test_energy_difference_sign_and_monotonicity():
    t = TruncationSpec(rel_tol=1e-3)
    q = QuadratureSpec(node_count=64)
    d_small = energy_difference(Eccentric(1.6, 0.2), Concentric(1.6), t, q)
    d_large = energy_difference(Eccentric(1.6, 0.4), Concentric(1.6), t, q)
    assert d_small < 0.0 and d_large < 0.0  # displacement lowers the energy
    assert abs(d_large) > abs(d_small)


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_quasi_concentric_energies_follow_the_delta_squared_oracle(alpha):
    # the independent delta^2 coefficient of each polarization's energy
    # (oracles.py): (e_pol(delta) - e_pol(0)) / delta^2 tends to it with an
    # O(delta^2) deviation, 1.9-7.6e-4 at delta = 0.01
    t = TruncationSpec(rel_tol=1e-8)
    concentric = energy_exact(Concentric(alpha), t)
    oracle = np.array([oracles.eccentric_energy_x2(alpha, pol) for pol in ("TM", "TE")])
    deviation = {}
    for delta in (0.01, 0.02):
        eccentric = energy_exact(Eccentric(alpha, delta), t)
        shift = np.array([eccentric.e_tm - concentric.e_tm, eccentric.e_te - concentric.e_te])
        deviation[delta] = np.abs(shift / delta ** 2 / oracle - 1.0)
    assert np.all(deviation[0.01] < 2e-3), deviation[0.01]
    growth = deviation[0.02] / deviation[0.01]
    assert np.all((3.5 < growth) & (growth < 4.5)), growth


def test_energy_difference_input_checks():
    with pytest.raises(ValueError):
        energy_difference(Eccentric(1.6, 0.2), Concentric(1.7))
    with pytest.raises(TypeError):
        energy_difference(Concentric(1.6), Concentric(1.6))


def test_cylinder_plane_energy_behaviour():
    near = energy_exact(CylinderPlane(1.5))
    far = energy_exact(CylinderPlane(2.5))
    assert near.e_hat < far.e_hat < 0.0  # attraction weakens with distance


def test_eccentric_limit_approaches_cylinder_plane_energy():
    # alpha = delta + H/a with large delta: same gap physics, the inner
    # sums reduce via the addition theorem.  The deviation falls like
    # the inverse of delta/(H/a): ~4% at ratio 13, ~2.1% at 27, and
    # under 2% by ratio 40 (used here).
    t = TruncationSpec(rel_tol=1e-3)
    q = QuadratureSpec(node_count=32)
    h_over_a = 1.5
    cp = energy_exact(CylinderPlane(h_over_a), t, q)
    ecc = energy_exact(Eccentric(60.0 + h_over_a, 60.0), t, q)
    assert ecc.e_hat == pytest.approx(cp.e_hat, rel=0.02)


def test_matrix_work_is_pinned():
    # the leading minors and the inner-sum shells keep every truncation
    # decision: final (n_max, m_max, nodes) of the reference matrix solves
    for g, work in (
        (Eccentric(2.0, 0.5), (24, 104, 256)),
        (Eccentric(1.5, 0.3), (54, 173, 256)),
        (CylinderPlane(2.0), (24, 24, 256)),
        (CylinderPlane(1.2), (54, 54, 256)),
    ):
        report = energy_exact(g).report
        assert (report.n_max_final, report.m_max_final, report.node_count_final) == work


def test_one_assembly_serves_the_truncation_ladder(monkeypatch):
    # one assembly at the predicted order 54 answers n = 16, 24, 36, 54 on
    # the base grid, and one more serves the node doubling
    calls = []
    log_dets = kernel.matrix_log_dets
    monkeypatch.setattr(kernel, "matrix_log_dets", lambda *a: calls.append(a[2].n_max) or log_dets(*a))
    energy_exact(Eccentric(1.5, 0.3))
    assert calls == [54, 54]


@pytest.mark.parametrize("adapt", [True, False])
@pytest.mark.parametrize("g", [Eccentric(2.0, 0.6), CylinderPlane(1.2)], ids=["eccentric", "cylplane"])
def test_matrix_minors_match_fresh_evaluations(g, adapt, monkeypatch):
    # every order _refine asks for, read off the leading minors of a larger
    # assembly, agrees with an assembly at exactly that order; the Gram
    # cutoffs were chosen for the larger order, so only to rel_tol / 100
    q = QuadratureSpec()
    t = TruncationSpec(adapt=adapt) if adapt else TruncationSpec(n_max=40, adapt=False)
    calls = []
    log_dets = kernel.matrix_log_dets
    monkeypatch.setattr(kernel, "matrix_log_dets", lambda *a: calls.append(a) or log_dets(*a))
    cached = _eval_factory(g, t, q, _matrix_integrand(g, t))
    evaluations = []  # assemblies per refinement step

    def eval_at(n_top, node_count):
        before = len(calls)
        got = cached(n_top, node_count)
        evaluations.append(len(calls) - before)
        fresh_t = replace(t, n_max=n_top, adapt=False)  # assembles at exactly n_top
        fresh = _eval_factory(g, fresh_t, q, _matrix_integrand(g, fresh_t))(n_top, node_count)
        assert sum(got[:2]) == pytest.approx(sum(fresh[:2]), rel=t.rel_tol / 100, abs=0.0)
        return got

    _refine(eval_at, t, q)
    assert len(evaluations) >= 3
    assert sum(evaluations) < len(evaluations)  # one assembly serves several steps


def test_hopeless_matrix_shape_fails_before_any_assembly(monkeypatch):
    # gap 0.001 predicts order 9211, far beyond twice n_max = 512
    monkeypatch.setattr(kernel, "matrix_log_dets", None)
    with pytest.raises(NoConvergenceError, match="predicted truncation order 9211"):
        energy_exact(Eccentric(2.0, 0.999))


def test_quadrature_doubles_until_stable():
    # 8 -> 16 -> 32 nodes: the node loop of _refine runs a second pass
    result = energy_exact(Concentric(1.3), q=QuadratureSpec(node_count=8))
    assert result.converged and result.report.node_count_final == 32


def test_node_cap_inside_the_doubling_loop(monkeypatch):
    # 8 -> 16 nodes is allowed under a cap of 16, but the next doubling is not
    monkeypatch.setattr(engine, "NODE_CAP", 16)
    with pytest.raises(NoConvergenceError, match="node cap 16"):
        energy_exact(Concentric(1.3), q=QuadratureSpec(node_count=8))


@pytest.mark.parametrize("t, start, rungs", [
    (TruncationSpec(n_max=100), 16, [16, 24, 36, 54, 81, 100]),
    (TruncationSpec(n_max=100), 4, [16, 24, 36, 54, 81, 100]),  # never below 16
    (TruncationSpec(n_max=512), 750, [512]),  # start >= n_max: one rung
    (TruncationSpec(n_max=12), 16, [12]),
    (TruncationSpec(n_max=40, adapt=False), 16, [20, 40]),
    (TruncationSpec(n_max=1, adapt=False), 16, [0, 1]),  # order 0 is a rung, never 1 against 1
])
def test_truncation_ladder(t, start, rungs):
    assert engine._ladder(t, start) == rungs


@pytest.mark.parametrize("solve, g, t, message", [
    # the start ceil(1.5 / 0.002) = 750 is clipped to the cap
    (energy_concentric_accelerated, Concentric(1.002), None, "n_max = 512 leaves no step above the starting order 750"),
    (energy_exact, Concentric(1.3), TruncationSpec(n_max=16), "n_max = 16 leaves no step above the starting order 16"),
])
def test_one_rung_ladder_fails_before_any_evaluation(solve, g, t, message, monkeypatch):
    monkeypatch.setattr(kernel, "concentric_log_ratios", None)
    with pytest.raises(NoConvergenceError, match=message) as err:
        solve(g, t)
    assert "relative change" not in str(err.value)


def test_fixed_n_max_1_is_not_certified():
    # order 1 is compared with order 0, not with itself; the energy is the
    # order-1 truncation of the converged -45.1
    r = energy_exact(Concentric(1.3), TruncationSpec(n_max=1, adapt=False))
    assert not r.converged
    assert r.est_rel_error == pytest.approx(0.64, rel=0.01)
    assert r.e_hat == pytest.approx(-17.42, rel=1e-3)
    assert r.report.n_max_final == 1


@pytest.mark.parametrize("predicted, rungs, first", [
    (54, [16, 24, 36, 54, 81, 100], 54),
    (90, [16, 24, 36, 54, 81, 100], 81),  # the cap counts only once predicted reaches it
    (100, [16, 24, 36, 54, 81, 100], 100),
    (1000, [16, 24, 36, 54, 81, 100], 100),
    (3, [16, 24, 36, 54, 81, 100], 24),  # never the starting rung
    (5, [512], 512),  # a one-rung ladder has only the cap
    (1, [16, 20], 20),  # the cap as the only candidate
    (7, [20, 40], 40),  # fixed truncation evaluates n_max first
])
def test_first_rung(predicted, rungs, first):
    assert engine._first_rung(predicted, rungs) == first


# The engine names the benchmark tracer wraps (perfbench/tracer.py); a
# refactor that drops one would silently blank a benchmark layer.
TRACED_ENGINE_NAMES = ("energy_exact", "energy_concentric_accelerated", "_refine", "semi_infinite_nodes")


@pytest.mark.parametrize("name", TRACED_ENGINE_NAMES)
def test_engine_keeps_the_traced_names(name):
    assert callable(getattr(engine, name, None))


def test_refine_takes_eval_at_first():
    # the tracer wraps the first positional argument of _refine per step
    assert next(iter(inspect.signature(engine._refine).parameters)) == "eval_at"


def test_concentric_ratios_take_the_frequencies_first():
    # the tracer counts the frequencies of a concentric_log_ratios call
    # from its first positional argument
    assert next(iter(inspect.signature(kernel.concentric_log_ratios).parameters)) == "beta"


_cheap_matrix_shapes = st.one_of(
    st.builds(
        lambda alpha, share: Eccentric(alpha, share * (alpha - 1.0) / 3.0),  # delta <= gap / 2
        st.floats(1.6, 3.0),
        st.floats(0.0, 1.0),
    ),
    st.builds(CylinderPlane, st.floats(1.5, 3.0)),
)


@settings(max_examples=8, deadline=None)
@given(g=_cheap_matrix_shapes)
def test_matrix_energy_negative_converged_and_below_concentric(g):
    r = energy_exact(g)
    assert r.converged and r.e_hat < 0.0
    if isinstance(g, Eccentric):
        # displacing the inner shell lowers the energy, within both estimates
        c = energy_exact(Concentric(g.alpha))
        slack = r.est_rel_error * abs(r.e_hat) + c.est_rel_error * abs(c.e_hat)
        assert energy_difference(g, Concentric(g.alpha)) <= slack


# ---------------------------------------------------------------------------
# Huge finite shapes.

def test_huge_concentric_shape_converges():
    r = energy_exact(Concentric(1e100))
    assert r.converged and r.e_hat < 0.0


def test_underflowing_energy_is_named():
    with pytest.raises(NoConvergenceError, match="underflow"):
        energy_exact(Concentric(1e300))
