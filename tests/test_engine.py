import math

import numpy as np
import pytest

from casimir_cylinders import kernel
from casimir_cylinders.baselines import PfaOrder, pfa_bracket, pfa_concentric
from casimir_cylinders.engine import (
    NoConvergenceError,
    _beta_limit,
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
    Polarization,
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


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.2, 1.5, 2.0])
def test_acceleration_equivalence(alpha):
    exact = energy_exact(Concentric(alpha))
    accel = energy_concentric_accelerated(Concentric(alpha))
    assert accel.e_hat == pytest.approx(exact.e_hat, rel=1e-3)
    assert accel.report.accelerated


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
    log_r = kernel.concentric_log_ratios(betas, alpha, Polarization.TM, 24)
    assert np.abs(np.log1p(-np.exp(log_r[0]))).max() > 1e-3


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
    # the frequency-batched assembler keeps every truncation decision:
    # final (n_max, m_max, nodes) of the reference matrix solves
    for g, work in ((Eccentric(2.0, 0.5), (24, 104, 256)), (CylinderPlane(2.0), (24, 24, 256))):
        report = energy_exact(g).report
        assert (report.n_max_final, report.m_max_final, report.node_count_final) == work


# ---------------------------------------------------------------------------
# Huge finite shapes.

def test_huge_concentric_shape_converges():
    r = energy_exact(Concentric(1e100))
    assert r.converged and r.e_hat < 0.0


def test_underflowing_energy_is_named():
    with pytest.raises(NoConvergenceError, match="underflow"):
        energy_exact(Concentric(1e300))
