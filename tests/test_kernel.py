import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_cylinders.geometry import (
    Concentric,
    CylinderPlane,
    Eccentric,
    Polarization,
    TruncationSpec,
)
from casimir_cylinders import kernel

import oracles

TM = Polarization.TM
TE = Polarization.TE

# I_0(1) K_0(2) / (I_0(2) K_0(1)), composed from the frozen Bessel oracle
# values; the concentric n = 0 TM ratio at beta = 1, alpha = 2.
R_TM_0 = 0.15024274558258427
# (I_0(1)/K_0(1)) * K_0(4): cylinder-plane TM (0,0) entry at beta = 1, H/a = 2.
A_CP_00 = 0.03355834914976082


def test_concentric_ratio_example():
    ratios = kernel.build_concentric(1.0, Concentric(2.0), TM, n_max=4)
    assert ratios[4] == pytest.approx(R_TM_0, rel=1e-10)


def test_concentric_ratios_in_unit_interval_and_decreasing():
    for pol in (TM, TE):
        for beta in (0.3, 1.0, 4.0):
            ratios = kernel.build_concentric(beta, Concentric(1.5), pol, n_max=12)
            assert np.all(ratios > 0.0) and np.all(ratios < 1.0)
            center = ratios[12:]  # n = 0..12
            if pol is TM:
                assert np.all(np.diff(center) < 0.0)
            else:
                # TE ratios decrease from n = 1 on; the n = 0 entry equals
                # the TM n = 1 ratio (I'_0 = I_1, K'_0 = -K_1) and can sit
                # below its neighbour at small beta
                assert np.all(np.diff(center[1:]) < 0.0)


def test_te_zero_order_equals_tm_first_order():
    # I'_0 = I_1 and K'_0 = -K_1 make r_TE(n=0) identical to r_TM(n=1)
    for beta in (0.3, 1.0, 4.0):
        tm = kernel.build_concentric(beta, Concentric(1.5), TM, n_max=2)
        te = kernel.build_concentric(beta, Concentric(1.5), TE, n_max=2)
        assert te[2] == pytest.approx(tm[3], rel=1e-14)


def test_concentric_ratio_vanishes_at_large_alpha():
    small = kernel.build_concentric(1.0, Concentric(40.0), TM, n_max=2)
    assert np.all(small < 1e-25)


def test_concentric_ratio_decreasing_in_beta():
    r1 = kernel.build_concentric(1.0, Concentric(1.5), TM, n_max=6)
    r2 = kernel.build_concentric(2.0, Concentric(1.5), TM, n_max=6)
    assert np.all(r2 < r1)


def test_concentric_uniform_expansion_cross_check():
    # r_n(beta) against exp(-2n[eta(alpha y) - eta(y)]) at y = beta/n
    from casimir_cylinders.bessel import debye_eta

    n, alpha = 60, 1.3
    for y in (0.5, 1.0, 2.0):
        beta = n * y
        ratios = kernel.build_concentric(beta, Concentric(alpha), TM, n_max=n)
        approx = math.exp(-2.0 * n * float(debye_eta(alpha * y) - debye_eta(y)))
        assert ratios[n + n] == pytest.approx(approx, rel=1e-2)


def test_eccentric_delta_zero_reduces_to_diagonal():
    t = TruncationSpec(n_max=6)
    for pol in (TM, TE):
        mat = kernel.build_eccentric(1.0, Eccentric(2.0, 0.0), pol, t)
        diag = kernel.build_concentric(1.0, Concentric(2.0), pol, n_max=6)
        off_diagonal = mat.entries - np.diag(np.diag(mat.entries))
        assert np.abs(off_diagonal).max() == 0.0
        assert np.abs(np.diag(mat.entries) - diag).max() < 1e-12


def test_eccentric_entry_symmetry_random():
    rng = np.random.default_rng(7)
    t = TruncationSpec(n_max=8)
    for _ in range(4):
        alpha = 1.0 + rng.uniform(0.3, 2.0)
        delta = 0.9 * rng.uniform(0.0, alpha - 1.0)
        beta = rng.uniform(0.2, 3.0)
        for pol in (TM, TE):
            mat = kernel.build_eccentric(beta, Eccentric(alpha, delta), pol, t)
            asym = np.abs(mat.entries - mat.entries.T).max()
            assert asym <= 1e-13 * np.abs(mat.entries).max()


def test_eccentric_entries_positive():
    t = TruncationSpec(n_max=6)
    for pol in (TM, TE):
        mat = kernel.build_eccentric(0.8, Eccentric(2.2, 0.5), pol, t)
        assert np.all(mat.entries > 0.0)


def test_eccentric_m_floor_respects_bridge_argument():
    t = TruncationSpec(n_max=4)
    mat = kernel.build_eccentric(5.0, Eccentric(4.0, 2.0), TM, t)
    assert mat.m_used >= 4 + math.ceil(4.0 * 5.0 * 2.0)


def test_eccentric_truncation_insufficient_signal():
    t = TruncationSpec(n_max=4, m_max=8, rel_tol=1e-10)
    with pytest.raises(kernel.TruncationError):
        kernel.build_eccentric(6.0, Eccentric(4.0, 2.5), TM, t)
    with pytest.raises(kernel.TruncationError):
        kernel.matrix_log_dets(np.array([0.5, 6.0]), Eccentric(4.0, 2.5), t)


def test_cylinder_plane_entry_example():
    mat = kernel.build_cylinder_plane(1.0, CylinderPlane(2.0), TM, TruncationSpec(n_max=3))
    assert mat.entries[3, 3] == pytest.approx(A_CP_00, rel=1e-10)


def test_cylinder_plane_sign_and_symmetry():
    t = TruncationSpec(n_max=5)
    for pol in (TM, TE):
        mat = kernel.build_cylinder_plane(0.7, CylinderPlane(1.8), pol, t)
        assert np.all(mat.entries > 0.0)
        assert np.abs(mat.entries - mat.entries.T).max() == 0.0


def test_logdet_trivial_cases():
    assert kernel.log_det_one_minus(np.zeros((3, 3))) == 0.0
    assert kernel.log_det_one_minus(np.diag([0.5, 0.5])) == pytest.approx(
        2.0 * math.log(0.5), rel=1e-14
    )


def test_logdet_against_eigenvalue_oracle():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 0.1, (5, 5))
    a = 0.5 * (a + a.T)
    assert kernel.log_det_one_minus(a) == pytest.approx(
        oracles.logdet_one_minus_eig(a), abs=1e-12
    )


def test_logdet_non_contractive_raises():
    with pytest.raises(kernel.NonContractiveError):
        kernel.log_det_one_minus(np.diag([1.5, 0.2]))


def test_batched_non_contraction_is_not_a_value_error():
    # a failed Cholesky (numpy's LinAlgError subclasses ValueError, which
    # the CLI reports as a usage error) surfaces as NonContractiveError
    gram = np.eye(3)[None]
    with pytest.raises(kernel.NonContractiveError):
        kernel._parity_log_dets(np.full((1, 3), 0.1), gram, 0.0 * gram)


_matrix_geometries = st.one_of(
    st.builds(
        lambda alpha, share: Eccentric(alpha, share * (alpha - 1.0)),
        st.floats(1.2, 3.0),
        st.floats(0.0, 0.9),
    ),
    st.builds(CylinderPlane, st.floats(1.1, 3.0)),
)


@settings(max_examples=30, deadline=None)
@given(
    g=_matrix_geometries,
    n=st.integers(1, 30),
    betas=st.lists(st.floats(0.01, 12.0), min_size=1, max_size=4),
)
def test_batched_log_dets_match_per_frequency_builds(g, n, betas):
    t = TruncationSpec(n_max=n)
    build = kernel.build_eccentric if isinstance(g, Eccentric) else kernel.build_cylinder_plane
    log_dets, m_used = kernel.matrix_log_dets(np.array(betas), g, t)
    assert log_dets.shape == (len(betas), 2)
    m_single = 0
    for i, beta in enumerate(betas):
        for j, pol in enumerate((TM, TE)):
            mat = build(beta, g, pol, t)
            sign, value = np.linalg.slogdet(np.eye(2 * n + 1) - mat.entries)
            assert sign == 1.0
            assert log_dets[i, j] == pytest.approx(value, rel=1e-12, abs=1e-12)
            m_single = max(m_single, mat.m_used)
    assert m_used == m_single


def test_logdet_nonpositive_for_kernel_matrices():
    t = TruncationSpec(n_max=6)
    for pol in (TM, TE):
        mat = kernel.build_eccentric(1.0, Eccentric(1.8, 0.3), pol, t)
        assert kernel.log_det_one_minus(mat) <= 0.0


def test_logdet_magnitude_decreases_with_alpha():
    t = TruncationSpec(n_max=8)
    beta, delta = 1.0, 0.3
    values = []
    for alpha in (1.5, 2.0, 3.0):
        mat = kernel.build_eccentric(beta, Eccentric(alpha, delta), TM, t)
        values.append(abs(kernel.log_det_one_minus(mat)))
    assert values[0] > values[1] > values[2]


# ---------------------------------------------------------------------------
# Addition theorem and the cylinder-plane limit.

def test_addition_theorem_against_direct_oracle():
    for (x, h, n, p, pol_name, pol) in [
        (40.0, 1.0, 0, 0, "TM", TM),
        (40.0, 1.0, 0, 0, "TE", TE),
        (20.0, 1.0, 2, 1, "TM", TM),
    ]:
        lhs, _ = kernel.addition_theorem_check(x, h, n, p, pol)
        assert lhs == pytest.approx(oracles.addition_sum(x, h, n, p, pol_name), rel=1e-9)


def test_addition_theorem_tm_within_one_percent_at_x40():
    lhs, rhs = kernel.addition_theorem_check(40.0, 1.0, 0, 0, TM)
    assert abs(lhs / rhs - 1.0) < 0.01


def test_addition_theorem_te_sign_and_convergence():
    # TE converges more slowly than TM (measured ~2.6% at x = 40); it
    # crosses 1% near x ~ 105 for h = 1.
    lhs, rhs = kernel.addition_theorem_check(40.0, 1.0, 0, 0, TE)
    assert lhs < 0.0 and rhs < 0.0
    assert abs(lhs / rhs - 1.0) < 0.04
    lhs, rhs = kernel.addition_theorem_check(120.0, 1.0, 0, 0, TE)
    assert abs(lhs / rhs - 1.0) < 0.01


def test_addition_theorem_monotone_improvement():
    for pol in (TM, TE):
        deviations = []
        for x in (20.0, 40.0, 80.0):
            lhs, rhs = kernel.addition_theorem_check(x, 1.0, 0, 0, pol)
            deviations.append(abs(lhs / rhs - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]


def test_eccentric_entries_approach_cylinder_plane():
    # alpha = delta + H/a with delta -> infinity at fixed H/a: the entry
    # deviation tracks the addition-theorem error and falls below 1% for
    # x = beta delta large enough (x/h = 240 >> 20 here).
    beta, h_over_a = 0.5, 2.0
    t = TruncationSpec(n_max=1, rel_tol=1e-10)
    for pol in (TM, TE):
        deviations = []
        for delta in (80.0, 240.0):
            ecc = kernel.build_eccentric(beta, Eccentric(delta + h_over_a, delta), pol, t)
            cp = kernel.build_cylinder_plane(beta, CylinderPlane(h_over_a), pol, t)
            deviations.append(np.abs(ecc.entries / cp.entries - 1.0).max())
        assert deviations[1] < deviations[0]
        assert deviations[1] < 0.01


def test_spectral_matrix_text_dump():
    mat = kernel.build_cylinder_plane(1.0, CylinderPlane(2.0), TM, TruncationSpec(n_max=2))
    text = mat.to_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("#") and "TM" in lines[0]
    assert len(lines) == 1 + 5
    parsed = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    assert np.allclose(parsed, mat.entries)
