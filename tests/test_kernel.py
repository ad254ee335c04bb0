import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_cylinders.geometry import (
    Concentric,
    CylinderPlane,
    Eccentric,
    GeometryError,
    Polarization,
    TruncationSpec,
)
from casimir_cylinders import bessel, kernel

import oracles

TM = Polarization.TM
TE = Polarization.TE

# I_0(1) K_0(2) / (I_0(2) K_0(1)), composed from the frozen Bessel oracle
# values; the concentric n = 0 TM ratio at beta = 1, alpha = 2.
R_TM_0 = 0.15024274558258427
# (I_0(1)/K_0(1)) * K_0(4): cylinder-plane TM (0,0) entry at beta = 1, H/a = 2.
A_CP_00 = 0.03355834914976082


@pytest.mark.parametrize("build, valid, invalid, message", [
    (kernel.build_concentric, Concentric(2.0), Concentric(0.5),
     "build_concentric expects a Concentric geometry"),
    (kernel.build_eccentric, Eccentric(2.0, 0.5), Eccentric(1.5, 0.6),
     "build_eccentric expects an Eccentric geometry"),
    (kernel.build_cylinder_plane, CylinderPlane(2.0), CylinderPlane(0.5),
     "build_cylinder_plane expects a CylinderPlane geometry"),
])
def test_builders_check_type_then_shape_then_beta(build, valid, invalid, message):
    wrong = Eccentric(2.0, 0.5) if isinstance(valid, CylinderPlane) else CylinderPlane(2.0)
    with pytest.raises(TypeError) as err:
        build(-1.0, wrong, TM)
    assert str(err.value) == message
    with pytest.raises(GeometryError):
        build(-1.0, invalid, TM)
    for beta in (0.0, -1.0):
        with pytest.raises(ValueError, match="beta must be positive"):
            build(beta, valid, TM)


# The kernel-namespace names the benchmark tracer wraps (perfbench/tracer.py);
# a refactor that drops one would silently blank a benchmark layer.
TRACED_KERNEL_NAMES = (
    "log_i_ladder",
    "log_k_ladder",
    "log_di_ladder",
    "log_dk_ladder",
    "concentric_log_ratios",
)


@pytest.mark.parametrize("name", TRACED_KERNEL_NAMES)
def test_kernel_keeps_the_traced_names(name):
    assert callable(getattr(kernel, name, None))


def test_concentric_ratios_run_one_seed(monkeypatch):
    # beta and alpha beta share one pass, so one K_0/K_1 quadrature seed
    calls = []
    seed = bessel._k01_scaled
    monkeypatch.setattr(bessel, "_k01_scaled", lambda x: calls.append(x.size) or seed(x))
    betas = np.geomspace(1e-3, 300.0, 64)
    kernel.concentric_log_ratios(betas, 1.5, 181)
    assert calls == [2 * betas.size]


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


def _rebuilt_inner_sum(beta, g, pol, n, m_cut):
    """One item's inner sum over |m| <= m_cut, rebuilt from scratch.

    Returns the largest share of an entry carried by the edge rows
    m = +-m_cut and the half-width factors (log column scales, G, G') of
    the matrix, with the same column scaling and 1e-150 floor as the kernel.
    """
    half_c = -0.5 * bessel.log_diag_pair(g.alpha * beta, m_cut)[pol]
    log_i = bessel.log_i_ladder(g.delta * beta, m_cut + n)
    m = np.arange(-m_cut, m_cut + 1)
    expo = log_i[np.abs(m[:, None] - np.arange(n + 1))] + half_c[np.abs(m), None]
    col_max = expo.max(axis=0)
    u = np.exp(expo - col_max)
    u[u < 1e-150] = 0.0
    gram, gram_r = u.T @ u, u.T @ u[::-1]
    lo, hi = u[0], u[-1]
    with np.errstate(invalid="ignore"):
        tail = max(np.nanmax((np.outer(lo, lo) + np.outer(hi, hi)) / gram),
                   np.nanmax((np.outer(lo, hi) + np.outer(hi, lo)) / gram_r))
    return tail, col_max, gram, gram_r


def test_inner_sum_shells_match_full_rebuilds():
    # each doubling adds only the new shell of rows to the Grams; the
    # cutoff it picks, and the matrix, match a rebuild from scratch at
    # every round, including items that take four rounds
    g, n = Eccentric(3.0, 1.9), 8
    t = TruncationSpec(n_max=n)
    betas = np.array([0.02, 0.1, 0.4, 1.5, 5.0])
    rounds = []
    for items, log_w, gram, gram_r, m_cut in kernel._matrix_grams(betas, g, t):
        for k, item in enumerate(items):
            beta, pol = betas[item // 2], item % 2
            cut = n + math.ceil(4.0 * beta * g.delta)
            rounds.append(1)
            while True:
                tail, col_max, ref_gram, ref_gram_r = _rebuilt_inner_sum(beta, g, pol, n, cut)
                if tail <= t.rel_tol:
                    break
                cut *= 2
                rounds[-1] += 1
            assert m_cut[k] == cut
            half_d = 0.5 * bessel.log_diag_pair(beta, n)[pol]
            w, ref_w = np.exp(log_w[k]), np.exp(half_d + col_max)
            for mine, ref in ((gram[k], ref_gram), (gram_r[k], ref_gram_r)):
                a, ref_a = np.outer(w, w) * mine, np.outer(ref_w, ref_w) * ref
                assert a == pytest.approx(ref_a, rel=1e-10, abs=1e-14 * ref_a.max())
    assert max(rounds) >= 4 and min(rounds) == 1


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
    assert log_dets.shape == (len(betas), 2, n + 1)
    m_single = 0
    for i, beta in enumerate(betas):
        for j, pol in enumerate((TM, TE)):
            mat = build(beta, g, pol, t)
            # entry [i, j, k] is the central (2k+1)^2 block of the same matrix
            for k in range(n + 1):
                block = mat.entries[n - k : n + k + 1, n - k : n + k + 1]
                sign, value = np.linalg.slogdet(np.eye(2 * k + 1) - block)
                assert sign == 1.0
                assert log_dets[i, j, k] == pytest.approx(value, rel=1e-12, abs=1e-12)
            m_single = max(m_single, mat.m_used)
    assert m_used == m_single


@pytest.mark.parametrize("g, n, betas, picks", [
    # 32768 // (2 * 25**2) = 26 frequencies per group: three groups
    (CylinderPlane(1.7), 24, np.geomspace(0.02, 12.0, 70), [0, 25, 26, 51, 52, 69]),
    # two chunks of at most 32 frequencies
    (Eccentric(2.0, 0.5), 8, np.geomspace(0.02, 12.0, 40), [0, 31, 32, 39]),
])
def test_batched_log_dets_across_groups_match_per_frequency_builds(g, n, betas, picks):
    t = TruncationSpec(n_max=n)
    build = kernel.build_eccentric if isinstance(g, Eccentric) else kernel.build_cylinder_plane
    log_dets, _ = kernel.matrix_log_dets(betas, g, t)
    for i in picks:
        for j, pol in enumerate((TM, TE)):
            mat = build(betas[i], g, pol, t)
            for k in (0, n // 2, n):
                block = mat.entries[n - k : n + k + 1, n - k : n + k + 1]
                sign, value = np.linalg.slogdet(np.eye(2 * k + 1) - block)
                assert sign == 1.0
                assert log_dets[i, j, k] == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_matrix_log_dets_take_the_frequency_ladders_once(monkeypatch):
    calls = {"log_k_ladder": [], "log_diag_pair": []}
    for name, seen in calls.items():
        ladder = getattr(kernel, name)
        monkeypatch.setattr(kernel, name, lambda x, n, ladder=ladder, seen=seen: seen.append(x) or ladder(x, n))
    betas = np.geomspace(0.02, 12.0, 100)
    kernel.matrix_log_dets(betas, CylinderPlane(1.7), TruncationSpec(n_max=20))
    assert [len(seen) for seen in calls.values()] == [1, 1]
    # eccentric: one pass at beta, then the alpha beta ladders chunk by chunk
    calls["log_diag_pair"].clear()
    betas = betas[:70]
    kernel.matrix_log_dets(betas, Eccentric(2.0, 0.5), TruncationSpec(n_max=20))
    at_beta, *at_alpha_beta = calls["log_diag_pair"]
    assert np.array_equal(at_beta, betas)
    chunks = [c for x in at_alpha_beta for c in (0, 32, 64) if np.array_equal(x, 2.0 * betas[c : c + 32])]
    assert len(chunks) == len(at_alpha_beta) and set(chunks) == {0, 32, 64}


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
        (20.0, 1.0, 2, -1, "TE", TE),  # n p < 0: the reflected Gram G'
    ]:
        lhs, _ = kernel.addition_theorem_check(x, h, n, p, pol)
        assert lhs == pytest.approx(oracles.addition_sum(x, h, n, p, pol_name), rel=1e-9)


def test_addition_theorem_reads_large_entries_in_log_space():
    # the entry scaled by its column maxima, combined in log space: d_n or
    # an unscaled entry would overflow at these orders
    lhs, _ = kernel.addition_theorem_check(5.0, 0.2, 60, 60, TM)
    assert lhs == pytest.approx(2.1380836479592145e+280, rel=1e-12)


def test_addition_sum_recurrences_match_direct_mpmath():
    # the oracle's recurrence tables at the arguments and orders it uses
    for x, h, n, p in [(40.0, 1.0, 0, 0), (20.0, 1.0, 2, 1)]:
        _, top = oracles.addition_top(x, h, n, p)
        with mp.workdps(mp.mp.dps + 30):
            for arg in (mp.mpf(x), mp.mpf(x) + mp.mpf(h)):
                i_table = oracles.bessel_i_downward(top, arg)
                k_table = oracles.bessel_k_upward(top, arg)
                for order in (0, 100, top):
                    assert abs(i_table[order] / mp.besseli(order, arg) - 1) < 1e-25
                    assert abs(k_table[order] / mp.besselk(order, arg) - 1) < 1e-25


@pytest.mark.parametrize("x, h", [(0.0, 1.0), (1.0, 0.0)])
def test_addition_theorem_needs_positive_arguments(x, h):
    with pytest.raises(ValueError, match="x and h must be positive"):
        kernel.addition_theorem_check(x, h, 0, 0, TM)


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
