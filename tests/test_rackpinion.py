import math

import numpy as np
import pytest

from casimir_cylinders.rackpinion import (
    CorrugationSpec,
    ProfileJ,
    ValidityWarning,
    energy_cyl_rack,
    energy_plane_rack,
    energy_pp,
    force_ratio,
)

import oracles

J_CONST = ProfileJ.constant(1.0)


def spec(**overrides):
    base = dict(
        amplitude=1e-8,
        wavelength=1e-6,
        displacement=0.0,
        gap=1e-6,
        radius=1e-4,
        length=1e-2,
    )
    base.update(overrides)
    return CorrugationSpec(**base)


def test_spec_invariants():
    with pytest.raises(ValueError):
        spec(amplitude=2e-6)  # amplitude must stay below the gap
    with pytest.raises(ValueError):
        spec(wavelength=0.0)


@pytest.mark.parametrize("field", ["wavelength", "gap", "displacement"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_spec_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        spec(**{field: value})


def test_energy_pp_cosine_structure():
    c0 = spec()
    quarter = spec(displacement=0.25e-6)
    full = spec(displacement=1e-6)
    half = spec(displacement=0.5e-6)
    e0 = energy_pp(c0, J_CONST)
    assert abs(energy_pp(quarter, J_CONST)) <= 1e-15 * abs(e0)
    assert energy_pp(full, J_CONST) == pytest.approx(e0, rel=1e-12)
    assert energy_pp(half, J_CONST) == pytest.approx(-e0, rel=1e-12)


def test_energy_pp_amplitude_scaling():
    assert energy_pp(spec(amplitude=2e-8), J_CONST) == pytest.approx(
        4.0 * energy_pp(spec(), J_CONST), rel=1e-12
    )


def test_plane_rack_small_angle_reduction():
    # for d << a the theta integral approaches d^-5 sqrt(2d/a) 35 pi/128
    c = spec(radius=1e-2)  # a/d = 1e4
    from casimir_cylinders.rackpinion import _theta_integral

    integral = _theta_integral(c, J_CONST)
    approx = c.gap ** -5 * math.sqrt(2.0 * c.gap / c.radius) * 35.0 * math.pi / 128.0
    assert integral == pytest.approx(approx, rel=0.02)


def test_plane_rack_matches_scipy_oracle():
    c = spec()
    from casimir_cylinders.rackpinion import _theta_integral

    assert _theta_integral(c, J_CONST) == pytest.approx(
        oracles.theta_integral_scipy(c.gap, c.radius), rel=1e-9
    )


@pytest.mark.parametrize("radius", [1e6, 1e8, 1e10])  # d/a = 1e-12, 1e-14, 1e-16
def test_force_ratio_reaches_the_near_contact_limit(radius):
    # d(theta) - d = a (1 - cos theta) must not cancel inside the spike,
    # whose width sqrt(2 d/a) falls to 1.4e-8 here
    c = spec(radius=radius)
    limit = 256.0 / (35.0 * math.sqrt(2.0))
    assert force_ratio(c, J_CONST) / math.sqrt(c.radius / c.gap) == pytest.approx(limit, rel=1e-9)


def test_plane_rack_zero_at_quarter_wavelength():
    c = spec(displacement=0.25e-6)
    assert abs(energy_plane_rack(c, J_CONST)) <= 1e-15 * abs(energy_plane_rack(spec(), J_CONST))


def test_plane_rack_small_radius_limit():
    # a -> 0: the theta integral tends to 2 pi / d^5, recovering the
    # 2 pi a L E_pp product form
    c = spec(radius=1e-12)
    plane = energy_plane_rack(c, J_CONST)
    product = 2.0 * math.pi * c.radius * c.length * energy_pp(c, J_CONST)
    assert plane == pytest.approx(product, rel=1e-6)


def test_cyl_rack_product_form_and_sign_flip():
    c = spec()
    assert energy_cyl_rack(c, J_CONST) == pytest.approx(
        2.0 * math.pi * c.radius * c.length * energy_pp(c, J_CONST), rel=1e-14
    )
    flipped = spec(displacement=0.5e-6)
    assert math.copysign(1.0, energy_cyl_rack(flipped, J_CONST)) == -math.copysign(
        1.0, energy_cyl_rack(c, J_CONST)
    )


def test_cyl_rack_validity_warning():
    with pytest.warns(ValidityWarning):
        energy_cyl_rack(spec(radius=5e-6), J_CONST)  # a/d = 5


def test_force_ratio_against_oracle_at_100():
    c = spec()  # a/d = 100
    oracle = 2.0 * math.pi / c.gap ** 5 / oracles.theta_integral_scipy(c.gap, c.radius)
    mine = force_ratio(c, J_CONST)
    assert mine == pytest.approx(oracle, rel=1e-9)
    assert mine == pytest.approx(51.7, rel=0.01)
    assert mine >= math.sqrt(c.radius / c.gap)  # lower estimate sqrt(a/d) = 10


def test_force_ratio_sqrt_scaling():
    ratios = np.logspace(2, 4, 9)
    values = [force_ratio(spec(radius=r * 1e-6), J_CONST) for r in ratios]
    slope = np.polyfit(np.log(ratios), np.log(values), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.02)


def test_force_ratio_independent_of_common_factors():
    base = force_ratio(spec(), J_CONST)
    assert force_ratio(spec(amplitude=3e-9), J_CONST) == pytest.approx(base, rel=1e-12)
    assert force_ratio(spec(wavelength=5e-6), J_CONST) == pytest.approx(base, rel=1e-12)
    assert force_ratio(spec(length=1.0), J_CONST) == pytest.approx(base, rel=1e-12)
    assert force_ratio(spec(displacement=0.3e-6), J_CONST) == pytest.approx(base, rel=1e-12)


def test_lateral_force_extrema():
    # F = -dE/dx vanishes at x = 0 and x = lambda/2 for all three energy
    # variants (cosine extrema): central differences around those points.
    lam = 1e-6
    eps = 1e-12
    for energy in (
        lambda c: energy_pp(c, J_CONST),
        lambda c: energy_plane_rack(c, J_CONST),
        lambda c: energy_cyl_rack(c, J_CONST),
    ):
        for x0 in (0.0, 0.5 * lam):
            plus = energy(spec(displacement=x0 + eps))
            minus = energy(spec(displacement=(x0 - eps) % lam))
            scale = abs(energy(spec(displacement=0.0))) / lam
            assert abs(plus - minus) / (2.0 * eps) <= 1e-4 * scale


def test_profile_table_interpolation():
    table = np.array([[0.5, 1.0], [1.0, 2.0], [2.0, 4.0]])
    profile = ProfileJ.from_table(table)
    assert profile(0.75) == pytest.approx(1.5)
    assert profile(1.5) == pytest.approx(3.0)
    # flat extrapolation at the ends
    assert profile(0.1) == 1.0
    assert profile(9.0) == 4.0


def test_constant_profile_is_exact_everywhere():
    profile = ProfileJ.constant(0.7)
    assert profile(0.3) == 0.7
    assert profile(-5.0) == profile(1e9) == 0.7  # outside the two-point table
    values = profile(np.array([[0.0, 0.5], [2.0, 1e-12]]))
    assert values.shape == (2, 2) and np.all(values == 0.7)


@pytest.mark.parametrize("table", [
    [[0.5, float("nan")], [1.0, 2.0]],
    [[0.5, 1.0], [1.0, float("inf")]],
    [[float("nan"), 1.0], [1.0, 2.0]],
])
def test_profile_rejects_non_finite_tables(table):
    with pytest.raises(ValueError, match="finite"):
        ProfileJ.from_table(table)


@pytest.mark.parametrize("ratios, values, message", [
    ((0.5, 1.0), (1.0, 2.0, 3.0), "matching"),
    ((0.5,), (1.0,), "at least two points"),
    ((1.0, 0.5), (1.0, 2.0), "abscissas must increase"),
    ((0.5, 0.5), (1.0, 2.0), "abscissas must increase"),
])
def test_profile_rejects_malformed_tables(ratios, values, message):
    with pytest.raises(ValueError, match=message):
        ProfileJ(ratios, values)


def test_plane_rack_rejects_an_unresolvable_spike():
    # gap/radius = 1e-400 rounds to 0, so the spike has no width
    with pytest.raises(ValueError, match="too small to resolve"):
        energy_plane_rack(CorrugationSpec(1e-201, 1.0, 0.0, 1e-200, 1e200, 1.0))


def test_profile_file_round_trip(tmp_path):
    path = tmp_path / "j.dat"
    path.write_text("0.5 1.0\n1.0 2.0\n2.0 4.0\n")
    profile = ProfileJ.from_file(path)
    assert profile(1.0) == pytest.approx(2.0)


def test_tabulated_profile_changes_ratio():
    table = np.array([[0.1, 5.0], [1.0, 1.0], [10.0, 0.2]])
    profile = ProfileJ.from_table(table)
    assert force_ratio(spec(), profile) != pytest.approx(force_ratio(spec(), J_CONST), rel=1e-3)
