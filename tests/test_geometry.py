import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_cylinders import geometry
from casimir_cylinders.geometry import (
    Concentric,
    CylinderPlane,
    Eccentric,
    GeometryError,
    QuadratureSpec,
    TruncationSpec,
    geometry_from_dict,
    geometry_to_dict,
    to_physical,
    validate,
)


def test_validate_accepts_good_geometries():
    validate(Eccentric(alpha=2.0, delta=0.5))
    validate(Concentric(alpha=1.0001))
    validate(CylinderPlane(h_over_a=1.5))


@pytest.mark.parametrize(
    "g,reason",
    [
        (Eccentric(alpha=1.5, delta=0.6), "overlap"),
        (Eccentric(alpha=1.5, delta=0.5), "overlap"),  # touching is rejected too
        (Concentric(alpha=1.0), "degenerate"),
        (Concentric(alpha=0.7), "degenerate"),
        (Eccentric(alpha=1.0, delta=0.0), "degenerate"),
        (Eccentric(alpha=2.0, delta=-0.1), "negative-eccentricity"),
        (CylinderPlane(h_over_a=1.0), "intersecting-plane"),
        (CylinderPlane(h_over_a=0.2), "intersecting-plane"),
        (Concentric(alpha=math.inf), "non-finite"),
        (Concentric(alpha=math.nan), "non-finite"),
        (Eccentric(alpha=math.inf, delta=0.5), "non-finite"),
        (Eccentric(alpha=2.0, delta=math.nan), "non-finite"),
        (CylinderPlane(h_over_a=math.inf), "non-finite"),
        (CylinderPlane(h_over_a=math.nan), "non-finite"),
    ],
)
def test_validate_names_the_violated_constraint(g, reason):
    with pytest.raises(GeometryError) as err:
        validate(g)
    assert err.value.reason == reason


@pytest.mark.parametrize("fn", [validate, geometry.gap, geometry_to_dict])
def test_non_geometry_is_a_type_error(fn):
    with pytest.raises(TypeError, match="not a geometry"):
        fn((2.0, 0.5))


def test_validate_region_randomized():
    rng = np.random.default_rng(42)
    for _ in range(500):
        alpha = rng.uniform(0.5, 3.0)
        delta = rng.uniform(-0.5, 3.0)
        inside = alpha > 1.0 and 0.0 <= delta < alpha - 1.0
        try:
            validate(Eccentric(alpha=alpha, delta=delta))
            assert inside
        except GeometryError:
            assert not inside
    for _ in range(200):
        h = rng.uniform(0.2, 4.0)
        try:
            validate(CylinderPlane(h_over_a=h))
            assert h > 1.0
        except GeometryError:
            assert not h > 1.0


def test_gap():
    assert geometry.gap(Concentric(1.3)) == pytest.approx(0.3)
    assert geometry.gap(Eccentric(2.0, 0.6)) == pytest.approx(0.4)
    assert geometry.gap(CylinderPlane(1.25)) == pytest.approx(0.25)


def test_to_physical_zero_and_linearity():
    assert to_physical(0.0, 1e-6, 1e-2) == 0.0
    assert to_physical(2.0, 1e-6, 1e-2) == pytest.approx(2.0 * to_physical(1.0, 1e-6, 1e-2), rel=1e-15)


def test_to_physical_example():
    # e_hat = -1, a = 1 micron, L = 1 cm with hbar*c = 3.16152649e-26 J m:
    # E = -hbar c L / (4 pi a^2) = -2.515856e-17 J (frozen arithmetic)
    value = to_physical(-1.0, 1e-6, 1e-2)
    expected = -geometry.HBAR_C * 1e-2 / (4.0 * math.pi * 1e-12)
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(-2.5158628e-17, rel=1e-7)


def test_to_physical_round_trip_identity():
    a, length = 3.2e-6, 0.7e-2
    e_hat = -1.08232
    back = to_physical(e_hat, a, length) * 4.0 * math.pi * a * a / (geometry.HBAR_C * length)
    assert back == pytest.approx(e_hat, rel=1e-14)


def test_to_physical_domain():
    with pytest.raises(ValueError):
        to_physical(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        to_physical(1.0, 1.0, -2.0)


@pytest.mark.parametrize("a, length", [
    (math.nan, 1e-2), (math.inf, 1e-2), (1e-6, math.nan), (1e-6, math.inf),
])
def test_to_physical_rejects_non_finite_lengths(a, length):
    with pytest.raises(ValueError, match="finite"):
        to_physical(-1.0, a, length)


def test_geometry_serialization_round_trip():
    for g in (Concentric(1.7), Eccentric(2.0, 0.3), CylinderPlane(2.5)):
        assert geometry_from_dict(geometry_to_dict(g)) == g
    with pytest.raises(ValueError):
        geometry_from_dict({"type": "torus"})


@settings(max_examples=50, deadline=None)
@given(g=st.one_of(
    st.builds(Concentric, st.floats(1.0, 1e6, exclude_min=True)),
    st.floats(1.0, 1e6, exclude_min=True).flatmap(
        lambda alpha: st.builds(Eccentric, st.just(alpha), st.floats(0.0, alpha - 1.0, exclude_max=True))
    ),
    st.builds(CylinderPlane, st.floats(1.0, 1e6, exclude_min=True)),
))
def test_geometry_dict_round_trip_property(g):
    d = geometry_to_dict(g)
    assert json.loads(json.dumps(d)) == d
    assert geometry_from_dict(d) == g


def test_truncation_spec_invariants():
    with pytest.raises(ValueError):
        TruncationSpec(n_max=32, m_max=16)
    with pytest.raises(ValueError):
        TruncationSpec(rel_tol=0.0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="rel_tol"):
            TruncationSpec(rel_tol=value)
    spec = TruncationSpec(n_max=8, m_max=8)
    assert spec.m_max >= spec.n_max


def test_quadrature_spec_invariants():
    with pytest.raises(ValueError):
        QuadratureSpec(node_count=4)
    with pytest.raises(ValueError):
        QuadratureSpec(scale=-1.0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="scale"):
            QuadratureSpec(scale=value)
    for value in ("adaptive-panel", 5):  # the enum's value is not the enum
        with pytest.raises(ValueError, match="rule"):
            QuadratureSpec(rule=value)
