import numpy as np
import pytest

from casimir_cylinders.quadrature import (
    adaptive_panels,
    gauss_legendre_01,
    semi_infinite_nodes,
)


def test_gauss_legendre_01_integrates_polynomials():
    x, w = gauss_legendre_01(16)
    assert np.dot(w, np.ones_like(x)) == pytest.approx(1.0, rel=1e-14)
    assert np.dot(w, x ** 7) == pytest.approx(1.0 / 8.0, rel=1e-13)


def test_semi_infinite_exponential_moments():
    beta, w = semi_infinite_nodes(0.5, 64)
    # integral(0,inf) e^(-2 b) db = 1/2 ; integral b e^(-2b) = 1/4
    assert np.dot(w, np.exp(-2.0 * beta)) == pytest.approx(0.5, rel=1e-12)
    assert np.dot(w, beta * np.exp(-2.0 * beta)) == pytest.approx(0.25, rel=1e-10)


def test_transformed_gauss_spec_integration():
    beta, w = semi_infinite_nodes(1.0 / 3.0, 96)
    value = np.dot(w, beta * np.exp(-3.0 * beta))
    assert value == pytest.approx(1.0 / 9.0, rel=1e-10)


def test_adaptive_panel_matches_gauss():
    f = lambda b: b ** 2 * np.exp(-b) * np.cos(0.3 * b)
    beta, w = semi_infinite_nodes(1.0, 128)
    a = np.dot(w, f(beta))
    b = adaptive_panels(f, 1.0, 32)
    assert b == pytest.approx(a, rel=1e-8)


def test_vector_valued_integrand():
    f = lambda b: np.stack([np.exp(-b), b * np.exp(-b)], axis=-1)
    beta, w = semi_infinite_nodes(1.0, 64)
    out = np.dot(w, f(beta))
    assert out.shape == (2,)
    assert out[0] == pytest.approx(1.0, rel=1e-12)
    assert out[1] == pytest.approx(1.0, rel=1e-11)


def test_adaptive_panels_evaluate_each_panel_once():
    seen = []

    def f(b):
        seen.append(b.copy())
        return np.stack([np.exp(-b), b * np.exp(-b)], axis=-1)

    out = adaptive_panels(f, 1.0, 16)
    assert out.shape == (2,)
    assert out == pytest.approx([1.0, 1.0], rel=1e-8)
    assert len(seen) >= 3  # the root panel and at least one bisection
    for i, a in enumerate(seen):
        assert not any(np.array_equal(a, b) for b in seen[i + 1:])
