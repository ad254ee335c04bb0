import math

import pytest

from casimir_cylinders.baselines import (
    PfaOrder,
    accelerated_series,
    large_alpha_asymptote,
    pfa_bracket,
    pfa_concentric,
    slow_series,
)

PI4_OVER_90 = math.pi ** 4 / 90.0


def test_pfa_leading_value_at_alpha_2():
    assert pfa_concentric(2.0, PfaOrder.LEADING) == pytest.approx(-PI4_OVER_90, rel=1e-14)
    assert pfa_concentric(2.0, PfaOrder.LEADING) == pytest.approx(-1.0823232, rel=1e-7)


def test_pfa_scaling_is_cubic():
    for alpha in (1.01, 1.2, 3.0, 10.0):
        product = pfa_concentric(alpha, PfaOrder.LEADING) * (alpha - 1.0) ** 3
        assert product == pytest.approx(-PI4_OVER_90, rel=1e-13)


def test_second_order_coefficient():
    assert 2.0 / math.pi ** 2 + 0.1 == pytest.approx(0.302642, abs=5e-7)


def test_bracket_ratio_example():
    # NNTL/NTL bracket ratio at alpha = 1.1
    ratio = pfa_bracket(1.1, PfaOrder.NNTL) / pfa_bracket(1.1, PfaOrder.NTL)
    assert ratio == pytest.approx(0.997118, abs=5e-7)


def test_ntl_bracket_dominates_nntl():
    for alpha in (1.01, 1.1, 1.5, 2.0):
        assert pfa_bracket(alpha, PfaOrder.NTL) > pfa_bracket(alpha, PfaOrder.NNTL)


def test_pfa_domain():
    with pytest.raises(ValueError):
        pfa_concentric(1.0)


@pytest.mark.parametrize("fn, args, message", [
    (pfa_bracket, (1.5, "x"), "unknown order"),
    (slow_series, (0,), "M must be at least 1"),
    (accelerated_series, (0,), "M must be at least 1"),
    # a non-finite M is named, not an OverflowError or a bare int() failure
    (slow_series, (math.inf,), "M must be at least 1 and finite"),
    (slow_series, (math.nan,), "M must be at least 1 and finite"),
    (accelerated_series, (math.inf,), "M must be at least 1 and finite"),
    (accelerated_series, (math.nan,), "M must be at least 1 and finite"),
    (accelerated_series, (-math.inf,), "M must be at least 1 and finite"),
])
def test_invalid_arguments_are_named(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_large_alpha_asymptote_values():
    assert large_alpha_asymptote(4.0) == pytest.approx(-0.028403, abs=5e-7)
    assert large_alpha_asymptote(math.e) == pytest.approx(-0.63 / math.e ** 2, rel=1e-12)


def test_large_alpha_constant_functional_form():
    for alpha in (2.0, 4.0, 16.0, 100.0):
        assert large_alpha_asymptote(alpha) * alpha ** 2 * math.log(alpha) == pytest.approx(
            -0.63, rel=1e-13
        )


def test_large_alpha_domain():
    with pytest.raises(ValueError):
        large_alpha_asymptote(0.9)
    with pytest.raises(ValueError):
        large_alpha_asymptote(1.5)  # below the documented validity floor


@pytest.mark.parametrize("fn", [pfa_concentric, large_alpha_asymptote])
@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_closed_forms_reject_non_finite_alpha(fn, alpha):
    with pytest.raises(ValueError, match="finite"):
        fn(alpha)


def test_slow_series_checkpoints():
    assert slow_series(1) == 1.0
    assert slow_series(1000) == pytest.approx(5.5728, abs=5e-5)
    assert slow_series(100_000) == pytest.approx(7.4222, abs=5e-5)


def test_accelerated_series_checkpoints():
    assert accelerated_series(10) - 10.0 == pytest.approx(0.6234, abs=5e-5)
    assert accelerated_series(1000) - 10.0 == pytest.approx(0.5847, abs=5e-5)
    # the accelerated estimate converges to zeta(1.1) = 10.5844
    assert accelerated_series(2_000_000) == pytest.approx(10.5844, abs=5e-4)


def test_acceleration_contrast():
    # ten accelerated terms land within 0.04 of the limit, while 1e5 raw
    # terms are still 3.16 away
    z_inf = 10.5844
    assert abs(accelerated_series(10) - z_inf) < 0.04
    assert abs(slow_series(100_000) - z_inf) > 3.1
