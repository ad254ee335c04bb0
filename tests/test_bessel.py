import math
import warnings

import mpmath
import numpy as np
import pytest

from casimir_cylinders import bessel

import oracles

# Frozen oracle values (power series with >= 20 terms / integral
# representation, computed at 40 digits in oracles.py).
I0_AT_1 = 1.2660658777520084
K0_AT_1 = 0.42102443824070834
K0_AT_2 = 0.11389387274953344
I1_AT_1 = 0.5651591039924851


def test_bessel_i_example_values():
    assert bessel.bessel_i(0, 1.0) == pytest.approx(I0_AT_1, rel=1e-12)
    assert bessel.bessel_i(3, 0.0) == 0.0
    assert bessel.bessel_i(0, 0.0) == 1.0


def test_bessel_i_prime_at_zero_is_exact():
    # the x = 0 limits come from the exact small-argument ladder
    assert [bessel.bessel_i_prime(n, 0.0) for n in range(4)] == [0.0, 0.5, 0.0, 0.0]


def test_bessel_i_reflection_bit_identical():
    for n in (1, 3, 17, 64):
        for x in (1e-3, 2.5, 40.0):
            assert bessel.bessel_i(-n, x) == bessel.bessel_i(n, x)
            assert bessel.bessel_k(-n, x) == bessel.bessel_k(n, x)


def test_bessel_k_example_values():
    assert bessel.bessel_k(0, 1.0) == pytest.approx(K0_AT_1, rel=1e-12)
    assert bessel.bessel_k(0, 2.0) == pytest.approx(K0_AT_2, rel=1e-12)


def test_bessel_k_domain_error():
    with pytest.raises(ValueError):
        bessel.bessel_k(0, 0.0)
    with pytest.raises(ValueError):
        bessel.bessel_k(2, -1.0)


@pytest.mark.parametrize("fn, args, message", [
    (bessel.log_i_ladder, (-1.0, 2), "argument must be nonnegative"),
    (bessel.log_i_ladder, (2500.0, 2), "x <= 2000"),  # the ladders' cap
    (bessel.bessel_i, (0, 701.0), "x <= 700"),  # the scalar accessors' cap
    (bessel.log_k_ladder, (0.0, 2), "K_n diverges at x = 0"),
    (bessel.bessel_k, (0, 0.0), "K_n diverges at x = 0"),
    (bessel.bessel_k_prime, (1, 0.0), "K_n diverges at x = 0"),
    (bessel.log_bessel_i, (3, math.nan), "argument must not be NaN"),
    (bessel.bessel_k, (2, math.nan), "argument must not be NaN"),
    (bessel.log_diag_pair, ([math.nan], 3), "argument must not be NaN"),
    (bessel.log_i_ladder, ([1.0, math.nan], 3), "argument must not be NaN"),
    (bessel.log_k_ladder, ([math.nan, 1.0], 3), "argument must not be NaN"),
])
def test_arguments_outside_the_domain_are_named(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


@pytest.mark.parametrize("ladder", [bessel.log_i_ladder, bessel.log_k_ladder, bessel.log_diag_pair])
def test_ladders_reject_negative_order(ladder):
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        ladder(1.0, -1)


def test_bessel_k_strictly_decreasing_in_x():
    xs = np.linspace(0.1, 30.0, 40)
    for n in (0, 1, 5):
        values = [bessel.bessel_k(n, x) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_order_cap_and_overflow_signalling():
    with pytest.raises(ValueError):
        bessel.bessel_i(bessel.MAX_ORDER + 1, 1.0)
    with pytest.raises(OverflowError):
        bessel.bessel_k(400, 1e-2)  # unscaled K overflows; log form stays finite
    assert np.isfinite(bessel.log_bessel_k(400, 1e-2))


def test_scaled_pair_reconstructs_finite_product():
    for n, x in ((0, 1.0), (64, 0.5), (512, 3.0), (3, 650.0)):
        pair = bessel.scaled_bessel_pair(n, x)
        assert np.isfinite(pair.log_i + pair.log_k)


def test_derivative_identities():
    assert bessel.bessel_i_prime(0, 1.0) == pytest.approx(I1_AT_1, rel=1e-12)
    assert bessel.bessel_i_prime(0, 1.0) == bessel.bessel_i(1, 1.0)
    assert bessel.bessel_k_prime(0, 1.0) == -bessel.bessel_k(1, 1.0)
    # recurrence form against central values
    for n, x in ((2, 3.7), (5, 1.2), (17, 40.0)):
        expected = 0.5 * (bessel.bessel_i(n - 1, x) + bessel.bessel_i(n + 1, x))
        assert bessel.bessel_i_prime(n, x) == pytest.approx(expected, rel=1e-13)
        expected = -0.5 * (bessel.bessel_k(n - 1, x) + bessel.bessel_k(n + 1, x))
        assert bessel.bessel_k_prime(n, x) == pytest.approx(expected, rel=1e-13)


def test_k_prime_always_negative():
    for n in (0, 1, 7, 40):
        for x in (1e-2, 1.0, 55.0):
            assert bessel.bessel_k_prime(n, x) < 0.0


def test_wronskian_spot_value():
    n, x = 2, 3.7
    w = bessel.bessel_i(n, x) * bessel.bessel_k_prime(n, x) - bessel.bessel_i_prime(
        n, x
    ) * bessel.bessel_k(n, x)
    assert w == pytest.approx(-1.0 / x, rel=1e-12)


def test_wronskian_grid_log_space():
    # I_n K'_n - I'_n K_n = -1/x over n in 0..64, x in [1e-3, 500]; the
    # products overflow double precision at the corners, so combine in
    # log space: log(I|K'| + I'K) + log x == 0.
    xs = np.array([1e-3, 1e-2, 0.1, 1.0, 3.7, 10.0, 55.0, 200.0, 500.0])
    li = bessel.log_i_ladder(xs, 65)
    lk = bessel.log_k_ladder(xs, 65)
    ldi = bessel.log_di_ladder(xs, 64)
    ldk = bessel.log_dk_ladder(xs, 64)
    for n in range(0, 65):
        lw = np.logaddexp(li[n] + ldk[n], ldi[n] + lk[n])
        residual = np.abs(np.exp(lw + np.log(xs)) - 1.0)
        assert residual.max() < 1e-10


@pytest.mark.parametrize(
    "n,x",
    [(0, 1e-3), (0, 0.5), (1, 2.0), (5, 0.05), (17, 8.0), (64, 30.0), (128, 5.0),
     (256, 100.0), (512, 2.0), (0, 150.0), (2, 400.0), (64, 650.0)],
)
def test_log_i_against_series_oracle(n, x):
    assert bessel.log_bessel_i(n, x) == pytest.approx(
        oracles.log_bessel_i_reference(n, x), abs=1e-10
    )


def test_log_i_ladder_tiny_argument_closed_form():
    # far below the recurrence's overflow point: I_n(x) = (x/2)^n / n! to
    # double precision, with no intermediate overflow or warning
    x, n_max = 1e-200, 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ladder = bessel.log_i_ladder(np.array([x, 1e-9, 0.0]), n_max)
    n = np.arange(n_max + 1)
    expected = n * math.log(x / 2.0) - np.array([math.lgamma(k + 1.0) for k in n])
    assert np.allclose(ladder[:, 0], expected, rtol=1e-14, atol=0.0)
    assert ladder[0, 2] == 0.0 and np.all(ladder[1:, 2] == -np.inf)
    # the series branch joins the recurrence smoothly
    recurrence = float(bessel.log_i_ladder(2e-8, 5)[5])
    assert ladder[5, 1] == pytest.approx(recurrence - 5.0 * math.log(20.0), abs=1e-12)


def test_log_k_ladder_tiny_argument_closed_form():
    # 2n/x overflows the upward ratio recurrence here: K_n(x) = (n-1)!/2
    # (2/x)^n to double precision, with no intermediate overflow or warning
    x, n_max = 1e-300, 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ladder = bessel.log_k_ladder(np.array([x, 1e-9]), n_max)
    n = np.arange(1, n_max + 1)
    expected = np.array([math.lgamma(k) + k * math.log(2.0 / x) - math.log(2.0) for k in n])
    assert np.allclose(ladder[1:, 0], expected, rtol=1e-14, atol=0.0)
    assert ladder[0, 0] == pytest.approx(math.log(-math.log(x / 2.0) - 0.5772156649015329), rel=1e-14)
    # the small-argument branch joins the recurrence smoothly
    recurrence = float(bessel.log_k_ladder(2e-8, 5)[5])
    assert ladder[5, 1] == pytest.approx(recurrence + 5.0 * math.log(20.0), abs=1e-12)


SEED_POINTS = [5e-324, 1e-300, 0.9e-8, 1.1e-8, 0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 3.7, 700.0, 2000.0]


@pytest.mark.parametrize("x", SEED_POINTS)
def test_ladder_seeds_against_mpmath(x):
    # log K_0, log K_1 and log I_0 (the quadrature and Wronskian seeds, on
    # both sides of every branch edge) to 1e-14 relative in the function
    # value, plus two units in the last place of the stored log itself
    with mpmath.workdps(40):
        ref_k = [float(mpmath.log(mpmath.besselk(n, x))) for n in (0, 1)]
        ref_i = [float(mpmath.log(mpmath.besseli(n, x))) for n in (0, 1)]
    # each case takes its column from one call over all points, so that
    # the branches are also merged in one array
    column = SEED_POINTS.index(x)
    got = {
        "K": bessel.log_k_ladder(SEED_POINTS, 1)[:, column],
        "I, n_max 0": bessel.log_i_ladder(SEED_POINTS, 0)[:, column],
        "I, n_max 1": bessel.log_i_ladder(SEED_POINTS, 1)[:, column],
        "I, n_max 8": bessel.log_i_ladder(SEED_POINTS, 8)[:2, column],
        "K, scalar": bessel.log_k_ladder(x, 1),
        "I, scalar": bessel.log_i_ladder(x, 1),
    }
    for name, ladder in got.items():
        ref = np.array(ref_k if name.startswith("K") else ref_i)[: ladder.size]
        tol = 1e-14 + 2.0 * np.spacing(np.abs(ref))
        assert np.all(np.abs(ladder - ref) <= tol), (name, ladder - ref)


DIAG_ORDERS = (0, 1, 24, 181, 512)


@pytest.mark.parametrize("x", [3e-9, 2e-8, 0.6, 1.7, 40.0, 1900.0])
def test_log_diag_pair_against_mpmath(x):
    # the fused TM/TE pass on both sides of _SMALL_ARGUMENT and of the
    # seed's x = 1 edge, up to the ladder argument cap
    assert bessel._SMALL_ARGUMENT == 1e-8
    got = bessel.log_diag_pair(np.array([x, 1.0]), max(DIAG_ORDERS))
    scalar = bessel.log_diag_pair(x, max(DIAG_ORDERS))
    for n in DIAG_ORDERS:
        ref = np.array(oracles.log_diag_factors(n, x))
        tol = 1e-14 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(got[:, n, 0] - ref) <= tol), (n, got[:, n, 0] - ref)
        assert np.all(np.abs(scalar[:, n] - ref) <= tol), (n, scalar[:, n] - ref)


# Checked columns of the block-edge test, put ahead of a log-spaced filler
# that makes the batch several order blocks long: below and just above
# _SMALL_ARGUMENT, about the seed's x = 1 edge, and up to the argument cap.
BLOCK_EDGE_POINTS = (3e-9, 9e-9, 2e-8, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 0.6, 40.0, 1900.0)


def test_log_diag_pair_across_order_blocks():
    x = np.concatenate([BLOCK_EDGE_POINTS, np.geomspace(1e-3, 1900.0, 600)])
    n_max = 512
    edges = [a for a, _ in bessel.order_blocks(n_max + 1, x.size)][1:]
    assert len(edges) >= 8
    got = bessel.log_diag_pair(x, n_max)
    for column, point in enumerate(BLOCK_EDGE_POINTS):
        for n in sorted({n for a in edges for n in (a - 1, a)}):
            ref = np.array(oracles.log_diag_factors(n, point))
            tol = 1e-14 * np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(got[:, n, column] - ref) <= tol), (point, n, got[:, n, column] - ref)


# Far-separation batches: every argument below _SMALL_ARGUMENT, and tiny
# arguments interleaved with ordinary ones; both wider than one order block.
TINY_POINTS = np.geomspace(1e-300, 9e-9, 40)
MIXED_POINTS = np.ravel(np.column_stack([TINY_POINTS, np.geomspace(1e-8, 1900.0, 40)]))


@pytest.mark.parametrize("x", [TINY_POINTS, MIXED_POINTS], ids=["all-tiny", "mixed"])
def test_log_diag_pair_of_far_separation_batches(x):
    n_max = 512
    assert x.size > bessel._BLOCK_ELEMENTS // (n_max + 1)
    edges = [a for a, _ in bessel.order_blocks(n_max + 1, x.size)][1:]
    orders = sorted({0, 1, n_max} | {n for a in edges for n in (a - 1, a)})
    got = bessel.log_diag_pair(x, n_max)
    for column in range(0, x.size, 7):
        for n in orders:
            ref = np.array(oracles.log_diag_factors(n, x[column]))
            tol = 1e-14 * np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(got[:, n, column] - ref) <= tol), (x[column], n, got[:, n, column] - ref)
    # a tiny column reads the same in any batch
    tiny = np.flatnonzero(x < bessel._SMALL_ARGUMENT)
    assert np.array_equal(got[:, :, tiny], bessel.log_diag_pair(x[tiny], n_max))


SEED_ROW_POINTS = (1e-7, 1.0, 40.0, 700.0, 2000.0)


@pytest.mark.parametrize("n", [1, 2, 24, 181, 512])
def test_rows_next_to_the_i_ratio_seed(n):
    # rows n - 1 and n of a ladder to order n hang on the top I ratio
    # rho_{n-1}, the first row below its seeded extension rows; the slowest
    # damping is at n = 1, x = 2000 (hundreds of extension rows)
    x = np.array(SEED_ROW_POINTS)
    log_i = bessel.log_i_ladder(x, n)
    diag = bessel.log_diag_pair(x, n)
    for column, point in enumerate(SEED_ROW_POINTS):
        for order in (n - 1, n):
            ref = np.array([oracles.log_bessel_i_reference(order, point)])
            ref_diag = np.array(oracles.log_diag_factors(order, point))
            for got, want in ((log_i[order, column], ref), (diag[:, order, column], ref_diag)):
                tol = 1e-14 * np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(got - want) <= tol), (point, order, got - want)


@pytest.mark.parametrize("n", [1, 25, 182, 513])
def test_i_ratio_column_does_not_depend_on_its_batch(n):
    # each column starts its recurrence from its own argument only, so a
    # frequency's ladder is the same in any batch (rows past n are work rows)
    x = np.geomspace(1e-8, 2000.0, 303)
    batch = bessel._i_ratios(x, n)[:n]
    for j in range(x.size):
        alone = bessel._i_ratios(x[j : j + 1], n)[:n, 0]
        assert np.array_equal(batch[:, j], alone), (x[j], np.flatnonzero(batch[:, j] != alone))


@pytest.mark.parametrize(
    "n,x",
    [(0, 1e-3), (0, 1.0), (0, 2.0), (1, 0.3), (5, 10.0), (17, 2.0), (64, 60.0),
     (256, 15.0), (512, 1.0), (3, 300.0)],
)
def test_log_k_against_integral_oracle(n, x):
    assert bessel.log_bessel_k(n, x) == pytest.approx(
        oracles.log_bessel_k_reference(n, x), abs=1e-10
    )


def test_series_and_asymptotic_oracles_cross_check():
    # the two independent I oracles agree in their overlap window
    for n, x in ((0, 25.0), (1, 40.0), (4, 55.0)):
        a = float(oracles.mp.log(oracles.bessel_i_series(n, x, terms=160)))
        b = float(oracles.mp.log(oracles.bessel_i_asymptotic(n, x)))
        assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# Uniform (Debye) expansion machinery.

def test_eta_u_t_special_values():
    assert float(bessel.debye_eta(1.0)) == pytest.approx(
        math.sqrt(2.0) + math.log(1.0 / (1.0 + math.sqrt(2.0))), rel=1e-14
    )
    assert float(bessel.debye_eta(1.0)) == pytest.approx(0.5328399753535522, rel=1e-12)
    assert float(bessel.debye_u(1.0)) == pytest.approx(-1.0 / 12.0, rel=1e-15)
    assert float(bessel.debye_t(1e-9)) == pytest.approx(1.0, abs=1e-15)
    assert float(bessel.debye_t(0.0)) == 1.0


def test_eta_strictly_increasing():
    ys = np.linspace(0.05, 8.0, 60)
    values = bessel.debye_eta(ys)
    assert np.all(np.diff(values) > 0.0)


def test_t_in_unit_interval():
    ys = np.linspace(0.0, 50.0, 100)
    ts = bessel.debye_t(ys)
    assert np.all(ts > 0.0) and np.all(ts <= 1.0)


@pytest.mark.parametrize("y,alpha", [(0.5, 1.5), (1.0, 2.0), (2.0, 1.2)])
def test_uniform_k_ratio_converges_and_meets_tolerance(y, alpha):
    errors = []
    for n in (10, 20, 50, 100):
        direct = oracles.uniform_k_ratio_direct(n, y, alpha)
        errors.append(abs(bessel.uniform_k_ratio(n, y, alpha) / direct - 1.0))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[2] <= 1e-3  # n = 50


@pytest.mark.parametrize("y,alpha", [(0.5, 1.5), (1.0, 2.0), (2.0, 1.2)])
def test_uniform_i_ratio_converges_and_meets_tolerance(y, alpha):
    errors = []
    for n in (10, 20, 50, 100):
        direct = oracles.uniform_i_ratio_direct(n, y, alpha)
        errors.append(abs(bessel.uniform_i_ratio(n, y, alpha) / direct - 1.0))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[2] <= 1e-3


def test_product_ratio_leading_exponential():
    # I_n(ny) K_n(n alpha y) / (I_n(n alpha y) K_n(ny)) approaches
    # exp(-2n [eta(alpha y) - eta(y)]): prefactors cancel exactly and the
    # residual correction is O(1/n) + O((alpha-1)).
    y, alpha = 1.0, 1.1
    d_eta = float(bessel.debye_eta(alpha * y) - bessel.debye_eta(y))
    for n in (30, 60, 120):
        product = bessel.uniform_k_ratio(n, y, alpha) / bessel.uniform_i_ratio(n, y, alpha)
        assert product == pytest.approx(math.exp(-2.0 * n * d_eta), rel=0.02)


def test_uniform_requires_positive_order():
    with pytest.raises(ValueError):
        bessel.uniform_k_ratio(0, 1.0, 2.0)
