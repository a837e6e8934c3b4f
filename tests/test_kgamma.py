import math

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from frac_kinetics import DomainError, PoleError, gamma, k_gamma

# 45-digit reference: 2**(3/2) * Gamma(5/2)
K_GAMMA_5_2 = 3.7599424119465007536

SQRT_PI = 1.7724538509055160273


def test_k_gamma_at_one_one():
    assert k_gamma(1, 1) == 1.0


def test_k_gamma_k_at_k_is_one():
    assert k_gamma(3, 3) == 1.0
    for k in (0.5, 1.0, 2.0, 3.0, 7.25):
        assert k_gamma(k, k) == pytest.approx(1.0, rel=1e-14)


def test_k_gamma_5_2_reference_value():
    assert k_gamma(5, 2) == pytest.approx(K_GAMMA_5_2, rel=1e-13)


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0, 4.0])
def test_recurrence_on_grid(k):
    # Gamma_k(x + k) = x * Gamma_k(x)
    x = 0.1
    while x < 20.0:
        lhs = k_gamma(x + k, k)
        rhs = x * k_gamma(x, k)
        assert abs(lhs - rhs) / lhs <= 1e-12
        x += 0.37


@given(
    x=st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
    k=st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]),
)
def test_recurrence_property(x, k):
    lhs = k_gamma(x + k, k)
    assert abs(lhs - x * k_gamma(x, k)) / abs(lhs) <= 1e-12


@given(x=st.floats(min_value=0.1, max_value=20.0, allow_nan=False))
def test_k_equals_one_collapses_to_gamma(x):
    assert abs(k_gamma(x, 1.0) - gamma(x)) <= 1e-14 * abs(gamma(x))


def test_positive_on_tested_domain():
    for k in (0.5, 1.0, 2.0, 4.0):
        for i in range(1, 40):
            assert k_gamma(0.5 * i, k) > 0.0


def test_gamma_known_values():
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-15)
    assert gamma(5) == 24.0
    assert gamma(1.5) == pytest.approx(0.5 * SQRT_PI, rel=1e-15)


def test_gamma_matches_high_precision_reference():
    # platform math.gamma is the documented implementation source; pin its
    # accuracy against a 30-digit reference across (0.1, 50)
    mp.mp.dps = 30
    x = 0.1
    while x < 50.0:
        ref = float(mp.gamma(x))
        assert abs(gamma(x) - ref) <= 1e-14 * abs(ref)
        x += 0.61


def test_negative_non_pole_arguments():
    # reflection path: Gamma(-0.5) = -2*sqrt(pi)
    assert gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-14)
    assert k_gamma(-0.5, 1.0) == pytest.approx(-2.0 * SQRT_PI, rel=1e-14)
    # k_gamma(-1, 2): x/k = -0.5, not a pole
    assert math.isfinite(k_gamma(-1.0, 2.0))


@pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
def test_gamma_pole_errors(x):
    with pytest.raises(PoleError):
        gamma(x)


def test_k_gamma_pole_errors():
    with pytest.raises(PoleError):
        k_gamma(0.0, 1.0)
    with pytest.raises(PoleError):
        k_gamma(-2.0, 2.0)  # x/k = -1
    with pytest.raises(PoleError):
        k_gamma(-6.0, 1.5)  # x/k = -4


@pytest.mark.parametrize("x,k", [(0.7, 0.005), (0.69, 0.005), (0.32, 0.002), (0.3, 0.0018)])
def test_k_gamma_where_the_power_leaves_the_normal_range(x, k):
    # k**(x/k - 1) is subnormal (first two) or 0.0 (last two) while
    # Gamma(x/k) is near 1e240 to 1e300, so the plain product kept few digits
    # or none.  Rounding x/k alone moves the value by up to ~2e-13 here.
    with mp.workdps(40):
        xk = mp.mpf(x) / mp.mpf(k)
        want = mp.mpf(k) ** (xk - 1) * mp.gamma(xk)
    assert float(want) > 1e-200
    assert abs(k_gamma(x, k) - want) <= 1e-12 * want


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as e:  # noqa: BLE001 - any error type must match
        return type(e)


def test_gamma_is_k_gamma_at_k_one():
    # Gamma = Gamma_1: the same double or the same error type on [-175, 175]
    # by eighths, across the poles x = 0, -1, ..., the overflow from x = 171.62
    # on and the negative arguments where Gamma underflows
    for i in range(-1400, 1401):
        x = i / 8.0
        assert _outcome(gamma, x) == _outcome(k_gamma, x, 1.0), x


def test_k_must_be_positive():
    with pytest.raises(DomainError):
        k_gamma(1.0, 0.0)
    with pytest.raises(DomainError):
        k_gamma(1.0, -2.0)


def test_x_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=rf"^x must be finite, got {bad!r}$"):
            k_gamma(bad, 2.0)


def test_overflow_raises():
    with pytest.raises(OverflowError):
        gamma(1e4)
    with pytest.raises(OverflowError):
        k_gamma(1e4, 1.0)


def test_overflowing_product_raises():
    # from x ~ 302.28 at k = 2 the power and Gamma(x/k) are both finite but
    # their product is inf, which must raise as any other overflow does
    assert math.isfinite(k_gamma(302.0, 2.0))
    for x in (302.28, 340.0):
        with pytest.raises(OverflowError, match=rf"k_gamma\({x!r}, 2.0\) exceeds the double range"):
            k_gamma(x, 2.0)


def test_error_messages_name_the_argument():
    with pytest.raises(PoleError, match="x = 0.0"):
        gamma(0.0)
    with pytest.raises(DomainError, match="k must be"):
        k_gamma(1.0, -1.0)
