import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frac_kinetics import (
    DomainError,
    KStruveParams,
    ML_SERIES_CAP,
    PoleError,
    RangeError,
    SeriesControl,
    STRUVE_SERIES_CAP,
    k_struve,
    mittag_leffler,
    mittag_leffler2,
    struve_h,
)
from frac_kinetics.kgamma import k_gamma
from frac_kinetics.special import _k_struve_grid

# frozen 45-digit brute-force series references (200 terms)
STRUVE_H_0_1 = 0.56865662704828795099
K_STRUVE_1_1_2_AT_1 = 0.19129713436242485694
ML_HALF_AT_MINUS_1 = 0.42758357615580700441
ML2_HALF_3P5_AT_MINUS_2 = 0.13968199265590839732

TWO_OVER_PI = 2.0 / math.pi

LONG = SeriesControl(max_terms=200)


# ---------------------------------------------------------------- controls


def test_series_control_defaults():
    ctl = SeriesControl()
    assert ctl.max_terms == 50
    assert ctl.rel_tol == 1e-14


@pytest.mark.parametrize("bad", [0, -1, 1.5])
def test_series_control_rejects_bad_max_terms(bad):
    with pytest.raises(DomainError):
        SeriesControl(max_terms=bad)


@pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
def test_series_control_rejects_bad_rel_tol(bad):
    with pytest.raises(DomainError):
        SeriesControl(rel_tol=bad)


def test_kstruve_params_validation():
    KStruveParams(nu=0.5, c=1.0, k=2.0)  # fine
    with pytest.raises(DomainError, match="k must be"):
        KStruveParams(nu=1.0, c=1.0, k=0.0)
    with pytest.raises(DomainError, match="nu must exceed"):
        KStruveParams(nu=-3.0, c=1.0, k=2.0)
    with pytest.raises(DomainError):
        KStruveParams(nu=float("nan"), c=1.0, k=1.0)


# ---------------------------------------------------------------- struve_h


def test_struve_half_closed_identity_at_pi_half():
    # H_{1/2}(x) = sqrt(2/(pi x)) (1 - cos x) -> 2/pi at x = pi/2
    assert struve_h(0.5, math.pi / 2) == pytest.approx(TWO_OVER_PI, rel=1e-13)


def test_struve_half_closed_identity_on_grid():
    for x in np.linspace(0.3, 5.0, 24):
        closed = math.sqrt(2.0 / (math.pi * x)) * (1.0 - math.cos(x))
        assert abs(struve_h(0.5, float(x)) - closed) <= 1e-12 * (1.0 + abs(closed))


def test_struve_at_zero():
    assert struve_h(1.0, 0.0) == 0.0
    assert struve_h(0.25, 0.0) == 0.0
    assert struve_h(-0.5, 0.0) == 0.0


def test_struve_0_1_reference_value():
    assert struve_h(0.0, 1.0, LONG) == pytest.approx(STRUVE_H_0_1, rel=1e-13)
    # default 50-term control already converged at x = 1
    assert struve_h(0.0, 1.0) == pytest.approx(STRUVE_H_0_1, rel=1e-13)


def test_struve_negative_x_integer_order_only():
    # H_1 is even, H_0 odd about the origin in the series sense
    assert struve_h(1.0, -2.0) == pytest.approx(struve_h(1.0, 2.0), rel=1e-14)
    assert struve_h(0.0, -2.0) == pytest.approx(-struve_h(0.0, 2.0), rel=1e-14)
    with pytest.raises(DomainError, match="x must be >= 0"):
        struve_h(0.5, -1.0)


def test_struve_domain_and_cap():
    with pytest.raises(DomainError):
        struve_h(-1.5, 1.0)
    with pytest.raises(RangeError):
        struve_h(0.0, STRUVE_SERIES_CAP + 1.0)


def test_struve_ode_residual():
    # x^2 H'' + x H' + (x^2 - p^2) H = 4 (x/2)^{p+1} / (sqrt(pi) Gamma(p+1/2)),
    # checked with central differences at h = 1e-4
    h = 1e-4
    for p in (0.0, 0.5, 1.0, 2.0):
        for x in np.linspace(0.25, 5.0, 20):
            x = float(x)
            f0 = struve_h(p, x)
            fp = struve_h(p, x + h)
            fm = struve_h(p, x - h)
            d1 = (fp - fm) / (2.0 * h)
            d2 = (fp - 2.0 * f0 + fm) / (h * h)
            rhs = 4.0 * (x / 2.0) ** (p + 1.0) / (math.sqrt(math.pi) * math.gamma(p + 0.5))
            resid = x * x * d2 + x * d1 + (x * x - p * p) * f0 - rhs
            assert abs(resid) <= 1e-5 * (1.0 + abs(f0))


# ---------------------------------------------------------------- k_struve


def test_k_struve_at_zero():
    assert k_struve(KStruveParams(1.0, 1.0, 2.0), 0.0) == 0.0


def test_k_struve_reference_value():
    got = k_struve(KStruveParams(1.0, 1.0, 2.0), 1.0, LONG)
    assert got == pytest.approx(K_STRUVE_1_1_2_AT_1, rel=1e-13)


def test_k_struve_collapses_to_struve_at_k_1():
    for nu in (0.5, 1.0):
        for x in np.linspace(0.0, 5.0, 26):
            x = float(x)
            h = struve_h(nu, x)
            assert abs(k_struve(KStruveParams(nu, 1.0, 1.0), x) - h) <= 1e-13 * (1.0 + abs(h))


def test_k_struve_rejects_negative_x_and_cap():
    p = KStruveParams(1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        k_struve(p, -0.5)
    with pytest.raises(RangeError):
        k_struve(p, STRUVE_SERIES_CAP + 0.5)


def test_k_struve_truncation_monotonicity():
    # alternating regime (c > 0): doubling the term budget moves the value
    # by no more than the first omitted term (rel_tol disabled so max_terms
    # is the actual cut)
    p = KStruveParams(1.0, 1.0, 1.0)
    x, m = 3.0, 6
    short = k_struve(p, x, SeriesControl(max_terms=m, rel_tol=1e-300))
    long = k_struve(p, x, SeriesControl(max_terms=2 * m, rel_tol=1e-300))
    omitted = (x / 2.0) ** (2 * m + 2) / (math.gamma(m + 2.5) * math.gamma(m + 1.5))
    assert abs(long - short) <= omitted * (1.0 + 1e-12)


def test_divergent_at_zero_raises():
    with pytest.raises(DomainError, match="diverges at x = 0"):
        struve_h(-1.2, 0.0)
    with pytest.raises(DomainError, match="diverges at x = 0"):
        k_struve(KStruveParams(nu=-2.5, c=1.0, k=2.0), 0.0)
    # boundary case p = -1 has the finite limit 2/pi
    assert struve_h(-1.0, 0.0) == pytest.approx(TWO_OVER_PI, rel=1e-14)


# ---------------------------------------------------------------- k_struve over a grid


def _scalar_k_struve(p, xs, ctl=None):
    return np.array([k_struve(p, x, ctl) for x in xs])


@pytest.mark.parametrize("n", [65, 4097])
@pytest.mark.parametrize(
    "nu,c,k", [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (0.3, 0.7, 3.0), (-0.5, -1.0, 1.0), (2.5, 3.0, 0.5)]
)
@pytest.mark.parametrize(
    "ctl",
    [None, SeriesControl(max_terms=7), SeriesControl(rel_tol=1e-6), SeriesControl(max_terms=80, rel_tol=1e-15)],
)
def test_k_struve_grid_is_the_scalar_path(n, nu, c, k, ctl):
    # node for node the same double: np.power differs from CPython's float
    # ** in the last bit on some nodes, so a tolerance would hide a change
    p = KStruveParams(nu, c, k)
    xs = np.linspace(0.0, STRUVE_SERIES_CAP, n)
    assert np.array_equal(_k_struve_grid(p, xs, ctl), _scalar_k_struve(p, xs, ctl))
    xs = np.linspace(0.0, 1.0, n)
    assert np.array_equal(_k_struve_grid(p, xs, ctl), _scalar_k_struve(p, xs, ctl))


def test_k_struve_grid_at_zero():
    xs = np.array([0.0, 0.5, 0.0])
    # nu/k > -1: the series vanishes at the origin
    got = _k_struve_grid(KStruveParams(1.0, 1.0, 2.0), xs)
    assert got[0] == 0.0 and got[2] == 0.0
    # nu/k = -1: the limit is the r = 0 coefficient
    p = KStruveParams(-2.0, 1.0, 2.0)
    got = _k_struve_grid(p, xs)
    assert got[0] == k_struve(p, 0.0) == 1.0 / (k_gamma(1.0, 2.0) * math.gamma(1.5))
    assert np.array_equal(got, _scalar_k_struve(p, xs))
    # nu/k < -1: divergent
    with pytest.raises(DomainError, match="diverges at x = 0"):
        _k_struve_grid(KStruveParams(-2.5, 1.0, 2.0), xs)


@pytest.mark.parametrize(
    "bad", [-0.5, float("nan"), float("inf"), -float("inf"), STRUVE_SERIES_CAP + 0.5]
)
def test_k_struve_grid_errors_match_the_scalar_path(bad):
    p = KStruveParams(1.0, 1.0, 2.0)
    xs = np.array([0.0, 1.0, bad, -1.0, 2.0])
    with pytest.raises(DomainError) as scalar:
        _scalar_k_struve(p, xs)
    with pytest.raises(DomainError) as grid:
        _k_struve_grid(p, xs)
    assert type(grid.value) is type(scalar.value)
    assert str(grid.value) == str(scalar.value)


# ---------------------------------------------------------------- mittag-leffler


def test_ml_is_exp_at_alpha_1():
    assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, rel=1e-15)


def test_ml_at_zero_is_one():
    assert mittag_leffler(0.5, 0.0) == 1.0
    assert mittag_leffler(1.7, 0.0) == 1.0


def test_ml_reference_value():
    assert mittag_leffler(0.5, -1.0, LONG) == pytest.approx(ML_HALF_AT_MINUS_1, rel=5e-13)


def test_ml2_e_minus_one():
    assert mittag_leffler2(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)


def test_ml2_at_zero_is_inverse_gamma_beta():
    assert mittag_leffler2(0.5, 2.0, 0.0) == 1.0
    assert mittag_leffler2(0.3, 0.5, 0.0) == pytest.approx(1.0 / math.gamma(0.5), rel=1e-15)


def test_ml2_reference_value():
    assert mittag_leffler2(0.5, 3.5, -2.0, LONG) == pytest.approx(
        ML2_HALF_3P5_AT_MINUS_2, rel=5e-13
    )


def test_exp_identity_extended_control():
    # 50 alternating terms cannot resolve e^{-10} below ~6e-11 relative
    # (truncation, not rounding); with an 80-term budget the double-double
    # term path holds the identity to a few ulp
    ctl = SeriesControl(max_terms=80)
    for z in np.linspace(-10.0, 10.0, 41):
        z = float(z)
        e = math.exp(z)
        assert abs(mittag_leffler(1.0, z, ctl) - e) <= 1e-12 * e


def test_exp_identity_default_control_truncation_floor():
    worst = max(
        abs(mittag_leffler(1.0, float(z)) - math.exp(z)) / math.exp(z)
        for z in np.linspace(-10.0, 10.0, 41)
    )
    assert worst <= 1e-9  # documented 50-term truncation floor (~6.1e-11)


@given(
    alpha=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    z=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_ml_equals_ml2_bitwise(alpha, z):
    try:
        a = mittag_leffler(alpha, z)
    except OverflowError:
        with pytest.raises(OverflowError):
            mittag_leffler2(alpha, 1.0, z)
        return
    assert a == mittag_leffler2(alpha, 1.0, z)


def test_ml_truncation_monotonicity():
    m = 20
    z, alpha = -3.0, 0.7
    short = mittag_leffler(alpha, z, SeriesControl(max_terms=m))
    long = mittag_leffler(alpha, z, SeriesControl(max_terms=2 * m))
    omitted = abs(z) ** m / math.gamma(alpha * m + 1.0)
    assert abs(long - short) <= omitted * (1.0 + 1e-12)


def test_ml_domain_checks():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(-0.5, 1.0)
    with pytest.raises(RangeError):
        mittag_leffler(1.0, ML_SERIES_CAP + 1.0)
    with pytest.raises(RangeError):
        mittag_leffler(1.0, -(ML_SERIES_CAP + 1.0))


def test_ml2_pole_detection():
    # alpha*n + beta sweeps over 0 at n = 3 for (1, -3)
    with pytest.raises(PoleError):
        mittag_leffler2(1.0, -3.0, 0.5)
    # never hits an integer for (0.5, -0.25): stays valid
    assert math.isfinite(mittag_leffler2(0.5, -0.25, 0.5))


def test_k_struve_coefficients_past_the_double_range_are_not_silent_zeros():
    # the denominator Gamma_k(rk + nu + 3k/2) * Gamma(r + 3/2) overflows to
    # inf from r = 87 although the coefficient (-3.6e-269 there) is a double
    import mpmath as mp

    from frac_kinetics.special import _k_struve_coeffs

    nu, c, k = 2.0, 3.0, 3.0
    long = _k_struve_coeffs(nu, c, k, 120)
    assert long[:87] == _k_struve_coeffs(nu, c, k, 87)
    mp.mp.dps = 40
    for r in range(87, 120):
        x = mp.mpf(r * k + nu + 1.5 * k) / k
        want = (-c) ** r / (mp.mpf(k) ** (x - 1) * mp.gamma(x) * mp.gamma(r + 1.5))
        # relative error |log coef| * 2**-52 at most, plus the subnormal spacing
        assert abs(long[r] - want) <= 1e-12 * abs(want) + 5e-324
    assert long[87] != 0.0


# ---------------------------------------------------------------- inlined double-double in _ml_eval


def _ml_eval_reference(alpha, beta, z, ctl):
    """The Mittag-Leffler loop as it reads with the ``_compensated`` helper calls."""
    from frac_kinetics._compensated import dd_add, dd_div_double, dd_mul_double
    from frac_kinetics.special import _ml_inv_gammas

    inv_g = _ml_inv_gammas(alpha, beta, ctl.max_terms)
    sum_hi, sum_lo = 0.0, 0.0
    n_int = round(alpha)
    if alpha == n_int and n_int >= 1:
        t_hi, t_lo = inv_g[0], 0.0
        for n in range(ctl.max_terms):
            sum_hi, sum_lo = dd_add(sum_hi, sum_lo, t_hi, t_lo)
            if abs(t_hi) <= ctl.rel_tol * abs(sum_hi):
                break
            t_hi, t_lo = dd_mul_double(t_hi, t_lo, z)
            for j in range(int(n_int)):
                t_hi, t_lo = dd_div_double(t_hi, t_lo, alpha * n + beta + j)
    else:
        zn = 1.0
        for n in range(ctl.max_terms):
            term = zn * inv_g[n]
            sum_hi, sum_lo = dd_add(sum_hi, sum_lo, term)
            if abs(term) <= ctl.rel_tol * abs(sum_hi):
                break
            zn *= z
            if math.isinf(zn):
                raise OverflowError(
                    f"Mittag-Leffler series term overflow at n = {n + 1} (z = {z!r})"
                )
    return sum_hi + sum_lo


def _outcome(f, *args):
    # repr tells -0.0 from 0.0; errors compare by type and message
    try:
        return repr(f(*args))
    except Exception as e:  # noqa: BLE001 - any error type must match
        return type(e), str(e)


def _ml_draws(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for alpha in (0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0):
        cases += [(alpha, b, z) for b, z in zip(rng.uniform(-2.5, 4.0, 40), rng.uniform(-50.0, 50.0, 40))]
    alphas = np.concatenate([rng.uniform(0.05, 3.5, 200), rng.integers(1, 7, 100).astype(float)])
    cases += [(a, b, z) for a, b, z in zip(alphas, rng.uniform(-2.5, 4.0, 300), rng.uniform(-50.0, 50.0, 300))]
    # exact zeros, a tiny argument and the ends of the cap
    cases += [(a, b, z) for a in (0.5, 1.0, 2.0, 3.0) for b in (1.0, 2.5) for z in (0.0, -0.0, 1e-300, -50.0, 50.0)]
    return [(float(a), float(b), float(z)) for a, b, z in cases]


@pytest.mark.parametrize(
    "ctl", [SeriesControl(), SeriesControl(max_terms=90), SeriesControl(max_terms=30, rel_tol=1e-10)]
)
def test_inlined_ml_eval_is_the_helper_loop(ctl):
    from frac_kinetics.special import _ml_eval

    for alpha, beta, z in _ml_draws(11):
        assert _outcome(_ml_eval, alpha, beta, z, ctl) == _outcome(_ml_eval_reference, alpha, beta, z, ctl), (
            alpha, beta, z)


@pytest.mark.parametrize(
    "alpha,beta,z,ctl",
    [
        (0.3, 1.0, 50.0, SeriesControl(max_terms=200)),  # z**n overflow
        (0.7, 1.2, -50.0, SeriesControl(max_terms=200)),
        (1.0, -2.0, 0.5, SeriesControl()),  # gamma pole
        (2.0, -3.0, 0.5, SeriesControl()),
    ],
)
def test_inlined_ml_eval_raises_as_the_helper_loop(alpha, beta, z, ctl):
    from frac_kinetics.special import _ml_eval

    want = _outcome(_ml_eval_reference, alpha, beta, z, ctl)
    assert isinstance(want, tuple)
    assert _outcome(_ml_eval, alpha, beta, z, ctl) == want


def test_huge_integer_alpha_leaves_the_divisor_loop_scalar():
    # 1/Gamma(alpha n + beta) is 0.0 from n = 1 on and the term t_1 = z / (beta)_alpha
    # underflows to (0, 0) within a few hundred of the alpha divisions: the
    # loop must stop there, not run all alpha of them on every term
    import sys

    from frac_kinetics import special

    code = special._ml_eval.__code__
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    sys.settrace(tracer)
    try:
        got = mittag_leffler(1e5, 0.5)
    finally:
        sys.settrace(None)
    assert got == 1.0
    assert lines < 10_000


def test_huge_integer_alpha_leaves_the_divisor_loop_array(monkeypatch):
    from frac_kinetics import special

    calls = 0
    div = special.dd_div_double

    def counted(*args):
        nonlocal calls
        calls += 1
        return div(*args)

    monkeypatch.setattr(special, "dd_div_double", counted)
    alpha = 1e4
    beta = np.array([1.0, 2.5])
    inv_g = np.array([special._ml_inv_gammas(alpha, b, 50) for b in beta])
    row = np.array([0, 1, 0, 1, 0])
    z = np.array([0.5, -3.0, 0.0, 50.0, -50.0])
    out, overflow = special._ml_eval_pairs(alpha, inv_g, beta, row, z, SeriesControl())
    assert not overflow.any()
    want = [_ml_eval_reference(alpha, beta[r], zi, SeriesControl()) for r, zi in zip(row, z)]
    assert [repr(v) for v in out] == [repr(v) for v in want]
    assert calls < 1_000


# ---------------------------------------------------------------- k-Struve power recurrence


def _power_series_reference(coeffs, x, exp0):
    """(sum, sum of |term|) of sum coeffs[r] (x/2)**(2r + exp0) with exact powers, at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        h = mp.mpf(x) / 2
        power, h2, terms = h**exp0, h * h, []
        for coef in coeffs:
            terms.append(coef * power)
            power *= h2
        return float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))


def test_k_struve_power_recurrence_rounding_bound():
    # the powers and the compensated sum stay within 32 u * sum |term_r| of
    # the series on the same double coefficients (worst seen over 1,500
    # draws: 13.7 u; one libm pow per term with the rounded exponent
    # 2r + nu/k + 1 reached 36.3 u)
    import mpmath as mp

    from frac_kinetics.special import _k_struve_coeffs

    ctl = SeriesControl(max_terms=200, rel_tol=1e-17)  # the tail is below the rounding
    u = 2.0**-53
    rng = np.random.default_rng(2071)
    for _ in range(400):
        k = float(rng.uniform(0.5, 3.0))
        nu = float(rng.uniform(-1.4, 3.0)) * k
        c = float(rng.uniform(-2.0, 2.0))
        x = float(20.0 - rng.uniform(0.0, 20.0))  # in (0, 20]
        coeffs = _k_struve_coeffs(nu, c, k, ctl.max_terms)
        want, mag = _power_series_reference(coeffs, x, mp.mpf(nu) / k + 1)
        got = k_struve(KStruveParams(nu, c, k), x, ctl)
        assert abs(got - want) <= 32 * u * mag, (nu, c, k, x)
    for _ in range(200):
        p = float(rng.uniform(-1.4, 4.0))
        x = float(20.0 - rng.uniform(0.0, 20.0))
        want, mag = _power_series_reference(_k_struve_coeffs(p, 1.0, 1.0, ctl.max_terms), x, mp.mpf(p) + 1)
        assert abs(struve_h(p, x, ctl) - want) <= 32 * u * mag, (p, x)


@pytest.mark.parametrize(
    "nu,xs",
    [
        (3.0, [1.0, 20.0]),  # (x/2)**(2r + 301) leaves the double range at r = 4
        (3.1, [20.0]),  # (x/2)**311 overflows at the first power
        (3.1, [1.0, 10.0, 20.0, 5.0]),  # running overflow at 10, first power at 20
    ],
)
def test_k_struve_power_overflow_raises_the_same_error_on_a_grid(nu, xs):
    # nu/k = 300 or 310 with a small k keeps the coefficients inside the
    # double range, so the series really reaches the overflowing powers
    p = KStruveParams(nu, 1.0, 0.01)
    with pytest.raises(OverflowError, match="double range") as scalar:
        _scalar_k_struve(p, xs)
    with pytest.raises(OverflowError) as grid:
        _k_struve_grid(p, np.array(xs))
    assert type(grid.value) is type(scalar.value)
    assert str(grid.value) == str(scalar.value)


# ---------------------------------------------------------------- large orders


def _k_struve_reference(nu, c, k, x):
    """(value, sum of |term|) of the exact k-Struve series, as 40-digit mpmath numbers."""
    import mpmath as mp

    with mp.workdps(40):
        nu, c, k, h = mp.mpf(nu), mp.mpf(c), mp.mpf(k), mp.mpf(x) / 2
        total = mag = mp.mpf(0)
        for r in range(400):
            a = r + nu / k + mp.mpf(1.5)  # Gamma_k(rk + nu + 3k/2) = k**(a - 1) Gamma(a)
            term = (-c) ** r / (k ** (a - 1) * mp.gamma(a) * mp.gamma(r + 1.5)) * h ** (2 * r + nu / k + 1)
            total += term
            mag += abs(term)
            if r > 3 and abs(term) < mp.mpf(10) ** -38 * mag:
                break
        return total, mag


def _check_large_order(got, want, scale):
    """Within 1e-12 of scale where the value is a normal double, 0.0 or subnormal below that."""
    assert abs(want) <= sys.float_info.max
    if abs(want) >= sys.float_info.min:
        assert abs(got - want) <= 1e-12 * scale, (got, want)
    else:
        assert abs(got) < sys.float_info.min, (got, want)


def test_large_order_struve_regressions():
    # H_200(20): the coefficient 1/(Gamma(201.5) Gamma(1.5)) underflowed to 0.0
    # before the power 10**201 could multiply it, so the sum was 0.0
    want, _ = _k_struve_reference(200.0, 1.0, 1.0, 20.0)
    assert abs(want) > 7e-176
    for got in (struve_h(200.0, 20.0), k_struve(KStruveParams(200.0, 1.0, 1.0), 20.0)):
        _check_large_order(got, want, abs(want))
    # H_400(20) = 7.5e-470: the first power 10**401 overflowed and raised
    for got in (struve_h(400.0, 20.0), k_struve(KStruveParams(400.0, 1.0, 1.0), 20.0)):
        assert abs(got) < sys.float_info.min
    # both at once, and a value that fits: 1.36e-39
    want, _ = _k_struve_reference(35.0, -1.0, 0.1, 20.0)
    _check_large_order(k_struve(KStruveParams(35.0, -1.0, 0.1), 20.0), want, abs(want))


def test_large_order_struve_raises_only_above_the_double_range():
    # nu/k = 600: the value is 1.07e399
    want, _ = _k_struve_reference(6.0, -1.0, 0.01, 20.0)
    assert abs(want) > sys.float_info.max
    with pytest.raises(OverflowError, match="double range"):
        k_struve(KStruveParams(6.0, -1.0, 0.01), 20.0)
    with pytest.raises(OverflowError, match="double range"):
        _k_struve_grid(KStruveParams(6.0, -1.0, 0.01), np.array([1.0, 20.0]))
    # nu/k = 1000 at k = 0.0005: Gamma_k(nu + 3k/2) itself underflows to 0.0,
    # which must give the coefficient's OverflowError, not a division by zero
    want, _ = _k_struve_reference(0.5, 1.0, 0.0005, 2.0)
    assert abs(want) > sys.float_info.max
    with pytest.raises(OverflowError, match="double range"):
        k_struve(KStruveParams(0.5, 1.0, 0.0005), 2.0)
    with pytest.raises(OverflowError, match="double range"):
        _k_struve_grid(KStruveParams(0.5, 1.0, 0.0005), np.array([1.0, 2.0]))


@pytest.mark.parametrize(
    "nu,c,k,xs,x_over",
    [
        # nu/k = 750 or 1000: every coefficient is above the double range
        # (4.2e733 for row 0 of the first), and the first power below it
        (0.5, 1.0, 0.0005, [0.01, 0.3, 0.37, 0.45], 1.0),
        (0.5, -2.0, 0.0005, [0.01, 0.3, 0.37, 0.45], 1.0),
        (0.3, 1.5, 0.0004, [0.01, 0.3, 0.37, 0.45], 0.6),
        # coefficients past the double range from row 23 on, reached by the
        # sum at x = 0.1665 with a normal first power (1.0e-271)
        (0.25, -500.0, 0.001, [0.05, 0.1, 0.1665], 2.0),
        # at x = 1.0 the 50-term sum stops short, at 7.33e248, of a value of
        # 3.43e322 (above the double range): a sum over a coefficient past the
        # range that does not stop raises rather than return that partial sum
        (0.25, -500.0, 0.001, [0.05], 1.0),
        # coefficients past the double range at rows 6-8; Gamma_k(rk + nu +
        # 3k/2) is subnormal from row 2 on (about 3 digits left at row 15)
        # while its product with Gamma(r + 3/2) stays normal, and a quotient
        # of those few digits put the value at x = 1.76 1.6e-7 off
        (0.11039369777854577, -0.9097258095658689, 0.0005, [1.7628480786615368], 2.0),
        # coefficients past the double range from row 2 on, met by normal
        # powers (1e-261 at row 2 and x = 2e-6) in a sum of a few terms
        (38.5 * 1.35e-9, -0.8, 1.35e-9, [1e-6, 2e-6, 4e-6], 0.1),
    ],
)
def test_coefficients_above_the_double_range_against_mpmath(nu, c, k, xs, x_over):
    # (x/2)**(2r + nu/k + 1) brings the terms back into the double range or
    # below it: a value within it, or 0.0 where mpmath gives 1.98e-1570
    params = KStruveParams(nu, c, k)
    for x in xs:
        want, mag = _k_struve_reference(nu, c, k, x)
        _check_large_order(k_struve(params, x), want, mag)
    assert np.array_equal(_k_struve_grid(params, np.array(xs)), _scalar_k_struve(params, xs))
    if (nu, c, k) == (0.5, 1.0, 0.0005):
        assert k_struve(params, 0.01) == 0.0
    # a value above the double range still raises
    with pytest.raises(OverflowError, match="double range"):
        k_struve(params, x_over)
    with pytest.raises(OverflowError, match="double range"):
        _k_struve_grid(params, np.array([xs[-1], x_over]))


@pytest.mark.parametrize("family", ["struve_h", "c < 0", "c > 0"])
def test_large_order_struve_against_mpmath(family):
    # nu/k in [100, 450] and x in (0, 20]: coefficients from the first few on
    # underflow, and the first power overflows from nu/k ~ 307 at x = 20.
    # struve_h and c < 0 are held to 1e-12 relative; for c > 0 an alternating
    # sum loses digits to cancellation in any double arithmetic (up to 6e-11
    # relative here at k = 0.25), so its scale is the sum of |term|, as in
    # the recurrence bound above
    rng = np.random.default_rng({"struve_h": 11, "c < 0": 12, "c > 0": 13}[family])
    for _ in range(60):
        k = 1.0 if family == "struve_h" else float(rng.choice([0.25, 0.5, 1.0, 2.0, 3.0]))
        c = {"struve_h": 1.0, "c < 0": -rng.uniform(0.2, 3.0), "c > 0": rng.uniform(0.2, 3.0)}[family]
        nu = float(k * rng.uniform(100.0, 450.0))
        x = float(rng.choice([20.0, 20.0 - rng.uniform(0.0, 19.0)]))
        want, mag = _k_struve_reference(nu, c, k, x)
        params = KStruveParams(nu, float(c), k)
        got = struve_h(nu, x) if family == "struve_h" else k_struve(params, x)
        _check_large_order(got, want, mag if family == "c > 0" else abs(want))
        # the grid twin takes the same terms node for node
        xs = np.array([x / 7.0, x / 2.0, x])
        assert np.array_equal(_k_struve_grid(params, xs), _scalar_k_struve(params, xs)), (nu, c, k, x)


def test_subnormal_first_power_keeps_its_digits():
    # k = 0.01: (x/2)**251 = 6.2e-315 is subnormal while the coefficient is
    # 2.2e7, so the product kept only the power's few significant bits
    # (2.0e-10 relative at x = 0.112, 1.1e-8 at 0.110)
    for x in (0.112, 0.110):
        want, _ = _k_struve_reference(2.5, 1.0, 0.01, x)
        _check_large_order(k_struve(KStruveParams(2.5, 1.0, 0.01), x), want, abs(want))
    # k = 0.002: (0.045)**251 underflows to 0.0 against a coefficient near
    # 1e183, and the sum was 0.0 for a value of 2.5e-156
    want, _ = _k_struve_reference(0.5, 1.0, 0.002, 0.09)
    assert abs(want) > 2e-156
    _check_large_order(k_struve(KStruveParams(0.5, 1.0, 0.002), 0.09), want, abs(want))


def test_subnormal_first_power_against_mpmath():
    # first powers from 1e-345 (underflowed to 0.0) to 1e-300 (subnormal
    # from 2.2e-308 down), against coefficients up to ~1e200
    rng = np.random.default_rng(14)
    for _ in range(40):
        k = float(rng.choice([0.002, 0.005, 0.01, 0.02]))
        ratio = rng.uniform(120.0, 300.0)
        nu = float(k * ratio)
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
        x = float(2.0 * 10.0 ** (rng.uniform(-345.0, -300.0) / (ratio + 1.0)))
        want, _ = _k_struve_reference(nu, c, k, x)
        params = KStruveParams(nu, c, k)
        _check_large_order(k_struve(params, x), want, abs(want))
        # the grid twin routes the same nodes, next to nodes that sum directly
        xs = np.array([x, 1.01 * x, 4.0 * x, 8.0 * x])
        assert np.array_equal(_k_struve_grid(params, xs), _scalar_k_struve(params, xs)), (nu, c, k, x)


# ---------------------------------------------------------------- the lane kernel at one lane


def _line_runs(func, marker, call):
    """(``_outcome(call)``, runs of the line of ``func`` that holds ``marker``): a scalar loop's term count."""
    import inspect

    code = func.__code__
    source = inspect.getsource(func).splitlines()
    target = code.co_firstlineno + next(i for i, line in enumerate(source) if marker in line)
    runs = 0

    def local(frame, event, arg):
        nonlocal runs
        runs += event == "line" and frame.f_lineno == target
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return _outcome(call), runs
    finally:
        sys.settrace(None)


def _kernel_runs(monkeypatch, module, call):
    """(what ``call()`` returns, or its error as in ``_outcome``; the ``terms_used`` arrays of the
    kernel calls made through ``module``)."""
    from frac_kinetics import special

    real, used = special._lane_sums, []

    def recording(step, state, n_terms, rel_tol):
        out = real(step, state, n_terms, rel_tol)
        used.append(out[1].tolist())
        return out

    with monkeypatch.context() as m:
        m.setattr(module, "_lane_sums", recording)
        try:
            return call(), used
        except Exception as e:  # noqa: BLE001 - any error type must match
            return (type(e), str(e)), used


def test_ml_pairs_at_one_lane_are_the_scalar_loop(monkeypatch):
    # value by repr, the same overflow, and the kernel's term count is the
    # number of terms the scalar loop sums
    from frac_kinetics import special

    cases = [(a, b, z, ctl) for a, b, z in _ml_draws(29)[::3] for ctl in (SeriesControl(), SeriesControl(90, 1e-10))]
    cases += [(0.3, 1.0, 50.0, SeriesControl(max_terms=200)), (0.1, 1.0, -49.86230610603668, SeriesControl(182))]
    overflows = 0
    for alpha, beta, z, ctl in cases:
        inv_g = np.array([special._ml_inv_gammas(alpha, beta, ctl.max_terms)])
        want, terms = _line_runs(special._ml_eval, "# sum += t", lambda: special._ml_eval(alpha, beta, z, ctl))
        (values, overflow), used = _kernel_runs(
            monkeypatch, special,
            lambda: special._ml_eval_pairs(alpha, inv_g, np.array([beta]), np.array([0]), np.array([z]), ctl),
        )
        if isinstance(want, tuple):
            overflows += 1
            assert want[0] is OverflowError and overflow.tolist() == [True], (alpha, beta, z)
            continue
        assert (repr(float(values[0])), overflow.tolist(), used) == (want, [False], [[terms]]), (alpha, beta, z)
    assert overflows == 2


def test_k_struve_grid_at_one_lane_is_the_scalar_loop(monkeypatch):
    from frac_kinetics import special

    rng = np.random.default_rng(31)
    cases = [(float(rng.uniform(-1.4, 3.0)) * k, float(rng.uniform(-3.0, 3.0)), k, float(rng.uniform(0.0, 20.0)))
             for k in (0.5, 1.0, 2.0) for _ in range(30)]
    cases += [(3.1, 1.0, 0.01, 20.0), (3.0, 1.0, 0.01, 20.0), (0.5, 1.0, 0.0005, 0.01), (0.5, 1.0, 0.0005, 2.0),
              (1.0, 1.0, 0.005, 1e-3), (200.0, 1.0, 1.0, 20.0)]
    for nu, c, k, x in cases:
        p = KStruveParams(nu, c, k)
        want, terms = _line_runs(special._power_series, "sum_hi, sum_lo = dd_add(", lambda: k_struve(p, x))
        got, used = _kernel_runs(monkeypatch, special, lambda: _k_struve_grid(p, np.array([x])))
        assert (got if isinstance(got, tuple) else repr(float(got[0]))) == want, (nu, c, k, x)
        if not isinstance(want, tuple) and terms:  # a tiny first power skips the scalar loop
            assert used == [[terms]], (nu, c, k, x)
