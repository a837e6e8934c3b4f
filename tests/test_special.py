import itertools
import math
import re
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frac_kinetics import (
    DomainError,
    KStruveParams,
    ML_SERIES_CAP,
    PoleError,
    QuadratureGrid,
    RangeError,
    SeriesControl,
    STRUVE_SERIES_CAP,
    k_struve,
    mittag_leffler,
    mittag_leffler2,
    struve_h,
)
from frac_kinetics.kgamma import k_gamma
from frac_kinetics.special import _k_struve_grid, _powers

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


@pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 2.0, 3.0, 5.0])
def test_struve_h_at_negative_x_is_the_parity_image(p):
    # H_p(-x) = (-1)**(p + 1) H_p(x) for integer p, as the same double, on
    # both signs of the smallest subnormal too, where H_p rounds to a signed
    # zero; x = -0.0 is x = 0, which gives 0.0 (2/pi at p = -1) for either sign
    xs = np.linspace(-20.0, 20.0, 160).tolist() + [5e-324, -5e-324, 1e-300, -1e-300]
    for x in xs:
        assert repr(struve_h(p, -x)) == repr((-1.0) ** (p + 1) * struve_h(p, x)), x
    assert repr(struve_h(p, -0.0)) == repr(struve_h(p, 0.0)) == repr(2.0 / math.pi if p == -1.0 else 0.0)


def test_struve_h_errors_name_the_x_passed():
    # struve_h evaluates H_p(-x) at |x|, but no message may name a number the
    # caller did not pass
    for x in (25.0, -25.0):
        with pytest.raises(RangeError, match=r"^\|x\| = 25\.0 exceeds the series cap 20\.0$"):
            struve_h(0.0, x)
    with pytest.raises(RangeError, match=r"^\|x\| = 25\.0 exceeds the series cap 20\.0$"):
        k_struve(KStruveParams(1.0, 1.0, 2.0), 25.0)
    with pytest.raises(DomainError, match=r"^x must be finite, got -inf$"):
        struve_h(1.0, -math.inf)
    with pytest.raises(DomainError, match=r"^x must be >= 0, got -1\.0$"):
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
    # alternating regime (c > 0) with rel_tol disabled, so that max_terms is
    # the actual cut: a sum cut there returns only if its tail bound is within
    # rel_tol of the sum, so each budget raises, naming the bound, rather than
    # return a partial sum (which moved by up to the first omitted term)
    p = KStruveParams(1.0, 1.0, 1.0)
    x, m = 3.0, 6
    for n in (m, 2 * m):
        with pytest.raises(RangeError, match=rf"^Struve series cut at max_terms = {n}: the tail bound "):
            k_struve(p, x, SeriesControl(max_terms=n, rel_tol=1e-300))


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


def _assert_grid_is_scalar(p, xs, ctl=None):
    """The grid gives the scalar path's doubles node for node, or, where a node
    raises, the error (type and message) of the first such node."""
    want = [_outcome(k_struve, p, float(x), ctl) for x in xs]
    first = next((w for w in want if isinstance(w, tuple)), None)
    if first is None:
        assert np.array_equal(_k_struve_grid(p, np.asarray(xs), ctl), _scalar_k_struve(p, xs, ctl))
        return first
    with pytest.raises(first[0]) as grid:
        _k_struve_grid(p, np.asarray(xs), ctl)
    assert str(grid.value) == first[1]
    return first


@pytest.mark.parametrize("n", [65, 4097])
@pytest.mark.parametrize(
    "nu,c,k", [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (0.3, 0.7, 3.0), (-0.5, -1.0, 1.0), (2.5, 3.0, 0.5)]
)
@pytest.mark.parametrize(
    "ctl",
    [None, SeriesControl(max_terms=7), SeriesControl(rel_tol=1e-6), SeriesControl(max_terms=80, rel_tol=1e-15)],
)
def test_k_struve_grid_is_the_scalar_path(n, nu, c, k, ctl):
    # node for node the same double: the powers are libm pow, as CPython's
    # float ** is (np.power differs from it in the last bit on some nodes),
    # so a tolerance would hide a change;
    # where a node's sum is cut at max_terms with its tail bound unmet (most
    # nodes past x ~ 5 at 7 terms), the grid raises that node's error
    p = KStruveParams(nu, c, k)
    wide, _ = (_assert_grid_is_scalar(p, xs, ctl) for xs in (np.linspace(0.0, STRUVE_SERIES_CAP, n),
                                                               np.linspace(0.0, 1.0, n)))
    if ctl is not None and ctl.max_terms == 7:
        assert wide[0] is RangeError


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


def _loop_powers(xs, e):
    # CPython's float ** node by node, NaN where it raises or, at a negative
    # base and a non-integer e, returns a complex number
    out = []
    for x in xs:
        try:
            v = x**e
        except ArithmeticError:
            v = math.nan
        out.append(v if isinstance(v, float) else math.nan)
    return np.array(out)


@pytest.mark.parametrize(
    "e,bad", [(0.37, None), (2.0, None), (-1.5, None), (-1.5, 0.0), (2.0, 1e300), (1.5, 1e300)]
)
def test_powers_are_float_pow_node_for_node(e, bad):
    # CPython's float ** on a 4,097-node grid, NaN where it raises
    # (0.0 ** -1.5 divides by zero, 1e300 ** 2.0 overflows)
    xs = np.linspace(0.0, 3.0, 4097).tolist()
    if e < 0.0:
        xs[0] = 0.5
    if bad is not None:
        xs[2048] = bad
    assert _powers(xs, e).tobytes() == _loop_powers(xs, e).tobytes()
    assert np.isnan(_powers(xs, e)).sum() == (bad is not None)


def test_powers_are_float_pow_at_edge_bases():
    # np.float_power runs libm pow, the pow of CPython's float **: the same
    # double at every base and exponent, and NaN where ** raises (0.0 ** -e
    # divides by zero, a power past the double range overflows; ** at an
    # infinite base or exponent never raises)
    bases = [0.0, 5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-3, 0.5, 1.0, 1.0 + 2.0**-52, 2.0, 3.0, 19.999,
             1e300, sys.float_info.max, math.inf, math.nan, *np.geomspace(1e-300, 1e300, 397).tolist()]
    for e in (0.0, -0.0, 1.0, 2.0, 0.5, 1.5, 0.37, 1.0 / 3.0, 3.0, 7.0, 171.5, 1e3, -1.0, -1.5, -2.0, -0.37,
              -171.5, math.inf, -math.inf, math.nan):
        assert [repr(v) for v in _powers(bases, e).tolist()] == [repr(v) for v in _loop_powers(bases, e).tolist()], e
    assert np.isnan(_powers([0.0], -1.5)[0]) and np.isnan(_powers([2.0, 0.0, 3.0], -2.0)[1])


def test_powers_are_float_pow_on_seeded_bases():
    # 10**5 seeded bases over the whole double range, subnormals and [0, 20]
    # (a quarter negated), at the exponents the callers form: upsilon,
    # nu/k + 1 and integers; bit for bit where ** gives a float.  np.power's
    # SIMD loops differ from ** on thousands of these bases at each exponent
    # on an AVX-512 CPU, so there this test fails for np.power
    rng = np.random.default_rng(29)
    wide = rng.integers(0, 2047, 60_000, dtype=np.uint64) << np.uint64(52) | rng.integers(0, 2**52, 60_000, dtype=np.uint64)
    subnormal = rng.integers(1, 2**52, 10_000, dtype=np.uint64)
    xs = np.concatenate([wide.view(float), subnormal.view(float), rng.uniform(0.0, 20.0, 30_000)])
    xs[rng.random(xs.size) < 0.25] *= -1.0
    xs = np.concatenate([xs, [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, sys.float_info.max]])
    for e in (0.1, 0.3, 0.75, 1.5, 0.5 / 3.0 + 1.0, 1.3 / 1.9 + 1.0, -2.5 / 2.0 + 1.0, 2.0, 3.0, -2.0):
        got, want = _powers(xs, e), _loop_powers(xs.tolist(), e)
        ok = ~np.isnan(want)
        assert np.array_equal(np.isnan(got), ~ok), e
        assert got[ok].tobytes() == want[ok].tobytes(), e


@pytest.mark.parametrize("e", [1.0, 0.37, -1.5])
def test_powers_leave_a_read_only_grid_unwritten(e):
    # the oracle passes its grid's read-only nodes; at e = -1.5 the NaN of
    # 0.0 ** -1.5 is written into the result alone
    g = QuadratureGrid(n=64, t_max=1.0)
    before = g.nodes.tobytes()
    p = _powers(g.nodes, e)
    assert not g.nodes.flags.writeable and g.nodes.tobytes() == before
    assert p.flags.writeable and not np.shares_memory(p, g.nodes)
    assert p.tobytes() == _loop_powers(g.nodes.tolist(), e).tobytes()


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
    # E_1 is exp itself at any control; the series for alpha = 1 runs at
    # beta != 1, below
    ctl = SeriesControl(max_terms=80)
    for z in np.linspace(-10.0, 10.0, 41):
        z = float(z)
        e = math.exp(z)
        assert abs(mittag_leffler(1.0, z, ctl) - e) <= 1e-12 * e


def test_exp_identity_default_control_truncation_floor():
    # no 50-term floor is left: E_1 is the closed form
    worst = max(
        abs(mittag_leffler(1.0, float(z)) - math.exp(z)) / math.exp(z)
        for z in np.linspace(-10.0, 10.0, 41)
    )
    assert worst <= 1e-9


@pytest.mark.parametrize("ctl", [SeriesControl(max_terms=80), SeriesControl()])
def test_one_division_loop_against_expm1(ctl):
    # alpha = 1 divides each term by n + beta once: E_{1,2}(z) = expm1(z) / z;
    # worst 2.4e-15 relative
    for z in np.linspace(-10.0, 10.0, 41):
        z = float(z)
        want = math.expm1(z) / z if z else 1.0
        assert abs(mittag_leffler2(1.0, 2.0, z, ctl) - want) <= 1e-13 * abs(want), z


def test_two_division_loop_against_closed_forms():
    # alpha = 2 divides each term by (2n + beta)(2n + beta + 1): E_{2,1}(-x^2) = cos x,
    # E_{2,1}(x^2) = cosh x and E_{2,2}(-x^2) = sin x / x; worst 0.8, 1.9 and 1.0 u
    u = 2.0**-53
    for x in np.linspace(0.0, 3.0, 61):
        x = float(x)
        assert abs(mittag_leffler2(2.0, 1.0, -x * x) - math.cos(x)) <= 4 * u * math.cosh(x), x
        assert abs(mittag_leffler2(2.0, 1.0, x * x) - math.cosh(x)) <= 4 * u * math.cosh(x), x
        sinc, sinhc = (math.sin(x) / x, math.sinh(x) / x) if x else (1.0, 1.0)
        assert abs(mittag_leffler2(2.0, 2.0, -x * x) - sinc) <= 4 * u * sinhc, x


def _ml_series_mp(alpha, z):
    """E_alpha(z) by its defining series at 80 digits, to 700 terms (ample for alpha >= 1/2, |z| <= 50)."""
    import mpmath as mp

    with mp.workdps(80):
        a, z = mp.mpf(alpha), mp.mpf(z)
        return mp.fsum(z**n * mp.rgamma(a * n + 1) for n in range(700))


@pytest.mark.parametrize(
    "alpha,z",
    # the 50-term series returned -2.88e9 (true 0.1107), -3.56e19 (0.0700), 2.0e-10 off,
    # 1.9e-10 off, -2.65 (2.06e-9) and 52 % low
    [(0.5, -5.0), (0.5, -8.0), (0.5, -2.0), (0.5, -1.997), (1.0, -20.0), (1.0, 50.0)],
)
def test_ml_closed_forms_mend_the_series_repros(alpha, z):
    want = _ml_series_mp(alpha, z)
    for ctl in (None, SeriesControl(max_terms=1, rel_tol=0.5)):  # a closed form reads no ctl
        assert abs(mittag_leffler(alpha, z, ctl) - want) <= 2e-15 * want, ctl


def _ml_half_max_z():
    """The largest double z at which E_{1/2}(z) returns, by bisection between 26 and 27."""
    lo, hi = 26.0, 27.0
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2.0
        try:
            mittag_leffler(0.5, mid)
            lo = mid
        except OverflowError:
            hi = mid
    return lo


def test_ml_closed_forms_against_mpmath():
    # worst 1.1e-16 (E_1) and 4.4e-16 (E_{1/2}) relative on these draws
    import mpmath as mp

    rng = np.random.default_rng(24)
    z_max = _ml_half_max_z()
    edges = [-50.0, -26.0, math.nextafter(-26.0, -27.0), -1e-300, 0.0, 1e-300, 26.0]
    with mp.workdps(40):
        for z in [*rng.uniform(-50.0, 50.0, 1500).tolist(), -50.0, 50.0, *edges]:
            want = mp.exp(z)
            assert abs(mittag_leffler(1.0, z) - want) <= 2e-15 * want, z
        for z in [*rng.uniform(-50.0, z_max, 1500).tolist(), *edges, z_max]:
            want = mp.exp(mp.mpf(z) ** 2) * mp.erfc(-mp.mpf(z))
            assert abs(mittag_leffler(0.5, z) - want) <= 2e-15 * want, z


def test_ml_half_past_the_double_range_raises():
    # exp(z**2) erfc(-z) leaves the double range between z_max and the next double
    # (exp(z**2) alone is still finite there), and it must raise, never return inf
    import mpmath as mp

    z_max = _ml_half_max_z()
    assert 26.6 < z_max < 26.7
    z_next = math.nextafter(z_max, 27.0)
    with mp.workdps(40):
        assert mp.exp(mp.mpf(z_max) ** 2) * mp.erfc(-z_max) < sys.float_info.max
        assert mp.exp(mp.mpf(z_next) ** 2) * mp.erfc(-z_next) > sys.float_info.max
    assert mittag_leffler(0.5, z_max) < math.inf
    for z in (z_next, 26.64, 27.0, 30.0, ML_SERIES_CAP):
        with pytest.raises(OverflowError, match=rf"^E_\{{1/2\}}\(z\) .* at z = {re.escape(repr(z))}$"):
            mittag_leffler(0.5, z)
        with pytest.raises(OverflowError):
            mittag_leffler2(0.5, 1.0, z)


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


def test_ml2_beta_and_z_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=rf"^beta must be finite, got {bad!r}$"):
            mittag_leffler2(0.5, bad, 1.0)
        with pytest.raises(DomainError, match=rf"^z must be finite, got {bad!r}$"):
            mittag_leffler2(0.5, 1.5, bad)


def test_ml2_pole_detection():
    # alpha*n + beta sweeps over 0 at n = 3 for (1, -3)
    with pytest.raises(PoleError):
        mittag_leffler2(1.0, -3.0, 0.5)
    # never hits an integer for (0.5, -0.25): stays valid
    assert math.isfinite(mittag_leffler2(0.5, -0.25, 0.5))
    # (0.5, -170.5) hits -170 at n = 1
    with pytest.raises(PoleError, match="at n = 1 "):
        mittag_leffler2(0.5, -170.5, 0.1)


@pytest.mark.parametrize("beta", [-180.5, -300.25, -177.25, -176.75])
def test_ml2_gamma_underflow_is_an_overflow_error(beta):
    # Gamma(beta) underflows to -0.0 at the first two non-integer arguments, so
    # 1/Gamma(beta) is beyond the double range; a bare ZeroDivisionError before.
    # At the last two it is subnormal (3.5e-323, -4.6e-322) and 1/Gamma is +-inf: a NaN before
    with pytest.raises(OverflowError, match=rf"^1/Gamma\({beta}\) at n = 0 exceeds the double range"):
        mittag_leffler2(0.5, beta, 0.1)


@pytest.mark.parametrize("alpha,beta", [(1.0, -170.5), (0.5, -170.3), (2.0, -170.5)])
def test_ml2_sum_whose_terms_overflow_is_an_overflow_error(alpha, beta):
    # E_{1,-170.5}(50) = 1.22e313 and E_{1/2,-170.3}(50) = 1.27e1668 are past the double range, and
    # E_{2,-170.5}(50) = -3.02e307 is a double whose terms are not (mpmath, 1,300 digits): all three
    # returned NaN before, with no error
    with pytest.raises(OverflowError) as over:
        mittag_leffler2(alpha, beta, 50.0)
    assert str(over.value) == (
        "Mittag-Leffler series overflows: a term or its partial sum leaves the double range "
        f"(alpha = {alpha}, beta = {beta}, z = 50.0)"
    )


def test_ml_integer_alpha_builds_one_inverse_gamma():
    # the integer-alpha loop forms its terms from their exact ratio and reads
    # only 1/Gamma(beta); a non-integer alpha reads max_terms entries
    from frac_kinetics.special import _ml_inv_gammas

    _ml_inv_gammas.cache_clear()
    mittag_leffler2(2.0, 1.5, -1.0)
    mittag_leffler2(0.5, 1.5, -1.0)
    hits = _ml_inv_gammas.cache_info().hits
    assert len(_ml_inv_gammas(2.0, 1.5, 1)) == 1
    assert len(_ml_inv_gammas(0.5, 1.5, 50)) == 50
    assert _ml_inv_gammas.cache_info().hits == hits + 2
    # for integer alpha a pole or a 1/Gamma past the double range at some n > 0
    # is one at n = 0 too, so the errors keep their messages
    for alpha in (1.0, 2.0):
        with pytest.raises(PoleError) as pole:
            mittag_leffler2(alpha, -3.0, 0.5)
        assert str(pole.value) == f"alpha*n + beta = -3.0 hits a gamma pole at n = 0 (alpha = {alpha}, beta = -3.0)"
        with pytest.raises(OverflowError) as over:
            mittag_leffler2(alpha, -177.25, 0.5)
        assert str(over.value) == (
            f"1/Gamma(-177.25) at n = 0 exceeds the double range (alpha = {alpha}, beta = -177.25)"
        )


def test_k_struve_coefficients_past_the_double_range_are_not_silent_zeros():
    # the denominator Gamma_k(rk + nu + 3k/2) * Gamma(r + 3/2) overflows to
    # inf from r = 87 although the coefficient (-3.6e-269 there) is a double;
    # the coefficients are the prefactor times the 1F2 ratios, the binary
    # exponent kept apart, so they are right there and on to r = 120, 0.0 or
    # subnormal only below the double range
    import mpmath as mp

    from frac_kinetics.special import _scaled_terms

    nu, c, k = 2.0, 3.0, 3.0
    coeffs = [math.ldexp(m, e) for m, e in itertools.islice(_scaled_terms(1.0, 1.0, 0.0, nu, c, k), 120)]
    with mp.workdps(40):
        for r in range(80, 120):
            x = mp.mpf(r * k + nu + 1.5 * k) / k
            want = (-c) ** r / (mp.mpf(k) ** (x - 1) * mp.gamma(x) * mp.gamma(r + 1.5))
            # the subnormal spacing below the double range (from r = 95)
            assert abs(coeffs[r] - want) <= 1e-13 * abs(want) + 5e-324, r
    assert coeffs[87] != 0.0
    # a prefactor C = k**(1 - A) / (Gamma(A) Gamma(3/2)) past the double range
    # (4.2e733 at k = 0.0005, nu/k = 1000; 1e-375 for H_200) keeps its digits
    from frac_kinetics.special import _k_struve_prefactor

    for nu, k in ((0.5, 0.0005), (200.0, 1.0)):
        a, m, e = _k_struve_prefactor(nu, k)
        assert not -1021 <= e <= 1024
        with mp.workdps(40):
            big_a = mp.mpf(nu) / k + mp.mpf(1.5)
            want = mp.mpf(k) ** (1 - big_a) / (mp.gamma(big_a) * mp.gamma(mp.mpf(1.5)))
            assert abs(mp.ldexp(m, e) / want - 1) <= 1e-12, (nu, k)


# ---------------------------------------------------------------- inlined double-double in _ml_eval


def _ml_eval_reference(alpha, beta, z, ctl):
    """The Mittag-Leffler loop as it reads with the ``_compensated`` helper calls: Sum2, the running sum
    and apart the running sum of its ``two_sum`` errors and of the integer loop's term low parts."""
    from frac_kinetics._compensated import dd_div_double, dd_mul_double, two_sum
    from frac_kinetics.special import _ml_inv_gammas

    inv_g = _ml_inv_gammas(alpha, beta, ctl.max_terms)
    s, err = 0.0, 0.0
    n_int = round(alpha)
    if alpha == n_int and n_int >= 1:
        t_hi, t_lo = inv_g[0], 0.0
        for n in range(ctl.max_terms):
            s, e = two_sum(s, t_hi)
            err += e + t_lo
            if abs(t_hi) <= ctl.rel_tol * abs(s):
                break
            t_hi, t_lo = dd_mul_double(t_hi, t_lo, z)
            for j in range(int(n_int)):
                t_hi, t_lo = dd_div_double(t_hi, t_lo, alpha * n + beta + j)
    else:
        zn = 1.0
        for n in range(ctl.max_terms):
            term = zn * inv_g[n]
            s, e = two_sum(s, term)
            err += e
            if abs(term) <= ctl.rel_tol * abs(s):
                break
            zn *= z
            if math.isinf(zn):
                raise OverflowError(
                    f"Mittag-Leffler series term overflow at n = {n + 1} (z = {z!r})"
                )
    if not abs(s + err) < math.inf:
        raise OverflowError("Mittag-Leffler series overflows: a term or its partial sum leaves the double range "
                            f"(alpha = {alpha!r}, beta = {beta!r}, z = {z!r})")
    return s + err


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
    ]
    # 50**n overflows from n = 182, past the bound 700 / ln 50 ~ 178.9 of the overflow test
    + [(a, 1.0, z, SeriesControl(max_terms=m)) for a in (0.3, 0.7) for z in (-50.0, 50.0) for m in (182, 183)],
)
def test_inlined_ml_eval_raises_as_the_helper_loop(alpha, beta, z, ctl):
    from frac_kinetics.special import _ml_eval

    want = _outcome(_ml_eval_reference, alpha, beta, z, ctl)
    assert isinstance(want, tuple)
    assert _outcome(_ml_eval, alpha, beta, z, ctl) == want


@pytest.mark.parametrize(
    "alpha,beta,z,ctl",
    # z**n is tested for overflow only from max_terms * ln|z| >= 700 (here 179 terms) on
    [(a, 1.0, z, SeriesControl(max_terms=m)) for a in (0.3, 0.7) for z in (-50.0, 50.0) for m in range(177, 182)]
    + [(1.5, 1.0, z, SeriesControl(max_terms=m)) for z in (-50.0, 50.0) for m in range(177, 184)]
    # and never at |z| <= 1, however many terms
    + [(a, 1.0, s * x, SeriesControl(max_terms=2000))
       for a in (0.3, 0.7, 1.5) for s in (-1.0, 1.0) for x in (1.0, math.nextafter(1.0, 2.0))],
)
def test_inlined_ml_eval_is_the_helper_loop_at_the_overflow_test_bound(alpha, beta, z, ctl):
    from frac_kinetics.special import _ml_eval

    want = _outcome(_ml_eval_reference, alpha, beta, z, ctl)
    assert isinstance(want, str)
    assert _outcome(_ml_eval, alpha, beta, z, ctl) == want


def test_ml_eval_calls_no_double_double_helper():
    # the helpers cost a call each per term; the loop writes their steps out
    from frac_kinetics.special import _ml_eval

    names = set(_ml_eval.__code__.co_names)
    assert not names & {"dd_add", "dd_mul_double", "dd_div_double", "two_sum", "two_prod"}, names


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


# ---------------------------------------------------------------- k-Struve prefactor and 1F2 ratio


def _ratio_series_reference(nu, c, k, x):
    """(sum, sum of |term|) of the program's own formula in exact arithmetic, at 40 digits.

    Its doubles (the prefactor C = m * 2**E, A = nu/k + 3/2 and the power's
    exponent nu/k + 1) times the exact (x/2)**(nu/k + 1) and the exact 1F2
    terms t_{r+1} = t_r (-c) (x/2)**2 / (k (A + r)(3/2 + r)).
    """
    import mpmath as mp

    from frac_kinetics.special import _k_struve_prefactor

    a, m, e = _k_struve_prefactor(nu, k)
    with mp.workdps(40):
        h = mp.mpf(x) / 2
        term = mp.ldexp(m, e) * h ** mp.mpf(nu / k + 1.0)
        mw, terms = -mp.mpf(c) * h * h / k, []
        for r in itertools.count():
            terms.append(term)
            ratio = mw / ((a + r) * (r + mp.mpf(1.5)))
            # past the peak the ratio falls, so the tail is below 2 |term|
            if abs(ratio) < 0.5 and abs(term) <= mp.mpf(10) ** -45 * abs(terms[0]):
                return float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))
            term *= ratio


def test_k_struve_power_recurrence_rounding_bound():
    # the power, the 1F2 ratios and the compensated sum stay within
    # 32 u * sum |term_r| of the program's formula on its own doubles (the
    # prefactor, A and the power's exponent); worst seen 17.6 u, most of it
    # the rounding of (x/2)**2, which term r takes r times
    ctl = SeriesControl(max_terms=200, rel_tol=1e-17)  # the tail is below the rounding
    u = 2.0**-53
    rng = np.random.default_rng(2071)
    for _ in range(400):
        k = float(rng.uniform(0.5, 3.0))
        nu = float(rng.uniform(-1.4, 3.0)) * k
        c = float(rng.uniform(-2.0, 2.0))
        x = float(20.0 - rng.uniform(0.0, 20.0))  # in (0, 20]
        want, mag = _ratio_series_reference(nu, c, k, x)
        got = k_struve(KStruveParams(nu, c, k), x, ctl)
        assert abs(got - want) <= 32 * u * mag, (nu, c, k, x)
    for _ in range(200):
        p = float(rng.uniform(-1.4, 4.0))
        x = float(20.0 - rng.uniform(0.0, 20.0))
        want, mag = _ratio_series_reference(p, 1.0, 1.0, x)
        assert abs(struve_h(p, x, ctl) - want) <= 32 * u * mag, (p, x)


def test_k_struve_against_mpmath_struve_functions():
    # S^k_{nu,c}(x) = k**(-a - 1/2) w**(-a - 1) H_a(w x), a = nu/k, w = sqrt(c/k)
    # (DLMF 11.2.1), the modified L_a with w = sqrt(-c/k) for c < 0, and its
    # r = 0 term alone at c = 0; mpmath's Struve functions share no code with
    # the program
    import mpmath as mp

    ctl = SeriesControl(max_terms=200, rel_tol=1e-17)
    u = 2.0**-53
    rng = np.random.default_rng(2073)
    for i in range(240):
        k = float(rng.uniform(0.5, 3.0))
        nu = float(4.0 - rng.uniform(0.0, 5.4)) * k  # nu/k in (-1.4, 4]
        c = 0.0 if i % 8 == 0 else float(rng.uniform(-2.0, 2.0))
        x = float(20.0 - rng.uniform(0.0, 20.0))  # in (0, 20]
        with mp.workdps(40):
            a = mp.mpf(nu) / k
            if c:
                w = mp.sqrt(abs(mp.mpf(c)) / k)
                want = mp.mpf(k) ** (-a - 0.5) * w ** (-a - 1) * (mp.struveh if c > 0 else mp.struvel)(a, w * x)
            else:
                want = (mp.mpf(x) / 2) ** (a + 1) / (mp.mpf(k) ** (a + 0.5) * mp.gamma(a + 1.5) * mp.gamma(1.5))
        _, mag = _k_struve_reference(nu, c, k, x)
        got = k_struve(KStruveParams(nu, c, k), x, ctl)
        assert abs(got - want) <= 32 * u * mag, (nu, c, k, x)
    # the values at (1.3, +-0.7, 1.9, 4.2)
    assert abs(k_struve(KStruveParams(1.3, 0.7, 1.9), 4.2) - 1.0023637207502269) <= 4 * u
    assert abs(k_struve(KStruveParams(1.3, -0.7, 1.9), 4.2) - 2.7116636939461745) <= 8 * u


def test_k_struve_exact_series_rounding_bound():
    # against the exact series at 50 digits, so the rounding of the prefactor,
    # the power and the term ratios shows: with c < 0 every term is positive
    # and no cancellation hides it (worst seen 18.7 u at this seed, 16.1-29.8 u
    # at seeds 1-9)
    ctl = SeriesControl(max_terms=200, rel_tol=1e-17)
    u = 2.0**-53
    rng = np.random.default_rng(2072)
    for _ in range(600):
        k = float(rng.uniform(0.5, 3.0))
        nu = float(rng.uniform(-1.4, 3.0)) * k
        c = float(rng.uniform(-2.0, -0.2))
        x = float(rng.uniform(17.0, 20.0))
        want, mag = _k_struve_reference(nu, c, k, x)
        assert abs(k_struve(KStruveParams(nu, c, k), x, ctl) - want) <= 32 * u * mag, (nu, c, k, x)


@pytest.mark.parametrize(
    "nu,xs",
    [
        (3.0, [1.0, 20.0]),  # (x/2)**(2r + 301) would leave the double range at r = 4
        (3.1, [20.0]),  # (x/2)**311 would overflow at the first power
        (3.1, [1.0, 10.0, 20.0, 5.0]),
    ],
)
def test_k_struve_power_overflow_raises_the_same_error_on_a_grid(nu, xs):
    # nu/k = 300 or 310 with a small k: the power past the double range is
    # kept apart from its binary exponent, so it no longer raises; the
    # alternating 1F2 sum at w = 1e4 (x = 20) is still far from converged
    # after 50 terms, so its tail bound is unmet and it raises RangeError
    # (the 50-term partial sums were finite and wrong)
    p = KStruveParams(nu, 1.0, 0.01)
    with pytest.raises(RangeError, match="tail bound") as scalar:
        _scalar_k_struve(p, xs)
    with pytest.raises(RangeError) as grid:
        _k_struve_grid(p, np.array(xs))
    assert type(grid.value) is type(scalar.value)
    assert str(grid.value) == str(scalar.value)


# ---------------------------------------------------------------- large orders


def _k_struve_reference(nu, c, k, x):
    """(value, sum of |term|) of the exact k-Struve series, as 40-digit mpmath numbers.

    Summed by the term ratio t_{r+1} = t_r (-c) (x/2)**2 / (k (r + a) (r + 3/2)),
    a = nu/k + 3/2, at 50 digits: one gamma per call, and the ratios' rounding
    stays below the 40th digit of the sum of |term|.
    """
    import mpmath as mp

    with mp.workdps(50):
        nu, c, k, h = mp.mpf(nu), mp.mpf(c), mp.mpf(k), mp.mpf(x) / 2
        a = nu / k + mp.mpf(1.5)  # Gamma_k(rk + nu + 3k/2) = k**(r + a - 1) Gamma(r + a)
        term = h ** (a - 0.5) / (k ** (a - 1) * mp.gamma(a) * mp.sqrt(mp.pi) / 2)
        step, total, mag = -c * h * h / k, mp.mpf(0), mp.mpf(0)
        r = 0
        while True:
            total += term
            mag += abs(term)
            ratio = step / ((r + a) * (r + 1.5))
            # past the peak the ratio falls, so the tail is below 2 |term|
            if abs(ratio) < 0.5 and abs(term) <= mp.mpf(10) ** -45 * mag:
                return total, mag
            term *= ratio
            r += 1


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


_ABOVE = (OverflowError, "double range")  # a value above the double range
_CUT = (RangeError, "tail bound")  # a sum cut at max_terms with its tail bound unmet


@pytest.mark.parametrize(
    "nu,c,k,xs,x_over,error",
    [
        # nu/k = 750 or 1000: every coefficient is above the double range
        # (4.2e733 for row 0 of the first), and the first power below it
        (0.5, 1.0, 0.0005, [0.01, 0.3, 0.37, 0.45], 1.0, _ABOVE),
        (0.5, -2.0, 0.0005, [0.01, 0.3, 0.37, 0.45], 1.0, _ABOVE),
        (0.3, 1.5, 0.0004, [0.01, 0.3, 0.37, 0.45], 0.6, _ABOVE),
        # coefficients past the double range from row 23 on, reached by the
        # sum at x = 0.1665 with a normal first power (1.0e-271)
        (0.25, -500.0, 0.001, [0.05, 0.1, 0.1665], 2.0, _ABOVE),
        # at x = 1.0 the 50-term sum stops short, at 7.33e248, of a value of
        # 3.43e322 (above the double range): its tail bound is unmet, so it
        # raises rather than return that partial sum
        (0.25, -500.0, 0.001, [0.05], 1.0, _CUT),
        # coefficients past the double range at rows 6-8; Gamma_k(rk + nu +
        # 3k/2) is subnormal from row 2 on (about 3 digits left at row 15)
        # while its product with Gamma(r + 3/2) stays normal, and a quotient
        # of those few digits put the value at x = 1.76 1.6e-7 off
        (0.11039369777854577, -0.9097258095658689, 0.0005, [1.7628480786615368], 2.0, _ABOVE),
        # coefficients past the double range from row 2 on, met by normal
        # powers (1e-261 at row 2 and x = 2e-6) in a sum of a few terms
        (38.5 * 1.35e-9, -0.8, 1.35e-9, [1e-6, 2e-6, 4e-6], 0.1, _ABOVE),
    ],
)
def test_coefficients_above_the_double_range_against_mpmath(nu, c, k, xs, x_over, error):
    # (x/2)**(2r + nu/k + 1) brings the terms back into the double range or
    # below it: a value within it, or 0.0 where mpmath gives 1.98e-1570
    params = KStruveParams(nu, c, k)
    for x in xs:
        want, mag = _k_struve_reference(nu, c, k, x)
        _check_large_order(k_struve(params, x), want, mag)
    assert np.array_equal(_k_struve_grid(params, np.array(xs)), _scalar_k_struve(params, xs))
    if (nu, c, k) == (0.5, 1.0, 0.0005):
        assert k_struve(params, 0.01) == 0.0
    # a value above the double range still raises, as does a cut sum
    with pytest.raises(error[0], match=error[1]):
        k_struve(params, x_over)
    with pytest.raises(error[0], match=error[1]):
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
    """(``_outcome(call)``, runs of the lines of ``func`` that hold ``marker``): a scalar loop's term count."""
    import inspect

    code = func.__code__
    source = inspect.getsource(func).splitlines()
    targets = {code.co_firstlineno + i for i, line in enumerate(source) if marker in line}
    runs = 0

    def local(frame, event, arg):
        nonlocal runs
        runs += event == "line" and frame.f_lineno in targets
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return _outcome(call), runs
    finally:
        sys.settrace(None)


def _kernel_sums(monkeypatch, module, call, after=None, fill=None):
    """(the ``repr`` of the first value ``call()`` returns, or its error as in ``_outcome``; the same of
    the first lane of each kernel call made through ``module``), every term from ``step(after)`` on
    replaced by ``fill``."""
    from frac_kinetics import special

    real, sums = special._lane_sums, []

    def recording(step, state, n_terms, rel_tol):
        def replaced(n, out):
            step(n, out)
            if after is not None and n >= after:
                out.fill(fill)

        out = real(replaced, state, n_terms, rel_tol)
        sums.append(repr(float(out[0])))
        return out

    with monkeypatch.context() as m:
        m.setattr(module, "_lane_sums", recording)
        try:
            return repr(float(call()[0])), sums
        except Exception as e:  # noqa: BLE001 - any error type must match
            return (type(e), str(e)), sums


def test_k_struve_grid_at_one_lane_is_the_scalar_loop(monkeypatch):
    from frac_kinetics import special

    rng = np.random.default_rng(31)
    cases = [(float(rng.uniform(-1.4, 3.0)) * k, float(rng.uniform(-3.0, 3.0)), k, float(rng.uniform(0.0, 20.0)))
             for k in (0.5, 1.0, 2.0) for _ in range(30)]
    cases += [(3.1, 1.0, 0.01, 20.0), (3.0, 1.0, 0.01, 20.0), (0.5, 1.0, 0.0005, 0.01), (0.5, 1.0, 0.0005, 2.0),
              (1.0, 1.0, 0.005, 1e-3), (200.0, 1.0, 1.0, 20.0), (0.25, -500.0, 0.001, 1.0)]
    cut = 0
    for nu, c, k, x in cases:
        p = KStruveParams(nu, c, k)
        want, terms = _line_runs(special._struve_series, "s, prev = s + t", lambda: k_struve(p, x))
        assert terms >= 1, (nu, c, k, x)
        got, sums = _kernel_sums(monkeypatch, special, lambda: _k_struve_grid(p, np.array([x])))
        assert got == want, (nu, c, k, x)
        # the lane sums the scalar loop's terms and no other: whatever the kernel
        # steps past them (the rest of its block) leaves its value as it is; a
        # lane cut at max_terms raises, by the scalar loop, its error
        for fill in (np.nan, 1e300):
            again = _kernel_sums(monkeypatch, special, lambda: _k_struve_grid(p, np.array([x])), terms, fill)
            assert again == (got, sums), (nu, c, k, x, fill)
        cut += isinstance(want, tuple) and want[0] is RangeError
    assert cut == 8  # the three named cuts and five seeded draws at k = 0.5, w up to 500


# ---------------------------------------------------------------- the lane kernel at block boundaries


class _Read(list):
    """A list that remembers the highest index read: the entry a scalar sum stopped or raised on."""

    last = -1

    def __getitem__(self, i):
        self.last = max(self.last, i)
        return list.__getitem__(self, i)


class _Listed:
    """A solution coefficient list given outright, in the protocol of ``kinetics._Series``: term i is
    d_i t**i (one chain, upsilon = 1) under the stop runs ``runs``, and the entry after the last
    coefficient cannot be built (a gamma pole)."""

    upsilon = 1.0
    reached = -1  # the highest index a sum asked for

    def __init__(self, coefs, runs):
        self.entries = _Read((d, float(i), 0, i == 0) for i, d in enumerate(coefs))
        self.entries.append((math.nan, math.nan, 0, True))
        self.runs = [*runs, 1]

    def reach(self, i):
        self.reached = max(self.reached, i)

    def error(self, i):
        if i == len(self.entries) - 1:
            return PoleError(f"entry {i} hits a gamma pole")
        return OverflowError(f"entry {i} overflows")


def _blocks(stops):
    """(first row, height) of each block of ``_lane_sums`` for lanes that stop at the rows ``stops``."""
    from frac_kinetics.special import _BLOCK_ROWS, _BLOCK_TERMS

    alive, n0, blocks = sorted(stops), 0, []
    while alive:
        h = min(_BLOCK_ROWS, max(1, _BLOCK_TERMS // len(alive)))
        blocks.append((n0, h))
        alive = [r for r in alive if r >= n0 + h]
        n0 += h
    return blocks


_POLE = 100  # the entry that cannot be built


def _block_nodes(lanes):
    """Nodes for the coefficient list of the test below: seven in eight stop by the rule, on rows
    spread over 1 to 160 (past the pole from about 100), one in eight overflows on rows 3 to 41."""
    small = 10.0 ** (-10.0 / np.linspace(1.5, 160.5, lanes - lanes // 8))
    return np.sort(np.concatenate((small, 10.0 ** (308.0 / np.linspace(2.5, 40.5, lanes // 8)))))


@pytest.mark.parametrize("lanes", [1, 101, 127, 128, 129, 4097])  # first block heights 32, 32, 32, 32, 31, 1
def test_lane_sums_at_block_boundaries_are_the_scalar_loop(lanes):
    from frac_kinetics.kinetics import _sum_series, _sum_series_grid

    # an alternating list with a spike every 7th entry (runs of small terms
    # restart there) and runs that grow from 1 to 4 small terms, as with
    # several chains; 1 lane takes each node of the 101-lane grid alone
    series = _Listed([(-1.0) ** i * (1e3 if i % 7 == 3 else 1.0) for i in range(_POLE)],
                     [min(1 + i // 4, 4) for i in range(_POLE)])
    ts = _block_nodes(max(lanes, 101))
    grids = [ts] if lanes > 1 else np.split(ts, ts.size)
    rel_tol, covered = 1e-10, set()
    for g in grids:
        want, stops = [], []
        for t in g.tolist():
            series.entries.last = -1
            want.append(_outcome(_sum_series, series, t, rel_tol))
            stops.append(series.entries.last)
        series.reached = -1
        got = _sum_series_grid(series, g, g.copy(), rel_tol)
        for t, w, v in zip(g, want, got):
            # the lane's double where the scalar loop returns; not finite where it raises
            assert (not math.isfinite(v)) if isinstance(w, tuple) else repr(float(v)) == w, (lanes, t)
        blocks = _blocks(stops)
        # every lane, also one that overflows or meets the pole, leaves at the end of its block
        assert series.reached == blocks[-1][0] + blocks[-1][1] - 1, lanes
        for stop, w in zip(stops, want):
            b, h = next((b, h) for b, h in blocks if b <= stop < b + h)
            if not isinstance(w, tuple):
                covered |= {"first row"} if stop == b else set()
                covered |= {"last row"} if stop == b + h - 1 else set()
                if b and stop - series.runs[stop] + 1 < b:
                    covered.add("run across a boundary")
            else:
                kind = "pole" if w[0] is PoleError else "overflow"
                covered |= {kind, f"{kind} mid-block"} if b < stop < b + h - 1 else {kind}
    # at 4,097 lanes the blocks are one row tall while more than 2,048 lanes
    # run, past every overflow row; the pole's block is 4 tall
    mid = {"pole mid-block"} if lanes == 4097 else {"pole mid-block", "overflow mid-block"}
    assert covered >= {"first row", "last row", "run across a boundary", "pole", "overflow", *mid}


@lru_cache(maxsize=1)
def _geometry_grids():
    """(name, call, the scalar loop's bytes) of each grid of the test below: THM1 sweep grids of
    101 nodes at upsilon = 1 (one chain) and 1.5 (three chains), and a 4,097-node forcing table,
    whose sums stop in node order, and the same nodes in reverse, whose sums do not."""
    from frac_kinetics import KineticProblem, Variant, solve

    grids, ts = [], np.linspace(0.0, 1.0, 101)
    for upsilon in (1.0, 1.5):
        p = KineticProblem(n0=1.0, upsilon=upsilon, d=1.0, struve=KStruveParams(1.0, 1.0, 1.0), variant=Variant.THM1)
        want = np.array([solve(p, t) for t in ts.tolist()]).tobytes()
        grids.append((f"sweep upsilon = {upsilon}", lambda p=p: solve(p, ts).n, want))
    p, xs = KStruveParams(0.5, 1.0, 1.0), np.linspace(0.0, 10.0, 4097)
    for name, g in (("forcing", xs), ("forcing reversed", xs[::-1].copy())):
        grids.append((name, lambda g=g: _k_struve_grid(p, g), _scalar_k_struve(p, g).tobytes()))
    return grids


@pytest.mark.parametrize("accumulate_lanes", [0, 256, 1 << 20])
@pytest.mark.parametrize("rows,terms", [(1, 1), (16, 2048), (32, 4096), (64, 8192)])
def test_grid_values_do_not_depend_on_block_geometry(monkeypatch, rows, terms, accumulate_lanes):
    # block height, block size and the running sums' method change no double;
    # both ways of dropping the stopped lanes run at every geometry
    from frac_kinetics import special

    monkeypatch.setattr(special, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(special, "_BLOCK_TERMS", terms)
    monkeypatch.setattr(special, "_ACCUMULATE_LANES", accumulate_lanes)
    for name, call, want in _geometry_grids():
        assert call().tobytes() == want, name
    (_, forcing, _), (_, reversed_, _) = _geometry_grids()[2:]
    assert _line_runs(special._lane_sums, "sel, keep = slice(", forcing)[1]
    assert _line_runs(special._lane_sums, "sel, keep = lanes, ~hit", reversed_)[1]


@pytest.mark.parametrize("lanes", [1, 101, 127, 128, 129, 4097])
def test_k_struve_grid_cut_mid_block_is_the_scalar_path(lanes):
    # max_terms = 37 ends the last block early at every block height but 1:
    # from x = 9.1 the sums take all 37 terms, which their tail bound passes up
    # to x = 9.7 and fails from 9.8 on
    from frac_kinetics import special

    p, ctl = KStruveParams(0.5, 2.0, 0.5), SeriesControl(max_terms=37)
    xs = np.linspace(0.05, 9.7, max(lanes, 101))
    for g in [xs] if lanes > 1 else np.split(xs, xs.size)[-12:]:
        assert _assert_grid_is_scalar(p, g, ctl) is None
    _, terms = _line_runs(special._struve_series, "s, prev = s + t", lambda: k_struve(p, float(xs[-1]), ctl))
    assert terms == ctl.max_terms
    assert _assert_grid_is_scalar(p, np.linspace(12.0, 0.05, lanes)[::-1], ctl)[0] is RangeError
