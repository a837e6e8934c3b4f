import gc
import math

import numpy as np
import pytest

from frac_kinetics import (
    DomainError,
    Forcing,
    KineticProblem,
    KStruveParams,
    QuadratureGrid,
    RangeError,
    ResidualReport,
    SeriesControl,
    SolutionTable,
    Variant,
    k_struve,
    laplace_image,
    laplace_numeric,
    mittag_leffler,
    residual,
    rl_integral,
    volterra_solve,
)
from frac_kinetics import oracle

INV_GAMMA_2P5 = 0.75225277806367504926  # 1/Gamma(5/2), 45-digit reference
LAPLACE_H1_AT_3 = 0.014442894009948271266  # int_0^inf exp(-3t) H_1(t) dt


def _problem(variant=Variant.THM1, n0=1.0, upsilon=1.0, d=1.0, l=1.0, c=1.0, k=1.0, a=None):
    return KineticProblem(
        n0=n0, upsilon=upsilon, d=d, a=a, struve=KStruveParams(l, c, k), variant=variant
    )


def _struve_values(grid):
    return np.array([k_struve(KStruveParams(1.0, 1.0, 1.0), t) for t in grid.nodes])


# ---------------------------------------------------------------- containers


def test_grid_validation():
    g = QuadratureGrid(n=8, t_max=2.0)
    assert g.h == 0.25
    assert np.array_equal(g.nodes, np.linspace(0.0, 2.0, 9))
    with pytest.raises(DomainError):
        QuadratureGrid(n=4, t_max=1.0)
    with pytest.raises(DomainError):
        QuadratureGrid(n=16, t_max=0.0)
    with pytest.raises(DomainError):
        QuadratureGrid(n=16, t_max=float("inf"))


def test_residual_report_validation():
    ResidualReport(max_defect=1.0, mean_defect=0.5, argmax_t=0.1)
    with pytest.raises(DomainError):
        ResidualReport(max_defect=-1.0, mean_defect=0.0, argmax_t=0.0)
    with pytest.raises(DomainError):
        ResidualReport(max_defect=0.5, mean_defect=1.0, argmax_t=0.0)


# ---------------------------------------------------------------- quadrature


def test_rl_rejects_bad_inputs():
    g = QuadratureGrid(n=16, t_max=1.0)
    with pytest.raises(DomainError, match="upsilon"):
        rl_integral(lambda t: t, 0.0, g)
    with pytest.raises(DomainError, match="node values"):
        rl_integral(np.zeros(5), 0.5, g)


def test_rl_zero_function():
    g = QuadratureGrid(n=32, t_max=1.0)
    assert np.all(rl_integral(lambda t: 0.0, 0.7, g) == 0.0)


def test_rl_exact_for_linear():
    # the product-trapezoidal rule integrates hat interpolants exactly, so a
    # linear integrand carries no discretization error at all
    g = QuadratureGrid(n=64, t_max=1.0)
    got = rl_integral(lambda t: t, 0.5, g)
    want = INV_GAMMA_2P5 * g.nodes**1.5
    assert np.max(np.abs(got - want)) <= 1e-13
    assert got[-1] == pytest.approx(INV_GAMMA_2P5, rel=1e-14)


def test_rl_order_one_constant():
    g = QuadratureGrid(n=32, t_max=2.0)
    got = rl_integral(lambda t: 1.0, 1.0, g)
    assert got[-1] == pytest.approx(2.0, rel=1e-14)


def _power_err(mu, ups, n):
    g = QuadratureGrid(n=n, t_max=1.0)
    got = rl_integral(lambda t: t**mu, ups, g)
    want = math.gamma(mu + 1.0) / math.gamma(mu + 1.0 + ups) * g.nodes ** (mu + ups)
    return float(np.max(np.abs(got - want)))


@pytest.mark.parametrize("ups", [0.5, 1.5])
def test_power_rule_second_order_for_smooth(ups):
    errs = [_power_err(2.0, ups, n) for n in (256, 512, 1024)]
    for a, b in zip(errs, errs[1:]):
        assert math.log2(a / b) >= 1.8


@pytest.mark.parametrize("ups,lo,hi", [(0.5, 0.85, 1.15), (1.5, 1.35, 1.65)])
def test_power_rule_reduced_order_for_sqrt(ups, lo, hi):
    # f = sqrt(s) has a singular second derivative at the origin; the origin
    # cell contributes O(h**(ups + 1/2)) and the smooth remainder O(h**1.5),
    # so the observed order is min(2, ups + 1/2, 1.5) rather than 2
    errs = [_power_err(0.5, ups, n) for n in (256, 512, 1024)]
    for a, b in zip(errs, errs[1:]):
        assert lo <= math.log2(a / b) <= hi


def _rl_reference(vals, ups, g):
    """The quadrature on the same node values and weights, each sum exact (40 digits)."""
    import mpmath as mp

    c, a0, dker = oracle._weight_parts(g.n, ups)
    cu = c * g.h**ups
    with mp.workdps(40):
        v = [mp.mpf(x) for x in vals.tolist()]
        d = [mp.mpf(x) for x in dker.tolist()]
        out = [mp.mpf(0)]
        for i in range(1, g.n + 1):
            interior = mp.fdot(d[i - 2 :: -1], v[1:i]) if i > 1 else 0
            out.append(mp.mpf(cu) * (mp.mpf(float(a0[i - 1])) * v[0] + v[i] + interior))
    return out


@pytest.mark.parametrize("n,ups", [(511, 0.1), (512, 0.5), (513, 1.5), (1025, 2.5)])
def test_rl_integral_against_exact_sums_on_an_origin_spike(n, ups):
    # f(0) = 1e6 carries the origin weight a0; the interior sums skip vals[0]
    # instead of adding its lag-i product and subtracting it again, which
    # cost 13-22 u here.  The sizes straddle one and two row blocks.
    import mpmath as mp

    g = QuadratureGrid(n=n, t_max=1.0)
    vals = np.cos(3.0 * g.nodes)
    vals[0] = 1e6
    got = rl_integral(vals, ups, g)
    want = _rl_reference(vals, ups, g)
    assert got[0] == 0.0
    worst = max(abs(mp.mpf(float(x)) - w) / abs(w) for x, w in zip(got[1:], want[1:]))
    assert worst <= 8 * 2.0**-53, float(worst)


def test_semigroup_property():
    # I^a (I^b f) == I^(a+b) f up to quadrature error; tabulated inner
    # integrals are fed straight back in as node values
    for n in (256, 512):
        g = QuadratureGrid(n=n, t_max=1.0)
        fv = _struve_values(g)
        worst = 0.0
        for a in (0.3, 0.5, 1.0):
            for b in (0.3, 0.5, 1.0):
                two = rl_integral(rl_integral(fv, b, g), a, g)
                one = rl_integral(fv, a + b, g)
                worst = max(worst, float(np.max(np.abs(two - one))))
        assert worst <= 5e-4 * g.h


# ---------------------------------------------------------------- volterra


def test_volterra_zero_rate_returns_forcing():
    p = _problem(d=0.0, upsilon=0.7)
    g = QuadratureGrid(n=64, t_max=1.0)
    num = volterra_solve(p, Forcing.STRUVE_T, g)
    want = _struve_values(g)
    assert np.array_equal(num.n, want)


def test_volterra_constant_forcing_first_order_kinetics():
    # upsilon = 1, F = 1: the marching result must track n0*exp(-d t) at
    # second order
    errs = []
    for n in (256, 512):
        g = QuadratureGrid(n=n, t_max=1.0)
        p = _problem(n0=2.0, d=1.0)
        num = volterra_solve(p, Forcing.CONSTANT, g)
        err = float(np.max(np.abs(num.n - 2.0 * np.exp(-g.nodes))))
        assert err <= 0.1 * g.h**2
        errs.append(err)
    assert math.log2(errs[0] / errs[1]) >= 1.9


def test_volterra_constant_forcing_fractional():
    # upsilon = 1/2: truth is E_{1/2}(-sqrt(t)); the sqrt-type solution
    # derivative limits the marching to first order, observed err ~ 0.15 h
    errs = []
    for n in (256, 512):
        g = QuadratureGrid(n=n, t_max=1.0)
        p = _problem(upsilon=0.5)
        num = volterra_solve(p, Forcing.CONSTANT, g)
        truth = np.array([mittag_leffler(0.5, -math.sqrt(t)) for t in g.nodes])
        err = float(np.max(np.abs(num.n - truth)))
        assert err <= 0.3 * g.h
        errs.append(err)
    assert math.log2(errs[0] / errs[1]) >= 0.9


@pytest.mark.parametrize("ups", [0.5, 1.0])
def test_volterra_richardson_contraction(ups):
    sols = {}
    for n in (256, 512, 1024):
        g = QuadratureGrid(n=n, t_max=1.0)
        sols[n] = volterra_solve(_problem(upsilon=ups), Forcing.STRUVE_T, g).n
    d1 = float(np.max(np.abs(sols[256] - sols[512][::2])))
    d2 = float(np.max(np.abs(sols[512] - sols[1024][::2])))
    assert 3.0 <= d1 / d2 <= 5.0


def _node_by_node_march(p, forcing, grid):
    """Reference: the march one node at a time, each history sum one np.dot."""
    F = oracle._forcing_values(p, oracle._scale(p, forcing), grid, None)
    c, a0, dker = oracle._weight_parts(grid.n, p.upsilon)
    cu = c * grid.h**p.upsilon
    lam = p.rate**p.upsilon
    denom = 1.0 + lam * cu
    N = np.empty(grid.n + 1)
    N[0] = p.n0 * F[0]
    for i in range(1, grid.n + 1):
        conv = a0[i - 1] * N[0]
        if i >= 2:
            conv += np.dot(dker[: i - 1], N[i - 1 : 0 : -1])
        N[i] = (p.n0 * F[i] - lam * cu * conv) / denom
    return SolutionTable(grid.nodes, N)


def _relative_defect(p, sol, grid):
    scale = float(np.max(np.abs(sol.n)))
    defect = residual(p, sol, grid).max_defect
    return defect / scale if scale else defect


@pytest.mark.parametrize("variant,forcing", [(Variant.THM1, Forcing.STRUVE_T), (Variant.THM2, Forcing.STRUVE_DT)])
@pytest.mark.parametrize("ups", [0.1, 0.5, 1.0, 2.0, 2.5])
@pytest.mark.parametrize("d", [0.0, 1.0, 100.0, 300.0])
def test_halving_march_defect_within_twice_the_node_by_node_march(variant, forcing, ups, d):
    # 16-node leaves: sizes below, at and just past one leaf, and grids that
    # are not powers of two.  Both defects are rounding-level; on the coarse
    # stiff grids (n <= 33, d >= 100) two summation orders can differ by a
    # few times either way, so this bound is tight there.
    p = _problem(variant=variant, upsilon=ups, d=d, l=0.5, c=1.2, k=2.0)
    for n in (8, 15, 16, 17, 33, 1000, 4096):
        g = QuadratureGrid(n=n, t_max=1.0)
        try:
            want = _node_by_node_march(p, forcing, g)
        except (DomainError, OverflowError) as exc:
            with pytest.raises(type(exc)) as got:
                volterra_solve(p, forcing, g)
            assert str(got.value) == str(exc)
            continue
        got = volterra_solve(p, forcing, g)
        assert _relative_defect(p, got, g) <= max(2.0 * _relative_defect(p, want, g), 64 * 2.0**-52)


def _loop_leaf_march(N, hist, dker, rhs, lam_cu, denom, lo, hi):
    """Reference: the halving march with each leaf solved by a loop over its nodes."""
    if hi - lo <= oracle._MARCH_LEAF:
        d = dker[: hi - lo - 1].tolist()
        vals = []
        for i, (acc, b) in enumerate(zip(hist[lo:hi].tolist(), rhs[lo:hi].tolist())):
            for j, v in enumerate(vals):
                acc += d[i - j - 1] * v
            vals.append((b - lam_cu * acc) / denom)
        N[lo:hi] = vals
        return
    mid = (lo + hi) // 2
    _loop_leaf_march(N, hist, dker, rhs, lam_cu, denom, lo, mid)
    hist[mid:hi] += np.convolve(N[lo:mid], dker[: hi - lo - 1], "valid")
    _loop_leaf_march(N, hist, dker, rhs, lam_cu, denom, mid, hi)


@pytest.mark.parametrize("n", [8, 9, 15, 16, 17, 31, 33, 100, 1000, 4096, 5000])
@pytest.mark.parametrize("ups,lam_cu", [(0.1, 400.0), (0.5, 1.0), (1.0, 1e-3), (2.5, 37.0)])
def test_straight_line_leaves_are_the_node_loop_bit_for_bit(monkeypatch, n, ups, lam_cu):
    # random right-hand sides over 1e-5 .. 1e5 of either sign; the rate is
    # chosen so that rate**u * c_u * h**u comes out near lam_cu
    rng = np.random.default_rng(n)
    F = rng.choice([-1.0, 1.0], n + 1) * 10.0 ** rng.uniform(-5.0, 5.0, n + 1)
    monkeypatch.setattr(oracle, "_forcing_values", lambda *args: F)
    g = QuadratureGrid(n=n, t_max=1.0)
    p = _problem(upsilon=ups, d=(lam_cu * math.gamma(ups + 2.0)) ** (1.0 / ups) / g.h)
    c, a0, dker = oracle._weight_parts(n, p.upsilon)
    cu = c * g.h**p.upsilon
    lam = p.rate**p.upsilon
    assert lam * cu == pytest.approx(lam_cu, rel=1e-9)
    want = np.empty(n + 1)
    want[0] = p.n0 * F[0]
    hist = np.empty(n + 1)
    hist[1:] = a0 * want[0]
    _loop_leaf_march(want, hist, dker, p.n0 * F, lam * cu, 1.0 + lam * cu, 1, n + 1)
    got = volterra_solve(p, Forcing.CONSTANT, g).n
    assert got.tobytes() == want.tobytes()


def test_halving_march_leaves_no_garbage_cycles():
    p = _problem(upsilon=0.5, k=2.0)
    g = QuadratureGrid(n=1000, t_max=1.0)
    gc.collect()
    gc.disable()
    try:
        volterra_solve(p, Forcing.STRUVE_T, g)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------- forcing table


@pytest.mark.parametrize("ups,l,c,k,d", [(0.7, 1.0, 1.0, 1.0, 1.0), (0.5, 0.3, 0.7, 2.0, 3.0), (2.0, 2.0, 1.0, 3.0, 1.5)])
def test_forcing_table_is_the_per_node_expression(ups, l, c, k, d):
    g = QuadratureGrid(n=4096, t_max=1.0)
    p = _problem(variant=Variant.THM2, upsilon=ups, d=d, l=l, c=c, k=k)
    want_t = np.array([k_struve(p.struve, t) for t in g.nodes])
    dpow = p.d**p.upsilon
    want_dt = np.array([k_struve(p.struve, dpow * t**p.upsilon) for t in g.nodes])
    assert np.array_equal(oracle._forcing_values(p, Forcing.STRUVE_T, g, None), want_t)
    assert np.array_equal(oracle._forcing_values(p, Forcing.STRUVE_DT, g, None), want_dt)


def test_forcing_power_overflow_raises_as_the_per_node_product():
    # t**sigma leaves the double range at t = 1.25e9 (lam = 1e-20**40 is 0.0):
    # the table raises the OverflowError of that node's Python float power
    p = _problem(variant=Variant.THM2, upsilon=40.0, d=1e-20)
    g = QuadratureGrid(n=8, t_max=1e10)
    with pytest.raises(OverflowError) as want:
        float(g.nodes[1]) ** 40.0
    with pytest.raises(OverflowError) as got:
        oracle._forcing_values(p, Forcing.STRUVE_DT, g, None)
    assert str(got.value) == str(want.value)


def test_forcing_table_is_read_only():
    g = QuadratureGrid(n=64, t_max=1.0)
    for forcing in Forcing:
        table = oracle._forcing_values(_problem(), forcing, g, None)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_solve_then_check_tabulates_the_forcing_once(monkeypatch):
    calls = []
    kernel = oracle._k_struve_grid

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(oracle, "_k_struve_grid", counting)
    oracle._forcing_values.cache_clear()
    p = _problem(upsilon=0.5, k=2.0)
    g = QuadratureGrid(n=128, t_max=1.0)
    residual(p, volterra_solve(p, Forcing.STRUVE_T, g), g)
    assert len(calls) == 1
    # another grid, then another problem, each get a fresh table
    other = QuadratureGrid(n=256, t_max=1.0)
    residual(p, volterra_solve(p, Forcing.STRUVE_T, other), other)
    assert len(calls) == 2
    q = _problem(upsilon=0.5, k=3.0)
    residual(q, volterra_solve(q, Forcing.STRUVE_T, other), other)
    assert len(calls) == 3
    assert not np.array_equal(
        oracle._forcing_values(q, Forcing.STRUVE_T, other, None),
        oracle._forcing_values(p, Forcing.STRUVE_T, other, None),
    )


# ---------------------------------------------------------------- residual


def test_residual_of_marching_solution_is_tiny():
    # the marching step solves the discrete equation exactly, so feeding its
    # output back through the same quadrature leaves only rounding
    p = _problem(upsilon=0.5, k=2.0)
    g = QuadratureGrid(n=128, t_max=1.0)
    num = volterra_solve(p, Forcing.STRUVE_T, g)
    rep = residual(p, num, g)
    assert rep.max_defect <= 1e-12
    assert rep.mean_defect <= rep.max_defect


def test_residual_of_zero_candidate_is_forcing():
    p = _problem(n0=2.0)
    g = QuadratureGrid(n=64, t_max=1.0)
    zero = SolutionTable(g.nodes, np.zeros(g.n + 1))
    rep = residual(p, zero, g)
    fmax = float(np.max(_struve_values(g)))
    assert rep.max_defect == pytest.approx(2.0 * fmax, rel=1e-14)
    assert rep.argmax_t == g.t_max  # forcing is increasing on [0, 1]


def test_residual_grid_mismatch():
    p = _problem()
    g = QuadratureGrid(n=64, t_max=1.0)
    other = QuadratureGrid(n=32, t_max=1.0)
    tab = volterra_solve(p, Forcing.STRUVE_T, other)
    with pytest.raises(DomainError, match="do not match"):
        residual(p, tab, g)


# ---------------------------------------------------------------- laplace


def test_laplace_image_matches_reference_at_zero_rate():
    # d = 0 reduces the image to the transform of H_1 itself
    p = _problem(d=0.0)
    assert laplace_image(p, 3.0) == pytest.approx(LAPLACE_H1_AT_3, rel=1e-12)


def test_laplace_image_decreases_in_s():
    p = _problem()
    a, b = laplace_image(p, 1e3), laplace_image(p, 1e4)
    assert a > b > 0.0


def test_laplace_image_rows_past_the_double_range():
    # l = c = k = 1: row 84 of the forcing series is subnormal and Gamma(e_r + 1)
    # overflows from row 85, so those image coefficients must keep their binary
    # exponents apart; at s = 1.202 the sum stops at row 84, at s = 1.2 one row
    # later.  l = 200: Gamma(e_r + 1) overflows from row 0
    import mpmath as mp

    def want(l, s):
        with mp.workdps(30):
            ms = mp.mpf(s)
            return sum(
                (-1) ** r * mp.gamma(2 * r + l + 2) / (mp.gamma(r + l + 1.5) * mp.gamma(r + 1.5))
                * (2 * ms) ** -(2 * r + l + 1) / ms for r in range(400)
            ) / (1 + 1 / ms)

    for l, s in ((1.0, 1.2), (1.0, 1.202), (200.0, 10.0)):
        got = laplace_image(_problem(l=l), s, SeriesControl(max_terms=90))
        assert abs(got - want(l, s)) <= 1e-12 * abs(want(l, s)), (l, s)
    p = _problem()
    short, long = (laplace_image(p, 1.202, SeriesControl(max_terms=n)) for n in (85, 90))
    assert short == long


def test_laplace_image_domain():
    p = _problem(d=2.0)
    with pytest.raises(RangeError, match="s > d"):
        laplace_image(p, 1.5)
    with pytest.raises(DomainError, match="s must be"):
        laplace_image(p, -1.0)
    with pytest.raises(DomainError, match="requires variant THM1"):
        laplace_image(_problem(variant=Variant.THM2), 3.0)


def test_laplace_image_refuses_a_series_that_does_not_converge_or_stop():
    # the image series' term ratio tends to -c / (k s**2): at k = 0.2, c = d = 1
    # it diverges at s = 1.5 (a 50-term cut gave -1.15e18), and at s = 2.3 and 3
    # converges too slowly to stop within 50 terms (cuts 0.2117 and 3.2e-13 off)
    p = _problem(k=0.2)
    with pytest.raises(RangeError, match=r"s\*\*2 > \|c\|/k = 5\.0"):
        laplace_image(p, 1.5, SeriesControl(max_terms=2000))
    for s in (2.3, 3.0):
        with pytest.raises(RangeError, match="does not stop within max_terms = 50 terms"):
            laplace_image(p, s)


def test_laplace_image_of_a_slow_series_against_mpmath():
    import mpmath as mp

    def want(s, k=0.2):  # the image series of l = c = d = n0 = upsilon = 1, in 40 digits
        with mp.workdps(40):
            s, k, e0 = mp.mpf(s), mp.mpf(k), 1 / mp.mpf(k) + 1
            total = 0
            for r in range(2500):
                a_r = (-1) ** r / (k ** (e0 - mp.mpf(0.5) + r) * mp.gamma(e0 + mp.mpf(0.5) + r) * mp.gamma(r + 1.5))
                total += a_r * mp.gamma(e0 + 2 * r + 1) / (2 * s) ** (e0 + 2 * r) / s
            return total / (1 + 1 / s)

    for s, n in ((2.3, 2000), (3.0, 200)):
        got, ref = laplace_image(_problem(k=0.2), s, SeriesControl(max_terms=n)), want(s)
        assert abs(got - ref) <= 1e-13 * abs(ref), s


def test_laplace_numeric_validation():
    g = QuadratureGrid(n=17, t_max=1.0)
    with pytest.raises(DomainError, match="even"):
        laplace_numeric(lambda t: 1.0, 1.0, g)
    with pytest.raises(DomainError, match="s must be"):
        laplace_numeric(lambda t: 1.0, 0.0, QuadratureGrid(n=16, t_max=1.0))


def test_laplace_numeric_exponential():
    # L[exp(-t)](s) = 1/(s+1); the truncation tail bound must cover the cut
    g = QuadratureGrid(n=2048, t_max=30.0)
    val, tail = laplace_numeric(lambda t: math.exp(-t), 2.0, g)
    assert tail <= 1e-25
    assert val == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_transform_of_rl_integral_divides_by_s_power():
    # L[I^ups f](s) = s**-ups * L[f](s); the discrepancy is dominated by the
    # O(h^2) quadrature error of the tabulated inner integral (measured worst
    # 1.8e-5 on this grid)
    g = QuadratureGrid(n=8192, t_max=12.0)
    fvals = _struve_values(g)
    for ups in (0.5, 1.0):
        integ = rl_integral(fvals, ups, g)
        for s in (3.0, 5.0, 10.0):
            lhs, tail_l = laplace_numeric(integ, s, g)
            rhs_f, tail_r = laplace_numeric(fvals, s, g)
            rhs = s ** (-ups) * rhs_f
            assert abs(lhs - rhs) <= 1e-4 * abs(rhs) + tail_l + tail_r
