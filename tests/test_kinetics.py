import math
import sys
from itertools import islice

import numpy as np
import pytest

from frac_kinetics import (
    DomainError,
    Forcing,
    KineticProblem,
    KStruveParams,
    PoleError,
    QuadratureGrid,
    RangeError,
    READINGS,
    SeriesControl,
    STRUVE_SERIES_CAP,
    SolutionTable,
    Variant,
    k_struve,
    residual,
    solve,
    solve_constant,
    solve_table,
    solve_thm1,
    solve_thm2,
    solve_thm3,
    volterra_solve,
)


def _thm1(n0=1.0, upsilon=1.0, d=1.0, l=1.0, c=1.0, k=1.0):
    return KineticProblem(
        n0=n0, upsilon=upsilon, d=d, struve=KStruveParams(nu=l, c=c, k=k), variant=Variant.THM1
    )


def _thm2(n0=1.0, upsilon=1.0, d=1.0, l=1.0, c=1.0, k=1.0):
    return KineticProblem(
        n0=n0, upsilon=upsilon, d=d, struve=KStruveParams(nu=l, c=c, k=k), variant=Variant.THM2
    )


def _thm3(n0=1.0, upsilon=1.0, d=2.0, a=1.0, l=1.0, c=1.0, k=1.0):
    return KineticProblem(
        n0=n0,
        upsilon=upsilon,
        d=d,
        a=a,
        struve=KStruveParams(nu=l, c=c, k=k),
        variant=Variant.THM3,
    )


def _neumann(p, ts):
    """N(t) at each t (consistent reading) from the Neumann series of ``perfbench/make_refs.py``;
    ``ValueError`` for a t > 4, past the range of its forcing series."""
    from make_ledger import solve_reference

    s = p.struve
    case = dict(variant=p.variant.value, n0=p.n0, upsilon=p.upsilon, d=p.d, a=p.a, l=s.nu, c=s.c, k=s.k, t=ts)
    return [float(v) for v in solve_reference(case)]


# ---------------------------------------------------------------- validation


def test_readings_tuple():
    assert READINGS == ("consistent", "printed")


def test_problem_validation():
    _thm1(d=0.0)  # zero decay rate is allowed
    with pytest.raises(DomainError, match="n0"):
        _thm1(n0=0.0)
    with pytest.raises(DomainError, match="upsilon"):
        _thm1(upsilon=-1.0)
    with pytest.raises(DomainError, match="d must be >= 0"):
        _thm1(d=-0.5)
    with pytest.raises(DomainError, match="requires the distinct rate a"):
        KineticProblem(
            n0=1.0, upsilon=1.0, d=2.0, struve=KStruveParams(1.0, 1.0, 1.0), variant=Variant.THM3
        )
    with pytest.raises(DomainError, match="a != d"):
        _thm3(d=1.0, a=1.0)
    with pytest.raises(DomainError, match="only meaningful for THM3"):
        KineticProblem(
            n0=1.0,
            upsilon=1.0,
            d=1.0,
            a=2.0,
            struve=KStruveParams(1.0, 1.0, 1.0),
            variant=Variant.THM1,
        )


def test_rate_property():
    assert _thm1(d=3.0).rate == 3.0
    assert _thm2(d=3.0).rate == 3.0
    assert _thm3(d=2.0, a=0.5).rate == 0.5


def test_solver_variant_mismatch():
    with pytest.raises(DomainError, match="requires variant THM1"):
        solve_thm1(_thm2(), 0.5)
    with pytest.raises(DomainError, match="requires variant THM2"):
        solve_thm2(_thm1(), 0.5)
    with pytest.raises(DomainError, match="requires variant THM3"):
        solve_thm3(_thm1(), 0.5)


def test_reading_validation():
    with pytest.raises(DomainError, match="reading"):
        solve_thm2(_thm2(), 0.5, reading="bogus")
    # THM1 has a single term exponent, but its reading is checked all the same
    with pytest.raises(DomainError, match="reading"):
        solve(_thm1(), 0.5, reading="bogus")
    with pytest.raises(DomainError, match=r"^grid index 0 \(t = 0\.0\): reading must be"):
        solve_table(_thm1(), np.linspace(0.0, 1.0, 5), reading="bogus")


def test_negative_t_rejected():
    with pytest.raises(DomainError, match="t must be"):
        solve_thm1(_thm1(), -0.1)


def test_ml_cap_propagates():
    with pytest.raises(RangeError):
        solve_thm1(_thm1(d=4.0), 20.0)


# ---------------------------------------------------------------- t = 0


def test_zero_t_is_zero():
    assert solve_thm1(_thm1(), 0.0) == 0.0
    assert solve_thm2(_thm2(), 0.0) == 0.0
    assert solve_thm3(_thm3(), 0.0) == 0.0
    assert solve_thm1(_thm1(l=-0.5), 0.0) == 0.0


def test_zero_t_rejected_for_nonpositive_leading_exponent():
    with pytest.raises(DomainError, match="t = 0 requires"):
        solve_thm1(_thm1(l=-1.2), 0.0)


# ---------------------------------------------------------------- degenerate limits


def test_thm1_zero_rate_is_scaled_forcing():
    # d = 0 removes the loss term: N = N0 * S^k_{l,c}(t), term by term
    p = _thm1(n0=2.0, d=0.0, l=1.0, c=1.0, k=2.0, upsilon=0.5)
    for t in (0.25, 0.8, 1.4):
        want = 2.0 * k_struve(p.struve, t)
        assert solve_thm1(p, t) == pytest.approx(want, rel=1e-13)


def test_thm1_vanishing_rate_matches_forcing():
    p = _thm1(d=1e-300, l=1.0, c=1.0, k=2.0)
    want = k_struve(KStruveParams(1.0, 1.0, 2.0), 1.0)
    assert abs(solve_thm1(p, 1.0) - want) <= 1e-10


def test_constant_forcing_first_order_decay():
    p = _thm1(n0=3.0, d=1.25)
    for t in np.linspace(0.0, 2.0, 21):
        t = float(t)
        assert abs(solve_constant(p, t) - 3.0 * math.exp(-1.25 * t)) <= 1e-10


# ---------------------------------------------------------------- k = 1 corollaries


def _ml_plain(alpha, beta, z, terms=120):
    s = 0.0
    for n in range(terms):
        try:
            g = math.gamma(alpha * n + beta)
        except OverflowError:
            break
        s += z**n / g
    return s


def _thm1_k1_local(n0, d, ups, l, c, t, terms=60):
    total = 0.0
    z = -(d**ups) * t**ups
    for r in range(terms):
        e = 2.0 * r + l + 1.0
        coef = (
            n0 * (-c) ** r * math.gamma(e + 1.0)
            / (math.gamma(r + l + 1.5) * math.gamma(r + 1.5))
        )
        total += coef * (t / 2.0) ** e * _ml_plain(ups, e + 1.0, z)
    return total


def _thm2_k1_local(n0, d, ups, l, c, t, terms=60):
    total = 0.0
    z = -(d**ups) * t**ups
    for r in range(terms):
        e = 2.0 * r + l + 1.0
        ae = ups * e
        coef = (
            n0 * (-c) ** r / (math.gamma(r + l + 1.5) * math.gamma(r + 1.5))
            * (d**ups / 2.0) ** e * math.gamma(ae + 1.0)
        )
        total += coef * t**ae * _ml_plain(ups, ae + 1.0, z)
    return total


@pytest.mark.parametrize("ups,l", [(1.0, 1.0), (0.5, 0.5)])
def test_thm1_k1_against_plain_reimplementation(ups, l):
    p = _thm1(upsilon=ups, l=l)
    for t in (0.25, 0.5, 0.75, 1.0):
        want = _thm1_k1_local(1.0, 1.0, ups, l, 1.0, t)
        assert abs(solve_thm1(p, t) - want) <= 1e-13 * (1.0 + abs(want))


@pytest.mark.parametrize("ups,l", [(1.0, 0.5), (0.5, 1.0)])
def test_thm2_k1_against_plain_reimplementation(ups, l):
    p = _thm2(upsilon=ups, l=l)
    for t in (0.25, 0.5, 0.75, 1.0):
        want = _thm2_k1_local(1.0, 1.0, ups, l, 1.0, t)
        assert abs(solve_thm2(p, t) - want) <= 1e-13 * (1.0 + abs(want))


def test_readings_coincide_at_k_1():
    p = _thm2(upsilon=0.5, l=0.5)
    for t in (0.3, 0.7, 1.0):
        assert solve_thm2(p, t, reading="printed") == solve_thm2(p, t, reading="consistent")


def test_readings_differ_at_k_2():
    p = _thm2(upsilon=0.5, l=1.0, k=2.0)
    a = solve_thm2(p, 1.0, reading="consistent")
    b = solve_thm2(p, 1.0, reading="printed")
    assert abs(a - b) > 0.01 * abs(a)


# ---------------------------------------------------------------- oracle cross-checks


def test_thm1_fractional_k2_cell_against_residual():
    p = _thm1(upsilon=0.5, l=1.0, k=2.0)
    grid = QuadratureGrid(n=1024, t_max=1.0)
    sol = solve_table(p, grid.nodes)
    rep = residual(p, sol, grid)
    assert rep.max_defect <= 5e-4 * float(np.max(np.abs(sol.n)))


def test_thm2_example_cell_against_volterra():
    p = _thm2(upsilon=1.0, l=0.5, k=1.0)
    grid = QuadratureGrid(n=1024, t_max=0.8)
    num = volterra_solve(p, Forcing.STRUVE_DT, grid)
    closed = solve_thm2(p, 0.8)
    assert abs(closed - num.n[-1]) <= 5e-4 * (1.0 + abs(closed))


def test_thm3_example_cell_against_volterra():
    p = _thm3(d=2.0, a=1.0, upsilon=1.0, l=1.0, k=1.0)
    grid = QuadratureGrid(n=1024, t_max=0.5)
    num = volterra_solve(p, Forcing.STRUVE_DT, grid)
    closed = solve_thm3(p, 0.5)
    assert abs(closed - num.n[-1]) <= 5e-4 * (1.0 + abs(closed))


# ---------------------------------------------------------------- truncation


def test_default_budget_is_converged():
    p = _thm1(upsilon=0.5, l=1.0, k=2.0)
    a = solve_thm1(p, 1.0, SeriesControl(max_terms=50))
    b = solve_thm1(p, 1.0, SeriesControl(max_terms=60))
    assert a == b  # the relative cut fires well before the budget


@pytest.mark.parametrize("ups,l,k", [(1.0, 1.0, 1.0), (0.5, 1.0, 2.0)])
def test_first_omitted_outer_term_is_negligible(ups, l, k):
    # magnitude of row r = 50 of the THM1 series at its largest argument,
    # rebuilt from public pieces
    from frac_kinetics import k_gamma, mittag_leffler2

    c, t, r = 1.0, 1.0, 50
    e = 2.0 * r + l / k + 1.0
    coef = (
        (-c) ** r * math.gamma(e + 1.0)
        / (k_gamma(r * k + l + 1.5 * k, k) * math.gamma(r + 1.5))
    )
    z = -(1.0**ups) * t**ups
    term = abs(coef * (t / 2.0) ** e * mittag_leffler2(ups, e + 1.0, z))
    total = solve_thm1(_thm1(upsilon=ups, l=l, k=k), t)
    assert term <= 1e-12 * abs(total)


def _near(got: float, want) -> bool:
    """got within 1e-12 of an mpmath ``want``; below the normal double range, 0.0 or a subnormal
    within that or one subnormal step of it."""
    if abs(want) < sys.float_info.min:
        return abs(got) < sys.float_info.min and abs(got - want) <= max(1e-12 * abs(want), 2.0**-1074)
    return abs(got - want) <= 1e-12 * abs(want)


def test_rows_past_gamma_overflow_fit_in_a_double():
    # Gamma(e_r + 1) overflows from r = 85; the solver never forms it.  The
    # forcing coefficients 2**-e_r / (Gamma(r + 5/2) Gamma(r + 3/2)) pass below
    # the normal double range from r = 84 and keep their binary exponent
    # apart until the row is formed, the earlier ones unchanged
    import mpmath as mp

    from frac_kinetics.kinetics import _rows

    short = tuple(islice(_rows(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "consistent"), 85))
    long = tuple(islice(_rows(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "consistent"), 90))
    assert long[:85] == short
    for r in range(80, 90):
        want = (-1) ** r / (mp.gamma(r + 2.5) * mp.gamma(r + 1.5)) * mp.mpf(2) ** -(2 * r + 2)
        assert _near(long[r][0], want), r
    p = _thm1()
    assert solve_thm1(p, 0.5, SeriesControl(max_terms=90)) == solve_thm1(
        p, 0.5, SeriesControl(max_terms=85)
    )


_BUDGET_CASES = [  # THM1 at upsilon = 0.7: 7 chains (2 / 0.7 = 20 / 7); at 0.73, one per row
    (_thm1(), "consistent"),
    (_thm1(upsilon=0.7, d=2.0, l=0.5, c=2.0, k=0.5), "consistent"),
    (_thm1(upsilon=0.73, d=0.5, l=1.5, c=-1.0), "consistent"),
    (_thm2(upsilon=0.7, d=1.5, l=0.5, c=-1.0, k=2.0), "consistent"),
    (_thm2(upsilon=1.5, l=0.5, k=2.0), "printed"),
    (_thm3(upsilon=0.6, d=1.0, a=2.0, c=2.0), "consistent"),
    (_thm3(upsilon=2.0, d=0.5, a=1.5, l=2.0, k=0.5), "printed"),
]


@pytest.mark.parametrize(
    "p,reading", _BUDGET_CASES, ids=[f"{p.variant.value}-ups{p.upsilon}-{r}" for p, r in _BUDGET_CASES]
)
def test_a_solution_does_not_depend_on_max_terms(p, reading):
    # a solution takes the forcing rows its stop rule asks for: the term budget
    # of the Struve and Mittag-Leffler series does not cut it.  At max_terms = 3
    # THM1 with upsilon = d = l = c = k = 1 was 0.144756374 at t = 1, at 50
    # 0.144750665
    grid = np.linspace(0.0, 1.0, 9)
    want, table = solve(p, 1.0, reading=reading), solve_table(p, grid, reading=reading).n
    for n in (1, 3, 50, 400):
        ctl = SeriesControl(max_terms=n)
        assert repr(solve(p, 1.0, ctl, reading=reading)) == repr(want), n
        assert solve_table(p, grid, ctl, reading=reading).n.tobytes() == table.tobytes(), n
    assert table[-1] == want
    if reading == "consistent":
        ref = _neumann(p, [1.0])[0]
        assert abs(want - ref) <= 1e-13 * abs(ref)


def test_a_short_budget_leaves_a_solution_within_its_tolerance():
    # THM2 at max_terms = 30 and rel_tol = 1e-10: cut at 30 rows it was 1.5e-3
    # off the Neumann sum at t = 1.7009
    p = _thm2(n0=0.6961775505770265, upsilon=2.0538628192852064, d=2.351738205973436,
              l=2.637341336205773, c=1.899949145451055)
    t = 1.700878867220839
    want = _neumann(p, [t])[0]
    assert abs(solve_thm2(p, t, SeriesControl(max_terms=30, rel_tol=1e-10)) - want) <= 1e-8 * abs(want)


def test_thm2_rows_past_gamma_overflow():
    # at upsilon = 2 Gamma(upsilon e_r + 1) overflows from r = 42 within the
    # default budget; the solver forms no such factor
    p = _thm2(upsilon=2.0)
    assert solve_thm2(p, 0.5) == solve_thm2(p, 0.5, SeriesControl(max_terms=42))
    # at upsilon = 3 the rows times that factor would leave the double range
    # from r = 36; the forcing coefficients themselves do not
    p = _thm2(upsilon=3.0)
    want = _neumann(p, [0.5])[0]
    assert abs(solve_thm2(p, 0.5, SeriesControl(max_terms=90)) - want) <= 1e-14 * abs(want)


_HIGH_ORDER = [
    *(_thm2(upsilon=ups) for ups in (2.5, 3.0, 4.0)),
    *(_thm3(upsilon=ups, d=1.0, a=2.0) for ups in (2.5, 3.0, 4.0)),
    *(_thm2(upsilon=ups, d=1.5, l=0.5, c=2.0, k=2.0) for ups in (2.5, 3.0)),
    *(_thm3(upsilon=ups, d=1.5, a=0.7, l=0.5, c=2.0, k=2.0) for ups in (2.5, 3.0)),
]


@pytest.mark.parametrize("p", _HIGH_ORDER, ids=lambda p: f"{p.variant.value}-ups{p.upsilon}-d{p.d}")
def test_thm2_thm3_at_high_order_against_neumann(p):
    # upsilon >= 2.5: the rows b_r Gamma(upsilon e_r + 1) would leave the double
    # range within the default budget; the series starts from the forcing's own
    # coefficients and matches the Neumann series, scalar and grid alike
    ts = [0.25, 0.5, 1.0]
    want = _neumann(p, ts)
    scale = max(map(abs, want))
    for got in ([solve(p, t) for t in ts], solve_table(p, ts).n.tolist()):
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * scale


def test_neumann_reference_refuses_a_node_past_its_range():
    # its forcing series is cut for t <= 4 only: at t = 20 it gives
    # -0.048745517 for -0.048660487, so a node past 4 raises instead
    with pytest.raises(ValueError, match=r"^the Neumann reference holds for t <= 4\.0 only .* t = 4\.5$"):
        _neumann(_thm1(), [0.5, 4.5])


# ---------------------------------------------------------------- tables


def test_solution_table_validation():
    with pytest.raises(DomainError):
        SolutionTable(np.array([[0.0, 1.0]]), np.array([[1.0, 2.0]]))
    with pytest.raises(DomainError):
        SolutionTable(np.array([]), np.array([]))
    with pytest.raises(DomainError):
        SolutionTable(np.array([-1.0, 0.0]), np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        SolutionTable(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
    tab = SolutionTable([0.0, 1.0], [0.0, 2.0])
    assert len(tab) == 2
    assert tab.t.dtype == float


def test_solve_table_matches_scalar_solver():
    p = _thm2(upsilon=0.5, l=0.5, k=2.0)
    grid = np.linspace(0.0, 1.0, 100)
    tab = solve_table(p, grid)
    for i, t in enumerate(grid):
        assert tab.n[i] == solve_thm2(p, float(t))


def test_solve_table_grid_validation():
    p = _thm1()
    with pytest.raises(DomainError):
        solve_table(p, np.array([]))
    with pytest.raises(DomainError):
        solve_table(p, np.array([0.0, 0.5, 0.5]))
    with pytest.raises(DomainError):
        solve_table(p, np.array([[0.0, 0.5]]))


def test_solve_table_reports_failing_index():
    p = _thm1(d=1.0)
    with pytest.raises(RangeError, match="grid index 1"):
        solve_table(p, np.array([0.5, 60.0]))


# ---------------------------------------------------------------- the array pass


def _scalar_table(p, grid, ctl=None, reading="consistent"):
    """Reference: the scalar solver node by node, failing like the array pass must."""
    values = np.empty(grid.size)
    for i, ti in enumerate(grid):
        try:
            values[i] = solve(p, float(ti), ctl, reading=reading)
        except (DomainError, OverflowError) as exc:
            raise type(exc)(f"grid index {i} (t = {float(ti)!r}): {exc}") from exc
    return values


def _same_failure(p, grid, ctl=None, reading="consistent", kind=None):
    with pytest.raises((DomainError, OverflowError)) as want:
        _scalar_table(p, grid, ctl, reading)
    with pytest.raises(want.type) as got:
        solve_table(p, grid, ctl, reading=reading)
    assert got.type is want.type
    assert kind is None or got.type is kind
    assert str(got.value) == str(want.value)
    return str(got.value)


_VARIANTS = [
    (_thm1, "consistent"),
    (_thm2, "consistent"),
    (_thm2, "printed"),
    (_thm3, "consistent"),
    (_thm3, "printed"),
]
_CONTROLS = [None, SeriesControl(max_terms=90), SeriesControl(max_terms=30, rel_tol=1e-10)]


@pytest.mark.parametrize("make,reading", _VARIANTS)
@pytest.mark.parametrize("ups", [0.1, 0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("ctl", _CONTROLS)
def test_solve_table_is_the_scalar_solver_bit_for_bit(make, reading, ups, ctl):
    # integer upsilon divides the coefficient chain exactly, fractional upsilon
    # takes the ratio of two gamma values; a table of one node is the scalar
    # solver too, by repr; solve takes the grid as an array or a list, and the
    # per-variant scalar solver is solve
    p = make(upsilon=ups, l=0.7, c=1.3, k=2.0)
    grid = np.linspace(0.0, 1.5, 101)
    try:
        want = _scalar_table(p, grid, ctl, reading)
    except OverflowError:
        # THM2/THM3 rows at upsilon = 2 leave the double range before row 90
        assert (make, ups, ctl.max_terms) in {(_thm2, 2.0, 90), (_thm3, 2.0, 90)}
        _same_failure(p, grid, ctl, reading)
        return
    assert np.array_equal(solve_table(p, grid, ctl, reading=reading).n, want)
    assert np.array_equal(solve(p, grid, ctl, reading=reading).n, want)
    assert np.array_equal(solve(p, grid.tolist(), ctl, reading=reading).n, want)
    solver = {Variant.THM1: solve_thm1, Variant.THM2: solve_thm2, Variant.THM3: solve_thm3}[p.variant]
    kw = {} if p.variant is Variant.THM1 else {"reading": reading}
    for t in (1e-6, 0.3, 1.5):
        one = np.array([t])
        assert repr(float(solve_table(p, one, ctl, reading=reading).n[0])) == repr(
            float(_scalar_table(p, one, ctl, reading)[0])
        )
        assert repr(solver(p, t, ctl, **kw)) == repr(solve(p, t, ctl, reading=reading))


# nodes whose sums stop late: THM1 at t = 1.7 ... 1.9, THM2 at t = 1.85 ... 2.0,
# where its forcing argument 3.4**2 t**2 has passed the Struve cap from t = 1.32
@pytest.mark.parametrize(
    "p", [_thm1(upsilon=1.5, d=4.4, l=-0.12, c=0.85, k=2.3), _thm2(upsilon=2.0, d=3.4, l=3.0, c=0.3, k=3.25)]
)
def test_solve_table_is_the_scalar_solver_where_sums_stop_late(p):
    grid = np.linspace(0.0, 2.0, 41)
    lam, sigma = p.forcing_scale
    under = grid[[lam * t**sigma <= STRUVE_SERIES_CAP for t in grid.tolist()]]
    assert [repr(float(v)) for v in solve_table(p, under).n] == [repr(float(v)) for v in _scalar_table(p, under)]
    if under.size < grid.size:
        assert _same_failure(p, grid, kind=RangeError).startswith(f"grid index {under.size} (")


@pytest.mark.parametrize("make,reading", _VARIANTS)
@pytest.mark.parametrize("ups", [0.1, 0.5, 1.5, 2.0])
def test_solvers_evaluate_no_mittag_leffler_series(monkeypatch, make, reading, ups):
    # a solution is one list of coefficients fixed per problem: neither the
    # scalar solvers nor the table, nor building the list, reach the
    # Mittag-Leffler core or its 1/Gamma table
    from frac_kinetics import kinetics, special

    p = make(upsilon=ups, l=0.7, c=1.3, k=2.0)
    grid = np.linspace(0.0, 1.5, 31)
    want = _scalar_table(p, grid, reading=reading)

    def refuse(*args):
        raise AssertionError("a solver evaluated a Mittag-Leffler series")

    for module in (special, kinetics):
        for name in ("_ml_eval", "_ml_inv_gammas"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for cached in [f for f in vars(kinetics).values() if hasattr(f, "cache_clear")]:
        cached.cache_clear()  # so that the patched run builds its coefficients afresh
    assert np.array_equal(_scalar_table(p, grid, reading=reading), want)
    assert np.array_equal(solve_table(p, grid, reading=reading).n, want)


@pytest.mark.parametrize(
    "p,reading",
    [
        (_thm1(upsilon=0.5, l=1.0, k=2.0), "consistent"),
        (_thm2(upsilon=1.0, l=0.5, k=3.0), "printed"),
        (_thm3(upsilon=2.0, l=1.5, c=0.6, k=1.0), "consistent"),
    ],
)
def test_solve_table_bit_for_bit_on_a_long_grid(p, reading):
    grid = np.linspace(0.0, 1.0, 4097)
    assert np.array_equal(solve_table(p, grid, reading=reading).n, _scalar_table(p, grid, reading=reading))


def test_solve_table_bit_for_bit_off_the_origin():
    p = _thm1(upsilon=1.5, d=0.4, l=-0.5, c=2.0, k=1.0)
    grid = np.geomspace(1e-6, 6.0, 57)
    assert np.array_equal(solve_table(p, grid).n, _scalar_table(p, grid))
    assert np.array_equal(solve_table(p, grid[:1]).n, _scalar_table(p, grid[:1]))


def test_solve_table_range_error_at_first_node_past_the_cap():
    # z = -(2 t)**2 leaves |z| <= 50 after t = 3.54: index 71 of this grid
    p = _thm1(d=2.0, upsilon=2.0)
    msg = _same_failure(p, np.linspace(0.0, 5.0, 101))
    assert msg.startswith("grid index 71 (t = ")


@pytest.mark.parametrize(
    "p,grid,at",
    [
        # the forcing argument lam * t**sigma is t: the CLI sweep to t = 25 fails at index 81
        (_thm1(), np.linspace(0.0, 25.0, 101), 81),
        # 2**2 t**2: the cap at t = sqrt(5)
        (_thm2(upsilon=2.0, d=2.0), np.linspace(0.0, 3.0, 31), 23),
        # 25 t: at t = 1 the scalar solver returned 0.13029219193830371, 1.5e-6
        # off its Neumann sum 0.13029199481685884
        (_thm3(d=25.0, a=1.0), np.linspace(0.0, 1.0, 11), 9),
    ],
)
def test_solvers_refuse_a_forcing_argument_past_the_struve_cap(p, grid, at):
    lam, sigma = p.forcing_scale
    # the last double t with lam * t**sigma <= STRUVE_SERIES_CAP returns a value, the next raises
    t = (STRUVE_SERIES_CAP / lam) ** (1.0 / sigma)
    while lam * t**sigma > STRUVE_SERIES_CAP:
        t = math.nextafter(t, 0.0)
    while lam * math.nextafter(t, math.inf) ** sigma <= STRUVE_SERIES_CAP:
        t = math.nextafter(t, math.inf)
    pair = np.array([t, math.nextafter(t, math.inf)])
    assert math.isfinite(solve(p, t)) and solve_table(p, pair[:1]).n[0] == solve(p, t)
    with pytest.raises(RangeError, match=r"lam \* t\*\*sigma = .* exceeds the Struve series cap 20.0"):
        solve(p, pair[1])
    assert _same_failure(p, pair, kind=RangeError).startswith("grid index 1 (")
    # on a grid the table is the scalar solver up to the first node past the cap, and fails there
    assert lam * grid[at - 1] ** sigma <= STRUVE_SERIES_CAP < lam * grid[at] ** sigma
    assert np.array_equal(solve_table(p, grid[:at]).n, _scalar_table(p, grid[:at]))
    assert _same_failure(p, grid, kind=RangeError).startswith(f"grid index {at} (")


def test_solve_table_domain_error_at_the_origin():
    msg = _same_failure(_thm2(l=-1.2), np.linspace(0.0, 1.0, 11))
    assert msg.startswith("grid index 0 (t = 0.0): t = 0 requires")


def test_solve_table_row_overflow_at_the_first_positive_node():
    # d = 1e10, upsilon = 3: lam / 2 = 5e29, so forcing row r = 5 leaves the
    # double range; |z| stays under the cap up to t = 3.68e-10.  The sum at
    # t = 3e-11 stops before row 5; from t = 6e-11 on it reaches that row, and
    # under THM2 (q = -lam) an entry one factor q past row 4 overflows first
    grid = np.linspace(0.0, 3e-10, 11)
    for p, fails in ((_thm2(upsilon=3.0, d=1e10), "solution series entry 9 (t**33.0)"),
                     (_thm3(upsilon=3.0, d=1e10, a=1.0), "series row r = 5 exceeds the double range")):
        assert solve_table(p, grid[:2]).n[1] == solve(p, float(grid[1]))
        msg = _same_failure(p, grid, kind=OverflowError)
        assert msg.startswith("grid index 2 (") and fails in msg
        assert _same_failure(p, np.linspace(1.5e-10, 3e-10, 11)).startswith("grid index 0 (")


def test_solve_table_fails_like_the_scalar_row_sum():
    # a power t**x or a term overflows only for the nodes whose sum has not
    # stopped before that entry; the first two grids pass the forcing's Struve
    # cap (lam * t**sigma = 2500 and 47.3) before any overflow
    cases = [
        (_thm1(d=1e-3), np.linspace(0.0, 2e4, 9), SeriesControl(max_terms=120), "consistent", RangeError),
        (_thm2(upsilon=0.1, d=1e-17), np.array([0.0, 1.0, 5e33, 1e34]), SeriesControl(max_terms=200), "consistent",
         RangeError),
        # printed reading: row 0 has beta = -1/2, so upsilon + beta hits a gamma pole
        (_thm2(upsilon=0.5, l=-4.0, k=4.0), np.array([0.5, 1.0]), None, "printed", PoleError),
        # upsilon = 0.1 at |z| = 5 and above: the coefficients pass the double range
        # before the series stops; the nodes below stop first
        (_thm1(upsilon=0.1, d=1e17), np.array([1e-30, 1e-20, 1e-10, 0.5]), None, "consistent", OverflowError),
    ]
    for (p, grid, ctl, reading, kind), at in zip(cases, (1, 2, 0, 2)):
        msg = _same_failure(p, grid, ctl, reading, kind)
        # a table of the failing node alone fails alike
        i = int(msg.split()[2])
        assert i == at
        _same_failure(p, grid[i : i + 1], ctl, reading, kind)
    assert msg.startswith("grid index 2 (t = 1e-10): ")
    _same_failure(_thm1(), np.array([0.0, 0.5, np.inf]))
    # lam = d**upsilon overflows: the grid's cap mask must not raise it before the first node does
    _same_failure(_thm3(upsilon=2.0, d=1e200), np.array([0.0, 0.5, 1.0]), kind=OverflowError)
    _same_failure(_thm2(), np.array([0.5, 1.0]), reading="bogus")


def test_solve_table_raises_for_a_power_that_overflows_after_the_last_term():
    # E_{0.1}(z) near the cap |z| = 50 has terms past 1e308 long before it
    # stops: the coefficient list overflows already at the first node
    p = _thm1(upsilon=0.1, d=1e17)
    msg = _same_failure(p, np.array([0.5, 0.95]), SeriesControl(max_terms=182), kind=OverflowError)
    assert msg.startswith("grid index 0 (t = 0.5): solution series entry ")


# ---------------------------------------------------------------- rows past the double range


def test_rows_with_an_overflowing_denominator_are_not_silent_zeros():
    # Gamma_k(rk + l + 3k/2) * Gamma(r + 3/2) overflows to inf from row 87,
    # while the rows come from the prefactor and the 1F2 ratio, down to 0.0 or
    # a subnormal where they are below the double range
    import mpmath as mp

    from frac_kinetics.kinetics import _rows

    n0, d, ups, l, c, k = 1.0, 3.0, 0.7, 2.0, 3.0, 3.0
    long = tuple(islice(_rows(n0, d**ups, ups, l, c, k, "consistent"), 120))
    assert long[:87] == tuple(islice(_rows(n0, d**ups, ups, l, c, k, "consistent"), 87))
    mp.mp.dps = 40
    for r in range(87, 120):
        e = 2 * r + mp.mpf(l) / k + 1
        kg = mp.mpf(k) ** ((r * k + l + 1.5 * k) / k - 1) * mp.gamma((r * k + l + 1.5 * k) / k)
        want = (
            n0 * (-c) ** r / (kg * mp.gamma(r + 1.5)) * (mp.mpf(d) ** ups / 2) ** e
        )
        assert _near(long[r][0], want), r


def test_rows_whose_direct_product_underflows_are_not_silent_zeros():
    # the direct product n0 a_r (lam/2)**e_r passes through a subnormal from
    # row 28, where the rows leave the normal double range: their binary
    # exponent is kept apart, so they are 0.0 or a subnormal only below it
    import mpmath as mp

    from frac_kinetics.kinetics import _rows

    n0, d, ups, l, c, k = 1.0, 0.01, 2.0, 1.0, 1.0, 1.0
    rows = tuple(islice(_rows(n0, d**ups, ups, l, c, k, "consistent"), 50))
    mp.mp.dps = 40
    for r in range(26, 42):
        e = 2 * r + mp.mpf(l) / k + 1
        want = (
            n0 * (-c) ** r / (mp.gamma(r + 2.5) * mp.gamma(r + 1.5)) * (mp.mpf(d**ups) / 2) ** e
        )
        assert _near(rows[r][0], want), r


def test_rows_with_a_subnormal_k_gamma_against_mpmath():
    # k = 0.0005: Gamma_k(rk + l + 3k/2) is subnormal from row 2 on and below
    # the double range at row 19; its quotient raised a bare ZeroDivisionError
    # there, and the few digits it kept put rows 15-18 up to 5.5e-2 off
    import mpmath as mp

    from frac_kinetics.kinetics import _rows

    n0, lam, sigma, l, c, k = 1.0, 1.0, 0.1, 0.11039369777854577, -0.9097258095658689, 0.0005
    rows = tuple(islice(_rows(n0, lam, sigma, l, c, k, "consistent"), 20))
    with mp.workdps(40):
        for r, (coef, _) in enumerate(rows):
            a = r + mp.mpf(l) / k + mp.mpf(1.5)
            e = 2 * r + mp.mpf(l) / k + 1
            want = (
                n0 * (-c) ** r * (mp.mpf(lam) / 2) ** e
                / (mp.mpf(k) ** (a - 1) * mp.gamma(a) * mp.gamma(r + mp.mpf(1.5)))
            )
            assert _near(coef, want), r


def test_rows_that_are_exactly_zero_stay_zero():
    from frac_kinetics.kinetics import _rows

    # c = 0 leaves only row 0; lam = 0 (d = 0) zeroes every row with e_r > 0
    assert all(coef == 0.0 for coef, _ in islice(_rows(1.0, 0.01, 2.0, 1.0, 0.0, 1.0, "consistent"), 1, 50))
    assert all(coef == 0.0 for coef, _ in islice(_rows(1.0, 0.0, 2.0, 1.0, 1.0, 1.0, "consistent"), 50))


def test_forcing_scale():
    assert _thm1(upsilon=0.5, d=3.0).forcing_scale == (1.0, 1.0)
    assert _thm2(upsilon=0.5, d=3.0).forcing_scale == (3.0**0.5, 0.5)
    assert _thm3(upsilon=0.5, d=3.0).forcing_scale == (3.0**0.5, 0.5)


@pytest.mark.parametrize(
    "p,reading",
    [(_thm2(upsilon=4.0, l=-1.25, k=1.0), "consistent"), (_thm2(upsilon=1.0, l=-2.0, k=2.0), "printed")],
)
def test_gamma_pole_in_a_row_is_a_pole_error(p, reading):
    # Gamma(upsilon e_0 + 1) at 0 (consistent: e_0 = -1/4) and at -1
    # (printed: e_0 = -1)
    with pytest.raises(PoleError, match="gamma pole"):
        solve_thm2(p, 0.5, reading=reading)
    with pytest.raises(PoleError, match=r"^grid index 0 \(t = 0\.5\): .*gamma pole"):
        solve_table(p, np.array([0.5, 1.0]), reading=reading)


def test_gamma_underflow_in_a_row_is_an_overflow_error():
    # printed reading, l = -100.25, k = 100, upsilon = 2: row 0's beta is
    # upsilon * (l + 1) + 1 = -197.5, where Gamma underflows to -0.0; the
    # series starts from the forcing coefficient and never divides by it, so
    # N(t) = sum_r b_r Gamma(beta_r) t**g_r E_{2, beta_r}(-t**2) is a value
    import mpmath as mp

    p = _thm2(upsilon=2.0, l=-100.25, k=100.0)
    with mp.workdps(40):
        t, total = mp.mpf(0.5), mp.mpf(0)
        for r in range(60):
            e, a = 2 * r + mp.mpf(-100.25) + 1, r + mp.mpf(-100.25) / 100 + mp.mpf(1.5)
            b = (-1) ** r * mp.mpf(0.5) ** e / (mp.mpf(100) ** (a - 1) * mp.gamma(a) * mp.gamma(r + mp.mpf(1.5)))
            beta = 2 * e + 1
            total += b * mp.gamma(beta) * t ** (beta - 1) * sum(
                mp.rgamma(beta + 2 * n) * (-(t**2)) ** n for n in range(200)
            )
    got = solve_thm2(p, 0.5, reading="printed")
    assert abs(got - total) <= 1e-14 * abs(total)
    assert abs(got - 2.7437e90) <= 1e-4 * 2.7437e90
    assert solve_table(p, np.array([0.25, 0.5]), reading="printed").n[1] == got


def test_zero_rate_with_a_divergent_forcing_is_a_domain_error():
    # THM2 at d = 0 sums rows of S(0 * t**upsilon); row 0 has e_0 = l/k + 1 = -0.2
    p = _thm2(d=0.0, l=-1.2)
    with pytest.raises(DomainError, match=r"^row r = 0: .*diverges"):
        solve_thm2(p, 0.5)
    with pytest.raises(DomainError, match=r"^grid index 0 \(t = 0\.5\): row r = 0: .*diverges"):
        solve_table(p, np.array([0.5, 1.0]))


def test_a_leading_exponent_below_minus_one_gives_the_continued_closed_form(capsys):
    # THM2 at upsilon = 2.2, l/k = -1.49: g_0 = sigma e_0 = -1.078, so
    # t**g_0 has no Riemann-Liouville integral and no oracle leg can check the
    # value; the solver returns the analytically continued closed form
    # sum_r b_r Gamma(g_r + 1) t**g_r E_{ups, g_r + 1}(-d**ups t**ups)
    import mpmath as mp

    from frac_kinetics.cli import main

    p = _thm2(upsilon=2.2, d=0.5, l=-1.49)
    got = solve_thm2(p, 0.5)
    assert got == 0.11101981958719988
    with mp.workdps(40):
        ups, d, l, t = mp.mpf(2.2), mp.mpf(0.5), mp.mpf(-1.49), mp.mpf(0.5)
        z, want = -(d**ups) * t**ups, 0
        for r in range(30):
            e, a = 2 * r + l + 1, r + l + mp.mpf(1.5)
            b = (-1) ** r * (d**ups / 2) ** e / (mp.gamma(a) * mp.gamma(r + mp.mpf(1.5)))
            g = ups * e
            ml = mp.fsum(z**n / mp.gamma(ups * n + g + 1) for n in range(60))
            want += b * mp.gamma(g + 1) * t**g * ml
        assert abs(got - want) <= 1e-12
    # verify starts its grid at t = 0, where such a problem has no value
    assert main(["verify", "--variant", "thm2", "--upsilon", "2.2", "--l", "-1.49", "--d", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid index 0 (t = 0.0): t = 0 requires l > -k")

