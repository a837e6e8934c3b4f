import math
import re

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
    SolutionTable,
    Variant,
    k_struve,
    residual,
    solve_constant,
    solve_table,
    solve_thm1,
    solve_thm2,
    solve_thm3,
    volterra_solve,
)
from frac_kinetics import kinetics
from frac_kinetics._compensated import dd_add


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


def test_rows_past_gamma_overflow_fit_in_a_double():
    # Gamma(e_r + 1) overflows from r = 85 although the row coefficients stay
    # near 4**r (times the 2**-e_r the THM1 rows carry); those rows come
    # from log space, the earlier ones unchanged
    import mpmath as mp

    from frac_kinetics.kinetics import _rows

    short = _rows(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "consistent", 85)
    long = _rows(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "consistent", 90)
    assert long[:85] == short
    for r in range(85, 90):
        want = (
            (-1) ** r * mp.gamma(2 * r + 3) / (mp.gamma(r + 2.5) * mp.gamma(r + 1.5))
            * mp.mpf(2) ** -(2 * r + 2)
        )
        assert abs(long[r][0] - want) <= 1e-12 * abs(want)
    p = _thm1()
    assert solve_thm1(p, 0.5, SeriesControl(max_terms=90)) == solve_thm1(
        p, 0.5, SeriesControl(max_terms=85)
    )


def test_thm2_rows_past_gamma_overflow():
    # at upsilon = 2 Gamma(upsilon e_r + 1) overflows from r = 42 within the
    # default budget, while the coefficients reach only 6.7e215 at r = 49
    p = _thm2(upsilon=2.0)
    assert solve_thm2(p, 0.5) == solve_thm2(p, 0.5, SeriesControl(max_terms=42))
    # at upsilon = 3 they do leave the double range
    with pytest.raises(OverflowError, match="series row r = "):
        solve_thm2(_thm2(upsilon=3.0), 0.5, SeriesControl(max_terms=90))


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
    if p.variant is Variant.THM1:
        solve = lambda t: solve_thm1(p, t, ctl)  # noqa: E731
    elif p.variant is Variant.THM2:
        solve = lambda t: solve_thm2(p, t, ctl, reading=reading)  # noqa: E731
    else:
        solve = lambda t: solve_thm3(p, t, ctl, reading=reading)  # noqa: E731
    values = np.empty(grid.size)
    for i, ti in enumerate(grid):
        try:
            values[i] = solve(float(ti))
        except (DomainError, OverflowError) as exc:
            raise type(exc)(f"grid index {i} (t = {float(ti)!r}): {exc}") from exc
    return values


def _same_failure(p, grid, ctl=None, reading="consistent"):
    with pytest.raises((DomainError, OverflowError)) as want:
        _scalar_table(p, grid, ctl, reading)
    with pytest.raises(want.type) as got:
        solve_table(p, grid, ctl, reading=reading)
    assert got.type is want.type
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
    # integer upsilon takes the double-double term recurrence of the
    # Mittag-Leffler kernel, fractional upsilon the plain power recurrence
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


@pytest.mark.parametrize(
    "p,reading",
    [
        (_thm1(upsilon=0.5, l=1.0, k=2.0), "consistent"),
        (_thm2(upsilon=1.0, l=0.5, k=3.0), "printed"),
        (_thm3(upsilon=2.0, l=1.5, c=0.6, k=1.0), "consistent"),
    ],
)
def test_solve_table_bit_for_bit_across_grid_chunks(p, reading):
    # 4,097 nodes span nine 512-node chunks
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


def test_solve_table_domain_error_at_the_origin():
    msg = _same_failure(_thm2(l=-1.2), np.linspace(0.0, 1.0, 11))
    assert msg.startswith("grid index 0 (t = 0.0): t = 0 requires")


def test_solve_table_row_overflow_at_the_first_positive_node():
    p, ctl = _thm2(upsilon=3.0), SeriesControl(max_terms=90)
    # t[0] = 0 returns before any rows are built
    assert _same_failure(p, np.linspace(0.0, 1.0, 11), ctl).startswith("grid index 1 (")
    assert _same_failure(p, np.linspace(0.5, 1.0, 11), ctl).startswith("grid index 0 (")


def test_solve_table_fails_like_the_scalar_row_sum():
    # a term's power (t/2)**e or a Mittag-Leffler z**n overflows only for the
    # nodes whose sum has not stopped before that row
    _same_failure(_thm1(d=1e-3), np.linspace(0.0, 2e4, 9), SeriesControl(max_terms=120))
    msg = _same_failure(
        _thm2(upsilon=0.1, d=1e-17), np.array([0.0, 1.0, 5e33, 1e34]), SeriesControl(max_terms=200)
    )
    assert "Mittag-Leffler series term overflow" in msg
    # printed reading: row 0 has beta = -1/2, so alpha + beta hits a gamma pole
    msg = _same_failure(_thm2(upsilon=0.5, l=-4.0, k=4.0), np.array([0.5, 1.0]), reading="printed")
    assert "gamma pole" in msg
    _same_failure(_thm1(), np.array([0.0, 0.5, np.inf]))
    _same_failure(_thm2(), np.array([0.5, 1.0]), reading="bogus")


def test_solve_table_raises_for_a_power_that_overflows_after_the_last_term():
    # z**182 overflows at t = 0.95 just after the 182nd and last Mittag-Leffler
    # term of row 0; the scalar loop raises there, and so must the array pass
    p = _thm1(upsilon=0.1, d=1e17)
    msg = _same_failure(p, np.array([0.5, 0.95]), SeriesControl(max_terms=182))
    assert msg == (
        "grid index 1 (t = 0.95): Mittag-Leffler series term overflow at n = 182 (z = -49.86230610603668)"
    )


def test_row_sum_at_one_lane_is_the_scalar_loop(monkeypatch):
    # a one-node table: value by repr, the same error, and the kernel's
    # term count is the number of rows the scalar row sum adds
    cases = [
        (make(upsilon=ups, l=0.7, c=1.3, k=2.0), reading, t, ctl)
        for make, reading in _VARIANTS
        for ups in (0.1, 0.5, 1.0, 2.0)
        for t in (1e-6, 0.3, 1.5)
        for ctl in (None, SeriesControl(max_terms=30, rel_tol=1e-10))
    ]
    cases += [
        (_thm1(d=1e-3), "consistent", 2e4, SeriesControl(max_terms=120)),  # (t/2)**e overflows
        (_thm2(upsilon=0.1, d=1e-17), "consistent", 5e33, SeriesControl(max_terms=200)),  # z**n overflows
        (_thm2(upsilon=0.5, l=-4.0, k=4.0), "printed", 0.5, None),  # gamma pole
        (_thm1(upsilon=0.1, d=1e17), "consistent", 0.95, SeriesControl(max_terms=182)),
    ]
    failures = 0
    for p, reading, t, ctl in cases:
        added = []
        with monkeypatch.context() as m:
            m.setattr(kinetics, "dd_add", lambda *args: added.append(1) or dd_add(*args))
            try:
                want = repr(float(_scalar_table(p, np.array([t]), ctl, reading)[0]))
            except (DomainError, OverflowError) as exc:
                want = (type(exc), str(exc))
        used, real = [], kinetics._lane_sums

        def recording(step, state, n_terms, rel_tol):
            out = real(step, state, n_terms, rel_tol)
            used.append(out[1].tolist())
            return out

        with monkeypatch.context() as m:
            m.setattr(kinetics, "_lane_sums", recording)
            try:
                got = repr(float(solve_table(p, np.array([t]), ctl, reading=reading).n[0]))
            except (DomainError, OverflowError) as exc:
                got = (type(exc), str(exc))
        assert got == want, (p, reading, t, ctl)
        if isinstance(want, tuple):
            failures += 1
        else:
            assert used == [[len(added)]], (p, reading, t, ctl)
    assert failures == 4


def _stop_row(p, t, ctl=SeriesControl()):
    """The row at which the scalar row sum of p stops at node t > 0."""
    z = kinetics._ml_argument(p.rate, p.upsilon, t)
    hi = lo = 0.0
    for r, (coef, e, beta) in enumerate(kinetics._problem_rows(p, "consistent", ctl.max_terms)):
        term = coef * t**e * kinetics._ml_eval(p.upsilon, beta, z, ctl)
        hi, lo = dd_add(hi, lo, term)
        if abs(term) <= ctl.rel_tol * abs(hi):
            return r
    return None


def _overflow_at(monkeypatch, p, t, row):
    """Make E_{upsilon, beta_row}(z(t)) overflow, in the array pass and in the scalar replay."""
    beta = kinetics._problem_rows(p, "consistent", SeriesControl().max_terms)[row][2]
    z = kinetics._ml_argument(p.rate, p.upsilon, t)
    msg = f"Mittag-Leffler series term overflow at n = 3 (z = {z!r})"
    pairs, scalar = kinetics._ml_eval_pairs, kinetics._ml_eval

    def flagged_pairs(alpha, inv_g, betas, rows, zs, ctl):
        values, overflow = pairs(alpha, inv_g, betas, rows, zs, ctl)
        return values, overflow | ((betas[rows] == beta) & (zs == z))

    def raising_scalar(alpha, b, zz, ctl):
        if b == beta and zz == z:
            raise OverflowError(msg)
        return scalar(alpha, b, zz, ctl)

    monkeypatch.setattr(kinetics, "_ml_eval_pairs", flagged_pairs)
    monkeypatch.setattr(kinetics, "_ml_eval", raising_scalar)
    return msg


# node 5 (t = 0.5) stops at row 6, inside the first block of eight rows
_PRECEDENCE_GRID = np.linspace(0.0, 1.0, 11)


@pytest.mark.parametrize("ups", [0.5, 2.0])
def test_solve_table_ignores_a_failure_past_the_stop_row_in_its_block(monkeypatch, ups):
    p = _thm1(upsilon=ups, l=0.7, c=1.3, k=2.0)
    grid, i = _PRECEDENCE_GRID, 5
    stop = _stop_row(p, grid[i])
    assert stop == 6 and stop // kinetics._ROW_BLOCK == (stop + 1) // kinetics._ROW_BLOCK
    want = solve_table(p, grid).n
    _overflow_at(monkeypatch, p, grid[i], stop + 1)
    assert np.array_equal(solve_table(p, grid).n, want)


@pytest.mark.parametrize("ups", [0.5, 2.0])
@pytest.mark.parametrize("before", [0, 1])
def test_solve_table_fails_at_or_before_the_stop_row_with_the_scalar_error(monkeypatch, ups, before):
    # the scalar loop raises before its stop test, so a failure in the stop
    # row itself takes precedence over the stop
    p = _thm1(upsilon=ups, l=0.7, c=1.3, k=2.0)
    grid, i = _PRECEDENCE_GRID, 5
    stop = _stop_row(p, grid[i])
    assert stop == 6
    msg = _overflow_at(monkeypatch, p, grid[i], stop - before)
    with pytest.raises(OverflowError) as exc:
        solve_table(p, grid)
    assert str(exc.value) == f"grid index {i} (t = {float(grid[i])!r}): {msg}"
    with pytest.raises(OverflowError, match="^" + re.escape(str(exc.value)) + "$"):
        _scalar_table(p, grid)


# ---------------------------------------------------------------- rows past the double range


def test_rows_with_an_overflowing_denominator_are_not_silent_zeros():
    # Gamma_k(rk + l + 3k/2) * Gamma(r + 3/2) overflows to inf from row 87,
    # while the rows themselves are as small as 1e-88
    import mpmath as mp

    from frac_kinetics.kinetics import _rows

    n0, d, ups, l, c, k = 1.0, 3.0, 0.7, 2.0, 3.0, 3.0
    long = _rows(n0, d**ups, ups, l, c, k, "consistent", 120)
    assert long[:87] == _rows(n0, d**ups, ups, l, c, k, "consistent", 87)
    mp.mp.dps = 40
    for r in range(87, 120):
        e = 2 * r + mp.mpf(l) / k + 1
        kg = mp.mpf(k) ** ((r * k + l + 1.5 * k) / k - 1) * mp.gamma((r * k + l + 1.5 * k) / k)
        want = (
            n0 * (-c) ** r / (kg * mp.gamma(r + 1.5))
            * (mp.mpf(d) ** ups / 2) ** e * mp.gamma(ups * e + 1)
        )
        assert long[r][0] != 0.0
        assert abs(long[r][0] - want) <= 1e-12 * abs(want)


def test_rows_whose_direct_product_underflows_are_not_silent_zeros():
    # (lam/2)**e_r underflows before the large Gamma(sigma e_r + 1) multiplies
    # it, while the rows themselves are as large as 1e-159
    import mpmath as mp

    from frac_kinetics.kinetics import _rows

    n0, d, ups, l, c, k = 1.0, 0.01, 2.0, 1.0, 1.0, 1.0
    rows = _rows(n0, d**ups, ups, l, c, k, "consistent", 50)
    mp.mp.dps = 40
    for r in range(30, 42):
        e = 2 * r + mp.mpf(l) / k + 1
        want = (
            n0 * (-c) ** r / (mp.gamma(r + 2.5) * mp.gamma(r + 1.5))
            * (mp.mpf(d**ups) / 2) ** e * mp.gamma(ups * e + 1)
        )
        assert rows[r][0] != 0.0
        assert abs(rows[r][0] - want) <= 1e-12 * abs(want)


def test_rows_that_are_exactly_zero_stay_zero():
    from frac_kinetics.kinetics import _rows

    # c = 0 leaves only row 0; lam = 0 (d = 0) zeroes every row with e_r > 0
    assert all(coef == 0.0 for coef, _, _ in _rows(1.0, 0.01, 2.0, 1.0, 0.0, 1.0, "consistent", 50)[1:])
    assert all(coef == 0.0 for coef, _, _ in _rows(1.0, 0.0, 2.0, 1.0, 1.0, 1.0, "consistent", 50))


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


def test_zero_rate_with_a_divergent_forcing_is_a_domain_error():
    # THM2 at d = 0 sums rows of S(0 * t**upsilon); row 0 has e_0 = l/k + 1 = -0.2
    p = _thm2(d=0.0, l=-1.2)
    with pytest.raises(DomainError, match=r"^row r = 0: .*diverges"):
        solve_thm2(p, 0.5)
    with pytest.raises(DomainError, match=r"^grid index 0 \(t = 0\.5\): row r = 0: .*diverges"):
        solve_table(p, np.array([0.5, 1.0]))
