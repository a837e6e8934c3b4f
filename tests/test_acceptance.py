"""Acceptance gate: the eight shipping criteria, one pass/fail line each.

Every criterion prints ``[acceptance] criterion N (name): PASS|FAIL`` with
capture suspended (``capfd.disabled()``), so the verdict lines land in the
terminal whatever pytest options are in effect.  Tolerances are frozen from
measured runs; nothing here is tuned to pass.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from frac_kinetics import (
    Forcing,
    KineticProblem,
    KStruveParams,
    QuadratureGrid,
    SeriesControl,
    Variant,
    gamma,
    k_gamma,
    k_struve,
    laplace_image,
    laplace_numeric,
    mittag_leffler,
    mittag_leffler2,
    residual,
    rl_integral,
    solve_constant,
    solve_table,
    solve_thm1,
    struve_h,
    volterra_solve,
)
from frac_kinetics.cli import main as cli_main


@pytest.fixture
def criterion(capfd):
    """Context manager factory: yields a `say` callback writing past capture."""

    @contextmanager
    def _criterion(num: int, name: str):
        def say(line: str) -> None:
            with capfd.disabled():
                print(line, flush=True)

        try:
            yield say
        except BaseException:
            say(f"[acceptance] criterion {num} ({name}): FAIL")
            raise
        say(f"[acceptance] criterion {num} ({name}): PASS")

    return _criterion


def _problem(variant=Variant.THM1, n0=1.0, upsilon=1.0, d=1.0, l=1.0, c=1.0, k=1.0, a=None):
    return KineticProblem(
        n0=n0, upsilon=upsilon, d=d, a=a, struve=KStruveParams(l, c, k), variant=variant
    )


def _rel_defect(p, grid, reading="consistent"):
    sol = solve_table(p, grid.nodes, reading=reading)
    rep = residual(p, sol, grid)
    return rep.max_defect / float(np.max(np.abs(sol.n)))


def test_criterion_1_special_function_identities(criterion):
    with criterion(1, "special-function identities"):
        t0 = time.perf_counter()

        # k-gamma recurrence and collapse to the classical gamma
        for k in (0.5, 1.0, 2.0, 3.0):
            for x in np.linspace(0.2, 12.0, 40):
                x = float(x)
                lhs = k_gamma(x + k, k)
                rhs = x * k_gamma(x, k)
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        for x in np.linspace(0.1, 20.0, 60):
            assert k_gamma(float(x), 1.0) == gamma(float(x))

        # exponential identities of the Mittag-Leffler family; the 80-term
        # budget removes the 50-term truncation floor (~6e-11 at z = -10)
        ctl = SeriesControl(max_terms=80)
        for z in np.linspace(-10.0, 10.0, 81):
            z = float(z)
            assert abs(mittag_leffler(1.0, z, ctl) - math.exp(z)) <= 1e-12 * math.exp(z)
        assert abs(mittag_leffler2(1.0, 2.0, 1.0) - (math.e - 1.0)) <= 1e-12 * (math.e - 1.0)

        # k-Struve collapse to the classical Struve function
        for nu in (0.0, 0.5, 1.0, 2.0):
            params = KStruveParams(nu=nu, c=1.0, k=1.0)
            for x in np.linspace(0.1, 5.0, 25):
                x = float(x)
                h = struve_h(nu, x)
                assert abs(k_struve(params, x) - h) <= 1e-13 * (1.0 + abs(h))

        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0


def test_criterion_2_struve_ode_residual(criterion):
    with criterion(2, "Struve differential equation residual"):
        h = 1e-4
        for p in (0.0, 0.5, 1.0, 2.0):
            rhs_scale = 4.0 / (math.sqrt(math.pi) * math.gamma(p + 0.5))
            for x in np.linspace(0.1, 5.0, 50):
                x = float(x)
                f0 = struve_h(p, x)
                fp = struve_h(p, x + h)
                fm = struve_h(p, x - h)
                d1 = (fp - fm) / (2.0 * h)
                d2 = (fp - 2.0 * f0 + fm) / (h * h)
                resid = (
                    x * x * d2 + x * d1 + (x * x - p * p) * f0
                    - rhs_scale * (x / 2.0) ** (p + 1.0)
                )
                assert abs(resid) <= 1e-5 * (1.0 + abs(f0))


def test_criterion_3_quadrature_convergence_order(criterion):
    with criterion(3, "fractional integral convergence order"):
        # power rule on a smooth monomial
        for ups in (0.5, 1.5):
            errs = []
            for n in (256, 512, 1024):
                g = QuadratureGrid(n=n, t_max=1.0)
                got = rl_integral(lambda t: t * t, ups, g)
                want = 2.0 / math.gamma(3.0 + ups) * g.nodes ** (2.0 + ups)
                errs.append(float(np.max(np.abs(got - want))))
            for a, b in zip(errs, errs[1:]):
                assert math.log2(a / b) >= 1.8

        # semigroup property with a k-Struve integrand
        errs = []
        for n in (256, 512, 1024):
            g = QuadratureGrid(n=n, t_max=1.0)
            fv = np.array([k_struve(KStruveParams(1.0, 1.0, 1.0), t) for t in g.nodes])
            worst = 0.0
            for a in (0.3, 0.5, 1.0):
                for b in (0.3, 0.5, 1.0):
                    two = rl_integral(rl_integral(fv, b, g), a, g)
                    one = rl_integral(fv, a + b, g)
                    worst = max(worst, float(np.max(np.abs(two - one))))
            errs.append(worst)
        for a, b in zip(errs, errs[1:]):
            assert math.log2(a / b) >= 1.8


def test_criterion_4_thm1_lattice_against_oracle(criterion):
    with criterion(4, "THM1 lattice vs Volterra oracle") as say:
        t0 = time.perf_counter()
        grid = QuadratureGrid(n=4096, t_max=1.0)
        worst = 0.0
        for ups in (0.5, 1.0, 1.5):
            for k in (1.0, 2.0, 3.0):
                for l in (0.5, 1.0):
                    p = _problem(upsilon=ups, k=k, l=l)
                    rel = _rel_defect(p, grid)
                    worst = max(worst, rel)
                    assert rel <= 5e-4, f"ups={ups} k={k} l={l}: rel defect {rel:.3e}"
        elapsed = time.perf_counter() - t0
        say(f"[acceptance]   lattice worst relative defect {worst:.3e} in {elapsed:.1f}s")
        assert elapsed < 120.0


def test_criterion_5_thm2_thm3_and_erratum(criterion):
    with criterion(5, "THM2/THM3 lattice and exponent-reading erratum") as say:
        grid = QuadratureGrid(n=1024, t_max=1.0)
        for variant in (Variant.THM2, Variant.THM3):
            a = 1.0 if variant is Variant.THM3 else None
            d = 2.0 if variant is Variant.THM3 else 1.0
            for ups in (0.5, 1.0):
                for k in (1.0, 2.0):
                    p = _problem(variant=variant, upsilon=ups, d=d, k=k, a=a)
                    cons = _rel_defect(p, grid)
                    printed = _rel_defect(p, grid, reading="printed")
                    assert cons <= 5e-4, f"{variant} ups={ups} k={k}: {cons:.3e}"
                    say(
                        f"[acceptance]   erratum {variant.value} ups={ups:g} k={k:g}: "
                        f"printed defect {printed:.3e}, consistent {cons:.3e}"
                    )
                    if k == 1.0:
                        # the two readings coincide identically at k = 1
                        assert printed == cons
                    else:
                        # off k = 1 the printed exponent fails the oracle outright
                        assert printed > 0.05


def test_criterion_6_degenerate_exponential(criterion):
    with criterion(6, "degenerate exponential collapse"):
        p = _problem(upsilon=1.0, d=1.0)
        for t in np.linspace(0.0, 2.0, 41):
            t = float(t)
            assert abs(solve_constant(p, t) - math.exp(-t)) <= 2e-15 * math.exp(-t)

        errs = []
        for n in (256, 512):
            g = QuadratureGrid(n=n, t_max=1.0)
            num = volterra_solve(p, Forcing.CONSTANT, g)
            err = float(np.max(np.abs(num.n - np.exp(-g.nodes))))
            assert err <= 0.1 * g.h**2
            errs.append(err)
        assert math.log2(errs[0] / errs[1]) >= 1.9


def test_criterion_7_laplace_cross_check(criterion):
    with criterion(7, "Laplace-domain cross-check"):
        p = _problem()
        grid = QuadratureGrid(n=1024, t_max=18.0)
        nvals = np.array([solve_thm1(p, t) for t in grid.nodes])
        for s in (3.0, 5.0, 10.0):
            img = laplace_image(p, s)
            num, tail = laplace_numeric(nvals, s, grid)
            assert abs(img - num) <= 1e-3 * abs(img) + tail


def test_criterion_8_parameter_sweep_reproduction(criterion, tmp_path):
    with criterion(8, "parameter-sweep reproduction") as say:
        specs = {
            "orders.csv": ["--k-list", "1,2,3,4", "--upsilon-list", "0.5,1,1.5,2"],
            "small_orders.csv": ["--k-list", "1,2,3,4", "--upsilon-list", "0.1,0.2,0.3,0.4"],
        }
        for fname, extra in specs.items():
            out = tmp_path / fname
            code = cli_main(["sweep", "--out", str(out), *extra])
            assert code == 0
            lines = out.read_text(encoding="utf-8").splitlines()
            header = lines[0].split(",")
            data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
            assert len(header) == 17
            assert data.shape == (101, 17)

            # positivity on t in (0, 1] is asserted only where the marching
            # oracle independently confirms it; monotonicity violations are
            # flagged, never failed
            oracle_grid = QuadratureGrid(n=512, t_max=1.0)
            for j, label in enumerate(header[1:], start=1):
                k = float(label.split("_")[1][1:])
                ups = float(label.split("_")[2][1:])
                num = volterra_solve(
                    _problem(upsilon=ups, k=k), Forcing.STRUVE_T, oracle_grid
                )
                if np.all(num.n[1:] > 0.0):
                    assert np.all(data[1:, j] > 0.0), f"{fname}:{label} not positive"
                else:
                    say(f"[acceptance]   {fname}:{label}: oracle does not confirm positivity")
                if np.any(np.diff(data[:, j]) < 0.0):
                    say(f"[acceptance]   {fname}:{label}: non-monotone (flagged, not failed)")
