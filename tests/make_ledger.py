"""Compute the accuracy ledger, ``ledger.json``, next to this file.

Run from the repository root (needs mpmath and the package on the path; takes
a few minutes):

    PYTHONPATH=src python3 tests/make_ledger.py

With ``--errors`` it recomputes only the recorded errors from the stored
values (a few seconds), keeping every value and floor, so that the ledger
records the program it ships with (it prints, per family, how many recorded
errors fell, rose and stayed):

    PYTHONPATH=src python3 tests/make_ledger.py --errors

Each case holds its inputs, the exact value as 40-digit mpmath text and the
error of the program that wrote the ledger, or the error it raised (type and
message).  ``test_ledger.py`` holds every later version of the program to
those errors, or to a family floor where that is larger.

Four families:

* ``sums``: ``k_struve`` and ``struve_h`` at default control.  The value and
  the term-magnitude sum come from the exact series, summed by its term ratio
  at a precision raised until the cancellation it meets leaves 40 digits.
  The error is absolute.  The floor is 32 u * sum |term|, plus how far the
  program's formula (a prefactor times a power times 1F2 terms from their
  ratio) is from the value in exact arithmetic (it rounds nu/k to a double and
  takes only the terms its stop rule takes), plus an allowance where it forms
  the prefactor from logarithms (see ``sum_reference``).
  Inputs: the corner cases pinned in ``test_special.py``, named repros, and
  seeded wide draws.
* ``rows``: the coefficient rows of the solution series in its
  Mittag-Leffler form, b_r Gamma(g_r + 1), as closed products of gamma
  functions.  The program's row is ``row_image`` of each forcing row (b_r,
  g_r), r < n, of ``kinetics._rows(n0, lam, sigma, l, c, k, reading)``, the
  case's ``args`` being those inputs and n, formed in 60-digit arithmetic.  The error is relative; the floor is 1e-12.
  Inputs: the problems of the ``sweep`` benchmark pool and named repros.
* ``ml``: ``mittag_leffler2(alpha, beta, z)`` at default control.  The value
  and the term-magnitude sum come from sum z**n / Gamma(alpha n + beta), with
  precision raised as for ``sums``; the error is absolute, and the floor is
  32 u * sum |term| plus how far the program's formula (its arguments
  alpha n + beta rounded, the terms its stop rule takes) is from the value.
  Inputs: the known-wrong repros E_0.5(-5), E_0.5(-8), E_1(-20) and
  E_0.5(-2); the (alpha, beta, z) pairs of five rows of each ``sweep`` pool
  problem at t = 1/2 and 1; and seeded wide draws with alpha in [0.1, 2] and
  z in [-50, 1].  Only cases whose largest term is at most 1e150 are kept.
* ``solve``: solutions N(t) at default control.  The values come from the
  Neumann series of the integral equation, ``neumann`` of
  ``perfbench/make_refs.py``, which shares no code with the program.  The
  error is the largest |got - value| over the case's nodes, relative to the
  largest |value|; the floor is 1e-14.  Inputs: every ``sweep`` benchmark
  cell that seeds 1-3 pick, through ``solve_table`` at its 101 nodes on
  [0, 1]; every ``solve_thm1/2/3`` draw of the ``point`` pool and its two
  solver probes (THM1 at upsilon = 0.5, d = 25, and THM2 at upsilon = 2),
  each at its one t.

Recorded errors are rounded up to three significant digits.  A value that
was wrong when the ledger was written stays in it as a recorded row (for
example a 50-term truncation), so that it can only get better.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import islice
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
OUT = HERE / "ledger.json"
DPS = 40
U = 2.0**-53
SUM_FLOOR_U = 32  # sums: 32 u * sum |term|
ROW_FLOOR = 1e-12  # rows: relative
SOLVE_FLOOR = 1e-14  # solve: relative to the largest |N(t)| of the case


# --------------------------------------------------------------------------
# References


def _series(nu, c, k, x, dps):
    """(value, sum |term|) of the k-Struve series at ``dps`` digits, by its term ratio
    t_{r+1} = t_r (-c) (x/2)**2 / (k (r + a) (r + 3/2)),  a = nu/k + 3/2."""
    with mp.workdps(dps):
        nu, c, k, h = mp.mpf(nu), mp.mpf(c), mp.mpf(k), mp.mpf(x) / 2
        a, three_half = nu / k + mp.mpf(1.5), mp.mpf(1.5)
        term = h ** (a - mp.mpf(0.5)) / (k ** (a - 1) * mp.gamma(a) * mp.gamma(three_half))
        step = -c * h * h / k
        total = mag = mp.mpf(0)
        eps = mp.mpf(10) ** -(dps + 5)
        r = 0
        while True:
            total += term
            mag += abs(term)
            ratio = step / ((r + a) * (r + three_half))
            # past the peak the ratio falls, so the tail is below 2 |term|
            if abs(ratio) < 0.5 and abs(term) <= eps * mag:
                return total, mag
            term *= ratio
            r += 1


def _design(nu, c, k, x, dps):
    """(value, log-space allowance) of the program's formula in exact arithmetic on its doubles.

    The value is the prefactor C = k**(1 - A) / (Gamma(A) Gamma(3/2)) (A = nu/k + 3/2 exact: the
    program corrects its rounded A to first order) times (x/2)**e0 (the double e0 = nu/k + 1, nu/k
    rounded, then the sum) times the 1F2 terms t_{r+1} = t_r (-c) (x/2)**2 / (k (A' + r)(3/2 + r))
    on the program's double A', t_0 = 1, summed until a term is at most 1e-14 times the sum or 50
    terms are taken (the default control).  It is None where the program raises: a sum cut at 50
    terms whose tail bound |t_50| / (1 - rho), rho = |w| / ((A' + 49)(49 + 3/2)), exceeds 1e-14
    times the sum, or a value above the double range.  Where the program forms C from ``lgamma``
    (a k-power, Gamma(A), their product or C outside the normal double range), the allowance is
    4 u (a few roundings) times the sum of the magnitudes of those logarithms, times |value|.
    """
    from fractions import Fraction

    lo, hi = mp.mpf(sys.float_info.min), mp.mpf(sys.float_info.max)
    a_double = float(Fraction(nu) / Fraction(k) + Fraction(3, 2))
    h = x / 2.0
    with mp.workdps(dps):
        a = mp.mpf(nu) / k + mp.mpf(1.5)
        k_power, gamma = mp.mpf(k) ** (a - 1), mp.gamma(a)
        pref = 1 / (k_power * gamma * mp.gamma(mp.mpf(1.5)))
        term = pref * mp.mpf(h) ** mp.mpf(nu / k + 1.0)
        mw, total = -mp.mpf(c) * mp.mpf(h) ** 2 / k, mp.mpf(0)
        for r in range(50):
            total += term
            if abs(term) <= mp.mpf(1e-14) * abs(total):
                break
            term *= mw / ((a_double + r) * (r + mp.mpf(1.5)))
        else:
            rho = abs(mw) / ((a_double + 49) * (49 + mp.mpf(1.5)))
            if not (rho < 1 and abs(term) / (1 - rho) <= mp.mpf(1e-14) * abs(total)):
                total = None
        if total is not None and abs(total) > hi:
            total = None
        allow = mp.mpf(0)
        if total is not None and not all(lo <= v <= hi for v in (k_power, gamma, k_power * gamma, pref)):
            allow = 4 * U * ((a - 1) * abs(mp.log(k)) + abs(mp.log(gamma)) + 1) * abs(total)
        return total, allow


def _to_40_digits(series, *args):
    """(value, sum |term|, dps) of ``series(*args, dps)``, at a precision raised until the
    cancellation it meets leaves 40 digits and 20 more digits confirm them."""
    dps = DPS + 10
    while True:
        value, mag = series(*args, dps)
        lost = int(mp.log10(mag / abs(value))) + 1 if value else 0
        if dps >= DPS + 10 + lost:
            check, _ = series(*args, dps + 20)
            if abs(check - value) <= mp.mpf(10) ** -(DPS + 2) * abs(check):
                return check, mag, dps
        dps = max(dps + 20, DPS + 10 + lost)


def sum_reference(nu, c, k, x):
    """(value, sum |term|, floor) of the exact series, the value to 40 digits.

    The program's formula is a prefactor times (x/2)**(nu/k + 1) times 1F2 terms from their
    ratio (see :func:`_design`).  The floor is 32 u * sum |term| (power, ratios, products and
    compensated sum), plus what that formula is off by in exact arithmetic (the rounding of
    nu/k in the power and in the ratios, and the terms it does not take; nothing where it
    raises on a sum cut at 50 terms with its tail bound unmet), plus the log-space allowance
    of :func:`_design`, which is nonzero only where the prefactor comes from ``lgamma``.
    """
    value, mag, dps = _to_40_digits(_series, nu, c, k, x)
    design, allow = _design(nu, c, k, x, dps + 20)
    with mp.workdps(dps + 20):
        off = 0 if design is None else abs(design - value)
        return value, mag, SUM_FLOOR_U * U * mag + off + allow


def _ml_series(alpha, beta, z, dps):
    """(value, sum |term|) of sum z**n / Gamma(alpha n + beta) at ``dps`` digits."""
    with mp.workdps(dps):
        alpha, beta, z = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total = mag = mp.mpf(0)
        eps = mp.mpf(10) ** -(dps + 5)
        n, power, term = 0, mp.mpf(1), mp.rgamma(beta)
        while True:
            total += term
            mag += abs(term)
            power *= z
            following = power * mp.rgamma(alpha * (n + 1) + beta)
            # Gamma is log-convex, so where alpha n + beta > 0 the term ratio
            # falls, and below 1/2 it bounds the tail by the last term
            if alpha * n + beta >= 2 and abs(following) < abs(term) / 2 and abs(term) <= eps * mag:
                return total, mag
            n, term = n + 1, following


def _ml_design(alpha, beta, z, dps):
    """The program's Mittag-Leffler sum in exact arithmetic on its doubles: the arguments
    alpha n + beta (for integer alpha, the divisors of its term recurrence) rounded as it
    rounds them, summed until a term is at most 1e-14 times the sum or 50 terms are taken."""
    n_int = round(alpha)
    integer = alpha == n_int and n_int >= 1
    with mp.workdps(dps):
        total, term = mp.mpf(0), mp.rgamma(beta)
        for n in range(50):
            if not integer:
                term = mp.mpf(z) ** n * mp.rgamma(alpha * n + beta)
            total += term
            if abs(term) <= mp.mpf(1e-14) * abs(total):
                break
            if integer:
                term *= z
                for j in range(n_int):
                    term /= alpha * n + beta + j
        return total


def ml_reference(alpha, beta, z):
    """(value, sum |term|, floor) of E_{alpha,beta}(z) by its series, the value to 40 digits;
    the floor is built as for the sums (32 u * sum |term| plus the formula's own error)."""
    value, mag, dps = _to_40_digits(_ml_series, alpha, beta, z)
    design = _ml_design(alpha, beta, z, dps + 20)
    with mp.workdps(dps + 20):
        return value, mag, SUM_FLOOR_U * U * mag + abs(design - value)


def row_reference(n0, lam, sigma, l, c, k, reading, r):
    """Row r of the solution series: n0 (-c)**r (lam/2)**e Gamma(sigma e + 1) /
    (Gamma_k(rk + l + 3k/2) Gamma(r + 3/2)), with e = 2r + l/k + 1 (consistent)
    or 2r + l + 1 (printed)."""
    with mp.workdps(DPS + 10):
        n0, lam, sigma, l, c, k = map(mp.mpf, (n0, lam, sigma, l, c, k))
        a = r + l / k + mp.mpf(1.5)  # Gamma_k(rk + l + 3k/2) = k**(a - 1) Gamma(a)
        e = 2 * r + (l / k if reading == "consistent" else l) + 1
        if lam == 0 or (r and c == 0):
            return mp.mpf(0)
        return (
            n0 * (-c) ** r * (lam / 2) ** e * mp.gamma(sigma * e + 1)
            / (k ** (a - 1) * mp.gamma(a) * mp.gamma(r + mp.mpf(1.5)))
        )


# --------------------------------------------------------------------------
# Errors, shared with test_ledger.py


def sum_error(got: float, value: str):
    with mp.workdps(DPS):
        return abs(mp.mpf(got) - mp.mpf(value))


def row_image(row):
    """b_r Gamma(g_r + 1) of a ``kinetics._rows`` row (b_r, g_r), in 60-digit arithmetic."""
    coef, g = row
    with mp.workdps(DPS + 20):
        return mp.mpf(coef) * mp.gamma(mp.mpf(g) + 1)


def row_error(got, value: str):
    with mp.workdps(DPS):
        want = mp.mpf(value)
        return abs(mp.mpf(got) - want) / abs(want) if want else abs(mp.mpf(got))


def solve_error(got, values):
    """max |got - value| over the nodes, relative to the largest |value| (absolute where all are 0)."""
    with mp.workdps(DPS):
        want = [mp.mpf(v) for v in values]
        scale = max(abs(v) for v in want) or 1
        return max(abs(mp.mpf(g) - v) for g, v in zip(got, want)) / scale


def _up3(err) -> str:
    """``err`` rounded up to three significant digits, as text."""
    if not err:
        return "0"
    with mp.workdps(DPS):
        exp = int(mp.floor(mp.log10(err))) - 2
        return mp.nstr(mp.ceil(err / mp.mpf(10) ** exp) * mp.mpf(10) ** exp, 3)


def _text(v) -> str:
    with mp.workdps(DPS):
        return mp.nstr(v, DPS)


# --------------------------------------------------------------------------
# Cases


def sum_cases() -> list[dict]:
    """(fn, nu, c, k, x, tag) of every ``sums`` case."""
    import numpy as np

    cases = []

    def add(tag, nu, c, k, xs, fn="k_struve"):
        cases.extend(dict(fn=fn, nu=float(nu), c=float(c), k=float(k), x=float(x), tag=tag) for x in xs)

    # reference values and identities of test_special.py
    add("struve_h reference", 0.0, 1.0, 1.0, [1.0, 20.0], fn="struve_h")
    add("struve_h closed form", 0.5, 1.0, 1.0, [math.pi / 2, 0.3, 5.0], fn="struve_h")
    add("k_struve reference", 1.0, 1.0, 2.0, [1.0])
    # the grid-parity parameter sets, at the cap; (2.5, 3, 0.5) at x = 20 is a
    # 50-term truncation
    for nu, c, k in [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (0.3, 0.7, 3.0), (-0.5, -1.0, 1.0), (2.5, 3.0, 0.5)]:
        add("grid parity set", nu, c, k, [0.3125, 10.0, 20.0])
    # large orders
    add("large order", 200.0, 1.0, 1.0, [20.0], fn="struve_h")
    add("large order", 200.0, 1.0, 1.0, [20.0])
    add("large order", 400.0, 1.0, 1.0, [20.0], fn="struve_h")
    add("large order", 400.0, 1.0, 1.0, [20.0])
    add("large order", 35.0, -1.0, 0.1, [20.0])
    add("above the double range", 6.0, -1.0, 0.01, [1.0, 20.0])
    add("above the double range", 0.5, 1.0, 0.0005, [1.0, 2.0])
    # coefficients above the double range
    add("coefficients above the range", 0.5, 1.0, 0.0005, [0.01, 0.3, 0.37, 0.45, 1.0])
    add("coefficients above the range", 0.5, -2.0, 0.0005, [0.01, 0.3, 0.37, 0.45, 1.0])
    add("coefficients above the range", 0.3, 1.5, 0.0004, [0.01, 0.3, 0.37, 0.45, 0.6])
    add("coefficients above the range", 0.25, -500.0, 0.001, [0.05, 0.1, 0.1665, 1.0, 2.0])
    add("subnormal Gamma_k", 0.11039369777854577, -0.9097258095658689, 0.0005, [1.7628480786615368, 2.0])
    add("coefficients above the range", 38.5 * 1.35e-9, -0.8, 1.35e-9, [1e-6, 2e-6, 4e-6, 0.1])
    # subnormal first powers
    add("subnormal first power", 2.5, 1.0, 0.01, [0.112, 0.110])
    add("subnormal first power", 0.5, 1.0, 0.002, [0.09])
    add("subnormal first power", 1.0, 1.0, 0.005, [1e-3])
    # powers that overflow: unconverged 50-term sums, and a value of 3.99e291
    add("power overflow", 3.0, 1.0, 0.01, [1.0, 20.0])
    add("power overflow", 3.1, 1.0, 0.01, [1.0, 5.0, 10.0, 20.0])
    add("power overflow", 3.2, -1.0, 0.01, [18.0])
    # the seeded families of test_special.py
    for family, seed in (("struve_h", 11), ("c < 0", 12), ("c > 0", 13)):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            k = 1.0 if family == "struve_h" else float(rng.choice([0.25, 0.5, 1.0, 2.0, 3.0]))
            c = {"struve_h": 1.0, "c < 0": -rng.uniform(0.2, 3.0), "c > 0": rng.uniform(0.2, 3.0)}[family]
            nu = float(k * rng.uniform(100.0, 450.0))
            x = float(rng.choice([20.0, 20.0 - rng.uniform(0.0, 19.0)]))
            add(f"large order, {family}", nu, c, k, [x], fn="struve_h" if family == "struve_h" else "k_struve")
    rng = np.random.default_rng(14)
    for _ in range(40):
        k = float(rng.choice([0.002, 0.005, 0.01, 0.02]))
        ratio = rng.uniform(120.0, 300.0)
        nu = float(k * ratio)
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
        x = float(2.0 * 10.0 ** (rng.uniform(-345.0, -300.0) / (ratio + 1.0)))
        add("subnormal first power, seeded", nu, c, k, [x, 4.0 * x])
    # wide draws: k log-uniform in [0.0005, 3]; nu/k in [-1.4, 5] or
    # log-uniform up to 1200; c in [-3, 3] or down to -1e3; x in (0, 20]
    rng = np.random.default_rng(2016)
    for _ in range(1000):
        k = float(10.0 ** rng.uniform(math.log10(0.0005), math.log10(3.0)))
        ratio = rng.uniform(-1.4, 5.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(0.0, math.log10(1200.0))
        c = rng.uniform(-3.0, 3.0) if rng.random() < 0.5 else -(10.0 ** rng.uniform(-1.0, 3.0))
        x = 20.0 - rng.uniform(0.0, 20.0)
        add("wide draw", float(ratio * k), c, k, [x])
    return cases


def _perfbench():
    """The benchmark's ``workloads`` module (pools only; it imports nothing of the program)."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import workloads

    return workloads


def _sweep_problems():
    """(pool key, problem) of every cell of the ``sweep`` benchmark pool."""
    from frac_kinetics import KineticProblem, KStruveParams, Variant

    slots, fixed = _perfbench().sweep_pool()
    for cell in [c for draws in slots for c in draws] + fixed:
        yield cell["key"], KineticProblem(
            n0=1.0, upsilon=cell["upsilon"], d=cell["d"], struve=KStruveParams(cell["l"], cell["c"], cell["k"]),
            variant=Variant(cell["variant"]), a=cell["a"],
        )


def row_problems() -> list[dict]:
    """The ``_rows`` inputs of every ``rows`` case."""
    out = []
    for key, p in _sweep_problems():
        s = p.struve
        out.append(dict(args=[p.n0, *p.forcing_scale, s.nu, s.c, s.k, "consistent", 50], tag=key))
    # Gamma_k(rk + l + 3k/2) subnormal from row 2 on, below the range at row 19
    for n in (19, 20):
        out.append(dict(
            args=[1.0, 1.0, 0.1, 0.11039369777854577, -0.9097258095658689, 0.0005, "consistent", n],
            tag="subnormal Gamma_k rows",
        ))
    return out


ML_PEAK_DIGITS = 150  # ml: cases whose largest term is at most 1e150


def _peak_digits(alpha, beta, z):
    """log10 of the largest |z**n / Gamma(alpha n + beta)| (beta > 0, z != 0), or a value
    above ``ML_PEAK_DIGITS`` as soon as a term passes it."""
    best, n = -math.inf, 0
    while True:
        v = (n * math.log(abs(z)) - math.lgamma(alpha * n + beta)) / math.log(10.0)
        if v > ML_PEAK_DIGITS:
            return v
        if v < best - 20.0:  # log-convex Gamma: past the peak the terms only fall
            return best
        best, n = max(best, v), n + 1


def ml_cases() -> list[dict]:
    """(alpha, beta, z, tag) of every ``ml`` case."""
    import numpy as np

    from frac_kinetics.kinetics import _ml_argument, _rows

    cases = [dict(alpha=a, beta=1.0, z=z, tag="known wrong") for a, z in ((0.5, -5.0), (0.5, -8.0), (1.0, -20.0),
                                                                         (0.5, -2.0))]
    # the pairs a sweep cell sums: alpha = upsilon, beta of a row, z at t = 1/2 and 1
    betas = set()
    for key, p in _sweep_problems():
        s = p.struve
        rows = tuple(islice(_rows(p.n0, *p.forcing_scale, s.nu, s.c, s.k, "consistent"), 50))
        for r in (0, 1, 3, 8, 16):
            beta = rows[r][1] + 1.0
            betas.add(beta)
            for t in (0.5, 1.0):
                z = _ml_argument(p.rate, p.upsilon, t)
                if _peak_digits(p.upsilon, beta, z) <= ML_PEAK_DIGITS:
                    cases.append(dict(alpha=p.upsilon, beta=beta, z=z, tag=f"{key} row {r}"))
    # wide draws: alpha in [0.1, 2] (1 or 2 in one draw of five), a beta of those rows, z in
    # [-50, 1] or -z log-uniform in [0.01, 50]
    rng, betas = np.random.default_rng(2018), sorted(betas)
    while sum(c["tag"] == "wide draw" for c in cases) < 500:
        alpha = float(rng.choice([1.0, 2.0]) if rng.random() < 0.2 else rng.uniform(0.1, 2.0))
        beta = float(rng.choice(betas))
        z = float(rng.uniform(-50.0, 1.0) if rng.random() < 0.5 else -(10.0 ** rng.uniform(-2.0, math.log10(50.0))))
        if _peak_digits(alpha, beta, z) <= ML_PEAK_DIGITS:
            cases.append(dict(alpha=alpha, beta=beta, z=z, tag="wide draw"))
    return cases


SOLVE_KEYS = ("key", "call", "variant", "n0", "upsilon", "d", "a", "l", "c", "k", "t")


def solve_cases() -> list[dict]:
    """(call, problem, nodes t) of every ``solve`` case, without values."""
    wl = _perfbench()
    cells = {}
    for seed in (1, 2, 3):
        for cell in wl.select("sweep", seed):
            cells.setdefault(cell["key"], cell)
    ts = [i / (wl.SWEEP_POINTS - 1) for i in range(wl.SWEEP_POINTS)]
    specs = [dict(cell, call="solve_table", n0=1.0, t=ts) for cell in cells.values()]
    slots, fixed = wl.point_pool()
    for spec in [d for draws in slots for d in draws] + fixed:
        if spec["call"] in ("solve_thm1", "solve_thm2", "solve_thm3"):
            specs.append(dict(spec, t=[spec["t"]]))
    return [{key: spec.get(key) for key in SOLVE_KEYS} for spec in specs]


# make_refs.forcing_terms cuts the forcing series once |f_r| 4**p_r < 1e-40,
# which bounds its tail for t <= 4 only: past that the reference is wrong
NEUMANN_T_MAX = 4.0


def solve_reference(case) -> list[str]:
    """N(t) at each node of the case as 40-digit text, from the Neumann series of make_refs.py.

    Raises ``ValueError`` for a node past ``NEUMANN_T_MAX``, where that series is cut too early.
    """
    if max(case["t"]) > NEUMANN_T_MAX:
        raise ValueError(
            f"the Neumann reference holds for t <= {NEUMANN_T_MAX} only (make_refs.forcing_terms cuts "
            f"the forcing series for that range), got a node t = {max(case['t'])!r}"
        )
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from make_refs import neumann

    with mp.workdps(DPS + 20):
        return [_text(v) for v in neumann(case, case["t"], t_max=max(case["t"]))]


def outcome(call):
    """What ``call()`` returns, or [type name, message] of the error it raises."""
    try:
        return call()
    except Exception as e:  # noqa: BLE001 - the error type is recorded
        return [type(e).__name__, str(e)]


def sum_call(case):
    from frac_kinetics import KStruveParams, k_struve, struve_h

    if case["fn"] == "struve_h":
        return lambda: struve_h(case["nu"], case["x"])
    return lambda: k_struve(KStruveParams(case["nu"], case["c"], case["k"]), case["x"])


def ml_call(case):
    from frac_kinetics import mittag_leffler2

    return lambda: mittag_leffler2(case["alpha"], case["beta"], case["z"])


def solve_call(case):
    """A call giving the case's N(t) at its nodes, as a tuple (``outcome`` lists are errors)."""
    from frac_kinetics import KineticProblem, KStruveParams, Variant, kinetics

    p = KineticProblem(n0=case["n0"], upsilon=case["upsilon"], d=case["d"], variant=Variant(case["variant"]),
                       struve=KStruveParams(case["l"], case["c"], case["k"]), a=case["a"])
    if case["call"] == "solve_table":
        return lambda: tuple(kinetics.solve_table(p, case["t"]).n.tolist())
    solve = getattr(kinetics, case["call"])
    return lambda: tuple(solve(p, t) for t in case["t"])


def main() -> None:
    from frac_kinetics.kinetics import _rows

    sums = []
    cases = sum_cases()
    for i, case in enumerate(cases):
        value, mag, floor = sum_reference(case["nu"], case["c"], case["k"], case["x"])
        got = outcome(sum_call(case))
        case.update(value=_text(value), mag=_text(mag), floor=_up3(floor))
        if isinstance(got, list):
            case["raises"] = got
        else:
            case["err"] = _up3(sum_error(got, case["value"]))
        sums.append(case)
        if i % 100 == 0:
            print(f"sums {i}/{len(cases)}", file=sys.stderr)
    rows = []
    for prob in row_problems():
        args = prob["args"]
        prob["values"] = [_text(row_reference(*args[:7], r)) for r in range(args[7])]
        got = outcome(lambda: tuple(islice(_rows(*args[:7]), args[7])))
        if isinstance(got, list):
            prob["raises"] = got
        else:
            prob["errs"] = [_up3(row_error(row_image(row), v)) for row, v in zip(got, prob["values"])]
        rows.append(prob)
    ml = []
    for case in ml_cases():
        value, mag, floor = ml_reference(case["alpha"], case["beta"], case["z"])
        got = outcome(ml_call(case))
        case.update(value=_text(value), mag=_text(mag), floor=_up3(floor))
        if isinstance(got, list):
            case["raises"] = got
        else:
            case["err"] = _up3(sum_error(got, case["value"]))
        ml.append(case)
    _write(sums, rows, ml, solve_family())


def solve_family() -> list[dict]:
    """Every ``solve`` case with its values and the error (or the error raised) of the program."""
    family = []
    for case in solve_cases():
        case["values"] = solve_reference(case)
        got = outcome(solve_call(case))
        if isinstance(got, list):
            case["raises"] = got
        else:
            case["err"] = _up3(solve_error(got, case["values"]))
        family.append(case)
    return family


def _write(sums, rows, ml, solve) -> None:
    with OUT.open("w") as f:  # one case a line, so that a remade ledger diffs case by case
        for name, family in (("sums", sums), ("rows", rows), ("ml", ml), ("solve", solve)):
            f.write(("{" if name == "sums" else ",\n") + json.dumps(name) + ": [\n")
            f.write(",\n".join(json.dumps(case) for case in family) + "\n]")
        f.write("}\n")
    print(f"wrote {len(sums)} sums, {len(rows)} row problems, {len(ml)} Mittag-Leffler sums and "
          f"{len(solve)} solutions to {OUT}", file=sys.stderr)


def refresh_errors() -> None:
    """Recompute only the recorded errors of ``ledger.json``, from its stored values.

    Every value and floor is kept, so each case's limit max(floor, error) can
    only stay or fall; a case that now raises (or no longer does) records so.
    Prints how many recorded errors fell, rose and stayed.
    """
    from frac_kinetics.kinetics import _rows

    ledger = json.loads(OUT.read_text())
    moved = {}

    def record(family, case, key, got, errors):
        """Store ``raises``, or the list ``errors()`` under ``key`` (one error for "err"), counting each move."""
        counts = moved.setdefault(family, dict.fromkeys(("fell", "rose", "stayed", "recorded where it raised"), 0))
        old = case.pop(key, None)
        case.pop("raises", None)
        if isinstance(got, list):
            case["raises"] = got
            return
        new = errors()
        case[key] = new if key == "errs" else new[0]
        for now, was in zip(new, [None] * len(new) if old is None else old if key == "errs" else [old]):
            diff = None if was is None else mp.mpf(now) - mp.mpf(was)
            counts["recorded where it raised" if diff is None else
                   "fell" if diff < 0 else "rose" if diff > 0 else "stayed"] += 1

    for family, call, error in (("sums", sum_call, lambda got, case: sum_error(got, case["value"])),
                                ("ml", ml_call, lambda got, case: sum_error(got, case["value"])),
                                ("solve", solve_call, lambda got, case: solve_error(got, case["values"]))):
        for case in ledger[family]:
            got = outcome(call(case))
            record(family, case, "err", got, lambda: [_up3(error(got, case))])
    for prob in ledger["rows"]:
        got = outcome(lambda: tuple(islice(_rows(*prob["args"][:7]), prob["args"][7])))
        record("rows", prob, "errs", got,
               lambda: [_up3(row_error(row_image(row), v)) for row, v in zip(got, prob["values"])])
    _write(ledger["sums"], ledger["rows"], ledger["ml"], ledger["solve"])
    for family, counts in moved.items():
        print(f"{family} recorded errors: " + ", ".join(f"{n} {how}" for how, n in counts.items()), file=sys.stderr)


if __name__ == "__main__":
    refresh_errors() if sys.argv[1:] == ["--errors"] else main()
