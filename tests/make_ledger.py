"""Compute the k-Struve accuracy ledger, ``ledger.json``, next to this file.

Run from the repository root (needs mpmath and the package on the path; takes
a few minutes):

    PYTHONPATH=src python3 tests/make_ledger.py

Each case holds its inputs, the exact value as 40-digit mpmath text and the
error of the program that wrote the ledger, or the error it raised (type and
message).  ``test_ledger.py`` holds every later version of the program to
those errors, or to a family floor where that is larger.

Two families:

* ``sums``: ``k_struve`` and ``struve_h`` at default control.  The value and
  the term-magnitude sum come from the exact series, summed by its term ratio
  at a precision raised until the cancellation it meets leaves 40 digits.
  The error is absolute.  The floor is 32 u * sum |term|, plus how far the
  program's formula is from the value in exact arithmetic (it rounds nu/k to
  a double and takes only the terms its stop rule takes), plus an allowance
  for the terms it forms from logarithms (see ``sum_reference``).
  Inputs: the corner cases pinned in ``test_special.py``, named repros, and
  seeded wide draws.
* ``rows``: the coefficient rows of the solution series,
  ``kinetics._rows(n0, lam, sigma, l, c, k, reading, max_terms)``, as closed
  products of gamma functions.  The error is relative; the floor is 1e-12.
  Inputs: the problems of the ``sweep`` benchmark pool and named repros.

Recorded errors are rounded up to three significant digits.  A value that
was wrong when the ledger was written stays in it as a recorded row (for
example a 50-term truncation), so that it can only get better.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
OUT = HERE / "ledger.json"
DPS = 40
U = 2.0**-53
SUM_FLOOR_U = 32  # sums: 32 u * sum |term|
ROW_FLOOR = 1e-12  # rows: relative


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

    Term r is (-c)**r (x/2)**(2r + e0) / (k**(x_r - 1) Gamma(x_r) Gamma(r + 3/2))
    with the double e0 = nu/k + 1 (nu/k rounded, then the sum) and the exact
    x_r = r + nu/k + 3/2, summed until a term is at most 1e-14 times the sum
    or 50 terms are taken (the default control).  A term whose k-power,
    Gamma(x_r), denominator or coefficient leaves the normal double range,
    or whose power falls below it, is formed from logarithms; the allowance
    is 4 u (a few roundings of each) times their sum of magnitudes times
    |term|, summed over those terms.
    """
    lo, hi = mp.mpf(sys.float_info.min), mp.mpf(sys.float_info.max)
    rho, h = nu / k, x / 2.0
    with mp.workdps(dps):
        total = allow = mp.mpf(0)
        for r in range(50):
            xr = r + mp.mpf(nu) / k + mp.mpf(1.5)
            k_power, gamma, gamma_half = mp.mpf(k) ** (xr - 1), mp.gamma(xr), mp.gamma(r + mp.mpf(1.5))
            coef = (-mp.mpf(c)) ** r / (k_power * gamma * gamma_half)
            e = 2 * r + mp.mpf(rho + 1.0)
            power = mp.mpf(h) ** e
            term = coef * power
            total += term
            factors = (k_power, gamma, k_power * gamma * gamma_half, abs(coef) or lo)
            if not all(lo <= v <= hi for v in factors) or power < lo:
                logs = (r * mp.log(abs(c)) if c else 0, e * mp.log(h), (xr - 1) * mp.log(k), mp.log(gamma),
                        mp.log(gamma_half))
                allow += 4 * U * sum(map(abs, logs)) * abs(term)
            if abs(term) <= mp.mpf(1e-14) * abs(total):
                break
        return total, allow


def sum_reference(nu, c, k, x):
    """(value, sum |term|, floor) of the exact series, the value to 40 digits.

    The floor is 32 u * sum |term| (powers, products and compensated sum),
    plus what the program's formula is off by in exact arithmetic (the
    rounding of nu/k and the terms it does not take), plus the log-space
    allowance of :func:`_design`.
    """
    dps = DPS + 10
    while True:
        value, mag = _series(nu, c, k, x, dps)
        lost = int(mp.log10(mag / abs(value))) + 1 if value else 0
        if dps >= DPS + 10 + lost:
            check, _ = _series(nu, c, k, x, dps + 20)
            if abs(check - value) <= mp.mpf(10) ** -(DPS + 2) * abs(check):
                break
        dps = max(dps + 20, DPS + 10 + lost)
    design, allow = _design(nu, c, k, x, dps + 20)
    with mp.workdps(dps + 20):
        return check, mag, SUM_FLOOR_U * U * mag + abs(design - check) + allow


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


def row_error(got: float, value: str):
    with mp.workdps(DPS):
        want = mp.mpf(value)
        return abs(mp.mpf(got) - want) / abs(want) if want else abs(mp.mpf(got))


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


def row_problems() -> list[dict]:
    """The ``_rows`` inputs of every ``rows`` case."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import workloads as wl

    from frac_kinetics import KineticProblem, KStruveParams, Variant

    out = []
    slots, fixed = wl.sweep_pool()
    for cell in [c for draws in slots for c in draws] + fixed:
        p = KineticProblem(
            n0=1.0, upsilon=cell["upsilon"], d=cell["d"], struve=KStruveParams(cell["l"], cell["c"], cell["k"]),
            variant=Variant(cell["variant"]), a=cell["a"],
        )
        s = p.struve
        out.append(dict(args=[p.n0, *p.forcing_scale, s.nu, s.c, s.k, "consistent", 50], tag=cell["key"]))
    # Gamma_k(rk + l + 3k/2) subnormal from row 2 on, below the range at row 19
    for n in (19, 20):
        out.append(dict(
            args=[1.0, 1.0, 0.1, 0.11039369777854577, -0.9097258095658689, 0.0005, "consistent", n],
            tag="subnormal Gamma_k rows",
        ))
    return out


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
        got = outcome(lambda: _rows(*args))
        if isinstance(got, list):
            prob["raises"] = got
        else:
            prob["errs"] = [_up3(row_error(coef, v)) for (coef, _, _), v in zip(got, prob["values"])]
        rows.append(prob)
    with OUT.open("w") as f:  # one case a line, so that a remade ledger diffs case by case
        for name, family in (("sums", sums), ("rows", rows)):
            f.write(("{" if name == "sums" else ",\n") + json.dumps(name) + ": [\n")
            f.write(",\n".join(json.dumps(case) for case in family) + "\n]")
        f.write("}\n")
    print(f"wrote {len(sums)} sums and {len(rows)} row problems to {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
