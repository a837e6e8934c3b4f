"""Compute the mpmath references of every workload input into refs.json.

Run from the repository root (needs mpmath; takes a few minutes):

    python3 perfbench/make_refs.py

Nothing here imports the program.  Solutions come from the Neumann series of
the integral equation N = N0*F - rho * I^ups N, summed term-wise with
I^ups t^a = Gamma(a+1)/Gamma(a+1+ups) * t^(a+ups) over the k-Struve series of
the forcing F, rather than from the program's row formula.  The
Mittag-Leffler function uses E_{1/2}(z) = exp(z^2) erfc(-z) and
E_1(z) = exp(z) where they apply, the Struve function ``mpmath.struveh``, and
everything else a high-precision power series.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

mp.mp.dps = 40
EPS = mp.mpf(10) ** -40
OUT = Path(__file__).resolve().parent / "refs.json"


def k_gamma(x, k):
    return mp.power(k, x / k - 1) * mp.gamma(x / k)


def forcing_terms(spec):
    """[(f_r, p_r)] with F(t) = sum_r f_r t**p_r, from the k-Struve series."""
    ups, d, l, c, k = (mp.mpf(spec[n]) for n in ("upsilon", "d", "l", "c", "k"))
    out = []
    for r in range(1000):
        e = 2 * r + l / k + 1
        f = (-c) ** r / (k_gamma(r * k + l + mp.mpf(3) / 2 * k, k) * mp.gamma(r + mp.mpf(3) / 2))
        if spec["variant"] == "thm1":
            out.append((f * mp.power(2, -e), e))
        else:
            out.append((f * mp.power(d**ups / 2, e), ups * e))
        if r > 2 and abs(out[-1][0]) * mp.power(4, out[-1][1]) < EPS:
            return out
    raise RuntimeError("forcing series did not converge")


def neumann(spec, ts, t_max=1.0):
    """N(t) for each t <= t_max from the Neumann series of the Volterra equation."""
    n0, ups = mp.mpf(spec.get("n0", 1.0)), mp.mpf(spec["upsilon"])
    rate = mp.mpf(spec["a"] if spec.get("a") is not None else spec["d"])
    rho = rate**ups
    y_max = mp.mpf(t_max) ** ups
    rows = []
    for f, p in forcing_terms(spec):
        # (I^ups)^m t^p = Gamma(p+1)/Gamma(p+1+m ups) t^(p + m ups)
        g0 = mp.gamma(p + 1)
        coefs, peak = [], mp.mpf(0)
        for m in range(100000):
            g = g0 * mp.rgamma(p + 1 + m * ups) * (-rho) ** m
            coefs.append(g)
            size = abs(g) * y_max**m
            peak = max(peak, size)
            if m > 2 and (size < EPS * peak or g == 0):
                break
        rows.append((f, p, coefs[::-1]))
    out = []
    for t in ts:
        t = mp.mpf(t)
        if t == 0:
            out.append(mp.mpf(0))
            continue
        y = t**ups
        total = mp.mpf(0)
        for f, p, rev in rows:
            total += f * t**p * mp.polyval(rev, y)
        out.append(n0 * total)
    return out


def ml(alpha, beta, z):
    alpha, beta, z = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
    if beta == 1 and alpha == mp.mpf(0.5):
        return mp.exp(z**2) * mp.erfc(-z)
    if beta == 1 and alpha == 1:
        return mp.exp(z)
    with mp.workdps(80):
        total, n, peak = mp.mpf(0), 0, mp.mpf(0)
        while True:
            term = z**n * mp.rgamma(alpha * n + beta)
            total += term
            peak = max(peak, abs(term))
            if n > 5 and abs(term) < mp.mpf(10) ** -50 * peak:
                return +total
            n += 1


def k_struve(nu, c, k, x):
    nu, c, k, x = (mp.mpf(v) for v in (nu, c, k, x))
    total, r = mp.mpf(0), 0
    while True:
        term = (-c) ** r / (k_gamma(r * k + nu + mp.mpf(3) / 2 * k, k) * mp.gamma(r + mp.mpf(3) / 2)) \
            * (x / 2) ** (2 * r + nu / k + 1)
        total += term
        if r > 3 and abs(term) < EPS * abs(total):
            return total
        r += 1


def laplace_thm1(spec, s):
    """L[N](s) = N0 L[F](s) / (1 + d**ups s**-ups), L[F] term-wise from the k-Struve series."""
    s, ups, d = mp.mpf(s), mp.mpf(spec["upsilon"]), mp.mpf(spec["d"])
    lf = mp.fsum(f * mp.gamma(p + 1) * s ** (-(p + 1)) for f, p in forcing_terms(spec))
    return mp.mpf(spec["n0"]) * lf / (1 + d**ups * s ** (-ups))


def point_ref(spec):
    call = spec["call"]
    if call == "gamma":
        return mp.gamma(spec["x"])
    if call == "k_gamma":
        return k_gamma(mp.mpf(spec["x"]), mp.mpf(spec["k"]))
    if call == "struve_h":
        return mp.struveh(spec["p"], spec["x"])
    if call == "k_struve":
        return k_struve(spec["nu"], spec["c"], spec["k"], spec["x"])
    if call.startswith("ml"):
        return ml(spec["alpha"], spec.get("beta", 1.0), spec["z"])
    if call == "laplace_image":
        return laplace_thm1(spec, mp.mpf(spec["d"]) + mp.mpf(spec["ds"]))
    if call == "solve_constant":
        ups, d, t = (mp.mpf(spec[n]) for n in ("upsilon", "d", "t"))
        return mp.mpf(spec["n0"]) * ml(ups, 1.0, -(d**ups) * t**ups)
    return neumann(spec, [spec["t"]], t_max=spec["t"])[0]


def all_specs(workload):
    slots, fixed = wl.POOLS[workload]()
    return [s for draws in slots for s in draws] + fixed


def main() -> int:
    refs = {"mpmath": mp.__version__, "dps": mp.mp.dps}
    ts = [i / (wl.SWEEP_POINTS - 1) for i in range(wl.SWEEP_POINTS)]
    refs["sweep"] = {s["key"]: [float(v) for v in neumann(s, ts)] for s in all_specs("sweep")}
    print(f"sweep: {len(refs['sweep'])} cells", file=sys.stderr)
    refs["march"] = {s["key"]: [float(v) for v in neumann(s, wl.MARCH_CHECK)]
                     for s in all_specs("march")}
    print(f"march: {len(refs['march'])} cells", file=sys.stderr)
    refs["point"] = {s["key"]: float(point_ref(s)) for s in all_specs("point")}
    print(f"point: {len(refs['point'])} calls", file=sys.stderr)
    OUT.write_text(json.dumps(refs, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
