"""Closed-form solutions of the fractional kinetic equations.

Three problem families are covered, all of the shape

    N(t) - N0 * S^k_{l,c}(lam * t**sigma) = -rate**upsilon * (I^upsilon N)(t),

where ``I^upsilon`` is the Riemann-Liouville integral and the forcing scale
(lam, sigma) is ``KineticProblem.forcing_scale``: (1, 1) for ``THM1`` (rate
``d``), (d**upsilon, upsilon) for ``THM2`` (rate ``d``) and for ``THM3`` (a
distinct rate ``a != d``).  Every family solves as one series
N(t) = sum_i D_i t**x_i, the Neumann series of the integral equation: each
term b_r t**g_r of the forcing's own series (``_rows``) becomes a power of t
times a Mittag-Leffler function, expanded into coefficients free of t
(``_Series``, cached per problem): a sum takes the rows its stop rule needs.

For THM2 and THM3 two readings of the term exponent are shipped behind the
``reading`` switch: the default ``"consistent"`` reading carries the k-Struve
exponent ``2r + l/k + 1`` through the transform algebra (and is the one the
numerical oracle confirms; see the README erratum note), while ``"printed"``
uses ``2r + l + 1``, which drops the ``1/k``.  The two coincide at k = 1.
THM1 has a single exponent, but a THM1 ``reading`` must be valid too.

``solve`` is the one solver body; ``solve_thm1/2/3`` and ``solve_table`` call
it.  At a real t it sums the series in one Sum2 loop (``_sum_series``), on a
grid on the series kernel ``special._lane_sums``, a lane per node, and
solves every node whose lane sum is not finite, or past a cap, at that real t:
so every entry is the double a real t returns there, or the grid raises its
error.  A t raises ``RangeError`` past ``ML_SERIES_CAP`` (rate**upsilon
t**upsilon) or ``STRUVE_SERIES_CAP`` (the forcing argument lam t**sigma).
Neither path evaluates a Mittag-Leffler series (``solve_constant`` calls
``mittag_leffler``).  numpy (``_lazy_numpy.np``) loads on the first grid,
never at a real t.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import sys
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._compensated import dd_add, dd_div_double, dd_mul_double
from ._lazy_numpy import np
from .errors import DomainError, PoleError, RangeError
from .kgamma import _gamma_sign
from .special import (
    ML_SERIES_CAP,
    STRUVE_SERIES_CAP,
    _DEFAULT_CTL,
    KStruveParams,
    SeriesControl,
    _lane_sums,
    _powers,
    _scaled_terms,
    mittag_leffler,
)

__all__ = [
    "Variant",
    "KineticProblem",
    "SolutionTable",
    "READINGS",
    "solve",
    "solve_thm1",
    "solve_thm2",
    "solve_thm3",
    "solve_constant",
    "solve_table",
]

READINGS = ("consistent", "printed")


class Variant(enum.Enum):
    THM1 = "thm1"
    THM2 = "thm2"
    THM3 = "thm3"


@dataclass(frozen=True)
class KineticProblem:
    """A kinetic-equation instance: initial density, order, rates, forcing.

    ``d`` may be zero (the equation then collapses to N = N0 * F, which the
    degenerate tests rely on); ``a`` is required for THM3 and must differ
    from ``d``.
    """

    n0: float
    upsilon: float
    d: float
    struve: KStruveParams
    variant: Variant
    a: float | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.variant, Variant)):
            raise DomainError(f"variant must be a Variant member, got {self.variant!r}")
        for name in ("n0", "upsilon", "d"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"{name} must be a finite real, got {v!r}")
        if self.n0 <= 0.0:
            raise DomainError(f"n0 must be > 0, got {self.n0!r}")
        if self.upsilon <= 0.0:
            raise DomainError(f"upsilon must be > 0, got {self.upsilon!r}")
        if self.d < 0.0:
            raise DomainError(f"d must be >= 0, got {self.d!r}")
        if self.variant is Variant.THM3:
            if self.a is None:
                raise DomainError("variant THM3 requires the distinct rate a")
            if not (isinstance(self.a, (int, float)) and math.isfinite(self.a) and self.a > 0.0):
                raise DomainError(f"a must be a positive finite real, got {self.a!r}")
            if self.a == self.d:
                raise DomainError(f"THM3 requires a != d (got a = d = {self.a!r})")
        elif self.a is not None:
            raise DomainError(f"rate a is only meaningful for THM3, got a = {self.a!r}")

    @property
    def rate(self) -> float:
        """The relaxation rate entering the integral term (a for THM3)."""
        return self.a if self.variant is Variant.THM3 else self.d

    @property
    def forcing_scale(self) -> tuple[float, float]:
        """(lam, sigma) of the forcing S^k_{l,c}(lam * t**sigma)."""
        if self.variant is Variant.THM1:
            return 1.0, 1.0
        return self.d**self.upsilon, self.upsilon


@dataclass(frozen=True)
class SolutionTable:
    """Tabulated N(t) on strictly increasing abscissae."""

    t: np.ndarray
    n: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        n = np.asarray(self.n, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "n", n)
        if t.ndim != 1 or n.ndim != 1 or t.shape != n.shape:
            raise DomainError("t and n must be 1-D arrays of equal length")
        if t.size == 0:
            raise DomainError("table must contain at least one node")
        if t[0] < 0.0:
            raise DomainError(f"abscissae must be >= 0, got t[0] = {t[0]!r}")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise DomainError("abscissae must be strictly increasing")

    def __len__(self) -> int:
        return int(self.t.size)


def _exponent(r: int, l: float, k: float, reading: str) -> float:
    if reading == "consistent":
        return 2.0 * r + l / k + 1.0
    return 2.0 * r + l + 1.0


def _check_reading(reading: str) -> None:
    if reading not in READINGS:
        raise DomainError(f"reading must be one of {READINGS}, got {reading!r}")


def _rows(n0: float, lam: float, sigma: float, l: float, c: float, k: float, reading: str):
    """Yield the rows (b_r, g_r), r = 0, 1, ..., of the forcing series N0 * F(t) = sum_r b_r * t**g_r.

    b_r = n0 * a_r * (lam / 2)**e_r comes from ``special._scaled_terms`` under either reading
    (e_r - e_0 = 2r): 0.0 or subnormal only below the double range, ``OverflowError`` as it is drawn
    above it.  g_r = sigma * e_r.  Row r of the solution is b_r Gamma(g_r + 1) t**g_r E_{upsilon,
    g_r + 1}(-rate**upsilon t**upsilon), which :class:`_Series` expands without forming Gamma(g_r + 1).
    """
    scaled = _scaled_terms(n0, lam / 2.0, _exponent(0, l, k, reading), l, c, k)
    for r, (m, e2) in enumerate(scaled):
        e = _exponent(r, l, k, reading)
        g = sigma * e
        if g + 1.0 <= 0.0 and g + 1.0 == math.floor(g + 1.0):
            raise PoleError(f"row r = {r}: Gamma(sigma*e_r + 1) hits a gamma pole at {g + 1.0!r}")
        if lam == 0.0 and e < 0.0:
            raise DomainError(
                f"row r = {r}: lam = 0 puts the forcing at S(0), which diverges for a negative "
                f"exponent e_r = {e!r} (l/k < -1 under the consistent reading)"
            )
        try:
            coef = math.ldexp(m, e2)
        except OverflowError:
            coef = math.inf
        if not abs(coef) < math.inf:
            raise OverflowError(f"series row r = {r} exceeds the double range")
        yield coef, g


def _check_t(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be a finite real >= 0, got {t!r}")
    return t


def _ml_argument(rate: float, upsilon: float, t: float) -> float:
    z = -(rate**upsilon) * t**upsilon
    if abs(z) > ML_SERIES_CAP:
        raise RangeError(
            f"rate**upsilon * t**upsilon = {abs(z)!r} exceeds the "
            f"Mittag-Leffler series cap {ML_SERIES_CAP}"
        )
    return z


_MAX_ENTRIES = 1 << 16  # a series still going after this many entries raises RangeError


def _gamma(a: float) -> float:
    return math.gamma(a) if a < 171.6 else math.inf  # math.gamma overflows from 171.62 on


def _exp(x: float) -> float:
    return math.exp(x) if x < 709.78 else math.inf  # a sum that takes the entry then overflows


def _chain(row, first: int, q: float, upsilon: float, j: int, stride: int):
    """D_n = q D_{n-1} Gamma(a_{n-1}) / Gamma(a_n) + [j | n] b_{first + stride n/j} in double-double, from
    D_0 = b_first, a_n = g_first + 1 + upsilon n (j = 0: one row), (b_r, g_r) = ``row(r)``.  The ratio is
    exact division by a_{n-1} + i, i < upsilon, for integer upsilon, else the double-double quotient of two
    ``math.gamma`` values (so the ratios telescope: D_n keeps the rounding of Gamma(a_0) and Gamma(a_n)), or
    from ``lgamma`` where one is out of range."""
    beta = row(first)[1] + 1.0
    n_int = round(upsilon)
    d_hi, d_lo = row(first)[0], 0.0
    a_prev, g_prev = beta, _gamma(beta)
    for n in itertools.count(1):
        yield d_hi + d_lo
        a = beta + upsilon * n
        if a <= 0.0 and a == math.floor(a):
            raise PoleError(f"Gamma({a!r}) of entry n = {n} of row r = {first} hits a gamma pole")
        g = _gamma(a)
        if upsilon == n_int:
            for i in range(n_int):
                if not (d_hi or d_lo):
                    break
                d_hi, d_lo = dd_div_double(d_hi, d_lo, a_prev + i)
        elif sys.float_info.min <= min(abs(g_prev), abs(g)) and max(abs(g_prev), abs(g)) < math.inf:
            r_hi, r_lo = dd_div_double(g_prev, 0.0, g)
            d_hi, d_lo = dd_add(*dd_mul_double(d_hi, d_lo, r_hi), d_hi * r_lo)
        else:
            ratio = _gamma_sign(a_prev) * _gamma_sign(a) * _exp(math.lgamma(a_prev) - math.lgamma(a))
            d_hi, d_lo = dd_mul_double(d_hi, d_lo, ratio)
        d_hi, d_lo = dd_mul_double(d_hi, d_lo, q)
        if j and n % j == 0:
            d_hi, d_lo = dd_add(d_hi, d_lo, row(first + n // j * stride)[0])
        a_prev, g_prev = a, g


class _Series:
    """The solution series N(t) = sum_i D_i t**x_i of one problem, its ``entries`` in exponent order.

    Row r of :func:`_rows` (b_r, g_r), b_r Gamma(beta_r) t**g_r E_{upsilon, beta_r}(q t**upsilon) with
    beta_r = g_r + 1 and q = -rate**upsilon, expands into D_{r,n} = b_r q**n Gamma(beta_r) /
    Gamma(beta_r + upsilon n) at x = g_r + upsilon n, from D_{r,0} = b_r.  Where 2 sigma / upsilon = j / L,
    L at most 50 (THM2 and THM3: 2 / 1), row r + L's exponents are row r's from n = j on: rows r, r + L,
    r + 2L, ... share one chain, the L chains (else one per row, without end) merged by exponent, chain c
    joining as chain c - 1 begins.  Row r is drawn from :func:`_rows` as the merge reaches g_r, so a sum
    takes the rows its stop rule asks for.  ``entries`` holds (D_i, x_i, chain, first): a chain's first
    entry takes its power t**x_i by ``**``, each later one the chain's power before times t**upsilon.

    Stop rule: a sum ends at the first entry i at which each of the last ``runs[i]`` terms was at
    most ``rel_tol`` times the partial sum after it, ``runs[i]`` being the number of entries with
    exponents in (x_i - P, x_i], P = max(2 sigma, upsilon): the latest entry of every chain begun
    and the first entry of a row (with one chain, the last j entries).

    Entries are built as sums reach them, and kept.  One that cannot be built (a gamma pole, a row past
    the double range, entry ``_MAX_ENTRIES``) is (nan, nan), and a sum that reaches it raises the error met.
    """

    def __init__(self, p: KineticProblem, reading: str):
        s, upsilon, sigma, q = p.struve, p.upsilon, p.forcing_scale[1], -(p.rate**p.upsilon)
        source, rows = _rows(p.n0, *p.forcing_scale, s.nu, s.c, s.k, reading), []

        def row(r: int) -> tuple[float, float]:
            while len(rows) <= r:
                rows.append(next(source))
            return rows[r]

        self.entries, self.runs, self._error, self.upsilon = [], [], None, upsilon
        ratio = Fraction(2.0 * sigma / upsilon).limit_denominator(50)  # j / L
        j, n_chains = ratio.numerator, ratio.denominator
        if j * upsilon != 2.0 * sigma * n_chains:  # no common exponents: a chain per row, without end
            j, n_chains = 0, sys.maxsize
        chains = (_chain(row, c, q, upsilon, j, n_chains) for c in range(n_chains))
        firsts = (sigma * _exponent(c, s.nu, s.k, reading) for c in range(n_chains))  # g_c, as _rows forms it
        self._next = self._merged(chains, firsts, max(2.0 * sigma, upsilon))

    def _merged(self, chains, firsts, span: float):
        heap, begun, g, window = [(next(firsts), 0, 0)], [], [], deque()
        for i in range(_MAX_ENTRIES):
            x, c, n = heapq.heappop(heap)
            if n == 0:  # chain c begins, and chain c + 1, whose exponents are above x, joins (inf: none)
                begun.append(next(chains))
                g.append(x)
                heapq.heappush(heap, (next(firsts, math.inf), c + 1, 0))
            d = next(begun[c])
            window.append(x)
            while window[0] <= x - span:
                window.popleft()
            yield (d, x, c, n == 0), len(window)
            heapq.heappush(heap, (g[c] + self.upsilon * (n + 1), c, n + 1))
        raise RangeError(f"the solution series does not stop within {_MAX_ENTRIES} entries")

    def reach(self, i: int) -> None:
        """Build the entries up to index i (none past one that cannot be built)."""
        while len(self.entries) <= i and self._error is None:
            try:
                entry, run = next(self._next)
            except (ArithmeticError, DomainError) as exc:
                entry, run, self._error = (math.nan, math.nan, 0, True), 1, exc
            self.entries.append(entry)
            self.runs.append(run)

    def error(self, i: int) -> Exception:
        """What a sum that fails at entry i raises: the error met building it, or an overflow."""
        if self._error is not None and i == len(self.entries) - 1:
            return type(self._error)(*self._error.args)
        return OverflowError(f"solution series entry {i} (t**{self.entries[i][1]!r}): a term or the sum overflows")


_problem_series = lru_cache(maxsize=128)(_Series)  # one series per (problem, reading)
# the benchmark tracer (perfbench/tracer.py) reads the series cache under the row cache's former names
_thm1_rows = _thm23_rows = _problem_series


def _sum_series(series: _Series, t: float, rel_tol: float) -> float:
    """N(t) from the entries of ``series`` under its stop rule, by Sum2 (Ogita, Rump and Oishi): the running
    sum, and apart the running sum of its ``two_sum`` errors, added at the stop, as ``special._lane_sums``
    sums a lane.  Raises :meth:`_Series.error` where an entry cannot be built or a power, a term or the
    sum leaves the double range."""
    tu, entries, runs, powers = t**series.upsilon, series.entries, series.runs, {}
    s, err, run = 0.0, 0.0, 0
    try:
        for i in itertools.count():
            if i == len(entries):
                series.reach(i)
            d, x, c, first = entries[i]
            powers[c] = power = t**x if first else powers[c] * tu
            term = d * power
            s, prev = s + term, s  # Sum2: two_sum inlined, its errors summed apart
            if not abs(s) < math.inf:
                raise OverflowError
            bb = s - prev
            err += (prev - (s - bb)) + (term - bb)
            run = run + 1 if abs(term) <= rel_tol * abs(s) else 0
            if run >= runs[i]:
                break
        if not abs(s + err) < math.inf:
            raise OverflowError
    except OverflowError:
        raise series.error(i) from None
    return s + err


def _zero_t_value(p: KineticProblem) -> float:
    if p.struve.nu > -p.struve.k:
        return 0.0
    raise DomainError(
        "t = 0 requires l > -k (the leading t-exponent is otherwise non-positive); "
        f"got l = {p.struve.nu!r}, k = {p.struve.k!r}"
    )


def _of_variant(p: KineticProblem, variant: Variant) -> KineticProblem:
    if p.variant is not variant:
        raise DomainError(f"solve_{variant.value} requires variant {variant.name}, got {p.variant}")
    return p


def solve_thm1(p: KineticProblem, t: float, ctl: SeriesControl | None = None) -> float:
    """:func:`solve` for the THM1 problem (forcing S^k_{l,c}(t), rate d)."""
    return solve(_of_variant(p, Variant.THM1), t, ctl)


def solve_thm2(
    p: KineticProblem, t: float, ctl: SeriesControl | None = None, *, reading: str = "consistent"
) -> float:
    """:func:`solve` for the THM2 problem (forcing S^k_{l,c}(d**ups * t**ups), rate d)."""
    return solve(_of_variant(p, Variant.THM2), t, ctl, reading=reading)


def solve_thm3(
    p: KineticProblem, t: float, ctl: SeriesControl | None = None, *, reading: str = "consistent"
) -> float:
    """:func:`solve` for the THM3 problem (THM2 forcing, distinct rate a != d)."""
    return solve(_of_variant(p, Variant.THM3), t, ctl, reading=reading)


def solve_constant(p: KineticProblem, t: float, ctl: SeriesControl | None = None) -> float:
    """Closed form under constant forcing F = 1: N(t) = N0 * E_ups(-d**ups t**ups).

    Degenerate-check helper: at upsilon = 1 this is N0 * exp(-d t), the
    classical first-order decay the fractional families generalize.
    """
    t = _check_t(t)
    return p.n0 * mittag_leffler(p.upsilon, _ml_argument(p.d, p.upsilon, t), ctl)


@contextmanager
def _at_node(g: np.ndarray, i: int):
    """Attach grid index i to a ``DomainError``/``OverflowError`` raised inside."""
    try:
        yield
    except (DomainError, OverflowError) as exc:
        raise type(exc)(f"grid index {i} (t = {float(g[i])!r}): {exc}") from exc


def _sum_series_grid(series: _Series, ts: np.ndarray, s: np.ndarray, rel_tol: float) -> np.ndarray:
    """:func:`_sum_series` at every node on :func:`_lane_sums`: the same double where that is finite;
    where it is not, ``_sum_series`` raises.  Every lane stops by entry ``_MAX_ENTRIES``, which cannot be built."""
    state = [np.arange(ts.size), ts, s]  # then the powers of chain c at each node, state[3 + c]

    def step(n):
        series.reach(n)
        if n >= len(series.entries):  # past an entry that cannot be built, which every lane stops on
            return np.full(state[0].size, np.nan)  # its run length is 1: series.runs ends there too
        d, x, c, first = series.entries[n]
        if first:  # chains begin in order
            state.append(_powers(state[1].tolist(), x))  # NaN where ** raises
        else:
            state[3 + c] *= state[2]
        return d * state[3 + c]

    return _lane_sums(step, state, _MAX_ENTRIES + 1, rel_tol, series.runs)  # steps under its errstate


def solve(p: KineticProblem, t, ctl: SeriesControl | None = None, *, reading: str = "consistent"):
    """N(t) of any variant: a float at a real t, a :class:`SolutionTable` on a grid.

    A real ``t`` (int, float or numpy scalar) is summed in one compensated
    loop, which leaves numpy unloaded.  A sized ``t`` is a grid (list, tuple
    or 1-D array, strictly increasing, all entries >= 0), summed in one array
    pass, and every entry is the double a real ``t`` gives at that node.  The
    first node at which a real ``t`` would fail aborts with the same error,
    with ``grid index i (t = ...): `` in front.

    ``reading`` must be one of ``READINGS`` for every variant; it picks the
    THM2/THM3 term exponent, and THM1 has a single one.

    Where the leading forcing exponent g_0 = sigma * e_0 is at most -1 (THM2
    or THM3 with upsilon > 1 and l/k in (-3/2, -1), or such exponents under
    the printed reading), the forcing has no Riemann-Liouville integral: a
    t > 0 gives the analytically continued closed form, which no oracle leg
    can check, and t = 0 raises ``DomainError``.
    """
    if ctl is None:
        ctl = _DEFAULT_CTL
    rows_reading = "consistent" if p.variant is Variant.THM1 else reading  # THM1 has one term exponent
    if not hasattr(t, "__len__"):  # a real t: no numpy
        _check_reading(reading)
        t = _check_t(t)
        if t == 0.0:
            return _zero_t_value(p)
        _ml_argument(p.rate, p.upsilon, t)
        lam, sigma = p.forcing_scale
        if lam * t**sigma > STRUVE_SERIES_CAP:
            raise RangeError(
                f"forcing argument lam * t**sigma = {lam * t**sigma!r} exceeds the Struve series cap {STRUVE_SERIES_CAP}"
            )
        return _sum_series(_problem_series(p, rows_reading), t, ctl.rel_tol)
    table = SolutionTable(t, np.zeros(np.shape(t)))
    g, first = table.t, int(table.t[0] == 0.0)  # the first node with t > 0
    with _at_node(g, 0):
        _check_reading(reading)
        if first:
            table.n[0] = _zero_t_value(p)
    ts = g[first:]
    with np.errstate(over="ignore", invalid="ignore"):
        s = _powers(ts.tolist(), p.upsilon)
        ok = np.abs(-_powers([p.rate], p.upsilon)[0] * s) <= ML_SERIES_CAP  # False at NaN
        with suppress(OverflowError):  # of d**upsilon: _problem_series raises it at the first node
            lam, sigma = p.forcing_scale
            ok &= lam * (ts if sigma == 1.0 else s) <= STRUVE_SERIES_CAP
    n = ts.size if ok.all() else int(ok.argmin())  # the nodes before the first past a cap (or inf)
    if n:
        with _at_node(g, first):
            series = _problem_series(p, rows_reading)
        table.n[first : first + n] = _sum_series_grid(series, ts[:n], s[:n], ctl.rel_tol)
    # the scalar solve returns the same double, or raises its own error, at every other node
    for i in [*np.flatnonzero(~np.isfinite(table.n[first : first + n])).tolist(), *range(n, ts.size)]:
        with _at_node(g, first + i):
            table.n[first + i] = solve(p, float(ts[i]), ctl, reading=reading)
    return table


def solve_table(
    p: KineticProblem,
    grid,
    ctl: SeriesControl | None = None,
    *,
    reading: str = "consistent",
) -> SolutionTable:
    """:func:`solve` on a grid, for any variant; a scalar ``grid`` raises ``DomainError``."""
    return solve(p, np.asarray(grid, dtype=float), ctl, reading=reading)
