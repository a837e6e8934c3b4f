"""Closed-form solutions of the fractional kinetic equations.

Three problem families are covered, all of the shape

    N(t) - N0 * S^k_{l,c}(lam * t**sigma) = -rate**upsilon * (I^upsilon N)(t),

where ``I^upsilon`` is the Riemann-Liouville integral and the forcing scale
(lam, sigma) is ``KineticProblem.forcing_scale``: (1, 1) for ``THM1`` (rate
``d``), (d**upsilon, upsilon) for ``THM2`` (rate ``d``) and for ``THM3`` (a
distinct rate ``a != d``).  Every family solves as one series of
Mittag-Leffler-damped powers of t, built by one row builder (``_rows``).

For THM2 and THM3 two readings of the term exponent are shipped behind the
``reading`` switch: the default ``"consistent"`` reading carries the k-Struve
exponent ``2r + l/k + 1`` through the transform algebra (and is the one the
numerical oracle confirms; see the README erratum note), while ``"printed"``
uses ``2r + l + 1``, which drops the ``1/k``.  The two coincide at k = 1.

Series evaluation reuses the compensated Mittag-Leffler core of
:mod:`frac_kinetics.special`, and per-problem coefficient rows are cached.
``solve_table`` sums the rows at every node of a grid on the series kernel
``special._lane_sums``, one lane per node; the Mittag-Leffler values of a
block of rows come from one kernel pass over their (row, node) pairs.  So
every entry is the double the scalar solver returns for that node.
"""

from __future__ import annotations

import enum
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._compensated import dd_add
from .errors import DomainError, PoleError, RangeError
from .kgamma import k_gamma
from .special import (
    ML_SERIES_CAP,
    KStruveParams,
    SeriesControl,
    _lane_sums,
    _log_coef,
    _ml_eval,
    _ml_eval_pairs,
    _ml_inv_gammas,
    _powers,
    mittag_leffler,
)

__all__ = [
    "Variant",
    "KineticProblem",
    "SolutionTable",
    "READINGS",
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


@lru_cache(maxsize=128)
def _rows(
    n0: float, lam: float, sigma: float, l: float, c: float, k: float, reading: str, max_terms: int
) -> tuple[tuple[float, float, float], ...]:
    """Rows (coef, t_exponent, ml_beta) of the solution series.

    Term r is  coef * t**(sigma*e_r) * E_{upsilon, sigma*e_r + 1}(z)
    with coef absorbing (lam / 2)**e_r * Gamma(sigma*e_r + 1) and
    z = -rate**upsilon * t**upsilon.
    """
    rows = []
    for r in range(max_terms):
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
            denom = k_gamma(r * k + l + 1.5 * k, k) * math.gamma(r + 1.5)
            head, power = n0 * (-c) ** r / denom, (lam / 2.0) ** e
            steps = (denom, head, power, head * power, head * power * math.gamma(g + 1.0))
        except OverflowError:
            steps = (math.inf,)
        coef = steps[-1]
        # a factor or partial product that overflowed (an infinite denominator
        # would otherwise give a silent 0.0) or passed through zero or a
        # subnormal is redone in log space, unless the row is exactly zero
        if not all(map(math.isfinite, steps)) or (
            min(map(abs, steps)) < sys.float_info.min and not ((r and c == 0.0) or lam == 0.0)
        ):
            coef = _log_coef(r, c, l, k, n0, lam / 2.0, e, g)
        rows.append((coef, g, g + 1.0))
    return tuple(rows)


def _problem_rows(p: KineticProblem, reading: str, max_terms: int) -> tuple[tuple[float, float, float], ...]:
    s = p.struve
    return _rows(p.n0, *p.forcing_scale, s.nu, s.c, s.k, reading, max_terms)


# the benchmark tracer (perfbench/tracer.py) looks the row cache up under its former names
_thm1_rows = _thm23_rows = _rows


def _check_t(p: KineticProblem, t: float) -> float:
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


def _sum_rows(rows, t: float, z: float, upsilon: float, ctl: SeriesControl) -> float:
    """Sum coef * t**e * E_{upsilon,beta}(z) with compensation."""
    sum_hi, sum_lo = 0.0, 0.0
    for coef, e, beta in rows:
        term = coef * t**e * _ml_eval(upsilon, beta, z, ctl)
        sum_hi, sum_lo = dd_add(sum_hi, sum_lo, term)
        if abs(term) <= ctl.rel_tol * abs(sum_hi):
            break
    return sum_hi + sum_lo


def _zero_t_value(p: KineticProblem) -> float:
    if p.struve.nu > -p.struve.k:
        return 0.0
    raise DomainError(
        "t = 0 requires l > -k (the leading t-exponent is otherwise non-positive); "
        f"got l = {p.struve.nu!r}, k = {p.struve.k!r}"
    )


def _solve(p: KineticProblem, t: float, ctl: SeriesControl | None, reading: str) -> float:
    if ctl is None:
        ctl = SeriesControl()
    t = _check_t(p, t)
    if t == 0.0:
        return _zero_t_value(p)
    z = _ml_argument(p.rate, p.upsilon, t)
    return _sum_rows(_problem_rows(p, reading, ctl.max_terms), t, z, p.upsilon, ctl)


def solve_thm1(p: KineticProblem, t: float, ctl: SeriesControl | None = None) -> float:
    """N(t) for the THM1 problem (forcing S^k_{l,c}(t), rate d)."""
    if p.variant is not Variant.THM1:
        raise DomainError(f"solve_thm1 requires variant THM1, got {p.variant}")
    return _solve(p, t, ctl, "consistent")


def solve_thm2(
    p: KineticProblem, t: float, ctl: SeriesControl | None = None, *, reading: str = "consistent"
) -> float:
    """N(t) for the THM2 problem (forcing S^k_{l,c}(d**ups * t**ups), rate d)."""
    if p.variant is not Variant.THM2:
        raise DomainError(f"solve_thm2 requires variant THM2, got {p.variant}")
    _check_reading(reading)
    return _solve(p, t, ctl, reading)


def solve_thm3(
    p: KineticProblem, t: float, ctl: SeriesControl | None = None, *, reading: str = "consistent"
) -> float:
    """N(t) for the THM3 problem (THM2 forcing, distinct rate a != d)."""
    if p.variant is not Variant.THM3:
        raise DomainError(f"solve_thm3 requires variant THM3, got {p.variant}")
    _check_reading(reading)
    return _solve(p, t, ctl, reading)


def solve_constant(p: KineticProblem, t: float, ctl: SeriesControl | None = None) -> float:
    """Closed form under constant forcing F = 1: N(t) = N0 * E_ups(-d**ups t**ups).

    Degenerate-check helper: at upsilon = 1 this is N0 * exp(-d t), the
    classical first-order decay the fractional families generalize.
    """
    t = _check_t(p, t)
    return p.n0 * mittag_leffler(p.upsilon, _ml_argument(p.d, p.upsilon, t), ctl)


# Rows whose Mittag-Leffler values are evaluated in one pass over the active
# nodes; of 4, 8, 16, 32 and 64, 8 was fastest on 101- and 4,097-node grids.
_ROW_BLOCK = 8
_GRID_CHUNK = 512  # nodes per pass; bounds the (row, node) pair arrays (peak memory)


@contextmanager
def _at_node(g: np.ndarray, i: int):
    """Attach grid index i to a ``DomainError``/``OverflowError`` raised inside."""
    try:
        yield
    except (DomainError, OverflowError) as exc:
        raise type(exc)(f"grid index {i} (t = {float(g[i])!r}): {exc}") from exc


@np.errstate(over="ignore", invalid="ignore")
def _ml_arguments(p: KineticProblem, ts: np.ndarray) -> np.ndarray:
    """:func:`_ml_argument` at each node t > 0, up to the first node that it or
    :func:`_check_t` rejects: one entry per node before that one (``ts.size`` if none)."""
    z = -_powers([p.rate], [p.upsilon])[0, 0] * _powers(ts.tolist(), [p.upsilon])[0]
    ok = np.abs(z) <= ML_SERIES_CAP  # False at NaN: a power that raises, or t = inf at rate 0
    return z if ok.all() else z[: ok.argmin()]


def _row_block(rows, start: int, upsilon: float, max_terms: int):
    """(coefs as a column, exponents, betas, inverse-gamma table, pole mask) of one block of rows."""
    block = rows[start : start + _ROW_BLOCK]
    beta = np.array([b for _, _, b in block])
    inv_g = np.zeros((len(block), max_terms))
    pole = np.zeros(len(block), dtype=bool)
    for j, b in enumerate(beta.tolist()):
        try:
            inv_g[j] = _ml_inv_gammas(upsilon, b, max_terms)
        except PoleError:  # _ml_eval raises it for every node that reaches the row
            pole[j] = True
    return np.array([[c] for c, _, _ in block]), [e for _, e, _ in block], beta, inv_g, pole


def _sum_rows_grid(blocks: dict, rows, ts: np.ndarray, z: np.ndarray, upsilon: float, ctl: SeriesControl):
    """:func:`_sum_rows` at every node, node for node the same double.

    The nodes are lanes of :func:`_lane_sums`, one row per step; a block of
    rows is evaluated at once over the nodes active at its start.  ``blocks``
    memoises :func:`_row_block` across calls.  Returns the values and a mask
    of the nodes for which ``_sum_rows`` raises (their values are meaningless).
    """
    state = [np.arange(ts.size), None]  # each lane's node, and its column in the current block
    block = []

    def step(r, hi):
        pos, col = state
        j = r % _ROW_BLOCK
        if not j:
            if r not in blocks:
                blocks[r] = _row_block(rows, r, upsilon, ctl.max_terms)
            coefs, exps, beta, inv_g, pole = blocks[r]
            n_rows, m = len(exps), pos.size
            ml, ml_bad = _ml_eval_pairs(
                upsilon, inv_g, beta, np.repeat(np.arange(n_rows), m), np.tile(z[pos], n_rows), ctl
            )
            powers = _powers(ts[pos].tolist(), exps)
            terms = coefs * powers * ml.reshape(n_rows, m)
            block[:] = terms, ml_bad.reshape(n_rows, m) | pole[:, None] | np.isnan(powers)
            state[1] = col = np.arange(m)
        terms, bad = block
        return terms[j][col], 0.0, bad[j][col]

    return _lane_sums(step, state, len(rows), ctl.rel_tol)[::2]


def solve_table(
    p: KineticProblem,
    grid,
    ctl: SeriesControl | None = None,
    *,
    reading: str = "consistent",
) -> SolutionTable:
    """The variant's solver at every node of a grid, in one array pass.

    Every entry is the double the scalar solver returns for that node.  The
    grid must be strictly increasing with all entries >= 0.  The first node
    at which the scalar solver fails aborts with the same error, its index
    attached.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise DomainError("grid must be a non-empty 1-D array")
    if g[0] < 0.0 or (g.size > 1 and not np.all(np.diff(g) > 0.0)):
        raise DomainError("grid must be strictly increasing with all entries >= 0")
    if ctl is None:
        ctl = SeriesControl()
    if p.variant is Variant.THM1:
        reading = "consistent"  # THM1 has a single reading and accepts any value here
    else:
        with _at_node(g, 0):
            _check_reading(reading)
    values = np.zeros(g.size)
    first = 0  # the first node with t > 0
    if g[0] == 0.0:
        with _at_node(g, 0):
            values[0] = _zero_t_value(p)
        first = 1
    ts = g[first:]
    z = _ml_arguments(p, ts)
    if z.size:
        with _at_node(g, first):
            rows = _problem_rows(p, reading, ctl.max_terms)
        blocks: dict = {}
        for start in range(0, z.size, _GRID_CHUNK):
            part = slice(start, min(start + _GRID_CHUNK, z.size))
            vals, failed = _sum_rows_grid(blocks, rows, ts[part], z[part], p.upsilon, ctl)
            if failed.any():
                i = start + int(np.argmax(failed))
                with _at_node(g, first + i):
                    _sum_rows(rows, float(ts[i]), float(z[i]), p.upsilon, ctl)
                raise RuntimeError(f"grid index {first + i}: array pass and scalar row sum disagree")
            values[first + start : first + start + vals.size] = vals
    if z.size < ts.size:
        with _at_node(g, first + z.size):
            _ml_argument(p.rate, p.upsilon, _check_t(p, float(ts[z.size])))
    return SolutionTable(g, values)
