"""Closed-form solutions of the fractional kinetic equations.

Three problem families are covered, all of the shape

    N(t) - N0 * F(t) = -rate**upsilon * (I^upsilon N)(t),

where ``I^upsilon`` is the Riemann-Liouville integral and ``F`` is a k-Struve
forcing:

* ``THM1`` — forcing S^k_{l,c}(t), rate ``d``;
* ``THM2`` — forcing S^k_{l,c}(d**upsilon * t**upsilon), rate ``d``;
* ``THM3`` — same forcing as THM2 but a distinct rate ``a != d``.

Each solution is a series of Mittag-Leffler-damped powers of t.  For THM2 and
THM3 two readings of the term exponent are shipped behind the ``reading``
switch: the default ``"consistent"`` reading carries the k-Struve exponent
``2r + l/k + 1`` through the transform algebra (and is the one the numerical
oracle confirms; see the README erratum note), while ``"printed"`` uses
``2r + l + 1``, which drops the ``1/k``.  The two coincide at k = 1.

Series evaluation reuses the compensated Mittag-Leffler core of
:mod:`frac_kinetics.special`; per-problem coefficient tables are cached, so
tabulating a solution over thousands of points costs one gamma-table build
plus cheap per-point arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._compensated import dd_add
from .errors import DomainError, RangeError
from .kgamma import k_gamma
from .special import (
    ML_SERIES_CAP,
    KStruveParams,
    SeriesControl,
    _ml_eval,
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


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) off its poles: negative on (-1, 0), (-3, -2), ..."""
    return -1.0 if x < 0.0 and math.floor(x) % 2 == 1 else 1.0


def _log_row_coef(r: int, n0: float, c: float, base: float, e: float, g: float, l: float, k: float) -> float:
    """Row coefficient of the solution series, evaluated in log space.

    The coefficient is  n0 (-c)**r base**e Gamma(g + 1) / (Gamma_k(rk + l + 3k/2) Gamma(r + 3/2)).
    Used for rows whose direct product overflows although the coefficient
    itself may fit in a double; raises ``OverflowError`` only when it does not.
    """
    if (r and c == 0.0) or base == 0.0:
        return 0.0
    x = r + l / k + 1.5  # Gamma_k(x k) = k**(x - 1) * Gamma(x)
    log_abs = (
        math.log(n0)
        + (r * math.log(abs(c)) if r else 0.0)
        + e * math.log(base)
        + math.lgamma(g + 1.0)
        - (x - 1.0) * math.log(k)
        - math.lgamma(x)
        - math.lgamma(r + 1.5)
    )
    sign = (-1.0 if c > 0.0 and r % 2 else 1.0) * _gamma_sign(g + 1.0) * _gamma_sign(x)
    try:
        return sign * math.exp(log_abs)
    except OverflowError:
        raise OverflowError(
            f"series row r = {r} exceeds the double range; reduce max_terms"
        ) from None


@lru_cache(maxsize=128)
def _thm1_rows(
    n0: float, upsilon: float, l: float, c: float, k: float, max_terms: int
) -> tuple[tuple[float, float, float], ...]:
    """Rows (coef, t_exponent, ml_beta) of the THM1 series.

    Term r of the solution is  coef * (t/2)**e_r * E_{upsilon, e_r + 1}(z)
    with e_r = 2r + l/k + 1 and z = -d**upsilon * t**upsilon.
    """
    rows = []
    for r in range(max_terms):
        e = _exponent(r, l, k, "consistent")
        try:
            coef = (
                n0
                * (-c) ** r
                * math.gamma(e + 1.0)
                / (k_gamma(r * k + l + 1.5 * k, k) * math.gamma(r + 1.5))
            )
        except OverflowError:
            coef = math.inf
        if not math.isfinite(coef):  # a factor or partial product overflowed
            coef = _log_row_coef(r, n0, c, 1.0, e, e, l, k)
        rows.append((coef, e, e + 1.0))
    return tuple(rows)


@lru_cache(maxsize=128)
def _thm23_rows(
    n0: float,
    d: float,
    upsilon: float,
    l: float,
    c: float,
    k: float,
    reading: str,
    max_terms: int,
) -> tuple[tuple[float, float, float], ...]:
    """Rows (coef, t_exponent, ml_beta) for the THM2/THM3 series.

    Term r is  coef * t**(upsilon*e_r) * E_{upsilon, upsilon*e_r + 1}(z)
    with coef absorbing (d**upsilon / 2)**e_r * Gamma(upsilon*e_r + 1) and
    z = -rate**upsilon * t**upsilon.
    """
    rows = []
    for r in range(max_terms):
        e = _exponent(r, l, k, reading)
        a_exp = upsilon * e
        try:
            coef = (
                n0
                * (-c) ** r
                / (k_gamma(r * k + l + 1.5 * k, k) * math.gamma(r + 1.5))
                * (d**upsilon / 2.0) ** e
                * math.gamma(a_exp + 1.0)
            )
        except OverflowError:
            coef = math.inf
        if not math.isfinite(coef):  # a factor or partial product overflowed
            coef = _log_row_coef(r, n0, c, d**upsilon / 2.0, e, a_exp, l, k)
        rows.append((coef, a_exp, a_exp + 1.0))
    return tuple(rows)


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


def _sum_rows(rows, half_arg: float, z: float, upsilon: float, ctl: SeriesControl) -> float:
    """Sum coef * half_arg**e * E_{upsilon,beta}(z) with compensation."""
    sum_hi, sum_lo = 0.0, 0.0
    for coef, e, beta in rows:
        term = coef * half_arg**e * _ml_eval(upsilon, beta, z, ctl)
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


def solve_thm1(p: KineticProblem, t: float, ctl: SeriesControl | None = None) -> float:
    """N(t) for the THM1 problem (forcing S^k_{l,c}(t), rate d)."""
    if p.variant is not Variant.THM1:
        raise DomainError(f"solve_thm1 requires variant THM1, got {p.variant}")
    if ctl is None:
        ctl = SeriesControl()
    t = _check_t(p, t)
    if t == 0.0:
        return _zero_t_value(p)
    s = p.struve
    z = _ml_argument(p.d, p.upsilon, t)
    rows = _thm1_rows(p.n0, p.upsilon, s.nu, s.c, s.k, ctl.max_terms)
    return _sum_rows(rows, t / 2.0, z, p.upsilon, ctl)


def _solve_thm23(p: KineticProblem, t: float, ctl: SeriesControl | None, reading: str) -> float:
    _check_reading(reading)
    if ctl is None:
        ctl = SeriesControl()
    t = _check_t(p, t)
    if t == 0.0:
        return _zero_t_value(p)
    s = p.struve
    z = _ml_argument(p.rate, p.upsilon, t)
    rows = _thm23_rows(p.n0, p.d, p.upsilon, s.nu, s.c, s.k, reading, ctl.max_terms)
    return _sum_rows(rows, t, z, p.upsilon, ctl)


def solve_thm2(
    p: KineticProblem, t: float, ctl: SeriesControl | None = None, *, reading: str = "consistent"
) -> float:
    """N(t) for the THM2 problem (forcing S^k_{l,c}(d**ups * t**ups), rate d)."""
    if p.variant is not Variant.THM2:
        raise DomainError(f"solve_thm2 requires variant THM2, got {p.variant}")
    return _solve_thm23(p, t, ctl, reading)


def solve_thm3(
    p: KineticProblem, t: float, ctl: SeriesControl | None = None, *, reading: str = "consistent"
) -> float:
    """N(t) for the THM3 problem (THM2 forcing, distinct rate a != d)."""
    if p.variant is not Variant.THM3:
        raise DomainError(f"solve_thm3 requires variant THM3, got {p.variant}")
    return _solve_thm23(p, t, ctl, reading)


def solve_constant(p: KineticProblem, t: float, ctl: SeriesControl | None = None) -> float:
    """Closed form under constant forcing F = 1: N(t) = N0 * E_ups(-d**ups t**ups).

    Degenerate-check helper: at upsilon = 1 this is N0 * exp(-d t), the
    classical first-order decay the fractional families generalize.
    """
    t = _check_t(p, t)
    return p.n0 * mittag_leffler(p.upsilon, _ml_argument(p.d, p.upsilon, t), ctl)


_SOLVERS = {
    Variant.THM1: lambda p, t, ctl, reading: solve_thm1(p, t, ctl),
    Variant.THM2: lambda p, t, ctl, reading: solve_thm2(p, t, ctl, reading=reading),
    Variant.THM3: lambda p, t, ctl, reading: solve_thm3(p, t, ctl, reading=reading),
}


def solve_table(
    p: KineticProblem,
    grid,
    ctl: SeriesControl | None = None,
    *,
    reading: str = "consistent",
) -> SolutionTable:
    """Element-wise application of the variant's solver over a grid.

    The grid must be strictly increasing with all entries >= 0.  The first
    element-level failure aborts with the offending index attached.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise DomainError("grid must be a non-empty 1-D array")
    if g[0] < 0.0 or (g.size > 1 and not np.all(np.diff(g) > 0.0)):
        raise DomainError("grid must be strictly increasing with all entries >= 0")
    solver = _SOLVERS[p.variant]
    values = np.empty(g.size)
    for i, ti in enumerate(g):
        try:
            values[i] = solver(p, float(ti), ctl, reading)
        except (DomainError, OverflowError) as exc:
            raise type(exc)(f"grid index {i} (t = {ti!r}): {exc}") from exc
    return SolutionTable(g, values)
