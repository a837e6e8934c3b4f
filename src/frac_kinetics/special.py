"""Series evaluators: Struve, k-Struve, and Mittag-Leffler functions.

All four evaluators share one truncation contract, carried by
:class:`SeriesControl`: terms are summed until the latest term drops to
``rel_tol`` times the partial sum, or ``max_terms`` terms have been taken.
Partial sums are double-double pairs (:mod:`frac_kinetics._compensated`),
because the interesting regimes (``c > 0``, ``z < 0``) alternate in sign.
Two documented range caps keep the plain power series inside their
trustworthy region (no asymptotic continuation is attempted):
``ML_SERIES_CAP`` (Mittag-Leffler, ``|z| <= 50``) and ``STRUVE_SERIES_CAP``
(Struve and k-Struve, ``|x| <= 20``).

The k-Struve coefficients come from one table, ``_k_struve_coeffs``, and
the powers (x/2)**(2r + nu/k + 1) from one ``**`` times (x/2)**2 per term.
A term is coefficient times power where both are normal doubles and is
formed in log space otherwise; a power or sum that overflows raises.  The
array paths share one kernel, ``_lane_sums``, which sums one series per lane
with the scalar loop's stop rule and double-double sums (``_k_struve_grid``
a lane per node, handing a node whose term takes the log form to the scalar
loop; ``kinetics.solve_table`` a lane per node of the solution series), so
each entry is the double its scalar twin returns.

``_ml_eval`` serves ``mittag_leffler`` and ``mittag_leffler2`` only.  For
positive integer ``alpha`` its term ratio is the exact rational
``z / ((alpha*n + beta) ... (alpha*n + beta + alpha - 1))``, so the terms are
generated in double-double: E_1(z) = e^z holds to a few ulp across
``|z| <= 10`` despite summands up to ~2.8e3.  numpy (``_lazy_numpy.np``)
loads on the first array call; the scalar series never touch it.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._compensated import dd_add, dd_div_double, dd_mul_double
from ._lazy_numpy import np
from .errors import DomainError, PoleError, RangeError
from .kgamma import _gamma_sign

__all__ = [
    "SeriesControl",
    "KStruveParams",
    "struve_h",
    "k_struve",
    "mittag_leffler",
    "mittag_leffler2",
    "ML_SERIES_CAP",
    "STRUVE_SERIES_CAP",
]

ML_SERIES_CAP = 50.0
STRUVE_SERIES_CAP = 20.0
_STRUVE_OVERFLOW = "Struve series leaves the double range: a power (x/2)**(2r + nu/k + 1) or the sum overflows"


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for every series in the package.

    ``max_terms`` bounds the Struve, k-Struve and Mittag-Leffler series, and so the
    rows of a solution, whose own series stops by its rule (``kinetics._Series``);
    ``rel_tol`` is the relative cut of every series.
    """

    max_terms: int = 50
    rel_tol: float = 1e-14

    def __post_init__(self) -> None:
        if not (isinstance(self.max_terms, int) and self.max_terms >= 1):
            raise DomainError(f"max_terms must be a positive integer, got {self.max_terms!r}")
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")


_DEFAULT_CTL = SeriesControl()


@dataclass(frozen=True)
class KStruveParams:
    """Parameter triple (nu, c, k) of the k-Struve function S^k_{nu,c}."""

    nu: float
    c: float
    k: float

    def __post_init__(self) -> None:
        for name in ("nu", "c", "k"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"{name} must be a finite real, got {v!r}")
        if self.k <= 0.0:
            raise DomainError(f"k must be > 0, got {self.k!r}")
        if self.nu <= -1.5 * self.k:
            raise DomainError(
                f"nu must exceed -(3/2)k (got nu = {self.nu!r} with k = {self.k!r})"
            )


# --------------------------------------------------------------------------
# The lane-parallel series kernel


def _lane_sums(step, state: list, n_terms: int, rel_tol: float, runs=None):
    """Sum one series per lane, lane for lane the double of its scalar loop.

    ``state`` holds the caller's per-lane arrays, ``np.arange`` over the lanes first.
    ``step(n, hi)`` gives term n of the active lanes (hi, lo parts; ``hi`` is their sums)
    and the mask of lanes whose term n the kernel cannot take (the scalar loop raises
    there, or forms it another way), or None.  A lane stops on such a term (before its
    stop test) or on a term at most ``rel_tol`` times its sum (with ``runs``, on the
    ``runs[n]``-th such term in a row), and leaves ``state``, which ends with the lanes
    that took all ``n_terms`` terms.  Returns the values, the terms used and the mask of
    lanes that stopped on such a term.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        size = state[0].size
        out, used, failed = np.empty(size), np.full(size, n_terms), np.zeros(size, dtype=bool)
        hi, lo, run = np.zeros(size), np.zeros(size), np.zeros(size, dtype=int)
        for n in range(n_terms):
            if not hi.size:
                break
            term, term_lo, bad = step(n, hi)
            hi, lo = dd_add(hi, lo, term, term_lo)
            done = np.abs(term) <= rel_tol * np.abs(hi)
            if runs is not None:
                run = np.where(done, run + 1, 0)
                done = run >= runs[n]
            if bad is not None and np.count_nonzero(bad):  # count_nonzero: a fraction of .any()'s call cost
                failed[state[0][bad]] = True
                done |= bad
            if np.count_nonzero(done):
                idx = state[0][done]
                out[idx], used[idx] = hi[done] + lo[done], n + 1
                keep = ~done
                hi, lo, run = hi[keep], lo[keep], run[keep]
                state[:] = [a[keep] for a in state]
        out[state[0]] = hi + lo
        return out, used, failed


def _powers(xs: list[float], exps: list[float]) -> np.ndarray:
    """``x**e`` at every (exponent, node) pair with CPython's float ``**`` (``np.power``
    differs in the last bit), NaN where it raises (x**e is never NaN for x > 0)."""
    try:
        return np.fromiter((x**e for e in exps for x in xs), float, len(exps) * len(xs)).reshape(len(exps), len(xs))
    except ArithmeticError:
        pass
    vals = np.full((len(exps), len(xs)), np.nan)
    for j, e in enumerate(exps):
        for i, x in enumerate(xs):
            with suppress(ArithmeticError):
                vals[j, i] = x**e
    return vals


# --------------------------------------------------------------------------
# Mittag-Leffler


@lru_cache(maxsize=512)
def _ml_inv_gammas(alpha: float, beta: float, max_terms: int) -> tuple[float, ...]:
    """Cached 1/Gamma(alpha*n + beta) for n < max_terms, poles checked at every such n.

    Gamma overflow gives 0.0 (the true reciprocal is below the double range); Gamma underflow
    to 0.0, or to a subnormal whose reciprocal is infinite, raises ``OverflowError``.
    """
    out = []
    for n in range(max_terms):
        arg = alpha * n + beta
        if arg <= 0.0 and arg == math.floor(arg):
            raise PoleError(
                f"alpha*n + beta = {arg!r} hits a gamma pole at n = {n} "
                f"(alpha = {alpha!r}, beta = {beta!r})"
            )
        try:
            inv = 1.0 / math.gamma(arg)
        except OverflowError:
            inv = 0.0
        except ZeroDivisionError:
            inv = math.inf
        if math.isinf(inv):
            raise OverflowError(
                f"1/Gamma({arg!r}) at n = {n} exceeds the double range (alpha = {alpha!r}, beta = {beta!r})"
            )
        out.append(inv)
    return tuple(out)


def _ml_eval(alpha: float, beta: float, z: float, ctl: SeriesControl) -> float:
    """Core series for E_{alpha,beta}(z), summed in double-double.  For positive integer ``alpha``
    the terms come from the exact recurrence t_{n+1} = t_n z / prod_j (alpha n + beta + j), j < alpha,
    in double-double, the divisions ending once a term is 0 under a nonzero sum; otherwise term n is
    z**n times the 1/Gamma table, z**n tested for overflow where |z| > 1 and max_terms ln|z| >= 700."""
    inv_g = _ml_inv_gammas(alpha, beta, ctl.max_terms)
    n_int = round(alpha)
    integer = alpha == n_int and n_int >= 1
    check = not integer and abs(z) > 1.0 and ctl.max_terms * math.log(abs(z)) >= 700.0
    sum_hi, sum_lo, t_hi, t_lo, zn = 0.0, 0.0, inv_g[0], 0.0, 1.0
    for n in range(ctl.max_terms):
        if not integer:
            t_hi = zn * inv_g[n]
        sum_hi, sum_lo = dd_add(sum_hi, sum_lo, t_hi, t_lo)
        if abs(t_hi) <= ctl.rel_tol * abs(sum_hi):
            break
        if integer:
            t_hi, t_lo = dd_mul_double(t_hi, t_lo, z)
            for j in range(n_int):
                if not t_hi and sum_hi:
                    break
                t_hi, t_lo = dd_div_double(t_hi, t_lo, alpha * n + beta + j)
        else:
            zn *= z
            if check and math.isinf(zn):
                raise OverflowError(f"Mittag-Leffler series term overflow at n = {n + 1} (z = {z!r})")
    return sum_hi + sum_lo


def mittag_leffler2(alpha: float, beta: float, z: float, ctl: SeriesControl | None = None) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Truncated series sum of z**n / Gamma(alpha*n + beta) under ``ctl``.
    ``alpha`` must be positive (the series is then entire in z), ``beta`` any
    real avoiding gamma poles at the summed indices, and ``|z|`` is capped at
    ``ML_SERIES_CAP``.
    """
    if ctl is None:
        ctl = _DEFAULT_CTL
    alpha = float(alpha)
    beta = float(beta)
    z = float(z)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be > 0, got {alpha!r}")
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta!r}")
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if abs(z) > ML_SERIES_CAP:
        raise RangeError(f"|z| = {abs(z)!r} exceeds the series cap {ML_SERIES_CAP}")
    return _ml_eval(alpha, beta, z, ctl)


def mittag_leffler(alpha: float, z: float, ctl: SeriesControl | None = None) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) = E_{alpha,1}(z)."""
    return mittag_leffler2(alpha, 1.0, z, ctl)


# --------------------------------------------------------------------------
# Struve


def _log_coef(
    r: int, c: float, nu: float, k: float,
    n0: float = 1.0, base: float = 1.0, e: float = 0.0, g: float = 0.0,
) -> float:
    """Series coefficient  n0 (-c)**r base**e Gamma(g + 1) / (Gamma_k(rk + nu + 3k/2) Gamma(r + 3/2)), in log space.

    With the defaults this is coefficient r of the k-Struve series; the
    solution rows of :mod:`frac_kinetics.kinetics` add the other factors.
    Used where the direct product leaves the double range although the
    coefficient itself may fit in a double: it comes out 0.0 only when its
    magnitude is below the double range, and raises ``OverflowError`` only
    when it is above.
    """
    if (r and c == 0.0) or base == 0.0:
        return 0.0
    x = r + nu / k + 1.5  # Gamma_k(x k) = k**(x - 1) * Gamma(x)
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


@lru_cache(maxsize=256)
def _k_struve_coeffs(nu: float, c: float, k: float, max_terms: int) -> tuple[float, ...]:
    """(-c)**r / (Gamma_k(rk + nu + 3k/2) Gamma(r + 3/2)) for r < max_terms, Gamma_k as k**(x - 1) Gamma(x).

    x = r + a, a = nu/k + 3/2 taken once and exactly rounded (> 0 where nu/k rounds to -3/2).
    Where the k-power, Gamma_k or the denominator leaves the normal double range the coefficient
    comes from :func:`_log_coef`: 0.0 or subnormal below the range, inf above it (as is a quotient
    that overflows).
    """
    exact = Fraction(nu) / Fraction(k) + Fraction(3, 2)
    a = float(exact)
    a_lo, log_k = float(exact - Fraction(a)), math.log(k)
    out = []
    for r in range(max_terms):
        x = r + a
        # x + d is r + nu/k + 3/2, and d moves Gamma_k by (ln k + digamma(x)) d to first order (sums
        # lost up to 39 u * sum |term| to it); digamma(x) ~ ln(x + 1) - 1/(2(x + 1)) - 1/x within 3e-2
        d = math.fsum((r, a, -x)) + a_lo
        try:
            power = k ** (x - 1.0)
            kg = power * math.gamma(x) * (1.0 + d * (log_k + math.log(x + 1.0) - 0.5 / (x + 1.0) - 1.0 / x))
            denom = kg * math.gamma(r + 1.5)
        except OverflowError:
            power = kg = denom = math.inf
        normal = sys.float_info.min <= min(power, kg, denom) and denom < math.inf
        try:
            out.append((-c) ** r / denom if normal else _log_coef(r, c, nu, k))
        except OverflowError:
            out.append(math.inf)
    return tuple(out)


def _power_series(nu: float, c: float, k: float, half_x: float, ctl: SeriesControl) -> float:
    """Sum the k-Struve coefficients times half_x**(2r + nu/k + 1), compensated, with early exit.

    A term whose coefficient or power is not a normal double is formed, power included, by
    :func:`_log_coef`: it keeps its digits, and is 0.0 or subnormal only below the double range.
    Raises ``OverflowError`` where a power or the sum overflows, or the sum does not stop over an
    infinite coefficient.
    """
    coeffs = _k_struve_coeffs(nu, c, k, ctl.max_terms)
    exp0, tiny = nu / k + 1.0, sys.float_info.min
    try:
        power = half_x**exp0
    except OverflowError:
        power = math.nan  # as in _powers: a normal coefficient times it ends the value
    h2, sign = half_x * half_x, 1.0 if half_x >= 0.0 else (-1.0) ** exp0  # x < 0 only for integer orders
    sum_hi, sum_lo = 0.0, 0.0
    try:
        for r, coef in enumerate(coeffs):
            if tiny <= abs(coef) < math.inf and not abs(power) < tiny:
                term = coef * power
            else:
                term = sign * _log_coef(r, c, nu, k, 1.0, abs(half_x), 2 * r + exp0)  # log form
            sum_hi, sum_lo = dd_add(sum_hi, sum_lo, term)
            if abs(term) <= ctl.rel_tol * abs(sum_hi):
                break
            power *= h2
        else:
            if math.inf in coeffs:
                raise OverflowError
    except OverflowError:
        raise OverflowError(_STRUVE_OVERFLOW) from None
    total = sum_hi + sum_lo
    if not math.isfinite(total):
        raise OverflowError(_STRUVE_OVERFLOW)
    return total


def struve_h(p: float, x: float, ctl: SeriesControl | None = None) -> float:
    """Struve function H_p(x) by its defining power series.

    Negative ``x`` is accepted only for integer ``p`` (where the powers stay
    real); ``p`` must exceed -3/2 so no denominator crosses a pole.
    """
    if ctl is None:
        ctl = _DEFAULT_CTL
    p = float(p)
    x = float(x)
    if not (math.isfinite(p) and p > -1.5):
        raise DomainError(f"p must be a finite real > -3/2, got {p!r}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x < 0.0 and p != math.floor(p):
        raise DomainError(f"x must be >= 0 for non-integer p (x = {x!r}, p = {p!r})")
    if abs(x) > STRUVE_SERIES_CAP:
        raise RangeError(f"|x| = {abs(x)!r} exceeds the series cap {STRUVE_SERIES_CAP}")
    if x == 0.0:
        if p > -1.0:
            return 0.0
        if p < -1.0:
            raise DomainError(f"H_p diverges at x = 0 for p < -1 (p = {p!r})")
        # p == -1: the series limit is the r = 0 coefficient, 2/pi
    # at k = 1 the k-power is 1.0 and Gamma_k is Gamma: H_p is S^1_{p,1}
    return _power_series(p, 1.0, 1.0, x / 2.0, ctl)


def k_struve(params: KStruveParams, x: float, ctl: SeriesControl | None = None) -> float:
    """k-Struve function S^k_{nu,c}(x).

    Series sum of (-c)**r / (Gamma_k(r*k + nu + 3k/2) * Gamma(r + 3/2))
    times (x/2)**(2r + nu/k + 1); collapses to ``struve_h(nu, x)`` at
    k = 1, c = 1.
    """
    if ctl is None:
        ctl = _DEFAULT_CTL
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    if x > STRUVE_SERIES_CAP:
        raise RangeError(f"x = {x!r} exceeds the series cap {STRUVE_SERIES_CAP}")
    if x == 0.0:
        ratio = params.nu / params.k
        if ratio > -1.0:
            return 0.0
        if ratio < -1.0:
            raise DomainError(
                f"k-Struve diverges at x = 0 for nu/k < -1 (nu = {params.nu!r}, k = {params.k!r})"
            )
    return _power_series(params.nu, params.c, params.k, x / 2.0, ctl)


# --------------------------------------------------------------------------
# k-Struve over a grid

def _k_struve_grid(params: KStruveParams, xs: np.ndarray, ctl: SeriesControl | None = None) -> np.ndarray:
    """``[k_struve(params, x, ctl) for x in xs]`` as an array, in one array pass.

    The nodes are lanes of :func:`_lane_sums` on the scalar loop's coefficient
    table, powers, term rule and stop rule, so every entry is the exact double
    it returns: a lane whose term takes the log form ends there, and its node
    is summed by the scalar loop :func:`_power_series`.
    """
    if ctl is None:
        ctl = _DEFAULT_CTL
    xs = np.asarray(xs, dtype=float)
    ratio = params.nu / params.k
    bad = ~np.isfinite(xs) | (xs < 0.0) | (xs > STRUVE_SERIES_CAP)
    if ratio < -1.0:
        bad |= xs == 0.0
    if bad.any():
        # the scalar path owns the argument checks: it raises for the first
        # bad node with the same type and message
        k_struve(params, float(xs[np.argmax(bad)]), ctl)
    half_x = xs / 2.0  # a node x = 0 sums to 0.0 where the scalar path returns it
    coeffs = _k_struve_coeffs(params.nu, params.c, params.k, ctl.max_terms)
    state = [np.arange(half_x.size), _powers(half_x.tolist(), [ratio + 1.0])[0], half_x * half_x]

    def step(n, hi):
        _, power, h2 = state
        log_form = (np.abs(power) < sys.float_info.min) | (not sys.float_info.min <= abs(coeffs[n]) < math.inf)
        term = coeffs[n] * power
        power *= h2
        return term, 0.0, log_form

    sums, _, log_form = _lane_sums(step, state, ctl.max_terms, ctl.rel_tol)
    for i in np.flatnonzero(log_form).tolist():
        sums[i] = _power_series(params.nu, params.c, params.k, float(half_x[i]), ctl)
    if not np.isfinite(sums).all():
        raise OverflowError(_STRUVE_OVERFLOW)
    return sums
