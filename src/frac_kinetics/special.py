"""Series evaluators: Struve, k-Struve, and Mittag-Leffler functions.

All four evaluators share the same truncation contract, carried by
:class:`SeriesControl`: terms are summed until the magnitude of the latest
term drops to ``rel_tol`` times the partial sum, or ``max_terms`` terms have
been taken, whichever comes first.  Partial sums are accumulated as
double-double pairs (see :mod:`frac_kinetics._compensated`), because the
interesting parameter regimes (``c > 0``, ``z < 0``) alternate in sign.

Two documented range caps keep the plain power series inside their
numerically trustworthy region (no asymptotic continuation is attempted):

* ``ML_SERIES_CAP`` — Mittag-Leffler argument, ``|z| <= 50``;
* ``STRUVE_SERIES_CAP`` — Struve / k-Struve argument, ``|x| <= 20``.

The Struve powers (x/2)**(2r + exp0) start from one CPython ``**`` and are
multiplied by (x/2)**2 once per term; a term whose coefficient is outside the
normal double range is formed in log space, and a power or sum that overflows
raises.  The array paths share one kernel, ``_lane_sums``, which sums one
series per lane with the scalar loop's stop rule, double-double sums and
failures: ``_k_struve_grid`` has a lane per node, ``_ml_eval_pairs`` one per
(beta, z) pair, so each entry is the double its scalar twin returns.

For positive integer ``alpha`` the Mittag-Leffler term ratio collapses to the
exact rational ``z / ((alpha*n + beta) ... (alpha*n + beta + alpha - 1))``,
so terms themselves are generated in double-double arithmetic.  That is what
makes the exponential identity E_1(z) = e^z hold to a few ulp across
``|z| <= 10`` despite summand magnitudes up to ~2.8e3.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._compensated import _SPLITTER, dd_add, dd_div_double, dd_mul_double
from .errors import DomainError, PoleError, RangeError
from .kgamma import _gamma_sign, k_gamma

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

    ``max_terms`` mirrors the 50-term choice used for all shipped parameter
    sweeps; ``rel_tol`` tightens the cut when the tail is already negligible.
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


@np.errstate(over="ignore", invalid="ignore")
def _lane_sums(step, state: list, n_terms: int, rel_tol: float):
    """Sum one series per lane, lane for lane the double of its scalar loop.

    ``state`` holds the caller's per-lane arrays, ``np.arange`` over the lanes
    first.  ``step(n, hi)`` gives term n of the active lanes (hi, lo parts;
    ``hi`` is their sums) and the mask of lanes whose term n fails, or None.
    A lane stops on a failing term (before its stop test, as the scalar loops
    raise there) or on a term at most ``rel_tol`` times its sum, and leaves
    ``state``, which ends with the lanes that took all ``n_terms`` terms.
    Returns the values, the terms used and the failure mask.
    """
    size = state[0].size
    out, used, failed = np.empty(size), np.full(size, n_terms), np.zeros(size, dtype=bool)
    hi, lo = np.zeros(size), np.zeros(size)
    for n in range(n_terms):
        if not hi.size:
            break
        term, term_lo, bad = step(n, hi)
        hi, lo = dd_add(hi, lo, term, term_lo)
        done = np.abs(term) <= rel_tol * np.abs(hi)
        if bad is not None and np.count_nonzero(bad):  # count_nonzero: a fraction of .any()'s call cost
            failed[state[0][bad]] = True
            done |= bad
        if np.count_nonzero(done):
            idx = state[0][done]
            out[idx], used[idx] = hi[done] + lo[done], n + 1
            keep = ~done
            hi, lo = hi[keep], lo[keep]
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
    """Cached 1/Gamma(alpha*n + beta) for n < max_terms.

    Pole checking happens here, across every index the truncation policy may
    reach.  Gamma overflow means the true denominator exceeds the double
    range, so the reciprocal is exactly representable as 0.0.
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
            out.append(1.0 / math.gamma(arg))
        except OverflowError:
            out.append(0.0)
    return tuple(out)


def _ml_eval(alpha: float, beta: float, z: float, ctl: SeriesControl) -> float:
    """Core series for E_{alpha,beta}(z); shared by every public caller, double-double steps inlined."""
    inv_g = _ml_inv_gammas(alpha, beta, ctl.max_terms)
    rel_tol = ctl.rel_tol
    n_int = round(alpha)
    integer = alpha == n_int and n_int >= 1
    c = _SPLITTER * z
    zh = c - (c - z)
    zl = z - zh
    sum_hi, sum_lo, t_hi, t_lo, zn = 0.0, 0.0, inv_g[0], 0.0, 1.0
    for n in range(ctl.max_terms):
        if not integer:
            t_hi = zn * inv_g[n]
        s = sum_hi + t_hi  # sum += t
        b = s - sum_hi
        e = (sum_hi - (s - b)) + (t_hi - b)
        e += sum_lo + t_lo
        sum_hi = s + e
        b = sum_hi - s
        sum_lo = (s - (sum_hi - b)) + (e - b)
        if abs(t_hi) <= rel_tol * abs(sum_hi):
            break
        if not integer:
            zn *= z
            if math.isinf(zn):
                raise OverflowError(
                    f"Mittag-Leffler series term overflow at n = {n + 1} (z = {z!r})"
                )
            continue
        # exact term recurrence: t_{n+1} = t_n * z / prod(alpha*n + beta + j)
        p, c = t_hi * z, _SPLITTER * t_hi
        ah = c - (c - t_hi)
        al = t_hi - ah
        e = ((ah * zh - p) + ah * zl + al * zh) + al * zl + t_lo * z
        t_hi = p + e
        b = t_hi - p
        t_lo = (p - (t_hi - b)) + (e - b)
        for j in range(n_int):
            if not t_hi and sum_hi:  # t = (0, 0) ends a nonzero sum whatever the signs of its zeros
                break
            d = alpha * n + beta + j  # t /= d
            q = t_hi / d
            p, c, cd = q * d, _SPLITTER * q, _SPLITTER * d
            ah, dh = c - (c - q), cd - (cd - d)
            al, dl = q - ah, d - dh
            e = ((t_hi - p) - (((ah * dh - p) + ah * dl + al * dh) + al * dl) + t_lo) / d
            t_hi = q + e
            b = t_hi - q
            t_lo = (q - (t_hi - b)) + (e - b)
    return sum_hi + sum_lo


def _ml_eval_pairs(
    alpha: float, inv_g: np.ndarray, beta: np.ndarray, row: np.ndarray, z: np.ndarray, ctl: SeriesControl
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_ml_eval` at every pair i, E_{alpha, beta[row[i]]}(z[i]), pair for pair the same double.

    ``inv_g[r]`` is the ``_ml_inv_gammas(alpha, beta[r], ctl.max_terms)``
    table of row r, gathered by each pair's row index.  The pairs are lanes
    of :func:`_lane_sums`.  Returns the values and a mask of the pairs for
    which ``_ml_eval`` raises ``OverflowError`` (their values are meaningless).
    """
    n_int = round(alpha)
    if alpha == n_int and n_int >= 1:
        state = [np.arange(z.size), z, beta[row], inv_g[row, 0], np.zeros(z.size)]

        def step(n, hi):
            _, z, b, t_hi, t_lo = state
            if n:
                t_hi, t_lo = dd_mul_double(t_hi, t_lo, z)
                for j in range(n_int):
                    if not np.count_nonzero(t_hi) and np.count_nonzero(hi) == hi.size:  # _ml_eval's exit, all pairs
                        break
                    t_hi, t_lo = dd_div_double(t_hi, t_lo, alpha * (n - 1) + b + j)
                state[3:] = t_hi, t_lo
            return t_hi, t_lo, None

        return _lane_sums(step, state, ctl.max_terms, ctl.rel_tol)[::2]
    state = [np.arange(z.size), row, z, np.ones(z.size)]

    def step(n, hi):
        _, row, z, zn = state
        bad = np.isinf(zn)  # _ml_eval raises as z**n overflows, after term n - 1
        term = zn * inv_g[row, n]
        zn *= z
        return term, 0.0, bad

    out, _, overflow = _lane_sums(step, state, ctl.max_terms, ctl.rel_tol)
    overflow[state[0][np.isinf(state[3])]] = True  # z**max_terms, after the last term
    return out, overflow


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
    out = []
    for r in range(max_terms):
        try:
            kg = k_gamma(r * k + nu + 1.5 * k, k)
            denom = kg * math.gamma(r + 1.5)
        except OverflowError:
            kg = denom = math.inf
        # past the double range the quotient would be a silent 0.0; below its
        # normal part, inf, a division by zero or the few digits of a subnormal
        # Gamma_k (small k); above it the coefficient is inf (so is a quotient
        # that overflows), and _log_power_series forms its term with the power
        normal = sys.float_info.min <= min(kg, denom) and denom < math.inf
        try:
            out.append((-c) ** r / denom if normal else _log_coef(r, c, nu, k))
        except OverflowError:
            out.append(math.inf)
    return tuple(out)


def _power_series(nu: float, c: float, k: float, half_x: float, ctl: SeriesControl) -> float:
    """Sum the k-Struve coefficients times half_x**(2r + nu/k + 1), compensated, with early exit;
    redone by :func:`_log_power_series` if the first power of a nonzero half_x or the last
    coefficient is below the normal range, or the sum is not finite."""
    coeffs = _k_struve_coeffs(nu, c, k, ctl.max_terms)
    try:
        power = half_x ** (nu / k + 1.0)
    except OverflowError:
        power = math.inf
    tiny = half_x and abs(power) < sys.float_info.min
    h2 = half_x * half_x
    sum_hi, sum_lo = 0.0, 0.0
    for coef in coeffs:
        term = coef * power
        sum_hi, sum_lo = dd_add(sum_hi, sum_lo, term)
        if abs(term) <= ctl.rel_tol * abs(sum_hi):
            break
        power *= h2
    total = sum_hi + sum_lo
    if tiny or abs(coef) < sys.float_info.min or not math.isfinite(total):
        total = _log_power_series(nu, c, k, half_x, ctl)
    if not math.isfinite(total):
        raise OverflowError(_STRUVE_OVERFLOW)
    return total


def _log_power_series(nu: float, c: float, k: float, half_x: float, ctl: SeriesControl) -> float:
    """:func:`_power_series` with each term whose coefficient is inf or whose coefficient or power
    is below the normal range formed, power included, by :func:`_log_coef`: a large order whose
    coefficient underflows or whose power overflows gives its value (0.0 or a subnormal below
    that range), and a huge coefficient keeps the digits of a power that underflows; inf on
    overflow, and where the sum does not stop over an infinite coefficient."""
    exp0 = nu / k + 1.0
    power = _powers([half_x], [exp0]).item()  # NaN on overflow: a normal coefficient times it ends the value
    h2, sign = half_x * half_x, 1.0 if half_x >= 0.0 else (-1.0) ** exp0  # x < 0 only for integer orders
    sum_hi, sum_lo = 0.0, 0.0
    coeffs = _k_struve_coeffs(nu, c, k, ctl.max_terms)
    try:
        for r, coef in enumerate(coeffs):
            tiny = not sys.float_info.min <= abs(coef) < math.inf or abs(power) < sys.float_info.min
            term = sign * _log_coef(r, c, nu, k, 1.0, abs(half_x), 2 * r + exp0) if tiny else coef * power
            sum_hi, sum_lo = dd_add(sum_hi, sum_lo, term)
            if abs(term) <= ctl.rel_tol * abs(sum_hi):
                return sum_hi + sum_lo
            power *= h2
    except OverflowError:
        return math.inf
    # a sum over a coefficient above the double range that does not stop is no value
    return math.inf if math.inf in coeffs else sum_hi + sum_lo


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
    # k_gamma(x, 1) is exactly math.gamma(x): H_p is S^1_{p,1}
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

    Same coefficient table, stop rule, double-double accumulation and errors
    as the scalar path, so every entry is the exact double it returns: the
    nodes are lanes of :func:`_lane_sums`, a first power is NaN where the
    scalar loop's is inf, and nodes go to :func:`_log_power_series` as there.
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
    power = _powers(half_x.tolist(), [ratio + 1.0])[0]
    tiny = (np.abs(power) < sys.float_info.min) & (half_x != 0.0)  # first power below the normal range
    state = [np.arange(half_x.size), power, half_x * half_x]

    def step(n, hi):
        _, power, h2 = state
        term = coeffs[n] * power
        power *= h2
        return term, 0.0, None

    sums, used, _ = _lane_sums(step, state, ctl.max_terms, ctl.rel_tol)
    reroute = tiny | ~np.isfinite(sums) | (np.abs(np.array(coeffs)[used - 1]) < sys.float_info.min)
    for i in np.flatnonzero(reroute).tolist():
        sums[i] = _log_power_series(params.nu, params.c, params.k, float(half_x[i]), ctl)
    if not np.isfinite(sums).all():
        raise OverflowError(_STRUVE_OVERFLOW)
    return sums
