"""Series evaluators: Struve, k-Struve, and Mittag-Leffler functions.

All four evaluators share one truncation contract, carried by
:class:`SeriesControl`: terms are summed until the latest term drops to
``rel_tol`` times the partial sum, or ``max_terms`` terms have been taken.
E_1 and E_{1/2} at ``beta = 1`` are no series but their closed forms
exp(z) and exp(z**2) erfc(-z), which read neither ``max_terms`` nor ``rel_tol``.
The interesting regimes (``c > 0``, ``z < 0``) alternate in sign, so every sum
is compensated, all by one rule, Sum2 (below).
Two documented range caps keep the plain power series inside their
trustworthy region (no series gets an asymptotic continuation):
``ML_SERIES_CAP`` (Mittag-Leffler, ``|z| <= 50``) and ``STRUVE_SERIES_CAP``
(Struve and k-Struve, ``|x| <= 20``).

A k-Struve value is one prefactor, cached per (nu, k), times (x/2)**(nu/k + 1)
times its 1F2 sum, whose terms come from their ratio; both factors keep their
binary exponents apart, so only a value past the double range overflows.  A
sum cut at ``max_terms`` returns only within its tail bound.  The 1F2 and
Mittag-Leffler sums, like the solution series of ``kinetics``, are Ogita, Rump
and Oishi's Sum2 (SIAM J. Sci. Comput. 26(6), 2005): a plain running sum, and
apart the running sum of its steps' ``two_sum`` errors, added at the stop; its
error is at most u |sum| + gamma_{n-1}**2 sum |t_i|, as if summed in twice the
working precision.  A term or partial sum past the double range raises
``OverflowError``.  The array paths share one kernel, ``_lane_sums``, which only
sums: one series per lane, with the scalar loop's stop rule and Sum2, until the
rule fires or the sum is no longer finite (``_k_struve_grid`` a lane per node,
``kinetics.solve_table`` a lane per node of the solution series).  It goes a
block of terms at a time, each term written in place into its row, both
running sums taken down the block, the block at most 32 terms tall and at
most 4,096 terms in all where that leaves more than one row.  Every node the kernel does not finish goes to its scalar
twin, so each entry is the double that returns, and the first node where it
raises aborts the grid.

``_ml_eval`` serves ``mittag_leffler`` and ``mittag_leffler2`` only, with one
loop per kind of ``alpha`` and no call per term.  For positive integer ``alpha``
its term ratio is the exact rational
``z / ((alpha*n + beta) ... (alpha*n + beta + alpha - 1))``, so the terms are
generated in double-double, their low parts summed with the ``two_sum`` errors:
E_{2,1}(-x**2) = cos x holds to a few ulp across ``x <= 3``.  E_1 and E_{1/2}
(``_ml_half``) are within 2e-15 of mpmath on ``|z| <= 50``, as far as E_{1/2}
is a double.  numpy (``_lazy_numpy.np``) loads on the first array call; the
scalar series never touch it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._compensated import _SPLITTER, two_prod
from ._lazy_numpy import np
from .errors import DomainError, PoleError, RangeError

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


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for every series in the package.

    ``rel_tol`` is the relative cut of every series.  ``max_terms`` bounds the Struve,
    k-Struve, Mittag-Leffler and Laplace image series; a solution takes the rows and
    terms its stop rule asks for (``kinetics._Series``).  E_1 and E_{1/2} (beta = 1)
    are closed forms, which read neither field.  A Struve or k-Struve sum cut
    at ``max_terms`` raises ``RangeError`` unless its tail bound is within ``rel_tol``.
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


_BLOCK_TERMS, _BLOCK_ROWS = 4096, 32  # a block has at most 32 rows, and fewer where it is wide
_ACCUMULATE_LANES = 256  # the widest block whose running sums are one accumulate


def _running(ufunc, a):
    """``ufunc.accumulate(a, axis=0, out=a)``, strictly row after row.  An accumulate down axis 0 costs
    some 3.5 ns an element up to 256 lanes (6.7 ns at 4,096), a call per row some 0.85 us plus 0.3 ns
    an element, so blocks wider than ``_ACCUMULATE_LANES`` lanes take a call per row."""
    if a.shape[1] <= _ACCUMULATE_LANES:
        ufunc.accumulate(a, axis=0, out=a)
    else:
        for i in range(1, len(a)):
            ufunc(a[i - 1], a[i], out=a[i])


def _sum2_block(s, e, terms, scratch, rel_tol: float):
    """Sum2 down a block, in place: ``s[1:]`` the running sums of ``terms`` from ``s[0]``, ``e[1:]`` the
    running sums of their ``two_sum`` errors from ``e[0]``.  Returns where a term is at most ``rel_tol``
    times its sum, and where that sum is finite; ``terms`` and ``scratch`` are overwritten."""
    s[1:] = terms
    _running(np.add, s)
    prev, now, err = s[:-1], s[1:], e[1:]
    np.abs(now, out=scratch)
    scratch *= rel_tol
    small = np.abs(terms, out=err) <= scratch
    finite = scratch < np.inf  # False at NaN
    np.subtract(now, prev, out=scratch)  # two_sum(prev, term): its error into err
    np.subtract(now, scratch, out=err)
    np.subtract(prev, err, out=err)
    err += np.subtract(terms, scratch, out=terms)
    _running(np.add, e)
    return small, finite


def _lane_sums(step, state: list, n_terms: int, rel_tol: float, runs=None):
    """Sum one series per lane, lane for lane the double of its scalar loop.

    ``state`` holds the caller's per-lane arrays, ``np.arange`` over the lanes first;
    ``step(n, out)`` writes term n of the active lanes into ``out``.  A lane stops on a term at
    most ``rel_tol`` times its sum (with ``runs``, on the ``runs[n]``-th such term in a row; 1 past
    its end), or once its sum is no longer finite (where a scalar loop raises: the caller hands
    that lane to it), and leaves ``state``, which ends with the lanes that took all ``n_terms``
    terms.  Returns the values.

    The sum is Ogita, Rump and Oishi's Sum2, as in the scalar loops: the running sum
    s_n = fl(s_{n-1} + t_n), and apart the running sum of the ``two_sum`` errors of its steps,
    added at the stop.  The lanes go a block of rows (terms) at a time, at most ``_BLOCK_ROWS``
    rows and, past one row, ``_BLOCK_TERMS`` terms (:func:`_sum2_block`); the stop rule is tested
    on the whole block, each lane takes its value at its own first stop row, and the block's
    stopped lanes leave together: by slicing where they are the first active lanes, else by a
    boolean mask.  So ``step`` runs on past a lane's stop, to the end of its block.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.empty(state[0].size)
        s_end = e_end = 0.0  # the running sum and its running error sum, carried from block to block
        run = None if runs is None else np.zeros(out.size, dtype=np.intp)
        n0, s = 0, None
        while n0 < n_terms and state[0].size:
            m = state[0].size
            h = min(_BLOCK_ROWS, max(1, _BLOCK_TERMS // m), n_terms - n0)
            if s is None or s.shape != (h + 1, m):  # else the block before's buffers serve again
                s, e, terms, scratch = np.empty((h + 1, m)), np.empty((h + 1, m)), np.empty((h, m)), np.empty((h, m))
            for i in range(h):
                step(n0 + i, terms[i])
            s[0], e[0] = s_end, e_end
            stop, finite = _sum2_block(s, e, terms, scratch, rel_tol)
            if runs is not None:
                need = np.ones((h, 1), dtype=np.intp)
                block = runs[n0 : n0 + h]
                need[: len(block), 0] = block
                rows = np.arange(h)[:, None]
                last = np.where(stop, -1 - run, rows)  # the latest row whose term was not small
                _running(np.maximum, last)
                count = np.subtract(rows, last, out=last)
                stop = count >= need
                run = count[-1]
            stop |= ~finite
            n0 += h
            s_end, e_end = s[-1], e[-1]
            hit = stop.any(axis=0)
            if not np.count_nonzero(hit):  # count_nonzero: a fraction of .any()'s call cost
                continue
            lanes = np.flatnonzero(hit)
            j = lanes.size
            if lanes[-1] == j - 1:  # the first j lanes stopped: they leave by slicing, the rest as views
                sel, keep = slice(j), slice(j, None)
            else:
                sel, keep = lanes, ~hit
            first = stop[:, sel].argmax(axis=0) if h > 1 else 0  # an argmax down axis 0 costs ~10 ns a column
            at = lanes + m * (first + 1)  # each lane's first stop row in s and e, as a flat index
            out[state[0][sel]] = np.take(s, at) + np.take(e, at)
            s = e = terms = scratch = None  # the block's buffers go before the lanes are compacted
            s_end, e_end = s_end[keep], e_end[keep]
            run = None if runs is None else run[keep]
            state[:] = [a[keep] for a in state]
        out[state[0]] = s_end + e_end
        return out


def _powers(xs: np.ndarray, e: float) -> np.ndarray:
    """``x**e`` at every node of ``xs`` (left unwritten) in a fresh array, NaN where ``**`` raises: ``x**e``
    at a finite ``x`` and ``e`` past the double range or ``0.0 ** -e``.  ``np.float_power`` runs libm ``pow``,
    the ``pow`` of CPython's float ``**`` (``np.power``'s SIMD loops differ from it in the last bit)."""
    xs = np.asarray(xs, float)
    with np.errstate(all="ignore"):
        p = np.float_power(xs, e)
    if math.isfinite(e):
        p[np.isinf(p) & np.isfinite(xs)] = np.nan
    return p


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
    """Core series for E_{alpha,beta}(z) by Sum2, as the Struve sums.  For positive integer ``alpha`` the
    terms come in double-double (the ``_compensated`` steps written out, the same doubles as their calls)
    from the exact recurrence t_{n+1} = t_n z / prod_j (alpha n + beta + j), j < alpha, the divisions ending
    once a term is 0 under a nonzero sum, and each term's low part goes into the error sum; otherwise term
    n is z**n times the 1/Gamma table, z**n tested for overflow (and n counted) only where |z| > 1 and
    max_terms ln|z| >= 700.  The integer loop reads only 1/Gamma(beta): for integer alpha a pole, or a
    1/Gamma past the double range, at some n > 0 implies one at n = 0.  Raises ``OverflowError`` where a
    term or the partial sum leaves the double range."""
    n_int = round(alpha)
    integer = alpha == n_int and n_int >= 1
    inv_g = _ml_inv_gammas(alpha, beta, 1 if integer else ctl.max_terms)
    rel_tol = ctl.rel_tol
    s, err = 0.0, 0.0
    if not integer:
        check = abs(z) > 1.0 and ctl.max_terms * math.log(abs(z)) >= 700.0
        zn, n = 1.0, 0
        for g in inv_g:
            t = zn * g
            s, prev = s + t, s  # Sum2: two_sum inlined, its errors summed apart
            b = s - prev
            err += (prev - (s - b)) + (t - b)
            if abs(t) <= rel_tol * abs(s):
                break
            zn *= z
            if check:
                n += 1
                if math.isinf(zn):
                    raise OverflowError(f"Mittag-Leffler series term overflow at n = {n} (z = {z!r})")
    else:
        c = _SPLITTER * z
        zh = c - (c - z)
        zl = z - zh
        t_hi, t_lo = inv_g[0], 0.0
        for n in range(ctl.max_terms):
            s, prev = s + t_hi, s
            b = s - prev
            err += (prev - (s - b)) + (t_hi - b) + t_lo
            if abs(t_hi) <= rel_tol * abs(s):
                break
            p, c = t_hi * z, _SPLITTER * t_hi  # t *= z
            ah = c - (c - t_hi)
            al = t_hi - ah
            e = ((ah * zh - p) + ah * zl + al * zh) + al * zl
            e += t_lo * z
            t_hi = p + e
            b = t_hi - p
            t_lo = (p - (t_hi - b)) + (e - b)
            for j in range(n_int):
                if not t_hi and s:  # (0, 0) stays (0, 0); under a nonzero sum its zeros' signs do not matter
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
    if not abs(s + err) < math.inf:
        raise OverflowError("Mittag-Leffler series overflows: a term or its partial sum leaves the double range "
                            f"(alpha = {alpha!r}, beta = {beta!r}, z = {z!r})")
    return s + err


def _ml_half(z: float) -> float:
    """E_{1/2}(z) = exp(z**2) erfc(-z), as exp(hi) (1 + lo) erfc(-z) with z**2 = hi + lo exactly (Dekker's
    ``two_prod``), so the rounding of z**2 does not grow by z**2 through exp.  For x = -z > 26, where erfc(x)
    nears the subnormal range, the asymptotic series exp(x**2) erfc(x) = (1 / (x sqrt(pi))) sum_n (-1)**n
    (2n - 1)!! / (2 x**2)**n, to n = 11 (its next term is below 1e-25).  A value past the double range
    raises ``OverflowError``."""
    x = -z
    if x > 26.0:
        r, t, s = -0.5 / (x * x), 1.0, 1.0
        for n in range(1, 12):
            t *= (2 * n - 1) * r
            s += t
        return s / (x * math.sqrt(math.pi))
    hi, lo = two_prod(z, z)
    try:
        value = math.exp(hi) * (1.0 + lo) * math.erfc(x)
    except OverflowError:
        value = math.inf
    if not value < math.inf:
        raise OverflowError(f"E_{{1/2}}(z) = exp(z**2) erfc(-z) exceeds the double range at z = {z!r}")
    return value


def mittag_leffler2(alpha: float, beta: float, z: float, ctl: SeriesControl | None = None) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Truncated series sum of z**n / Gamma(alpha*n + beta) under ``ctl``, but at
    ``beta = 1`` with ``alpha = 1`` or ``1/2`` the closed forms E_1(z) = exp(z)
    and E_{1/2}(z) = exp(z**2) erfc(-z), which read neither ``max_terms`` nor
    ``rel_tol``; an E_{1/2} past the double range raises ``OverflowError``.
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
    if beta == 1.0 and alpha == 1.0:
        return math.exp(z)
    if beta == 1.0 and alpha == 0.5:
        return _ml_half(z)
    return _ml_eval(alpha, beta, z, ctl)


def mittag_leffler(alpha: float, z: float, ctl: SeriesControl | None = None) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) = E_{alpha,1}(z); a closed form at alpha = 1 and 1/2."""
    return mittag_leffler2(alpha, 1.0, z, ctl)


# --------------------------------------------------------------------------
# Struve


_TINY, _GAMMA_3_2 = sys.float_info.min, math.gamma(1.5)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # n * _LN2_HI is exact for |n| < 2**20


def _exp_scaled(*logs: float) -> tuple[float, int]:
    """exp(sum(logs)) as (m, E), m * 2**E with 0.5 <= m < 1, for a value past the double range: the
    sum is taken exactly with E ln 2 split off, so only the logarithms' own roundings remain."""
    n = math.floor(math.fsum(logs) / _LN2_HI)
    m, e = math.frexp(math.exp(math.fsum((*logs, -n * _LN2_HI, -n * _LN2_LO))))
    return m, e + n


def _scaled_power(base: float, e: float) -> tuple[float, int]:
    """base**e, base >= 0, as (m, E), m * 2**E with 0.5 <= m < 1: one ``**`` where that is a normal double,
    else base**(e/2) squared, the binary exponent kept apart, so that a power past the double range keeps
    its digits (a few u, where a logarithm loses u |e ln base|).  At base 0, the leading power of a k-Struve
    series at x = 0 (and of the forcing rows at lam = 0), it is 0.0 for e > 0, 1.0 for e = 0, and a negative
    e raises ``DomainError``: the series diverges there."""
    if not base and e < 0.0:
        raise DomainError(f"k-Struve diverges at x = 0: its leading power (x/2)**{e!r} has a negative exponent")
    try:
        p = base**e
    except OverflowError:
        p = math.inf
    if _TINY <= p < math.inf or not base:
        return math.frexp(p)
    m, n = _scaled_power(base, e / 2.0)
    m, d = math.frexp(m * m)
    return m, 2 * n + d


@lru_cache(maxsize=256)
def _k_struve_prefactor(nu: float, k: float) -> tuple[float, float, int]:
    """(A, m, E) of S^k_{nu,c}(x) = C (x/2)**(nu/k + 1) 1F2(1; 3/2, A; -c x**2 / (4k)), C = m * 2**E.

    A = nu/k + 3/2, exactly rounded (> 0 where nu/k rounds to -3/2); C = k**(1 - A) / (Gamma(A) Gamma(3/2))
    is corrected to first order for that rounding a_lo, (ln k + digamma(A)) a_lo, digamma(A) taken as
    ln(A + 1) - 1/(2(A + 1)) - 1/A (within 3e-2).  It is one quotient of ``**`` and ``math.gamma`` values
    where they and C are normal doubles, else one ``lgamma`` sum (off by about u times its |terms|)."""
    exact = Fraction(nu) / Fraction(k) + Fraction(3, 2)
    a, log_k = float(exact), math.log(k)
    corr = 1.0 + float(exact - Fraction(a)) * (log_k + math.log(a + 1.0) - 0.5 / (a + 1.0) - 1.0 / a)
    try:
        power = k ** (a - 1.0)
        kg = power * math.gamma(a) * corr
        pref = 1.0 / (kg * _GAMMA_3_2)
        if _TINY <= min(power, kg, pref) and pref < math.inf:
            return (a, *math.frexp(pref))
    except (OverflowError, ZeroDivisionError):
        pass
    return (a, *_exp_scaled(-(a - 1.0) * log_k, -math.lgamma(a), -math.log(corr * _GAMMA_3_2)))


def _scaled_terms(n0: float, h: float, e0: float, nu: float, c: float, k: float):
    """Yield n0 a_r h**(e0 + 2r), a_r the k-Struve coefficient r of (nu, c, k), as (m, E), m * 2**E: from
    n0 C h**e0, each times the 1F2 ratio (-c h**2 / k) / ((A + r)(3/2 + r)) (the solution rows of
    ``kinetics`` and the Laplace images of ``oracle``)."""
    a, cm, ce = _k_struve_prefactor(nu, k)
    pm, pe = _scaled_power(h, e0)
    hm, he = math.frexp(h)
    step = (0.0 - c) * hm * hm / k  # 0.0, not -0.0, at c = 0
    m, e = math.frexp(n0 * cm * pm)
    e += ce + pe
    for r in itertools.count():
        yield m, e
        m, de = math.frexp(m * step / ((a + r) * (r + 1.5)))
        e += de + 2 * he


def _struve_series(nu: float, c: float, k: float, half_x: float, ctl: SeriesControl) -> float:
    """S^k_{nu,c}(2 half_x), half_x >= 0, = C half_x**(nu/k + 1) 1F2(1; 3/2, A; -w), w = c half_x**2 / k,
    the terms t_{r+1} = t_r (-w) / ((A + r)(3/2 + r)), t_0 = 1, summed in double-double under the stop rule.

    A sum cut at ``max_terms`` returns only if its tail bound |t_R| rho / (1 - rho), rho = |w| /
    ((A + R)(3/2 + R)) at its last index R (the ratios fall from there), is within ``rel_tol`` of it;
    else it raises ``RangeError``, or ``OverflowError`` where its terms have one sign (c <= 0) and its
    value already leaves the double range, as any value or sum past the range does.
    """
    a, cm, ce = _k_struve_prefactor(nu, k)
    pm, pe = _scaled_power(half_x, nu / k + 1.0)
    h2, nc = half_x * half_x, 0.0 - c  # -c, and 0.0 (not -0.0) at c = 0
    s, err, t, tol, cut = 0.0, 0.0, 1.0, ctl.rel_tol, False
    for r in map(float, range(ctl.max_terms)):
        s, prev = s + t, s  # Sum2: two_sum inlined, its errors summed apart
        bb = s - prev
        err += (prev - (s - bb)) + (t - bb)
        if abs(t) <= tol * abs(s):
            break
        den = k * ((a + r) * (r + 1.5))
        t = t * h2 * (nc / den)  # only h2's rounding recurs in every step; nc / den is rounded anew
    else:
        rho = abs(h2 * nc) / den
        cut = not abs(t) <= tol * abs(s + err) * (1.0 - rho)  # t is t_R rho
    total = s + err
    try:
        value = math.ldexp(cm * pm * total, ce + pe)
    except OverflowError:
        value = math.inf
    if cut and (nc < 0.0 or value < math.inf):
        raise RangeError(
            f"Struve series cut at max_terms = {ctl.max_terms}: the tail bound "
            f"{abs(t) / (1.0 - rho) if rho < 1.0 else math.inf:.3g} of its 1F2 sum exceeds "
            f"rel_tol * |sum| = {tol * abs(total):.3g}; raise max_terms"
        )
    if not abs(value) < math.inf:
        raise OverflowError("Struve series leaves the double range: its 1F2 sum or its value overflows")
    return value


def _k_struve(nu: float, c: float, k: float, x: float, ctl: SeriesControl | None) -> float:
    """S^k_{nu,c}(x) for x in [0, cap], the one path of ``k_struve`` and ``struve_h``."""
    if ctl is None:
        ctl = _DEFAULT_CTL
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    if x > STRUVE_SERIES_CAP:
        raise RangeError(f"|x| = {x!r} exceeds the series cap {STRUVE_SERIES_CAP}")
    return _struve_series(nu, c, k, (x + 0.0) / 2.0, ctl)  # + 0.0: (-0.0)**e is -0.0 at odd integer e


def struve_h(p: float, x: float, ctl: SeriesControl | None = None) -> float:
    """Struve function H_p(x) = S^1_{p,1}(x) by its defining power series.

    ``p`` must exceed -3/2 so no denominator crosses a pole.  Negative ``x``
    is accepted only for integer ``p``, as H_p(x) = (-1)**(p + 1) H_p(-x).
    """
    p, x = float(p), float(x)
    if not (math.isfinite(p) and p > -1.5):
        raise DomainError(f"p must be a finite real > -3/2, got {p!r}")
    if -math.inf < x < 0.0 and p == math.floor(p):
        return (-1.0) ** (p + 1.0) * _k_struve(p, 1.0, 1.0, -x, ctl)
    return _k_struve(p, 1.0, 1.0, x, ctl)


def k_struve(params: KStruveParams, x: float, ctl: SeriesControl | None = None) -> float:
    """k-Struve function S^k_{nu,c}(x).

    Series sum of (-c)**r / (Gamma_k(r*k + nu + 3k/2) * Gamma(r + 3/2))
    times (x/2)**(2r + nu/k + 1), taken as a prefactor times a 1F2 sum;
    collapses to ``struve_h(nu, x)`` at k = 1, c = 1.  A sum cut at
    ``max_terms`` raises ``RangeError`` unless its tail bound is within ``rel_tol``.
    At x = 0 it is 0.0 for nu/k > -1, the r = 0 coefficient at nu/k = -1, and a
    ``DomainError`` below (the series diverges there).
    """
    return _k_struve(params.nu, params.c, params.k, x, ctl)


# --------------------------------------------------------------------------
# k-Struve over a grid

def _k_struve_grid(params: KStruveParams, xs: np.ndarray, ctl: SeriesControl | None = None) -> np.ndarray:
    """``[k_struve(params, x, ctl) for x in xs]`` as an array.  Each x in (0, cap] is a lane of
    :func:`_lane_sums` on the scalar loop's prefactor, power, term ratio and stop rule; where its
    power is a normal double, its value finite and its sum not cut at ``max_terms``, the entry is
    the double ``k_struve`` returns.  Every other node is ``k_struve``'s own, so the grid raises
    the error of the first node where it raises."""
    if ctl is None:
        ctl = _DEFAULT_CTL
    xs = np.asarray(xs, dtype=float)
    nu, nc, k = params.nu, 0.0 - params.c, params.k  # -c, and 0.0 (not -0.0) at c = 0
    a, cm, ce = _k_struve_prefactor(nu, k)

    def step(n, out):
        _, t, h2 = state
        out[:] = t
        t *= h2
        t *= nc / (k * ((a + n) * (n + 1.5)))

    with np.errstate(over="ignore", invalid="ignore"):
        lane = (xs > 0.0) & (xs <= STRUVE_SERIES_CAP)  # False at NaN
        half_x = np.where(lane, xs, 0.0) / 2.0
        p = _powers(half_x, nu / k + 1.0)  # NaN where ** raises
        state = [np.arange(xs.size), np.ones(xs.size), half_x * half_x]
        pm, pe = np.frexp(p)
        vals = np.ldexp(cm * pm * _lane_sums(step, state, ctl.max_terms, ctl.rel_tol), ce + pe)
        lane &= (p >= _TINY) & np.isfinite(vals)
        lane[state[0]] = False  # the lanes cut at max_terms
    for i in np.flatnonzero(~lane).tolist():
        vals[i] = k_struve(params, float(xs[i]), ctl)
    return vals
