"""Error-free transformations and double-double helpers for series summation.

The series in this package alternate in sign for the parameter regimes of
interest (``c > 0``, ``z < 0``), so naive accumulation loses digits to
cancellation.  Partial sums are therefore carried as an unevaluated pair
``(hi, lo)`` of doubles (a "double-double"), giving roughly 32 significant
digits in the accumulator.  Adding a plain double term into such a pair is
Kahan-Neumaier compensated summation; the extra primitives below additionally
allow *terms* to be generated to double-double accuracy via an exact product
split, which is what lets the integer-order series hold to a few ulp, such as
E_{2,1}(-x**2) = cos x, whose summands reach cosh x.

No FMA is assumed: products are split with Dekker's algorithm (Veltkamp
splitting by 2**27 + 1).  The solution coefficients (``kinetics._chain``),
``oracle.laplace_image`` and ``special._ml_half`` call these helpers; the
Mittag-Leffler loop (``special._ml_eval``) writes their steps out.  The
Struve and solution sums, in their scalar loops and in the array kernel
``special._lane_sums``, use Sum2 instead: ``two_sum`` inlined, one running sum
of the terms and one of its errors, so that the kernel can take a block of
terms with one accumulate each.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1, for Veltkamp splitting of a double


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Return (s, e) with s = fl(a+b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Return (p, e) with p = fl(a*b) and a*b = p + e exactly (Dekker)."""
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(xh: float, xl: float, y: float, yl: float = 0.0) -> tuple[float, float]:
    """Add the pair (y, yl) into the pair (xh, xl)."""
    sh, sl = two_sum(xh, y)
    sl += xl + yl
    return two_sum(sh, sl)


def dd_mul_double(xh: float, xl: float, y: float) -> tuple[float, float]:
    """Multiply the pair (xh, xl) by a double."""
    ph, pl = two_prod(xh, y)
    pl += xl * y
    return two_sum(ph, pl)


def dd_div_double(xh: float, xl: float, y: float) -> tuple[float, float]:
    """Divide the pair (xh, xl) by a double."""
    qh = xh / y
    ph, pl = two_prod(qh, y)
    ql = ((xh - ph) - pl + xl) / y
    return two_sum(qh, ql)
