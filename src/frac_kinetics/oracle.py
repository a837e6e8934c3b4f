"""Independent numerical verification of the closed-form solutions.

Three legs, none of which sums a series of :mod:`.kinetics`; the forcing table
uses ``special``'s k-Struve prefactor and 1F2 term ratio, as the solution rows
and ``laplace_image`` do (``special._scaled_terms``; ROADMAP items 3 and 7 end
both):

* a product-trapezoidal quadrature for the Riemann-Liouville integral
  (exact for piecewise-linear integrands against the weakly singular kernel
  ``(t - s)**(upsilon - 1)``, second-order for smooth ones); its interior
  sums go by blocks of rows, each block's triangle kept from a convolution of
  its whole square, with no product of the origin value to add and take away;
* a marching solver for the underlying Volterra equation of the second kind,
  obtained by moving the diagonal quadrature weight to the left-hand side;
  it marches by the recursive halving of Hairer, Lubich & Schlichte (SIAM J.
  Sci. Stat. Comput. 6(3), 1985) with exact direct sums in place of their
  FFT, so the history sums hold the O(n**2) products of a node-by-node march;
  its 16-node leaves are solved by one straight-line function; the march
  groups its sums differently from the quadrature, which checks it;
  its k-Struve forcing is tabulated once per grid, in one array pass, and the
  table is kept for the residual check on the same problem and grid;
* Laplace-domain checks: the closed-form image of the THM1 solution (the
  geometric resummation of its transform series, valid for ``s > d``) and a
  truncated numerical transform with an explicit tail bound.

The k-Struve forcing S^k_{l,c}(lam * t**sigma) is tabulated from its scale
(lam, sigma); ``residual`` takes the problem's ``forcing_scale``.  numpy
(``_lazy_numpy.np``) loads on the first array call; ``laplace_image`` makes none.

The quadrature weights come from integrating the hat-function interpolant
exactly:  with ``c_u = h**u / Gamma(u + 2)`` the node weights at step ``i``
are ``c_u`` on the diagonal, ``c_u * ((i-1)**(u+1) - (i-1-u) * i**u)`` at the
origin, and second differences of ``j**(u+1)`` in between.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from ._compensated import dd_add
from ._lazy_numpy import np
from .errors import DomainError, RangeError, SingularStepError
from .kinetics import KineticProblem, SolutionTable, Variant
from .special import _DEFAULT_CTL, SeriesControl, _exp_scaled, _k_struve_grid, _powers, _scaled_power, _scaled_terms

__all__ = [
    "QuadratureGrid",
    "ResidualReport",
    "Forcing",
    "rl_integral",
    "volterra_solve",
    "residual",
    "laplace_image",
    "laplace_numeric",
]


class Forcing(enum.Enum):
    """Forcing term of the Volterra equation (CONSTANT is a test hook)."""

    STRUVE_T = "struve_t"
    STRUVE_DT = "struve_dt"
    CONSTANT = "constant"


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform partition of [0, t_max] into n subintervals (n >= 8)."""

    n: int
    t_max: float

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 8):
            raise DomainError(f"n must be an integer >= 8, got {self.n!r}")
        if not (isinstance(self.t_max, (int, float)) and math.isfinite(self.t_max) and self.t_max > 0.0):
            raise DomainError(f"t_max must be a positive finite real, got {self.t_max!r}")

    @property
    def h(self) -> float:
        return self.t_max / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n + 1)


@dataclass(frozen=True)
class ResidualReport:
    """Defect statistics of a candidate solution in the integral equation."""

    max_defect: float
    mean_defect: float
    argmax_t: float

    def __post_init__(self) -> None:
        if self.max_defect < 0.0 or self.mean_defect < 0.0:
            raise DomainError("defect statistics must be non-negative")
        if self.mean_defect > self.max_defect * (1.0 + 1e-12) + 1e-300:
            raise DomainError("mean_defect cannot exceed max_defect")


@lru_cache(maxsize=64)
def _weight_parts(n: int, upsilon: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(c_u, origin weights a0[i-1] for i = 1..n, interior kernel d[j-1] for lag j = 1..n-1).

    All scaled so that the quadrature at step i is
        h**u * c_u * (a0[i-1] * f0 + sum_j d[j-1] * f_{i-j} + f_i).
    """
    c = 1.0 / math.gamma(upsilon + 2.0)
    m = np.arange(0, n + 1, dtype=float)
    b = m ** (upsilon + 1.0)
    dker = b[2:] - 2.0 * b[1:-1] + b[:-2]
    mm = np.arange(1, n + 1, dtype=float)
    a0 = (mm - 1.0) ** (upsilon + 1.0) - (mm - 1.0 - upsilon) * mm**upsilon
    dker.setflags(write=False)
    a0.setflags(write=False)
    return c, a0, dker


def _node_values(f, grid: QuadratureGrid) -> np.ndarray:
    if callable(f):
        vals = np.array([float(f(t)) for t in grid.nodes])
    else:
        vals = np.asarray(f, dtype=float)
        if vals.shape != (grid.n + 1,):
            raise DomainError(
                f"tabulated input must have {grid.n + 1} node values, got shape {vals.shape}"
            )
    return vals


# Rows per block of ``rl_integral``'s interior sums.
_RL_BLOCK = 512


def rl_integral(f, upsilon: float, grid: QuadratureGrid) -> np.ndarray:
    """Tabulate the Riemann-Liouville integral (I^upsilon f)(t_i) on the grid.

    ``f`` may be a callable on [0, t_max] or an array of node values (so the
    output can be fed straight back in, e.g. for semigroup checks).
    """
    upsilon = float(upsilon)
    if not (math.isfinite(upsilon) and upsilon > 0.0):
        raise DomainError(f"upsilon must be > 0, got {upsilon!r}")
    vals = _node_values(f, grid)
    n = grid.n
    c, a0, dker = _weight_parts(n, upsilon)
    cu = c * grid.h**upsilon
    # interior sums S_i = sum_{j=1..i-1} dker[i-j-1] * vals[j] (vals[0] takes
    # the origin weight a0), by blocks of rows [s, e): the nodes before the
    # block in one 'valid' convolution, the block's own triangle from one short
    # full one, which forms the block's whole square of products and keeps half
    S = np.zeros(n + 1)
    for s in range(1, n + 1, _RL_BLOCK):
        e = min(s + _RL_BLOCK, n + 1)
        if s > 1:
            S[s:e] = np.convolve(vals[1:s], dker[: e - 2], "valid")
        if e - s > 1:
            S[s + 1 : e] += np.convolve(vals[s : e - 1], dker[: e - s - 1])[: e - s - 1]
    out = np.empty(n + 1)
    out[0] = 0.0
    out[1:] = cu * (a0 * vals[0] + vals[1:] + S[1:])
    return out


def _scale(p: KineticProblem, forcing):
    """(lam, sigma) of S(lam * t**sigma) for STRUVE_T (S(t)) and STRUVE_DT (THM2's); others pass through."""
    return {Forcing.STRUVE_T: (1.0, 1.0), Forcing.STRUVE_DT: (p.d**p.upsilon, p.upsilon)}.get(forcing, forcing)


@lru_cache(maxsize=1)
def _forcing_values(p: KineticProblem, forcing, grid: QuadratureGrid, ctl: SeriesControl | None) -> np.ndarray:
    """Read-only forcing table at the grid nodes.

    ``forcing`` is a :class:`Forcing` member or a scale (lam, sigma).  The
    last table is kept: ``volterra_solve`` and ``residual`` pass the scale,
    so ``residual`` reuses the table ``volterra_solve`` just built on the
    same problem and grid.
    """
    with np.errstate(over="ignore"):  # lam * t**sigma overflows to inf, as a Python float product does
        if forcing is Forcing.CONSTANT:
            vals = np.ones(grid.n + 1)
        else:
            lam, sigma = _scale(p, forcing)
            # t**1.0 == t, and both products round correctly, so the numpy
            # product is the per-node expression lam * t**sigma
            powers = grid.nodes if sigma == 1.0 else _powers(grid.nodes.tolist(), sigma)
            if np.isnan(powers).any():  # the first t**sigma that raises, raised again
                float(grid.nodes[np.argmax(np.isnan(powers))]) ** sigma
            vals = _k_struve_grid(p.struve, lam * powers, ctl)
        vals.setflags(write=False)
        return vals


# Nodes per leaf of the halving march in ``volterra_solve``, solved by
# forward substitution in Python floats; of 8, 16, 32 and 64, 16 was fastest
# at n = 1,024 to 8,192.  ``_leaf16`` is written out for this size.
_MARCH_LEAF = 16


def _leaf16(h, b, d, lam_cu: float, denom: float) -> list[float]:
    """Forward substitution over one 16-node leaf of the march, written out.

    ``h`` holds the leaf's history sums, ``b`` its right-hand sides and ``d``
    the interior kernel at lags 1..15.  Node i is
    ``(b_i - lam_cu * (h_i + d[i-1] * n_0 + ... + d[0] * n_{i-1})) / denom``:
    Python adds left to right, so each history sum is accumulated oldest node
    first, as a loop over the leaf's nodes would.  A shorter leaf passes
    zero-padded ``h`` and ``b`` and keeps the leading values, which the padding
    cannot reach.
    """
    h0, h1, h2, h3, h4, h5, h6, h7, h8, h9, h10, h11, h12, h13, h14, h15 = h
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = b
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14 = d
    n0 = (b0 - lam_cu * h0) / denom
    n1 = (b1 - lam_cu * (h1 + d0 * n0)) / denom
    n2 = (b2 - lam_cu * (h2 + d1 * n0 + d0 * n1)) / denom
    n3 = (b3 - lam_cu * (h3 + d2 * n0 + d1 * n1 + d0 * n2)) / denom
    n4 = (b4 - lam_cu * (h4 + d3 * n0 + d2 * n1 + d1 * n2 + d0 * n3)) / denom
    n5 = (b5 - lam_cu * (h5 + d4 * n0 + d3 * n1 + d2 * n2 + d1 * n3 + d0 * n4)) / denom
    n6 = (b6 - lam_cu * (h6 + d5 * n0 + d4 * n1 + d3 * n2 + d2 * n3 + d1 * n4 + d0 * n5)) / denom
    n7 = (b7 - lam_cu * (
        h7 + d6 * n0 + d5 * n1 + d4 * n2 + d3 * n3 + d2 * n4 + d1 * n5 + d0 * n6)) / denom
    n8 = (b8 - lam_cu * (
        h8 + d7 * n0 + d6 * n1 + d5 * n2 + d4 * n3 + d3 * n4 + d2 * n5 + d1 * n6 + d0 * n7)) / denom
    n9 = (b9 - lam_cu * (
        h9 + d8 * n0 + d7 * n1 + d6 * n2 + d5 * n3 + d4 * n4 + d3 * n5 + d2 * n6 + d1 * n7
        + d0 * n8)) / denom
    n10 = (b10 - lam_cu * (
        h10 + d9 * n0 + d8 * n1 + d7 * n2 + d6 * n3 + d5 * n4 + d4 * n5 + d3 * n6 + d2 * n7
        + d1 * n8 + d0 * n9)) / denom
    n11 = (b11 - lam_cu * (
        h11 + d10 * n0 + d9 * n1 + d8 * n2 + d7 * n3 + d6 * n4 + d5 * n5 + d4 * n6 + d3 * n7
        + d2 * n8 + d1 * n9 + d0 * n10)) / denom
    n12 = (b12 - lam_cu * (
        h12 + d11 * n0 + d10 * n1 + d9 * n2 + d8 * n3 + d7 * n4 + d6 * n5 + d5 * n6 + d4 * n7
        + d3 * n8 + d2 * n9 + d1 * n10 + d0 * n11)) / denom
    n13 = (b13 - lam_cu * (
        h13 + d12 * n0 + d11 * n1 + d10 * n2 + d9 * n3 + d8 * n4 + d7 * n5 + d6 * n6 + d5 * n7
        + d4 * n8 + d3 * n9 + d2 * n10 + d1 * n11 + d0 * n12)) / denom
    n14 = (b14 - lam_cu * (
        h14 + d13 * n0 + d12 * n1 + d11 * n2 + d10 * n3 + d9 * n4 + d8 * n5 + d7 * n6 + d6 * n7
        + d5 * n8 + d4 * n9 + d3 * n10 + d2 * n11 + d1 * n12 + d0 * n13)) / denom
    n15 = (b15 - lam_cu * (
        h15 + d14 * n0 + d13 * n1 + d12 * n2 + d11 * n3 + d10 * n4 + d9 * n5 + d8 * n6 + d7 * n7
        + d6 * n8 + d5 * n9 + d4 * n10 + d3 * n11 + d2 * n12 + d1 * n13 + d0 * n14)) / denom
    return [n0, n1, n2, n3, n4, n5, n6, n7, n8, n9, n10, n11, n12, n13, n14, n15]



def _march(N, hist, dker, d, rhs, lam_cu: float, denom: float, lo: int, hi: int) -> None:
    """Solve nodes lo..hi-1 into N, given in hist[i] the history sum over nodes before lo.

    Each history sum is accumulated oldest node first (older blocks, then
    the leaf's own nodes in order).  ``d`` is ``dker[:15]`` and ``rhs`` the
    right-hand sides, both as Python lists for :func:`_leaf16`.

    Module level, not a closure: a nested function that calls itself forms a
    reference cycle on every call, which keeps its tables alive until the
    cyclic garbage collector runs.
    """
    m = hi - lo
    if m <= _MARCH_LEAF:
        h = hist[lo:hi].tolist()
        b = rhs[lo:hi]
        if m < _MARCH_LEAF:
            pad = [0.0] * (_MARCH_LEAF - m)
            h += pad
            b += pad
        N[lo:hi] = _leaf16(h, b, d, lam_cu, denom)[:m]
        return
    mid = (lo + hi) // 2
    _march(N, hist, dker, d, rhs, lam_cu, denom, lo, mid)
    # lags 1 .. hi-1-lo from the nodes lo..mid-1 to the nodes mid..hi-1
    hist[mid:hi] += np.convolve(N[lo:mid], dker[: m - 1], "valid")
    _march(N, hist, dker, d, rhs, lam_cu, denom, mid, hi)


def volterra_solve(
    p: KineticProblem,
    forcing: Forcing,
    grid: QuadratureGrid,
    ctl: SeriesControl | None = None,
) -> SolutionTable:
    """March the Volterra equation N = N0*F - rate**u * I^u N over the grid.

    At each node the diagonal product-trapezoidal weight is moved to the
    left-hand side and the scalar linear equation solved; everything else is
    a convolution over already-computed nodes.  Nodes are solved by
    recursive halving: solve the left half of a range, add its share of the
    right half's history sums with one direct ``np.convolve`` (no FFT, no
    matrix inverse), then solve the right half the same way.
    """
    F = _forcing_values(p, _scale(p, forcing), grid, ctl)
    n = grid.n
    c, a0, dker = _weight_parts(n, p.upsilon)
    cu = c * grid.h**p.upsilon
    lam = p.rate**p.upsilon
    denom = 1.0 + lam * cu
    if denom <= 0.0:
        raise SingularStepError(
            f"1 + rate**u * w_ii = {denom!r} <= 0; marching step is singular"
        )
    rhs = (p.n0 * F).tolist()
    N = np.empty(n + 1)
    N[0] = rhs[0]
    hist = np.empty(n + 1)
    hist[1:] = a0 * N[0]
    d = dker[: _MARCH_LEAF - 1].tolist()
    d += [0.0] * (_MARCH_LEAF - 1 - len(d))  # n < 16: lags the one leaf never reaches
    _march(N, hist, dker, d, rhs, lam * cu, denom, 1, n + 1)
    return SolutionTable(grid.nodes, N)


def residual(p: KineticProblem, sol: SolutionTable, grid: QuadratureGrid, ctl: SeriesControl | None = None) -> ResidualReport:
    """Defect of a tabulated candidate in the variant's integral equation.

    defect_i = N_i - N0*F(t_i) + rate**u * (I^u N)(t_i), with the forcing
    of the problem's ``forcing_scale``.
    """
    if sol.t.shape != grid.nodes.shape or not np.array_equal(sol.t, grid.nodes):
        raise DomainError("solution table abscissae do not match the grid nodes")
    F = _forcing_values(p, p.forcing_scale, grid, ctl)
    integ = rl_integral(sol.n, p.upsilon, grid)
    defect = np.abs(sol.n - p.n0 * F + p.rate**p.upsilon * integ)
    imax = int(np.argmax(defect))
    return ResidualReport(
        max_defect=float(defect[imax]),
        mean_defect=float(defect.mean()),
        argmax_t=float(sol.t[imax]),
    )


def laplace_image(p: KineticProblem, s: float, ctl: SeriesControl | None = None) -> float:
    """Closed-form Laplace transform of the THM1 solution, valid for s > max(d, sqrt(|c|/k)).

    Term-wise transform of the solution series with the inner binomial tail
    resummed geometrically:
        sum_r b_r * Gamma(e_r + 1) * s**-(e_r+1) / (1 + d**u s**-u),
    with the rows (b_r, e_r) of the forcing series N0 * F(t) = sum_r b_r t**e_r: term 0 from
    their start b_0 = m * 2**E times Gamma(e_0 + 1) s**-(e_0 + 1), each later one by their
    ratio times (e_r + 1)(e_r + 2) / s**2, the binary exponents kept apart.  That ratio tends
    to -c / (k s**2), so the sum converges for s**2 > |c|/k, and the resummation for s > d.
    A sum that takes ``max_terms`` terms without its stop rule firing raises ``RangeError``.
    """
    if p.variant is not Variant.THM1:
        raise DomainError(f"laplace_image requires variant THM1, got {p.variant}")
    if ctl is None:
        ctl = _DEFAULT_CTL
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"s must be a positive finite real, got {s!r}")
    if s <= p.d:
        raise RangeError(
            f"s = {s!r} is outside the geometric convergence region (requires s > d = {p.d!r})"
        )
    st = p.struve
    if s * s * st.k <= abs(st.c):
        raise RangeError(
            f"s = {s!r} is outside the convergence region of the image series "
            f"(requires s**2 > |c|/k = {abs(st.c) / st.k!r})"
        )
    e = st.nu / st.k + 1.0  # e_0
    try:
        gm, ge = math.frexp(math.gamma(e + 1.0))
    except OverflowError:
        gm, ge = _exp_scaled(math.lgamma(e + 1.0))
    sm, se = _scaled_power(s, -(e + 1.0))
    sum_hi, sum_lo = 0.0, 0.0
    for r, (m, e2) in zip(range(ctl.max_terms), _scaled_terms(p.n0, 0.5, e, st.nu, st.c, st.k)):
        term = math.ldexp(m * gm * sm, e2 + ge + se)
        sum_hi, sum_lo = dd_add(sum_hi, sum_lo, term)
        if abs(term) <= ctl.rel_tol * abs(sum_hi):
            break
        gm, de = math.frexp(gm * (e + 1.0) * (e + 2.0) / (s * s))
        ge, e = ge + de, e + 2.0
    else:
        raise RangeError(
            f"the image series at s = {s!r} does not stop within max_terms = {ctl.max_terms} terms"
        )
    return (sum_hi + sum_lo) / (1.0 + p.d**p.upsilon * s ** (-p.upsilon))


def laplace_numeric(f, s: float, grid: QuadratureGrid) -> tuple[float, float]:
    """Truncated numerical Laplace transform over [0, t_max] by Simpson's rule.

    ``f`` is a callable or node-value array; ``grid.n`` must be even.
    Returns ``(value, tail_bound)`` where the bound ``exp(-s*t_max)*max|f|``
    estimates the discarded tail and should be added to any error budget.
    """
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"s must be a positive finite real, got {s!r}")
    if grid.n % 2 != 0:
        raise DomainError(f"Simpson quadrature requires an even n, got {grid.n}")
    vals = _node_values(f, grid)
    integrand = np.exp(-s * grid.nodes) * vals
    w = np.ones(grid.n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    value = grid.h / 3.0 * float(np.dot(w, integrand))
    tail = math.exp(-s * grid.t_max) * float(np.abs(vals).max())
    return value, tail
