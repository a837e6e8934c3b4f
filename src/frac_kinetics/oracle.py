"""Independent numerical verification of the closed-form solutions.

Three legs, none of which sums a series of :mod:`.kinetics`; the forcing table
uses ``special``'s k-Struve prefactor and 1F2 term ratio, as the solution rows
and ``laplace_image`` do (``special._scaled_terms``; ROADMAP items 3 and 7 end
both):

* a product-trapezoidal quadrature for the Riemann-Liouville integral
  (exact for piecewise-linear integrands against the weakly singular kernel
  ``(t - s)**(upsilon - 1)``, second-order for smooth ones); its interior
  sums are exact direct Toeplitz sums, with no product of the origin value to
  add and take away: the lags below 128 from one convolution and the rest
  from 128 x 128 tiles, one matrix product per tile diagonal (the blocking
  of Hairer, Lubich & Schlichte, below, with exact sums where they use the
  FFT);
* a marching solver for the underlying Volterra equation of the second kind,
  obtained by moving the diagonal quadrature weight to the left-hand side;
  it marches by the recursive halving of Hairer, Lubich & Schlichte (SIAM J.
  Sci. Stat. Comput. 6(3), 1985) with exact direct sums in place of their
  FFT, so the history sums hold the O(n**2) products of a node-by-node march;
  each leaf of up to 256 nodes is solved in one convolution with the
  discrete resolvent, the inverse of its lower-triangular Toeplitz system;
  the march groups its sums differently from the quadrature, which checks it;
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
from functools import cached_property, lru_cache

from ._compensated import dd_add
from ._lazy_numpy import np
from .errors import DomainError, RangeError
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

    @cached_property
    def nodes(self) -> np.ndarray:
        """The n + 1 nodes, built once per grid and read-only (not a field: equality and hash ignore it)."""
        nodes = np.linspace(0.0, self.t_max, self.n + 1)
        nodes.setflags(write=False)
        return nodes


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


# Side of the Toeplitz tiles of ``rl_integral``'s interior sums.
_RL_TILE = 128


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
    # the origin weight a0): S[i + 2] = sum_{j<=i} dker[i-j] * u[j] for u = vals[1:n]
    # lags below B from one convolution; each lag of B and up in exactly one
    # B x B tile: with U the rows of u, U[p] @ T_d adds to output row p + d,
    # T_d[s, q] = dker[dB + q - s], zero below lag B.  T_0 never enters the
    # product, so an inf at a node reaches no earlier output through 0 * inf
    # (a later one in the next row can read 0 * inf = NaN); a grid of at most
    # B + 1 steps is one row, with no tile: the convolution is every sum
    S = np.zeros(n + 1)
    L = n - 1
    B = _RL_TILE
    P = -(-L // B)
    U = np.zeros((P, B))
    U.ravel()[:L] = vals[1:n]
    far = np.zeros(P * B)
    far[B:L] = dker[B:L]
    windows = np.lib.stride_tricks.sliding_window_view(far, B)
    Y = np.zeros((P, B))
    T = np.empty((B, B))
    buf = np.empty((P - 1, B))
    with np.errstate(over="ignore", invalid="ignore"):  # np.convolve is silent; matmul is not
        for d in range(1, P):
            T[...] = windows[d * B : (d - 1) * B : -1]
            np.matmul(U[: P - d], T, out=buf[: P - d])
            Y[d:] += buf[: P - d]
        S[2:] = np.convolve(vals[1:n], dker[:B])[:L] + Y.ravel()[:L]
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
            powers = grid.nodes if sigma == 1.0 else _powers(grid.nodes, sigma)
            if np.isnan(powers).any():  # the first t**sigma that raises, raised again
                float(grid.nodes[np.argmax(np.isnan(powers))]) ** sigma
            vals = _k_struve_grid(p.struve, lam * powers, ctl)
        vals.setflags(write=False)
        return vals


# Largest leaf of the halving march in ``volterra_solve``; of 64, 128, 256 and
# 512, 256 was fastest at n = 1,024 and 4,096 (cached forcing, one thread).
_LEAF_CAP = 256
# The cap halves while the leaf matrix's 1-norm condition number
# sum|col| * sum|r| exceeds this: a leaf solved through its inverse leaves a
# defect that grows with it, where the node-by-node march's does not.
_LEAF_COND = 4.0


def _resolvent(col: np.ndarray) -> np.ndarray:
    """First column r of the inverse of the lower-triangular Toeplitz matrix with first column ``col``.

    Newton's doubling on power series: if r[:j] inverts col modulo x**j, the
    product col * r[:j] is 1 + x**j * w, and r[:j] * (1 - x**j * w) inverts it
    modulo x**(2j); each step is two short convolutions.
    """
    m = len(col)
    r = np.empty(m)
    r[0] = 1.0 / col[0]
    j = 1
    while j < m:
        k = min(j, m - j)
        w = np.convolve(r[:j], col[: j + k])[j : j + k]
        r[j : j + k] = -np.convolve(r[:k], w)[:k]
        j += k
    return r


def _march(N, hist, dker, r, rhs, lam_cu: float, cap: int, lo: int, hi: int) -> None:
    """Solve nodes lo..hi-1 into N, given in hist[i] the history sum over nodes before lo.

    A leaf of at most ``cap`` nodes solves denom * x + lam_cu * T x = v, with
    T the strictly lower-triangular Toeplitz matrix of ``dker`` and
    v = rhs - lam_cu * hist, as one convolution with the resolvent ``r``.

    Module level, not a closure: a nested function that calls itself forms a
    reference cycle on every call, which keeps its tables alive until the
    cyclic garbage collector runs.
    """
    m = hi - lo
    if m <= cap:
        N[lo:hi] = np.convolve(r[:m], rhs[lo:hi] - lam_cu * hist[lo:hi])[:m]
        return
    mid = (lo + hi) // 2
    _march(N, hist, dker, r, rhs, lam_cu, cap, lo, mid)
    # lags 1 .. hi-1-lo from the nodes lo..mid-1 to the nodes mid..hi-1
    hist[mid:hi] += np.convolve(N[lo:mid], dker[: m - 1], "valid")
    _march(N, hist, dker, r, rhs, lam_cu, cap, mid, hi)


def volterra_solve(
    p: KineticProblem,
    forcing: Forcing,
    grid: QuadratureGrid,
    ctl: SeriesControl | None = None,
) -> SolutionTable:
    """March the Volterra equation N = N0*F - rate**u * I^u N over the grid.

    At each node the diagonal product-trapezoidal weight is moved to the
    left-hand side; everything else is a convolution over already-computed
    nodes.  Nodes are solved by recursive halving: solve the left half of a
    range, add its share of the right half's history sums with one direct
    ``np.convolve`` (no FFT), then solve the right half the same way.  A
    range of at most ``_LEAF_CAP`` nodes is a leaf: its lower-triangular
    Toeplitz system is solved at once by convolving with the first column r
    of its inverse, formed once per solve by :func:`_resolvent`.  On stiff
    grids that matrix is ill-conditioned, and the cap halves until its
    condition number is at most ``_LEAF_COND``.
    """
    F = _forcing_values(p, _scale(p, forcing), grid, ctl)
    n = grid.n
    c, a0, dker = _weight_parts(n, p.upsilon)
    cu = c * grid.h**p.upsilon
    lam_cu = p.rate**p.upsilon * cu
    denom = 1.0 + lam_cu  # at least 1: KineticProblem has d >= 0, a > 0 and upsilon > 0
    rhs = p.n0 * F
    # a table that overflows stays silent, as the march in Python floats was
    with np.errstate(over="ignore", invalid="ignore"):
        cap = min(n, _LEAF_CAP)
        col = np.concatenate(([denom], lam_cu * dker[: cap - 1]))
        r = _resolvent(col)
        cond = np.cumsum(np.abs(col)) * np.cumsum(np.abs(r))
        while cap > 1 and not cond[cap - 1] <= _LEAF_COND:
            cap //= 2
        N = np.empty(n + 1)
        N[0] = rhs[0]
        hist = np.empty(n + 1)
        hist[1:] = a0 * N[0]
        _march(N, hist, dker, r, rhs, lam_cu, cap, 1, n + 1)
    return SolutionTable(grid.nodes.copy(), N)


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
