"""k-Struve fractional kinetics: closed-form solutions plus a verification oracle.

Public surface:

* :mod:`frac_kinetics.kgamma` — the k-generalized gamma function;
* :mod:`frac_kinetics.special` — Struve, k-Struve, Mittag-Leffler series;
* :mod:`frac_kinetics.kinetics` — closed-form kinetic-equation solutions,
  all through ``solve`` (a float at a real t, a table on a grid);
* :mod:`frac_kinetics.oracle` — Riemann-Liouville quadrature, Volterra
  marching solver, residual reports, Laplace cross-checks;
* :mod:`frac_kinetics.cli` — ``frac-kinetics`` command-line tool.
"""

from .errors import DomainError, PoleError, RangeError, SingularStepError
from .kgamma import gamma, k_gamma
from .kinetics import (
    READINGS,
    KineticProblem,
    SolutionTable,
    Variant,
    solve,
    solve_constant,
    solve_table,
    solve_thm1,
    solve_thm2,
    solve_thm3,
)
from .oracle import (
    Forcing,
    QuadratureGrid,
    ResidualReport,
    laplace_image,
    laplace_numeric,
    residual,
    rl_integral,
    volterra_solve,
)
from .special import (
    ML_SERIES_CAP,
    STRUVE_SERIES_CAP,
    KStruveParams,
    SeriesControl,
    k_struve,
    mittag_leffler,
    mittag_leffler2,
    struve_h,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PoleError",
    "RangeError",
    "SingularStepError",
    "gamma",
    "k_gamma",
    "KStruveParams",
    "SeriesControl",
    "struve_h",
    "k_struve",
    "mittag_leffler",
    "mittag_leffler2",
    "ML_SERIES_CAP",
    "STRUVE_SERIES_CAP",
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
    "Forcing",
    "QuadratureGrid",
    "ResidualReport",
    "rl_integral",
    "volterra_solve",
    "residual",
    "laplace_image",
    "laplace_numeric",
    "__version__",
]
