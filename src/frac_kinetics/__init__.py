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

from . import errors, kgamma, kinetics, oracle, special
from .errors import *  # noqa: F403
from .kgamma import *  # noqa: F403
from .kinetics import *  # noqa: F403
from .oracle import *  # noqa: F403
from .special import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for m in (errors, kgamma, special, kinetics, oracle) for name in m.__all__] + ["__version__"]
