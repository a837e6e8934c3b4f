"""Start-up: the package's public names, and the scalar API and ``frac-kinetics eval`` running without
loading numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import frac_kinetics

PUBLIC = {
    "DomainError", "PoleError", "RangeError",
    "gamma", "k_gamma",
    "KStruveParams", "SeriesControl", "struve_h", "k_struve", "mittag_leffler", "mittag_leffler2",
    "ML_SERIES_CAP", "STRUVE_SERIES_CAP",
    "Variant", "KineticProblem", "SolutionTable", "READINGS",
    "solve", "solve_thm1", "solve_thm2", "solve_thm3", "solve_constant", "solve_table",
    "Forcing", "QuadratureGrid", "ResidualReport",
    "rl_integral", "volterra_solve", "residual", "laplace_image", "laplace_numeric",
    "__version__",
}


def test_public_names_are_pinned_and_resolve():
    # the package re-exports its modules' __all__ lists: each name once, and
    # each bound in the package
    assert sorted(frac_kinetics.__all__) == sorted(PUBLIC)
    namespace = {}
    exec("from frac_kinetics import *", namespace)
    for name in PUBLIC:
        assert getattr(frac_kinetics, name) is namespace[name]


# every scalar entry point once
_SCALARS = r"""
import frac_kinetics as fk
from frac_kinetics import KineticProblem, KStruveParams, Variant

s = KStruveParams(nu=0.5, c=1.3, k=2.0)
p1 = KineticProblem(n0=1.0, upsilon=0.5, d=1.0, struve=s, variant=Variant.THM1)
p2 = KineticProblem(n0=1.0, upsilon=0.5, d=1.0, struve=s, variant=Variant.THM2)
p3 = KineticProblem(n0=1.0, upsilon=0.5, d=1.0, struve=s, variant=Variant.THM3, a=2.0)
scalars = [
    fk.gamma(2.5), fk.k_gamma(2.5, 1.5), fk.struve_h(0.5, 1.0), fk.k_struve(s, 1.0),
    fk.mittag_leffler(0.5, -1.0), fk.mittag_leffler2(0.5, 1.5, -1.0),
    fk.solve_thm1(p1, 0.5), fk.solve_thm2(p2, 0.5), fk.solve_thm3(p3, 0.5),
    fk.solve_constant(p1, 0.5), fk.laplace_image(p1, 3.0), fk.solve(p2, 0.5),
]
"""

_ARRAYS = r"""
table = fk.solve_table(p2, [0.0, 0.25, 0.5, 1.0]).n.tobytes().hex()
solved = fk.solve(p2, [0.0, 0.25, 0.5, 1.0]).n.tobytes().hex()
march = fk.volterra_solve(p1, fk.Forcing.STRUVE_T, fk.QuadratureGrid(n=64, t_max=1.0)).n.tobytes().hex()
"""

# the numpy submodules loaded after the scalar calls and an eval, then the
# values, on the last line
_SCRIPT = _SCALARS + r"""
import json, sys
from frac_kinetics import cli

code = cli.main(["eval", "thm1", "--n0", "1", "--d", "1", "--upsilon", "0.5",
                 "--l", "0.5", "--c", "1.3", "--k", "2", "--t", "0.5"])
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
""" + _ARRAYS + r"""
print(json.dumps({"code": code, "loaded": loaded, "scalars": [repr(v) for v in scalars],
                  "table": table, "solved": solved, "march": march}))
"""


def test_scalar_calls_and_eval_leave_numpy_unloaded():
    src = str(Path(frac_kinetics.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "FRAC_KINETICS_MAX_TERMS"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    eval_line, result_line = proc.stdout.splitlines()
    got = json.loads(result_line)
    assert got["code"] == 0
    # the lazy "numpy" entry itself is registered; no submodule of it
    # (numpy.core on 1.x, numpy._core on 2.x) loads before an array call
    assert got["loaded"] == []
    want = {}
    exec(_SCALARS + _ARRAYS, want)
    assert eval_line == f"{want['scalars'][6]:.15g}"
    assert got["scalars"] == [repr(v) for v in want["scalars"]]
    assert got["table"] == want["table"]
    assert got["solved"] == want["solved"] == want["table"]
    assert got["march"] == want["march"]
