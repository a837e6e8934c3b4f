"""Compare the program in this checkout with the program at a git revision, call for call.

    python tests/compare_parent.py REF

REF's ``src/`` is extracted with ``git archive`` into a temporary directory.
One fixed list of calls then runs once per tree, each in its own interpreter
with ``PYTHONPATH`` set to that tree's ``src/``.  Values compare by ``repr``
(arrays by dtype, shape and bytes), errors by type and message.  The script
prints the counts per family and exits 1 on any difference.

The call list (families in the order printed):

* ``eval``: every ``frac-kinetics eval`` function at fixed and seeded
  argument sets, run through ``cli.main`` as exit code and printed text (an
  error that escapes ``main`` compares as that error); it runs first, so in
  a tree that loads numpy on first use it runs before numpy is loaded;
* ``ml``: 1,200 seeded ``mittag_leffler2`` draws, and the inputs at the bound
  of the z**n overflow test (|z| = 50 at 177 to 183 terms, |z| = 1 and the
  next double at 2,000 terms), and two betas where Gamma(beta) is subnormal;
* ``point``: every call of the ``point`` benchmark pool, all draws;
* ``solve``: 320 seeded problems, each through its ``solve_thm*`` at four
  nodes, ``solve_constant`` and ``solve_table`` on a 33-node grid;
* ``sweep``: the CLI sweeps of the ``sweep`` benchmark at seeds 1 to 3, as
  exit code, printed text and CSV;
* ``struve_grid``: 300 seeded ``_k_struve_grid`` draws;
* ``march``: ``volterra_solve`` and ``residual`` on every cell of the
  ``march`` benchmark pool.

The benchmark pools are read from ``perfbench/workloads.py``, imported only.
This file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------
# The call list, run inside one tree


def _encode(v) -> str:
    if isinstance(v, (str, int, float)):
        return repr(v)
    import numpy as np

    if isinstance(v, np.ndarray):
        return f"{v.dtype}{v.shape}:{hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()}"
    if hasattr(v, "t") and hasattr(v, "n"):  # SolutionTable
        return f"table t {_encode(v.t)} n {_encode(v.n)}"
    if isinstance(v, tuple):
        return "(" + ", ".join(map(_encode, v)) + ")"
    return repr(v)


def _outcome(call) -> str:
    try:
        return _encode(call())
    except Exception as e:  # noqa: BLE001 - any error type must match
        return f"raises {type(e).__name__}: {e}"


# fixed argument sets per eval function: ordinary values, input errors,
# Gamma underflowing to -0.0 (ml2 at beta = -180.5 and -300.25; thm2 with the
# printed reading at l = -100.25, k = 100, upsilon = 2, where row 0's beta is -197.5)
# and to a subnormal whose reciprocal is +-inf (ml2 at beta = -177.25 and -176.75)
_THM = ("--n0", "1", "--d", "1", "--c", "1")
_EVAL_ARGS = {
    "gamma": [["--x", "2.5"], ["--x", "-0.5"], ["--x", "0"], ["--x", "171.7"]],
    "kgamma": [["--x", "2.5", "--k", "1.5"], ["--x", "0.3", "--k", "0.5"], ["--x", "-1", "--k", "1"]],
    "struve": [["--p", "0.5", "--x", "1"], ["--p", "1.5", "--x", "10"], ["--p", "0", "--x", "25"]],
    "kstruve": [
        ["--nu", "1", "--c", "1", "--k", "2", "--x", "0"],
        ["--nu", "0.5", "--c", "1.3", "--k", "2", "--x", "3"],
        ["--nu", "-1", "--c", "1", "--k", "0.5", "--x", "1"],
    ],
    "ml": [["--alpha", "0.5", "--z", "-1"], ["--alpha", "1", "--z", "0"], ["--alpha", "0.3", "--z", "60"]],
    "ml2": [
        ["--alpha", "1", "--beta", "2", "--z", "1"],
        ["--alpha", "0.5", "--beta", "-170.5", "--z", "0.1"],
        ["--alpha", "0.5", "--beta", "-180.5", "--z", "0.1"],
        ["--alpha", "0.5", "--beta", "-300.25", "--z", "0.1"],
        ["--alpha", "0.5", "--beta", "-177.25", "--z", "0.1"],
        ["--alpha", "0.5", "--beta", "-176.75", "--z", "0.1"],
        ["--alpha", "0", "--beta", "1", "--z", "1"],
    ],
    "thm1": [
        [*_THM, "--upsilon", "0.5", "--l", "0.5", "--k", "1", "--t", "0.5"],
        [*_THM, "--upsilon", "1", "--l", "1", "--k", "1", "--t", "2", "--max-terms", "200"],
        [*_THM, "--upsilon", "0.5", "--l", "0.5", "--k", "1", "--t", "-1"],
    ],
    "thm2": [
        [*_THM, "--upsilon", "0.5", "--l", "0.5", "--k", "2", "--t", "0.5"],
        [*_THM, "--upsilon", "0.5", "--l", "0.5", "--k", "2", "--t", "0.5", "--exponent-reading", "printed"],
        [*_THM, "--upsilon", "2", "--l", "-100.25", "--k", "100", "--t", "0.5", "--exponent-reading", "printed"],
        [*_THM, "--upsilon", "4", "--l", "-1.25", "--k", "1", "--t", "0.5"],
    ],
    "thm3": [
        [*_THM, "--a", "2", "--upsilon", "0.5", "--l", "0.5", "--k", "2", "--t", "0.5"],
        [*_THM, "--a", "1", "--upsilon", "0.5", "--l", "0.5", "--k", "2", "--t", "0.5"],
    ],
}


def _eval_calls():
    from frac_kinetics import cli

    rng = random.Random(4)
    args = [(name, argv) for name, sets in _EVAL_ARGS.items() for argv in sets]
    for name, (names, _) in sorted(cli._EVAL.items()):
        for _ in range(6):  # seeded draws over moderate ranges
            values = {n: rng.uniform(0.1, 3.0) for n in names}
            values.update({n: rng.uniform(-1.5, 3.0) for n in ("nu", "l", "p", "beta") if n in names})
            if "z" in names:
                values["z"] = rng.uniform(-20.0, 20.0)
            args.append((name, [a for n in names for a in (f"--{n}", repr(values[n]))]))
    for i, (name, argv) in enumerate(args):

        def call(argv=["eval", name, *argv]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return f"exit {code} out {out.getvalue()!r} err {err.getvalue()!r}"

        yield f"eval/{i}/{name}", call


def _ml_calls(fk):
    import numpy as np

    rng = np.random.default_rng(1)
    alphas = np.concatenate([rng.uniform(0.05, 3.5, 900), rng.integers(1, 5, 300).astype(float)])
    ctls = (None, fk.SeriesControl(max_terms=90, rel_tol=1e-10))
    for i, (a, b, z) in enumerate(zip(alphas, rng.uniform(-2.5, 4.0, alphas.size), rng.uniform(-50.0, 50.0, alphas.size))):
        a, b, z, ctl = float(a), float(b), float(z), ctls[i % 2]
        yield f"ml/{i}", lambda a=a, b=b, z=z, ctl=ctl: fk.mittag_leffler2(a, b, z, ctl)
    for a in (0.3, 0.7, 1.5):
        for z in (-50.0, 50.0):
            for m in range(177, 184):
                ctl = fk.SeriesControl(max_terms=m)
                yield f"ml/bound/{a}/{z}/{m}", lambda a=a, z=z, ctl=ctl: fk.mittag_leffler2(a, 1.0, z, ctl)
        for z in (1.0, -1.0, math.nextafter(1.0, 2.0), -math.nextafter(1.0, 2.0)):
            ctl = fk.SeriesControl(max_terms=2000)
            yield f"ml/unit/{a}/{z!r}", lambda a=a, z=z, ctl=ctl: fk.mittag_leffler2(a, 1.0, z, ctl)
    for b in (-177.25, -176.75):  # Gamma(b) is subnormal and 1/Gamma(b) is +-inf
        yield f"ml/subnormal/{b!r}", lambda b=b: fk.mittag_leffler2(0.5, b, 0.1)


def _point_calls(fk, wl):
    api = wl.public_api()
    slots, fixed = wl.point_pool()
    for spec in [d for draws in slots for d in draws] + fixed:
        yield spec["key"], wl._point_call(fk, api, spec)[0]


def _solve_calls(fk):
    import numpy as np

    rng = np.random.default_rng(2)
    ctls = (None, fk.SeriesControl(max_terms=30, rel_tol=1e-10), fk.SeriesControl(max_terms=120))
    solvers = {"thm1": fk.solve_thm1, "thm2": fk.solve_thm2, "thm3": fk.solve_thm3}
    for i in range(320):
        variant = ("thm1", "thm2", "thm3")[i % 3]
        k = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        d = float(rng.choice([0.0, rng.uniform(0.1, 3.0)]))
        a = float(rng.uniform(0.1, 3.0)) if variant == "thm3" else None
        p = fk.KineticProblem(
            n0=float(rng.uniform(0.5, 2.0)), upsilon=float(rng.uniform(0.1, 2.5)), d=d,
            struve=fk.KStruveParams(float(k * rng.uniform(-1.4, 3.0)), float(rng.uniform(-3.0, 3.0)), k),
            variant=fk.Variant(variant), a=a if a != d else a + 0.25,
        )
        ctl, reading = ctls[i % 3], fk.READINGS[(i // 3) % 2]
        kw = {} if variant == "thm1" else {"reading": reading}
        t_max = float(rng.uniform(0.5, 4.0))
        for t in (0.0, 0.1 * t_max, 0.5 * t_max, t_max):
            yield f"solve/{i}/{variant}/{t!r}", lambda f=solvers[variant], p=p, t=t, ctl=ctl, kw=kw: f(p, t, ctl, **kw)
        yield f"solve/{i}/constant", lambda p=p, t=t_max, ctl=ctl: fk.solve_constant(p, t, ctl)
        grid = np.linspace(0.0, t_max, 33)
        yield f"solve/{i}/table", lambda p=p, ctl=ctl, grid=grid, kw=kw: fk.solve_table(p, grid, ctl, **kw)


def _sweep_calls(fk, wl, out_dir: Path):
    api = wl.public_api()
    out_path = out_dir / "sweep.csv"
    for seed in (1, 2, 3):
        for spec in wl.select("sweep", seed):
            op = wl._sweep_op(fk, api, spec, out_path, None)

            def call(op=op):
                out_path.unlink(missing_ok=True)
                code, printed = op.run()
                csv = out_path.read_text(encoding="utf-8") if out_path.exists() else None
                return code, printed.replace(str(out_path), "OUT"), csv

            yield f"sweep/{seed}/{spec['key']}", call


def _struve_grid_calls(fk):
    import numpy as np

    from frac_kinetics.special import _k_struve_grid

    rng = np.random.default_rng(3)
    for i in range(300):
        k = float(10.0 ** rng.uniform(-3.0, 0.5))
        ratio = rng.uniform(-1.4, 5.0) if i % 2 else 10.0 ** rng.uniform(0.0, 2.5)
        params = fk.KStruveParams(float(ratio * k), float(rng.uniform(-3.0, 3.0)), k)
        xs = np.sort(rng.uniform(0.0, 20.0, 17))
        ctl = (None, fk.SeriesControl(max_terms=90, rel_tol=1e-10))[i % 2]
        yield f"struve_grid/{i}", lambda params=params, xs=xs, ctl=ctl: _k_struve_grid(params, xs, ctl)


def _march_calls(fk, wl):
    slots, _ = wl.march_pool()
    grid = fk.QuadratureGrid(n=wl.MARCH_N, t_max=1.0)
    for spec in [d for draws in slots for d in draws]:
        p = wl._problem(fk, spec)
        forcing = fk.Forcing.STRUVE_T if spec["variant"] == "thm1" else fk.Forcing.STRUVE_DT

        def call(p=p, forcing=forcing):
            table = fk.volterra_solve(p, forcing, grid)
            return table, fk.residual(p, table, grid)

        yield spec["key"], call


def run_calls(src: Path) -> list[list[str]]:
    """[family, key, outcome] of every call, against the program under ``src``."""
    import frac_kinetics as fk

    if Path(fk.__file__).resolve().parent != src.resolve() / "frac_kinetics":
        raise SystemExit(f"error: imported frac_kinetics from {fk.__file__}, not from {src}")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as wl

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        families = {
            "eval": _eval_calls(),
            "ml": _ml_calls(fk),
            "point": _point_calls(fk, wl),
            "solve": _solve_calls(fk),
            "sweep": _sweep_calls(fk, wl, Path(tmp)),
            "struve_grid": _struve_grid_calls(fk),
            "march": _march_calls(fk, wl),
        }
        for family, calls in families.items():
            out += [[family, key, _outcome(call)] for key, call in calls]
    return out


# --------------------------------------------------------------------------
# The comparison


def _run_tree(src: Path) -> list[list[str]]:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, __file__, "--run", str(src)], env=env, capture_output=True, text=True, check=False
    )
    if done.returncode:
        raise SystemExit(f"error: the call list failed under {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--run":
        json.dump(run_calls(Path(argv[1])), sys.stdout)
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        theirs = _run_tree(Path(tmp) / "src")
    ours = _run_tree(ROOT / "src")
    if [row[:2] for row in ours] != [row[:2] for row in theirs]:
        print("error: the two trees ran different call lists", file=sys.stderr)
        return 1
    counts: dict[str, list[int]] = {}
    differ = []
    for (family, key, got), (_, _, want) in zip(ours, theirs):
        same = counts.setdefault(family, [0, 0])
        same[got != want] += 1
        if got != want:
            differ.append((key, want, got))
    for family, (same, diff) in counts.items():
        print(f"{family:12s} {same + diff:5d} calls  {same:5d} same  {diff:5d} differ")
    print(f"{'total':12s} {len(ours):5d} calls  {len(ours) - len(differ):5d} same  {len(differ):5d} differ  (vs {ref})")
    for key, want, got in differ[:20]:
        print(f"{key}\n  {ref}: {want[:200]}\n  here: {got[:200]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
