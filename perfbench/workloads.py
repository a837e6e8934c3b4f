"""Seeded inputs, operations and output checks of the three workloads.

This module imports only the standard library at module level, so that
``make_refs.py`` can enumerate the input pools without importing the program
and ``probe.py`` can time set-up without paying for anything else.

Every workload draws its inputs from a fixed pool (built here from a fixed
pool seed) so that the mpmath references in ``refs.json`` can be computed
once and stored.  ``--seed`` picks one draw per slot of the pool; the slots,
and therefore the make-up of a round of operations, are the same for every
seed.  Fault probes have fixed inputs that no seed changes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep", "march", "point")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Draws per slot in the pool, and how many of them the seed picks for a round.
DRAWS = 4
POINT_DRAWS, POINT_PICKS = 8, 4
# Relative error bound of a sound double/double-double evaluation; the same
# bound ROADMAP item 2 sets for every value the program returns.
REL_TOL = 1e-12
SWEEP_POINTS = 101  # the CLI's default t-window [0, 1] with 101 points
MARCH_N = 4096  # criterion-4 grid of the acceptance suite
MARCH_CHECK = tuple(j / 8 for j in range(1, 9))  # grid nodes checked against mpmath


def _r(x: float) -> float:
    """Round a draw to 4 significant digits, so CLI strings and floats agree."""
    return float(f"{x:.4g}")


# --------------------------------------------------------------------------
# Pools: pure data, shared with make_refs.py


def sweep_pool() -> tuple[list[list[dict]], list[dict]]:
    """(seeded slots, fixed cells) of the ``sweep`` workload.

    Seeded slots cover the criterion-8 orders of THM1 and the lower orders of
    THM2/THM3 (above them THM2 row building overflows, a point probe), each
    with DRAWS draws of (d, c, l) and, for THM3, of the rate a.  The fixed
    cells are the criterion-8 small orders at the CLI defaults d = c = l = 1.
    """
    rng = random.Random("sweep-pool")
    grid = (
        [("thm1", u, k) for u in (0.5, 1.0, 1.5, 2.0) for k in (1.0, 2.0, 3.0, 4.0)]
        + [("thm2", u, k) for u in (0.5, 1.0, 1.5) for k in (1.0, 2.0)]
        + [("thm3", u, k) for u in (0.5, 1.0) for k in (1.0, 2.0)]
    )
    slots = []
    for s, (variant, ups, k) in enumerate(grid):
        draws = []
        for j in range(DRAWS):
            cell = dict(
                key=f"sweep/{s}/{j}", variant=variant, upsilon=ups, k=k,
                d=_r(rng.uniform(0.5, 2.0)), c=_r(rng.uniform(0.5, 2.0)),
                l=_r(rng.uniform(0.5, 2.0)), a=None, probe=None,
            )
            if variant == "thm3":
                a = _r(rng.uniform(0.5, 2.0))
                cell["a"] = a if a != cell["d"] else _r(a + 0.25)
            draws.append(cell)
        slots.append(draws)
    fixed = []
    for ups in (0.1, 0.2, 0.3, 0.4):
        for k in (1.0, 2.0, 3.0, 4.0):
            probe = "50-term cut of E_{ups,beta}" if ups <= 0.2 else None
            fixed.append(dict(
                key=f"sweep/small/{ups:g}/{k:g}", variant="thm1", upsilon=ups, k=k,
                d=1.0, c=1.0, l=1.0, a=None, probe=probe,
            ))
    return slots, fixed


def march_pool() -> tuple[list[list[dict]], list[dict]]:
    """Seeded (k, l) draws for each (variant, upsilon) slot; d = c = n0 = 1."""
    slots = []
    for variant in ("thm1", "thm2"):
        for ups in (0.5, 0.75, 1.0, 1.5):
            draws = [
                dict(key=f"march/{variant}/{ups:g}/{k:g}/{l:g}", variant=variant,
                     upsilon=ups, k=k, l=l, d=1.0, c=1.0, probe=None)
                for k in (1.0, 2.0, 3.0) for l in (0.5, 1.0, 1.5)
            ]
            slots.append(draws)
    return slots, []


def point_pool() -> tuple[list[list[dict]], list[dict]]:
    """Scalar-call slots with POINT_DRAWS argument draws each, plus the fault probes.

    A solver's cost grows about threefold from upsilon = 1.5 to upsilon = 1,
    so each solver gets one slot per upsilon and the draws vary the other
    parameters only.
    """
    rng = random.Random("point-pool")
    u = rng.uniform

    def prob(variant, ups):
        return dict(variant=variant, n0=_r(u(0.5, 2)), d=_r(u(0.5, 2)), c=_r(u(0.5, 2)),
                    l=_r(u(0.5, 2)), k=_r(u(1, 3)), upsilon=ups)

    makers = {
        "gamma": lambda: dict(x=_r(u(0.2, 20))),
        "k_gamma": lambda: dict(x=_r(u(0.2, 12)), k=_r(u(0.5, 3))),
        "struve_h": lambda: dict(p=rng.choice((0.0, 0.5, 1.0, 2.0)), x=_r(u(0.1, 10))),
        "k_struve": lambda: dict(nu=_r(u(0.5, 2)), c=_r(u(0.5, 2)), k=_r(u(1, 3)), x=_r(u(0.1, 5))),
        "ml_int": lambda: dict(fn="mittag_leffler", alpha=1.0, z=_r(u(-5, 2))),
        "ml_frac": lambda: dict(fn="mittag_leffler", alpha=0.5, z=_r(u(-1.5, 1))),
        "ml2_int": lambda: dict(fn="mittag_leffler2", alpha=2.0, beta=_r(u(0.5, 3)), z=_r(u(-5, 2))),
        "ml2_frac": lambda: dict(fn="mittag_leffler2", alpha=0.7, beta=_r(u(0.5, 3)), z=_r(u(-2, 1))),
        "laplace_image": lambda: dict(prob("thm1", rng.choice((0.5, 1.0, 1.5))), ds=_r(u(1, 5))),
    }
    for ups in (0.5, 1.0, 1.5):
        makers[f"solve_thm1/{ups:g}"] = lambda ups=ups: dict(prob("thm1", ups), t=_r(u(0.1, 1)))
        makers[f"solve_thm2/{ups:g}"] = lambda ups=ups: dict(prob("thm2", ups), t=_r(u(0.1, 1)))
        makers[f"solve_thm3/{ups:g}"] = lambda ups=ups: dict(
            prob("thm3", ups), a=_r(u(0.5, 2)), t=_r(u(0.1, 1)))
        makers[f"solve_constant/{ups:g}"] = lambda ups=ups: dict(prob("thm1", ups), t=_r(u(0.1, 2)))
    slots = []
    for name, make in makers.items():
        draws = []
        for j in range(POINT_DRAWS):
            args = make()
            if args.get("a") is not None and args["a"] == args["d"]:
                args["a"] = _r(args["a"] + 0.25)
            draws.append(dict(key=f"point/{name}/{j}", call=name.split("/")[0], probe=None, **args))
        slots.append(draws)
    ones = dict(n0=1.0, d=1.0, c=1.0, l=1.0, k=1.0)
    fixed = [
        dict(key="point/probe/ml_0.5_-5", call="ml_frac", fn="mittag_leffler", alpha=0.5, z=-5.0,
             probe="E_0.5(-5): series cancellation"),
        dict(key="point/probe/ml_0.5_-8", call="ml_frac", fn="mittag_leffler", alpha=0.5, z=-8.0,
             probe="E_0.5(-8): series cancellation"),
        dict(key="point/probe/ml_0.5_-2", call="ml_frac", fn="mittag_leffler", alpha=0.5, z=-2.0,
             probe="E_0.5(-2): 50-term cut"),
        dict(key="point/probe/ml_1_-20", call="ml_int", fn="mittag_leffler", alpha=1.0, z=-20.0,
             probe="E_1(-20): 50-term cut and cancellation"),
        dict(key="point/probe/struve_0_20", call="struve_h", p=0.0, x=20.0,
             probe="H_0(20): series cancellation"),
        dict(key="point/probe/thm1_d25", call="solve_thm1", variant="thm1", upsilon=0.5,
             t=1.0, **dict(ones, d=25.0), probe="THM1 ups=0.5 d=25: E_{0.5,beta}(-5) cancellation"),
        dict(key="point/probe/thm2_ups2", call="solve_thm2", variant="thm2", upsilon=2.0,
             t=0.5, **ones, probe="THM2 ups=2: Gamma(ups*e_r+1) overflow in _thm23_rows"),
    ]
    return slots, fixed


POOLS = {"sweep": sweep_pool, "march": march_pool, "point": point_pool}


def select(workload: str, seed: int) -> list[dict]:
    """One round of input specs: seeded draws from every slot, then the fixed cells.

    A point pass takes POINT_PICKS draws per slot, so that its cost, an
    average over them, depends little on the seed.
    """
    slots, fixed = POOLS[workload]()
    rng = random.Random(seed)
    picks = POINT_PICKS if workload == "point" else 1
    return [d for draws in slots for d in rng.sample(draws, picks)] + fixed


# --------------------------------------------------------------------------
# Operations: built from the specs against the imported program


def import_program():
    """Import ``frac_kinetics`` from this checkout's ``src`` and nowhere else."""
    import importlib
    import sys

    if not (SRC / "frac_kinetics" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'frac_kinetics'}")
    sys.path.insert(0, str(SRC))
    fk = importlib.import_module("frac_kinetics")
    if Path(fk.__file__).resolve().parent != SRC / "frac_kinetics":
        raise SystemExit(f"error: imported frac_kinetics from {fk.__file__}, not from {SRC}")
    return fk


@dataclass
class Op:
    """One timed operation.

    ``run()`` calls the program; ``check(out)`` returns one verdict per item
    of the operation (a point pass has one item per scalar call), and
    ``probes[i]`` names the fault item i probes, or is None.  ``work`` is the
    operation's unit count for ``work_per_s``; ``errs`` holds the accuracy
    figures of the last check, by layer, from non-probe items only.
    """

    run: object
    check: object
    probes: list
    work: int
    errs: dict = field(default_factory=dict)


def _problem(fk, spec: dict):
    return fk.KineticProblem(
        n0=spec.get("n0", 1.0), upsilon=spec["upsilon"], d=spec["d"],
        struve=fk.KStruveParams(spec["l"], spec["c"], spec["k"]),
        variant=fk.Variant(spec["variant"]), a=spec.get("a"),
    )


def _sweep_op(fk, api, spec: dict, out_path: Path, refs) -> Op:
    argv = ["sweep", "--variant", spec["variant"], "--k-list", f"{spec['k']:g}",
            "--upsilon-list", f"{spec['upsilon']:g}", "--d", repr(spec["d"]),
            "--c", repr(spec["c"]), "--l", repr(spec["l"]), "--out", str(out_path)]
    if spec["a"] is not None:
        argv += ["--a", repr(spec["a"])]
    main = api["cli.main"]

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        return code, sink.getvalue()

    label = f"t,N_k{spec['k']:g}_v{spec['upsilon']:g}"
    op = Op(run, None, [spec["probe"]], SWEEP_POINTS)

    def check(out) -> list[bool]:
        code, printed = out
        if code != 0 or not printed.startswith(f"{SWEEP_POINTS} rows, 2 columns"):
            return [False]
        lines = out_path.read_text(encoding="utf-8").split("\n")
        if lines[0] != label or len(lines) != SWEEP_POINTS + 2 or lines[-1] != "":
            return [False]
        want = refs[spec["key"]]
        scale = max(abs(v) for v in want)
        worst = 0.0
        for i, line in enumerate(lines[1:-1]):
            t, n = (float(x) for x in line.split(","))
            if abs(t - i / (SWEEP_POINTS - 1)) > 1e-15:
                return [False]
            worst = max(worst, abs(n - want[i]) / scale)
        op.errs = {} if spec["probe"] else {"kinetics": worst}
        return [worst <= REL_TOL]

    op.check = check
    return op


def march_bound(spec: dict, n: int) -> float:
    """Discretization error bound, relative to max |N|, of the marched table.

    The product-trapezoidal marching converges as h**q with q = min(2, 1 + p0),
    where p0 is the smallest power of t in the forcing: l/k + 1 for THM1 and
    upsilon * (l/k + 1) for THM2.  On 40 of the 72 pool cells, at n = 512 to
    4096 the observed orders come within 0.11 of q and the constant in front of
    h**q stays below 0.33; the bound takes the constant as 1.
    """
    p0 = spec["l"] / spec["k"] + 1.0
    if spec["variant"] != "thm1":
        p0 *= spec["upsilon"]
    return (1.0 / n) ** min(2.0, 1.0 + p0)


def _march_op(fk, api, spec: dict, refs) -> Op:
    p = _problem(fk, spec)
    grid = fk.QuadratureGrid(n=MARCH_N, t_max=1.0)
    forcing = fk.Forcing.STRUVE_T if spec["variant"] == "thm1" else fk.Forcing.STRUVE_DT
    volterra_solve, residual = api["oracle.volterra_solve"], api["oracle.residual"]
    idx = [round(t * MARCH_N) for t in MARCH_CHECK]
    bound = march_bound(spec, MARCH_N)

    def run():
        table = volterra_solve(p, forcing, grid)
        return table, residual(p, table, grid)

    op = Op(run, None, [None], MARCH_N + 1)

    def check(out) -> list[bool]:
        table, report = out
        scale = float(abs(table.n).max())
        want = refs[spec["key"]]
        ref_scale = max(abs(v) for v in want)
        err = max(abs(float(table.n[i]) - w) for i, w in zip(idx, want)) / ref_scale
        op.errs = {"march": err}
        # rounding level: a length-n dot product loses at most ~n ulp
        return [report.max_defect <= MARCH_N * 2.0**-52 * scale and err <= bound]

    op.check = check
    return op


def _point_call(fk, api, spec: dict):
    """(callable of no arguments, layer of the accuracy figure) for one slot."""
    call = spec["call"]
    if call in ("gamma", "k_gamma"):
        f = api[f"kgamma.{call}"]
        args = (spec["x"],) if call == "gamma" else (spec["x"], spec["k"])
        return (lambda: f(*args)), "kgamma"
    if call == "struve_h":
        f = api["special.struve_h"]
        return (lambda: f(spec["p"], spec["x"])), "struve"
    if call == "k_struve":
        f, params = api["special.k_struve"], fk.KStruveParams(spec["nu"], spec["c"], spec["k"])
        return (lambda: f(params, spec["x"])), "struve"
    if call.startswith("ml"):
        f = api[f"special.{spec['fn']}"]
        args = ((spec["alpha"], spec["z"]) if spec["fn"] == "mittag_leffler"
                else (spec["alpha"], spec["beta"], spec["z"]))
        return (lambda: f(*args)), "ml"
    if call == "laplace_image":
        f, p = api["oracle.laplace_image"], _problem(fk, spec)
        s = spec["d"] + spec["ds"]
        return (lambda: f(p, s)), "kinetics"
    f, p = api[f"kinetics.{call}"], _problem(fk, spec)
    return (lambda: f(p, spec["t"])), "kinetics"


def _point_op(fk, api, specs: list[dict], refs) -> Op:
    calls = [_point_call(fk, api, s) for s in specs]
    fns = [f for f, _ in calls]
    exc_types = (ArithmeticError, ValueError)

    def run():
        out = []
        for f in fns:
            try:
                out.append(f())
            except exc_types as exc:
                out.append(exc)
        return out

    op = Op(run, None, [s["probe"] for s in specs], len(specs))

    def check(out) -> list[bool]:
        """Per-call verdicts; a probe also passes by raising RangeError with a reason."""
        verdicts, errs = [], {"ml": 0.0, "struve": 0.0, "kinetics": 0.0}
        for spec, (_, layer), got in zip(specs, calls, out):
            want = refs[spec["key"]]
            if isinstance(got, BaseException):
                ok = spec["probe"] is not None and isinstance(got, fk.RangeError) and bool(str(got))
            else:
                err = abs(got - want) / abs(want) if math.isfinite(got) else math.inf
                ok = err <= REL_TOL
                if spec["probe"] is None and layer in errs:
                    errs[layer] = max(errs[layer], err)
            verdicts.append(ok)
        op.errs = errs
        return verdicts

    op.check = check
    return op


def sweep_csv(out_dir: Path) -> Path:
    """The CSV the sweep operations of this process write and read back."""
    return out_dir / f"sweep-{os.getpid()}.csv"


def build_ops(workload: str, seed: int, fk, api: dict, refs: dict | None, out_dir: Path) -> list[Op]:
    """The operations of one round.

    ``fk`` is the imported ``frac_kinetics`` package and ``api`` maps
    "module.function" to the public callables the operations call (so a
    traced run can substitute wrappers).  With ``refs`` None the checks are
    not usable; set-up probes build the operations that way.
    """
    specs = select(workload, seed)
    if workload == "sweep":
        return [_sweep_op(fk, api, s, sweep_csv(out_dir), refs) for s in specs]
    if workload == "march":
        return [_march_op(fk, api, s, refs) for s in specs]
    return [_point_op(fk, api, specs, refs)]


def public_api() -> dict:
    """The entry points the workloads call, by "module.function"."""
    from frac_kinetics import cli, kgamma, kinetics, oracle, special

    api = {"cli.main": cli.main}
    for mod, names in (
        (kgamma, ("gamma", "k_gamma")),
        (special, ("struve_h", "k_struve", "mittag_leffler", "mittag_leffler2")),
        (kinetics, ("solve_thm1", "solve_thm2", "solve_thm3", "solve_constant")),
        (oracle, ("volterra_solve", "residual", "laplace_image")),
    ):
        for name in names:
            api[f"{mod.__name__.rsplit('.', 1)[1]}.{name}"] = getattr(mod, name)
    return api
