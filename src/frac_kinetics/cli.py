"""Command-line front end: point evaluation, parameter sweeps, verification.

Subcommands
-----------
``eval``    print one function value with 15 significant digits;
``sweep``   tabulate solution curves over a (k, upsilon) product into a CSV;
``verify``  residual-check a closed-form solution against the Volterra oracle.

Exit codes: 0 success, 1 verification verdict failure (``verify`` only),
2 invalid input or unparsable arguments.

Numeric knobs resolve in precedence order: explicit flag > ``--config`` file
> ``FRAC_KINETICS_MAX_TERMS`` environment variable (max_terms only) >
built-in default.  The config file is a flat ``key = value`` list (``#``
comments allowed), keys matching the long flag names with underscores, e.g.::

    max_terms = 80
    rel_tol = 1e-12
    exponent_reading = printed

Sweep CSVs are UTF-8 with ``\\n`` line endings, a mandatory header row
``t,N_k<k>_v<upsilon>,...``, columns ordered k-outer/upsilon-inner, and all
values printed with 15 significant digits.  The CSV is written in place and a
regular file is then cut to its length, so identical invocations produce
byte-identical files, also over an older file at the same path.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from functools import lru_cache

from ._lazy_numpy import np
from .errors import DomainError
from .kgamma import gamma, k_gamma
from .kinetics import (
    READINGS,
    KineticProblem,
    KStruveParams,
    Variant,
    solve,
    solve_table,
)
from .oracle import QuadratureGrid, residual
from .special import SeriesControl, k_struve, mittag_leffler, mittag_leffler2, struve_h

__all__ = ["main", "VERIFY_TOL"]

VERIFY_TOL = 5e-4
ENV_MAX_TERMS = "FRAC_KINETICS_MAX_TERMS"

class _CliError(Exception):
    """Internal: input problem that should terminate with exit code 2."""


def _parse_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise _CliError(f"cannot read config file {path}: {exc}") from exc
    return out


# config key -> (parse a config or environment value, what it must parse as, built-in default)
_KNOBS = {
    "max_terms": (int, "an integer", 50),
    "rel_tol": (float, "a number", 1e-14),
    "exponent_reading": (str, "", "consistent"),
}


def _resolve_knobs(args: argparse.Namespace) -> tuple[SeriesControl, str]:
    """The series control and the exponent reading, each knob by flag > config > env > default."""
    config = _parse_config(args.config) if getattr(args, "config", None) else {}
    unknown = set(config) - set(_KNOBS)
    if unknown:
        raise _CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    env = {"max_terms": os.environ.get(ENV_MAX_TERMS) or None}  # an empty variable counts as unset
    knobs = {}
    for name, (parse, kind, default) in _KNOBS.items():
        value = getattr(args, name, None)
        for source, text in ((f"config {name}", config.get(name)), (ENV_MAX_TERMS, env.get(name))):
            if value is None and text is not None:
                try:
                    value = parse(text)
                except ValueError as exc:
                    raise _CliError(f"{source}: {text!r} is not {kind}") from exc
        knobs[name] = default if value is None else value
    reading = knobs.pop("exponent_reading")
    try:
        ctl = SeriesControl(**knobs)
    except DomainError as exc:
        raise _CliError(str(exc)) from exc
    if reading not in READINGS:
        raise _CliError(f"exponent_reading must be one of {READINGS}, got {reading!r}")
    return ctl, reading


def _need(args: argparse.Namespace, names: tuple[str, ...]) -> dict[str, float]:
    got = {}
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise _CliError(f"missing parameter: --{name}")
        got[name] = value
    return got


def _build_problem(variant: Variant, v: dict[str, float]) -> KineticProblem:
    struve = KStruveParams(nu=v["l"], c=v["c"], k=v["k"])
    return KineticProblem(
        n0=v["n0"],
        upsilon=v["upsilon"],
        d=v["d"],
        struve=struve,
        variant=variant,
        a=v.get("a"),
    )


# eval function -> (parameter names, call on (values, ctl, reading)); a solver's names
# keep the order n0, d, (a,) upsilon, l, c, k, t
_EVAL = {
    "gamma": (("x",), lambda v, ctl, rd: gamma(v["x"])),
    "kgamma": (("x", "k"), lambda v, ctl, rd: k_gamma(v["x"], v["k"])),
    "struve": (("p", "x"), lambda v, ctl, rd: struve_h(v["p"], v["x"], ctl)),
    "kstruve": (
        ("nu", "c", "k", "x"),
        lambda v, ctl, rd: k_struve(KStruveParams(nu=v["nu"], c=v["c"], k=v["k"]), v["x"], ctl),
    ),
    "ml": (("alpha", "z"), lambda v, ctl, rd: mittag_leffler(v["alpha"], v["z"], ctl)),
    "ml2": (("alpha", "beta", "z"), lambda v, ctl, rd: mittag_leffler2(v["alpha"], v["beta"], v["z"], ctl)),
    **{
        variant.value: (
            ("n0", "d", *(("a",) if variant is Variant.THM3 else ()), "upsilon", "l", "c", "k", "t"),
            lambda v, ctl, rd, variant=variant: solve(_build_problem(variant, v), v["t"], ctl, reading=rd),
        )
        for variant in Variant
    },
}


def _cmd_eval(args: argparse.Namespace) -> int:
    ctl, reading = _resolve_knobs(args)
    names, call = _EVAL[args.function]
    print(f"{call(_need(args, names), ctl, reading):.15g}")
    return 0


def _parse_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise _CliError(f"--{flag}: expected comma-separated reals, got {text!r}") from exc
    if not values:
        raise _CliError(f"--{flag}: list must be non-empty")
    return values


def _column_label(k: float, upsilon: float) -> str:
    return f"N_k{k:g}_v{upsilon:g}"


def _cmd_sweep(args: argparse.Namespace) -> int:
    ctl, reading = _resolve_knobs(args)
    variant = Variant(args.variant)
    k_values = _parse_list(args.k_list, "k-list")
    upsilon_values = _parse_list(args.upsilon_list, "upsilon-list")
    if not math.isfinite(args.t_max):
        raise DomainError(f"t_max must be a positive finite real, got {args.t_max!r}")
    if not (0.0 <= args.t_min < args.t_max):
        raise DomainError(f"need t_max > t_min >= 0, got t_min = {args.t_min!r}, t_max = {args.t_max!r}")
    if args.points < 2:
        raise DomainError(f"points must be >= 2, got {args.points!r}")
    grid = np.linspace(args.t_min, args.t_max, args.points)
    columns: list[tuple[str, np.ndarray]] = []
    for k in k_values:
        for upsilon in upsilon_values:
            try:
                problem = KineticProblem(
                    n0=args.n0,
                    upsilon=upsilon,
                    d=args.d,
                    struve=KStruveParams(nu=args.l, c=args.c, k=k),
                    variant=variant,
                    a=args.a,
                )
                table = solve_table(problem, grid, ctl, reading=reading)
            except (DomainError, OverflowError) as exc:
                raise _CliError(f"cell k = {k:g}, upsilon = {upsilon:g}: {exc}") from exc
            columns.append((_column_label(k, upsilon), table.n))

    header = "t," + ",".join(label for label, _ in columns)
    # Python floats format in half the time numpy scalars take, to the same text
    row_format = ",".join(["%.15g"] * (1 + len(columns)))
    rows = zip(grid.tolist(), *(vals.tolist() for _, vals in columns))
    data = "\n".join([header] + [row_format % row for row in rows] + [""]).encode("utf-8")
    try:
        # written over the old bytes, then cut to length: emptying a file that
        # holds data before rewriting it costs far more on some filesystems
        with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a device or pipe cannot be cut
                fh.truncate()
    except OSError as exc:
        raise _CliError(f"cannot write {args.out}: {exc}") from exc

    all_vals = np.column_stack([vals for _, vals in columns])
    non_monotone = [
        label
        for (label, vals) in columns
        if np.any(np.diff(vals) < -1e-12 * max(1.0, float(np.abs(vals).max())))
    ]
    summary = (
        f"{len(grid)} rows, {1 + len(columns)} columns, "
        f"N min {all_vals.min():.15g}, N max {all_vals.max():.15g}"
    )
    if non_monotone:
        summary += "; non-monotone columns: " + ", ".join(non_monotone)
    else:
        summary += "; all columns nondecreasing"
    print(summary)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ctl, reading = _resolve_knobs(args)
    variant = Variant(args.variant)
    if args.grid_n < 8:
        raise _CliError(f"--grid-n must be >= 8, got {args.grid_n}")
    problem = _build_problem(variant, vars(args))
    grid = QuadratureGrid(n=args.grid_n, t_max=args.t_max)
    table = solve_table(problem, grid.nodes, ctl, reading=reading)
    report = residual(problem, table, grid, ctl)
    scale = float(np.abs(table.n).max())
    rel = report.max_defect / scale if scale > 0.0 else report.max_defect
    print(f"max defect {report.max_defect:.6e} at t = {report.argmax_t:.6g}")
    print(f"mean defect {report.mean_defect:.6e}")
    print(f"relative defect {rel:.6e} (tolerance {VERIFY_TOL:g})")
    return 0 if rel <= VERIFY_TOL else 1


def _add_control_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-terms", type=int, default=None,
                     help="Struve, k-Struve and Mittag-Leffler terms (default 50; a solution is cut by "
                     "--rel-tol alone); a Struve sum cut there fails unless its tail bound is within --rel-tol")
    sub.add_argument("--rel-tol", type=float, default=None, help="series early-exit tolerance (default 1e-14)")
    sub.add_argument("--config", default=None, help="key = value config file; flags override it")
    sub.add_argument(
        "--exponent-reading",
        choices=READINGS,
        default=None,
        help="term-exponent reading for thm2/thm3 (default consistent)",
    )


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="frac-kinetics",
        description="k-Struve fractional kinetics: evaluate, sweep, verify.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="print one function value (15 significant digits)")
    p_eval.add_argument("function", choices=sorted(_EVAL))
    for flag in ("x", "k", "p", "nu", "c", "alpha", "beta", "z", "n0", "d", "a", "upsilon", "l", "t"):
        p_eval.add_argument(f"--{flag}", type=float, default=None)
    _add_control_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = subs.add_parser("sweep", help="tabulate solution curves into a CSV")
    p_sweep.add_argument("--variant", choices=[v.value for v in Variant], default="thm1")
    p_sweep.add_argument("--k-list", default="1", help="comma-separated k values (outer columns)")
    p_sweep.add_argument("--upsilon-list", default="1", help="comma-separated upsilon values (inner)")
    for flag in ("n0", "d", "c", "l"):
        p_sweep.add_argument(f"--{flag}", type=float, default=1.0)
    p_sweep.add_argument("--a", type=float, default=None)
    p_sweep.add_argument("--t-min", type=float, default=0.0)
    p_sweep.add_argument("--t-max", type=float, default=1.0)
    p_sweep.add_argument("--points", type=int, default=101)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    _add_control_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = subs.add_parser("verify", help="residual-check a closed form against the oracle")
    p_verify.add_argument("--variant", choices=[v.value for v in Variant], default="thm1")
    for flag in ("n0", "d", "upsilon", "l", "c", "k"):
        p_verify.add_argument(f"--{flag}", type=float, default=1.0)
    p_verify.add_argument("--a", type=float, default=None)
    p_verify.add_argument("--grid-n", type=int, default=1024)
    p_verify.add_argument("--t-max", type=float, default=1.0)
    _add_control_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, DomainError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
