"""The accuracy ledger (``ledger.json``, written by ``make_ledger.py``).

Every case must stay within the larger of the error the ledger records for it
and its family's floor: for ``sums`` and ``ml`` the floor the ledger records
(32 u * sum |term| and what the program's formula costs in exact arithmetic,
see ``make_ledger.py``), for ``rows`` 1e-12 relative (each forcing row b_r
times Gamma(g_r + 1), the solution's row in its Mittag-Leffler form), for
``solve`` 1e-14 relative to the case's largest |N(t)|.  A case recorded as
raising must raise the same type and message, or give a value within that floor.
"""

import json
from itertools import islice
from pathlib import Path

import mpmath as mp

from make_ledger import (
    ROW_FLOOR,
    SOLVE_FLOOR,
    ml_call,
    outcome,
    row_error,
    row_image,
    solve_call,
    solve_error,
    sum_call,
    sum_error,
)

LEDGER = json.loads((Path(__file__).resolve().parent / "ledger.json").read_text())


def _failures(cases, call, keys):
    """(inputs, what is wrong) of each absolute-error case that leaves its ledger error."""
    failures = []
    for case in cases:
        got = outcome(call(case))
        if isinstance(got, list):
            bad = got != case.get("raises") and f"raises {got}"
        else:
            err, limit = sum_error(got, case["value"]), max(mp.mpf(case["floor"]), mp.mpf(case.get("err", 0)))
            bad = err > limit and f"error {mp.nstr(err, 3)} above {mp.nstr(limit, 3)}"
        if bad:
            failures.append(([case[k] for k in keys], bad))
    return failures


def test_k_struve_sums_hold_their_ledger_errors():
    assert not _failures(LEDGER["sums"], sum_call, ("fn", "nu", "c", "k", "x"))


def test_mittag_leffler_sums_hold_their_ledger_errors():
    assert not _failures(LEDGER["ml"], ml_call, ("alpha", "beta", "z"))


def test_solution_rows_hold_their_ledger_errors():
    from frac_kinetics.kinetics import _rows

    failures = []
    for prob in LEDGER["rows"]:
        *args, n = prob["args"]
        got = outcome(lambda: tuple(islice(_rows(*args), n)))
        if isinstance(got, list):
            if got != prob.get("raises"):
                failures.append((prob["args"], f"raises {got}"))
            continue
        errs = prob.get("errs", [0] * len(got))  # a problem that raised may now give rows within the floor
        for r, (row, value, rec) in enumerate(zip(got, prob["values"], errs)):
            err, limit = row_error(row_image(row), value), max(ROW_FLOOR, mp.mpf(rec))
            if err > limit:
                failures.append((prob["args"], r, mp.nstr(err, 3), mp.nstr(limit, 3)))
    assert not failures, failures


def test_solutions_hold_their_ledger_errors():
    failures = []
    for case in LEDGER["solve"]:
        got = outcome(solve_call(case))
        if isinstance(got, list):
            bad = got != case.get("raises") and f"raises {got}"
        else:
            err, limit = solve_error(got, case["values"]), max(SOLVE_FLOOR, mp.mpf(case.get("err", 0)))
            bad = err > limit and f"error {mp.nstr(err, 3)} above {mp.nstr(limit, 3)}"
        if bad:
            failures.append((case["key"], bad))
    assert not failures, failures


def test_ledger_covers_the_named_repros():
    sums = {(c["nu"], c["c"], c["k"], c["x"]) for c in LEDGER["sums"]}
    for case in [(2.5, 3.0, 0.5, 20.0), (3.0, 1.0, 0.01, 20.0), (3.1, 1.0, 0.01, 20.0),
                 (0.25, -500.0, 0.001, 1.0), (3.2, -1.0, 0.01, 18.0)]:
        assert case in sums
    assert sum(c["tag"] == "wide draw" for c in LEDGER["sums"]) == 1000
    assert any(p["args"][7] == 20 and p["tag"] == "subnormal Gamma_k rows" for p in LEDGER["rows"])
    ml = {(c["alpha"], c["beta"], c["z"]) for c in LEDGER["ml"]}
    for case in [(0.5, 1.0, -5.0), (0.5, 1.0, -8.0), (1.0, 1.0, -20.0), (0.5, 1.0, -2.0)]:
        assert case in ml
    solve = {c["key"]: c for c in LEDGER["solve"]}
    assert {"point/probe/thm1_d25", "point/probe/thm2_ups2"} <= set(solve)
    assert sum(key.startswith("sweep/small/") and len(c["t"]) == 101 for key, c in solve.items()) == 16

