"""Benchmark of frac_kinetics: the sweep, march and point paths.

    python3 perfbench/run.py --workload sweep|march|point --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (``setup_s``, ``work_per_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones, and the spans of one traced round
are written to ``perfbench/out/``.  Times are rescaled to a reference machine
speed measured by a calibration kernel run beside every operation and set-up
sample.  See ``perfbench/README.md``.
"""

import os

# One process, one thread: pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = HERE / "out"
SETUP_SAMPLES = 21  # fresh-interpreter set-up samples per run, spread over it
# Time figures are quoted at a reference machine speed: the speed at which one
# calibration kernel of CALIB_LOOP steps takes CALIB_REF_S (its median on the
# 2-vCPU guest the benchmark was tuned on).
CALIB_LOOP = 20000
CALIB_REF_S = 3.5e-3
CALIB_WINDOW = 5  # calibration samples on either side of an operation
CALIB_BURST = 5  # calibration kernels before and after a set-up sample
PROBE_TIMEOUT_S = 60

SOLVE_API = ("api.kinetics.solve_thm1", "api.kinetics.solve_thm2",
             "api.kinetics.solve_thm3", "api.kinetics.solve_constant")
SPECIAL_API = ("api.special.struve_h", "api.special.k_struve",
               "api.special.mittag_leffler", "api.special.mittag_leffler2")


class Tally:
    """Operations attempted and failed, unexpected failures, worst accuracy."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.errs: dict[str, float] = {}

    def judge(self, op, out, counted: bool) -> None:
        verdicts = op.check(out)
        for ok, probe in zip(verdicts, op.probes):
            if counted:
                self.attempted += 1
                self.failed += not ok
            if not ok and probe is None:
                self.unexpected.append(repr(out)[:200])
        for layer, err in op.errs.items():
            self.errs[layer] = max(self.errs.get(layer, 0.0), err)


def calibration_kernel() -> float:
    """A fixed mix of interpreted float arithmetic and small numpy calls.

    It touches nothing of the program.  Timed right before every operation
    and around every set-up sample, it measures the machine's speed at that
    moment, which the shared vCPUs change by up to 1.9x for seconds at a time.
    """
    s = 0.0
    for i in range(CALIB_LOOP):
        s += (i * 1.0000001) ** 0.5
    a = np.arange(2000, dtype=float)
    for _ in range(50):
        a = np.sqrt(a + 1.0)
    return s + float(a[-1])


def run_round(ops, tally: Tally, counted: bool, samples: list | None = None, after_op=None) -> None:
    """Run every operation once; ``samples`` collects (op index, calibration s, op s)."""
    perf = time.perf_counter
    for i, op in enumerate(ops):
        if samples is not None:
            c0 = perf()
            calibration_kernel()
            c1 = perf()
        t0 = perf()
        out = op.run()
        t1 = perf()
        if samples is not None:
            samples.append((i, c1 - c0, t1 - t0))
        if after_op is not None:
            after_op()
        tally.judge(op, out, counted)


def calibrated(samples: list, n_ops: int) -> list:
    """Per operation, its wall times rescaled to the reference speed.

    Each time is multiplied by CALIB_REF_S over the median calibration time of
    the CALIB_WINDOW samples on either side of it and its own, so that the
    figure does not depend on how much of the run fell in the machine's fast
    or slow stretches.
    """
    cal = [c for _, c, _ in samples]
    out = [[] for _ in range(n_ops)]
    for j, (i, _, t) in enumerate(samples):
        near = cal[max(0, j - CALIB_WINDOW):j + CALIB_WINDOW + 1]
        out[i].append(t * CALIB_REF_S / statistics.median(near))
    return out


def speed_factor() -> float:
    """CALIB_REF_S over the median of a burst of calibration kernels."""
    perf = time.perf_counter
    cal = []
    for _ in range(CALIB_BURST):
        c0 = perf()
        calibration_kernel()
        cal.append(perf() - c0)
    return CALIB_REF_S / statistics.median(cal)


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first timed operation.

    The time is rescaled to the reference speed measured by calibration
    bursts right before and right after the fresh interpreter runs.
    """
    before = speed_factor()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=wl.ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()[-500:]}")
    seconds = float(proc.stdout.split()[-1]) - t0
    return seconds * (before + speed_factor()) / 2


def round_time(times: list) -> float:
    """Sum over a round's operations of each one's median wall time.

    The operations of a round differ in cost, and the seed sets the mix;
    summing per-operation medians keeps the figure robust to slow stretches
    without letting the mix decide which operation the median lands on.
    """
    return sum(statistics.median(t) for t in times)


def summary(label: str, times: list) -> str:
    """Sample count, median and the highest percentile with ten samples beyond it."""
    flat = [x for t in times for x in t]
    n = len(flat)
    text = f"{label}: {n} ops in {len(times[0])} rounds, median {statistics.median(flat) * 1e3:.3f} ms"
    if n >= 40:
        pct = math.floor(100 * (1 - 10 / n))
        q = statistics.quantiles(flat, n=100)[pct - 1]
        text += f", p{pct} {q * 1e3:.3f} ms"
    return text + f", round of medians {round_time(times) * 1e3:.3f} ms"


def timed_run(args, ops) -> dict:
    tally = Tally()
    run_round(ops, tally, counted=False)  # fills the program's caches
    samples, setups = [], []
    start = time.perf_counter()
    interval = args.seconds / SETUP_SAMPLES
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * interval:
            setups.append(setup_sample(args.workload, args.seed))
        run_round(ops, tally, counted=True, samples=samples)
        if time.perf_counter() - start >= args.seconds and len(setups) == SETUP_SAMPLES:
            break
    times = calibrated(samples, len(ops))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(summary(f"{args.workload} seed {args.seed}", times))
    cal = sorted(c for _, c, _ in samples)
    print(f"calibration kernel (ms): median {statistics.median(cal) * 1e3:.3f}, "
          f"quartiles {cal[len(cal) // 4] * 1e3:.3f} {cal[3 * len(cal) // 4] * 1e3:.3f}")
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in sorted(setups))}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (sum(op.work for op in ops) / round_time(times), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return result(tally, metrics)


def traced_run(args, fk, api, ops, refs: dict) -> dict:
    """Alternating untraced and span-traced rounds, then one counting round from cold caches."""
    from frac_kinetics import _compensated, cli, kgamma, kinetics, oracle, special

    tracer = Tracer([cli, kinetics, special, oracle, kgamma, _compensated])
    traced_ops = wl.build_ops(args.workload, args.seed, fk, tracer.wrap_api(api), refs, OUT_DIR)
    tally = Tally()
    run_round(ops, tally, counted=False)

    # Untraced and traced rounds alternate, so both see the same stretches of
    # machine speed and their ratio measures the tracing alone.
    plain, traced, per_op = [], [], []
    spans = None
    start = time.perf_counter()
    while True:
        run_round(ops, tally, counted=True, samples=plain)
        tracer.install(counting=False)
        try:
            if spans is None:
                tracer.spans = []
            run_round(traced_ops, tally, counted=True, samples=traced,
                      after_op=lambda: per_op.append(tracer.take()))
            if spans is None:
                spans, tracer.spans = tracer.spans, None
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break

    plain, traced = calibrated(plain, len(ops)), calibrated(traced, len(ops))
    tracer.clear_caches()
    before = tracer.cache_snapshot()
    tracer.install(counting=True)
    try:
        run_round(traced_ops, tally, counted=False)
        round_stats = tracer.take()
    finally:
        tracer.uninstall()
    after = tracer.cache_snapshot()
    n_ops = len(ops)

    def op_ms(names, field=1):
        return 1e3 * statistics.median(
            sum(s[n][field] for n in names if n in s) for s in per_op)

    def us_per_call(names):
        vals = []
        for s in per_op:
            calls = sum(s[n][0] for n in names if n in s)
            if calls:
                vals.append(sum(s[n][1] for n in names if n in s) / calls)
        return 1e6 * statistics.median(vals) if vals else 0.0

    def calls(names):
        return sum(round_stats[n][0] for n in names if n in round_stats) / n_ops

    def counted(names):
        return sum(tracer.counts.get(n, 0) for n in names) / n_ops

    def hit_ratio(names):
        hits = sum(after[n][0] - before[n][0] for n in names)
        misses = sum(after[n][1] - before[n][1] for n in names)
        return hits / (hits + misses) if hits + misses else 0.0

    errs = tally.errs
    metrics = {
        "cli.main.self_ms": (op_ms(["api.cli.main"], 2), "ms"),
        "kinetics.solve_table.ms": (op_ms(["kinetics.solve_table"]), "ms"),
        "kinetics.solve_table.self_ms": (op_ms(["kinetics.solve_table"], 2), "ms"),
        "kinetics.solve_point.calls": (
            calls(["kinetics.solve_thm1", "kinetics.solve_thm2", "kinetics.solve_thm3"]), "count"),
        "kinetics.rows.ms": (op_ms(["kinetics._thm1_rows", "kinetics._thm23_rows"]), "ms"),
        "kinetics.rows.hit_ratio": (hit_ratio(["kinetics.thm1_rows", "kinetics.thm23_rows"]), "ratio"),
        "kinetics.solve_thm.us": (us_per_call(SOLVE_API), "us"),
        "kinetics.max_rel_err": (errs.get("kinetics", 0.0), "ratio"),
        "special.ml_eval.calls": (calls(["special._ml_eval"]), "count"),
        "special.ml_eval.ms": (op_ms(["special._ml_eval"]), "ms"),
        "special.ml_inv_gammas.hit_ratio": (hit_ratio(["special.ml_inv_gammas"]), "ratio"),
        "special.k_struve.calls": (calls(["special.k_struve"]), "count"),
        "special.k_struve.ms": (op_ms(["special.k_struve"]), "ms"),
        "special.scalar.us": (us_per_call(SPECIAL_API), "us"),
        "special.ml.max_rel_err": (errs.get("ml", 0.0), "ratio"),
        "special.struve.max_rel_err": (errs.get("struve", 0.0), "ratio"),
        "compensated.dd_add.calls": (counted(["compensated.dd_add"]), "count"),
        "compensated.dd_muldiv.calls": (
            counted(["compensated.dd_mul_double", "compensated.dd_div_double"]), "count"),
        "kgamma.k_gamma.calls": (counted(["kgamma.k_gamma"]), "count"),
        "oracle.forcing.calls": (calls(["oracle._forcing_values"]), "count"),
        "oracle.forcing.ms": (op_ms(["oracle._forcing_values"]), "ms"),
        "oracle.volterra_solve.self_ms": (op_ms(["api.oracle.volterra_solve"], 2), "ms"),
        "oracle.rl_integral.ms": (op_ms(["oracle.rl_integral"]), "ms"),
        "oracle.residual.self_ms": (op_ms(["api.oracle.residual"], 2), "ms"),
        "oracle.weight_parts.hit_ratio": (hit_ratio(["oracle.weight_parts"]), "ratio"),
        "oracle.march.max_rel_err": (errs.get("march", 0.0), "ratio"),
        "oracle.laplace_image.us": (us_per_call(["api.oracle.laplace_image"]), "us"),
        "trace.overhead_ratio": (round_time(traced) / round_time(plain), "ratio"),
    }
    print(summary(f"{args.workload} seed {args.seed} untraced", plain))
    print(summary(f"{args.workload} seed {args.seed} traced", traced))
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "per_layer": {k: v for k, (v, _) in metrics.items()},
        "cold_round": {"spans": round_stats, "counts": tracer.counts,
                       "caches": {n: [after[n][0] - before[n][0], after[n][1] - before[n][1]]
                                  for n in after}},
        "span_fields": ["id", "parent", "name", "start_s", "end_s"],
        "spans": spans,
    }) + "\n", encoding="utf-8")
    print(f"spans of the first traced round: {path.relative_to(wl.ROOT)}")
    return result(tally, metrics)


def result(tally: Tally, metrics: dict) -> dict:
    for what in tally.unexpected[:5]:
        print(f"unexpected failure: {what}", file=sys.stderr)
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    fk = wl.import_program()
    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    api = wl.public_api()
    ops = wl.build_ops(args.workload, args.seed, fk, api, refs, OUT_DIR)
    try:
        res = traced_run(args, fk, api, ops, refs) if args.trace else timed_run(args, ops)
    finally:
        wl.sweep_csv(OUT_DIR).unlink(missing_ok=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
