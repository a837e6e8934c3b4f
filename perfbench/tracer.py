"""In-memory tracing of the calls that cross the program's module boundaries.

Nothing in the program is edited: the tracer rebinds names in the imported
modules' namespaces and restores them afterwards.  It wraps

* every program function that one module binds from another (for example
  ``kinetics._ml_eval`` from ``special`` or ``cli.solve_table`` from
  ``kinetics``), as bound in the caller's namespace;
* the module-level helpers a per-layer metric names (``NAMED``), which their
  own module calls through its globals;
* the entry points the benchmark calls, as ``api.<module>.<function>``.

Span wrappers record (id, parent, name, start, end) and aggregate calls, total
time and self time (duration minus child spans) per name.  The double-double
helpers and the gamma functions are called hundreds of thousands of times per
operation, so they get counting wrappers only, and only while ``counting`` is
set; the timed traced rounds leave them unwrapped.
"""

from __future__ import annotations

import time
import types

PACKAGE = "frac_kinetics"
COUNTED_MODULES = ("frac_kinetics._compensated", "frac_kinetics.kgamma")
NAMED = {
    "frac_kinetics.kinetics": ("_thm1_rows", "_thm23_rows", "solve_thm1", "solve_thm2", "solve_thm3"),
    "frac_kinetics.oracle": ("_forcing_values", "rl_integral", "_weight_parts"),
}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self, modules: list[types.ModuleType]):
        self.modules = modules
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list | None = None  # recorded only while a list
        self._stack: list[list] = []  # [span id, child time] per open span
        self._next_id = 0
        self._patched: list[tuple] = []
        self.caches = {
            f"{_short(m.__name__)}.{name.lstrip('_')}": obj
            for m in modules
            for name, obj in vars(m).items()
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == m.__name__
        }

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        stack, perf = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                rec = self.stats.get(name)
                if rec is None:
                    rec = self.stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if self.spans is not None:
                    self.spans.append((frame[0], parent[0] if parent else None, name, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing -------------------------------------------------------

    def install(self, counting: bool) -> None:
        """Rebind every cross-module and named binding in the program modules."""
        for m in self.modules:
            named = NAMED.get(m.__name__, ())
            for attr, obj in list(vars(m).items()):
                home = getattr(obj, "__module__", None)
                if isinstance(obj, type) or not callable(obj) or not home or not home.startswith(PACKAGE):
                    continue
                if home == m.__name__ and attr not in named:
                    continue
                name = f"{_short(home)}.{attr}"
                if home in COUNTED_MODULES:
                    if not counting:
                        continue
                    wrapper = self.counter(name, obj)
                else:
                    wrapper = self.span(name, obj)
                self._patched.append((m, attr, obj))
                setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, obj in reversed(self._patched):
            setattr(m, attr, obj)
        self._patched.clear()

    def wrap_api(self, api: dict) -> dict:
        return {key: self.span(f"api.{key}", fn) for key, fn in api.items()}

    # -- reading ----------------------------------------------------------

    def take(self) -> dict[str, tuple]:
        """Per-name (calls, total_s, self_s) since the last take, then reset."""
        out = {name: tuple(rec) for name, rec in self.stats.items()}
        self.stats.clear()
        return out

    def cache_snapshot(self) -> dict[str, tuple[int, int]]:
        return {name: (f.cache_info().hits, f.cache_info().misses) for name, f in self.caches.items()}

    def clear_caches(self) -> None:
        for f in self.caches.values():
            f.cache_clear()
