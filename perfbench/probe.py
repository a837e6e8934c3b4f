"""One set-up sample: a fresh interpreter imports the program and builds inputs.

    python3 perfbench/probe.py <workload> <seed>

Prints ``time.perf_counter()`` at the point where the first timed operation
would start.  ``run.py`` starts this script and subtracts its own clock
reading taken just before the start; both read the system-wide monotonic
clock.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

fk = wl.import_program()
wl.build_ops(sys.argv[1], int(sys.argv[2]), fk, wl.public_api(), None, wl.ROOT / "perfbench" / "out")
print(repr(time.perf_counter()))
