"""``np``: numpy if it is loaded, else a module that imports numpy on its first attribute access.

The scalar API and ``frac-kinetics eval`` never touch numpy, so they never load it.  Before
Python 3.12 a lazy module's first access is not thread-safe; the package starts no threads.
"""

import importlib.util
import sys


def load_numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy") or importlib.import_module("numpy")  # the import's error if missing
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = load_numpy()
