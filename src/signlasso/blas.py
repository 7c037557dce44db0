"""The OpenBLAS libraries that numpy and scipy bundle: found, opened and pinned here.

numpy and scipy each bundle an OpenBLAS in ``<package>.libs`` beside the
package.  numpy's runs numpy's products.  scipy's holds the LAPACK that
``model._lapack`` calls through ctypes, found with ``importlib.util.find_spec``
so that scipy itself is not imported.

A threaded BLAS splits a product among its threads and sums the parts in
another order, so at p=200 the last bits of a Gram, and with them the
artifacts, would depend on the thread count.  ``cli.main`` runs each command
in ``one_thread()``, which opens both libraries on entry, pins each to one
thread and gives each its thread count back on exit.  Commands that overlap
in one process share the pin: the first to enter sets it and the last to
leave restores it.  A library that cannot be found is left as it is, with
one warning.  Python-API calls such as ``harness.run_experiment`` are not
pinned; run them in ``one_thread()`` for artifacts that do not depend on the
thread count.
"""

from __future__ import annotations

import importlib.util
import logging
import os
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path

logger = logging.getLogger("signlasso.blas")

# Each package's bundled OpenBLAS, in ``<package>.libs`` beside the package:
# its file name and its thread-count functions, ``{}`` standing for get or set.
_OPENBLAS = {
    "numpy": ("libscipy_openblas64_*.so", "scipy_openblas_{}_num_threads64_"),
    "scipy": ("libscipy_openblas-*.so", "scipy_openblas_{}_num_threads"),
}

# How many ``one_thread`` bodies are running, and the setter and earlier
# thread count of each library they pinned; both are changed under _lock.
_lock = threading.Lock()
_depth = 0
_saved: list = []


@cache
def _library(package: str):
    """``package``'s bundled OpenBLAS, opened, or None; ``package`` is not imported."""
    import ctypes

    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return None
    libs = Path(spec.origin).parent.parent / f"{package}.libs"
    path = next((str(path) for path in sorted(libs.glob(_OPENBLAS[package][0]))), None)
    if path is None:
        return None
    try:
        return ctypes.CDLL(path, mode=os.RTLD_NOW)
    except OSError:
        return None


@cache
def _threads(package: str):
    """The ``(get, set)`` thread-count functions of ``package``'s OpenBLAS, or None."""
    import ctypes

    lib = _library(package)
    if lib is None:
        return None
    try:
        get, set_ = (getattr(lib, _OPENBLAS[package][1].format(verb)) for verb in ("get", "set"))
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def scipy_openblas():
    """scipy's bundled OpenBLAS, opened; None if not found."""
    return _library("scipy")


@contextmanager
def one_thread():
    """Run the body with numpy's and scipy's OpenBLAS on one thread each."""
    global _depth
    with _lock:
        if _depth == 0:
            for package in _OPENBLAS:
                found = _threads(package)
                if found is None:
                    logger.warning("%s's OpenBLAS not found; it keeps its thread count, "
                                   "and results may depend on it", package)
                    continue
                get, set_ = found
                _saved.append((set_, get()))
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
                _saved.clear()
