"""One BLAS thread while a command runs.

numpy and scipy each bundle an OpenBLAS.  A threaded BLAS splits a product
among its threads and sums the parts in another order, so at p=200 the last
bits of a Gram, and with them the artifacts, would depend on the thread
count.  ``cli.main`` runs each command in ``one_thread()``: numpy's library
is pinned to one thread on entry, scipy's once ``model._lapack`` has loaded
it, and both get their thread counts back on exit.  A library that cannot
be found is left as it is, with one warning.
"""

from __future__ import annotations

import logging
import os
import sys
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

# While a command runs: each package's library setter and its thread count
# before the pin, or None for a library not found.  None outside a command.
_saved: dict | None = None


@cache
def _threads(package: str):
    """The ``(get, set)`` thread-count functions of ``package``'s loaded OpenBLAS, or None.

    ``package`` is imported, so its library is loaded: opened with
    RTLD_NOLOAD, a file that is not the loaded library is skipped.
    """
    import ctypes

    pattern, symbol = _OPENBLAS[package]
    libs = Path(sys.modules[package].__file__).parent.parent / f"{package}.libs"
    for path in sorted(libs.glob(pattern)):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            get, set_ = (getattr(lib, symbol.format(verb)) for verb in ("get", "set"))
        except (OSError, AttributeError):
            continue
        get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
        return get, set_
    return None


def pin(package: str) -> None:
    """Pin ``package``'s OpenBLAS to one thread until the running command ends.

    Does nothing outside a command, or if the library is already pinned.
    """
    if _saved is None or package in _saved:
        return
    found = _threads(package)
    if found is None:
        logger.warning("%s's OpenBLAS not found; it keeps its thread count, and "
                       "results may depend on it", package)
        _saved[package] = None
        return
    get, set_ = found
    _saved[package] = set_, get()
    set_(1)


@contextmanager
def one_thread():
    """Run the body with numpy's and scipy's OpenBLAS on one thread each."""
    global _saved
    _saved = {}
    try:
        pin("numpy")
        if "scipy.linalg" in sys.modules:
            pin("scipy")
        yield
    finally:
        for entry in filter(None, _saved.values()):
            set_, count = entry
            set_(count)
        _saved = None
