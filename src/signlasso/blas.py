"""The OpenBLAS libraries that numpy and scipy bundle: found, opened and pinned here.

numpy and scipy each bundle an OpenBLAS in ``<package>.libs`` beside the
package.  numpy's runs numpy's products.  scipy's holds the LAPACK that
``model._lapack`` calls through ctypes, found with ``importlib.util.find_spec``
so that scipy itself is not imported.

A threaded BLAS splits a product among its threads and sums the parts in
another order, so at p=200 the last bits of a Gram, and with them the
artifacts, would depend on the thread count.  ``cli.main`` runs each command
in ``one_thread()``: numpy's library is pinned to one thread on entry,
scipy's too if it is already loaded in the process (a probe with
RTLD_NOLOAD), else when ``scipy_openblas`` loads it; both get their thread
counts back on exit.  A library that cannot be found is left as it is, with
one warning.
"""

from __future__ import annotations

import importlib.util
import logging
import os
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
def _path(package: str) -> str | None:
    """The file of ``package``'s bundled OpenBLAS, or None; ``package`` is not imported."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return None
    libs = Path(spec.origin).parent.parent / f"{package}.libs"
    return next((str(path) for path in sorted(libs.glob(_OPENBLAS[package][0]))), None)


def _open(package: str, mode: int):
    """``package``'s bundled OpenBLAS opened with dlopen ``mode``, or None.

    None also when the mode has RTLD_NOLOAD and the library is not loaded.
    """
    import ctypes

    path = _path(package)
    if path is None:
        return None
    try:
        return ctypes.CDLL(path, mode=mode)
    except OSError:
        return None


@cache
def _threads(package: str):
    """The ``(get, set)`` thread-count functions of ``package``'s loaded OpenBLAS, or None."""
    import ctypes

    lib = _open(package, os.RTLD_NOLOAD)
    if lib is None:
        return None
    try:
        get, set_ = (getattr(lib, _OPENBLAS[package][1].format(verb)) for verb in ("get", "set"))
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@cache
def scipy_openblas():
    """scipy's bundled OpenBLAS, loaded and pinned for the running command; None if not found."""
    lib = _open("scipy", os.RTLD_NOW)
    if lib is not None:
        pin("scipy")
    return lib


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
    """Run the body with numpy's OpenBLAS, and scipy's once loaded, on one thread each."""
    global _saved
    _saved = {}
    try:
        pin("numpy")
        if _open("scipy", os.RTLD_NOLOAD) is not None:
            pin("scipy")
        yield
    finally:
        for entry in filter(None, _saved.values()):
            set_, count = entry
            set_(count)
        _saved = None
