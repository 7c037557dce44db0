"""Headerless CSV I/O for matrices, coefficient vectors, and counts.

Matrices are row-major with comma separators and '.' decimals; vectors are a
single column; counts are a single column of integers, read as integers.
Floats are written with 17 significant digits, so every value round-trips
exactly; so does every count.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .model import _check_counts


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _read_table(path, dtype) -> np.ndarray:
    """The nonempty 2-D ``dtype`` array in ``path``."""
    # Opened here, not by loadtxt, so a missing file's error carries its name.
    with open(path) as handle, warnings.catch_warnings():
        # An empty file is reported below, as an error that names it.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy before 2.x reads a literal such as 1.5 or nan as an integer
        # through a float, warning only; as an error it fails the int64
        # parse, as it does on later numpy, whatever the caller's filters.
        warnings.simplefilter("error", DeprecationWarning)
        values = np.loadtxt(handle, delimiter=",", ndmin=2, dtype=dtype)
    if values.size == 0:
        raise ValueError(f"{path}: contains no data")
    return values


def read_matrix_csv(path) -> np.ndarray:
    return _read_table(path, float)


def write_matrix_csv(path, values: np.ndarray) -> None:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    lines = [",".join(format_float(v) for v in row) for row in values]
    Path(path).write_text("\n".join(lines) + "\n")


def _column(path, values: np.ndarray) -> np.ndarray:
    if values.shape[1] != 1:
        raise ValueError(f"{path}: must be a single column, got {values.shape[1]} columns")
    return values[:, 0]


def read_vector_csv(path) -> np.ndarray:
    return _column(path, read_matrix_csv(path))


def write_vector_csv(path, values: np.ndarray) -> None:
    values = np.atleast_1d(np.asarray(values, dtype=float))
    Path(path).write_text("\n".join(format_float(v) for v in values) + "\n")


def read_counts_csv(path) -> np.ndarray:
    """The counts in ``path`` as int64, each an integer in [0, 2**63).

    Integer literals are read as integers, so every count keeps its value.
    A file with any other literal (``3.0``, ``1e3``, ``nan``, or an integer
    of 2**63 or more) is read as floats, which must then be integral and in
    range.
    """
    try:
        table = _read_table(path, np.int64)
    except (ValueError, DeprecationWarning):
        table = _read_table(path, float)
    values = _column(path, table)
    try:
        return _check_counts(values, values.size)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_counts_csv(path, counts: np.ndarray) -> None:
    counts = np.atleast_1d(np.asarray(counts, dtype=np.int64))
    Path(path).write_text("\n".join(str(int(c)) for c in counts) + "\n")
