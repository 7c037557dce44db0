"""Headerless CSV I/O for matrices, coefficient vectors, and counts.

Matrices are row-major with comma separators and '.' decimals; vectors are a
single column; counts are a single column of integers.  Floats are written
with 17 significant digits so every value round-trips exactly.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .model import _check_counts


def format_float(x: float) -> str:
    return f"{x:.17g}"


def read_matrix_csv(path) -> np.ndarray:
    # Opened here, not by loadtxt, so a missing file's error carries its name.
    with open(path) as handle, warnings.catch_warnings():
        # An empty file is reported below, as an error that names it.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        values = np.loadtxt(handle, delimiter=",", ndmin=2, dtype=float)
    if values.size == 0:
        raise ValueError(f"{path}: contains no data")
    return values


def write_matrix_csv(path, values: np.ndarray) -> None:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    lines = [",".join(format_float(v) for v in row) for row in values]
    Path(path).write_text("\n".join(lines) + "\n")


def read_vector_csv(path) -> np.ndarray:
    values = read_matrix_csv(path)
    if values.shape[1] != 1:
        raise ValueError(f"{path}: must be a single column, got {values.shape[1]} columns")
    return values[:, 0]


def write_vector_csv(path, values: np.ndarray) -> None:
    values = np.atleast_1d(np.asarray(values, dtype=float))
    Path(path).write_text("\n".join(format_float(v) for v in values) + "\n")


def read_counts_csv(path) -> np.ndarray:
    values = read_vector_csv(path)
    try:
        return _check_counts(values, values.size)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_counts_csv(path, counts: np.ndarray) -> None:
    counts = np.atleast_1d(np.asarray(counts, dtype=np.int64))
    Path(path).write_text("\n".join(str(int(c)) for c in counts) + "\n")
