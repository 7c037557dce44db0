"""Moment and tail-bound numerics backing the variance analysis.

Exact Stirling-number arithmetic for Poisson raw moments and the two-sided
Bernstein tail bound.  The bound calculator is descriptive: it reports
numbers and never gates the solver.
"""

from __future__ import annotations

import math

from .errors import RangeError

# Exact-integer guard: partition counts beyond this exceed what the float
# moment formulas downstream can represent faithfully.
STIRLING_MAX = 20


def _stirling_triangle(max_ell: int) -> list[list[int]]:
    rows = [[1]]
    for m in range(2, max_ell + 1):
        prev = rows[-1]
        row = []
        for j in range(1, m + 1):
            left = j * prev[j - 1] if j <= len(prev) else 0
            right = prev[j - 2] if j >= 2 else 0
            row.append(left + right)
        rows.append(row)
    return rows


_STIRLING_ROWS = _stirling_triangle(STIRLING_MAX)


def stirling2(ell: int, i: int) -> int:
    """Number of partitions of an ell-element set into i nonempty blocks.

    Exact integer arithmetic, valid for 1 <= i <= ell <= 20.
    """
    if not 1 <= ell <= STIRLING_MAX:
        raise RangeError(f"ell must lie in [1, {STIRLING_MAX}], got {ell}")
    if not 1 <= i <= ell:
        raise RangeError(f"i must lie in [1, ell], got i={i}, ell={ell}")
    return _STIRLING_ROWS[ell - 1][i - 1]


def poisson_raw_moment(lam: float, ell: int) -> float:
    """E[Y^ell] for Y ~ Poisson(lam): sum_i lam^i * stirling2(ell, i).

    Raises ValueError unless ``lam`` is finite and positive and the moment
    is finite as a float.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if not 1 <= ell <= STIRLING_MAX:
        raise RangeError(f"ell must lie in [1, {STIRLING_MAX}], got {ell}")
    # Python-float arithmetic, so a numpy scalar overflows the same way.
    lam = float(lam)
    try:
        moment = sum(lam**i * stirling2(ell, i) for i in range(1, ell + 1))
    except OverflowError:
        moment = math.inf
    if not math.isfinite(moment):
        raise ValueError(f"E[Y^{ell}] overflows a float at lam={lam}")
    return moment


def bernstein_tail(nu: float, c: float, t: float) -> float:
    """Two-sided tail bound 2 exp(-t^2 / (2 (nu + c t))) in (0, 2].

    ``nu`` is the variance proxy, ``c`` the moment scale and ``t`` the
    deviation level; each must be finite and positive.
    """
    if not all(math.isfinite(v) and v > 0 for v in (nu, c, t)):
        raise ValueError(f"nu, c and t must be finite and positive, got {nu}, {c}, {t}")
    return 2.0 * math.exp(-t**2 / (2.0 * (nu + c * t)))
