"""Quadratic working-response construction.

One Newton step of the Poisson log-likelihood around an expansion point
beta_tilde is equivalent to a weighted least-squares problem.  This module
materializes that problem: the reweighted design x_work = sqrt(lam) * x
rowwise, the scaled residuals eps = (y - lam) / sqrt(lam), and the working
response y_work = x_work @ beta_tilde + eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateWeightError
from .model import CoefVector, DesignMatrix, _as_readonly, _check_counts, _freeze, intensities

# Weights below this make the scaled residuals blow up; a violation signals a
# bad expansion point and must surface as an error, not a clamp.
WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class WorkingProblem:
    """Weighted least-squares problem equivalent to one Newton step.

    Satisfies y_work = x_work @ beta_tilde.values + eps_tilde exactly, and
    x_work[i, :] = sqrt(lambda_tilde[i]) * design.values[i, :].  The arrays
    are read-only; ``xtx`` is formed once, on first use, as the solver's G
    and ``gram()``'s base.
    """

    y_work: np.ndarray
    x_work: np.ndarray
    lambda_tilde: np.ndarray
    eps_tilde: np.ndarray
    beta_tilde: CoefVector
    design: DesignMatrix

    def __post_init__(self):
        for name in ("y_work", "x_work", "lambda_tilde", "eps_tilde"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        if self.design.values.shape != self.x_work.shape:
            raise ValueError(
                f"design has shape {self.design.values.shape}, "
                f"but x_work has shape {self.x_work.shape}"
            )

    @property
    def n(self) -> int:
        return self.x_work.shape[0]

    @property
    def p(self) -> int:
        return self.x_work.shape[1]

    @cached_property
    def xtx(self) -> np.ndarray:
        """The unnormalised Gram x_work^T x_work (read-only)."""
        G = self.x_work.T @ self.x_work
        _freeze(G)
        return G

    def gram(self) -> np.ndarray:
        """Sample Gram matrix x_work^T x_work / n of the weighted design."""
        return self.xtx / self.n

    def noise(self) -> np.ndarray:
        """Scaled noise correlations x_work^T eps_tilde / n."""
        return self.x_work.T @ self.eps_tilde / self.n


def build_working_problem(X: DesignMatrix, beta_tilde: CoefVector, counts) -> WorkingProblem:
    """Construct the working least-squares problem at expansion point beta_tilde.

    Raises
    ------
    DegenerateWeightError
        If any intensity falls below the weight floor (1e-12).
    OverflowError
        If a linear predictor exceeds the overflow guard.
    """
    y = _check_counts(counts, X.n)
    lam = intensities(X, beta_tilde)
    worst = float(lam.min())
    if worst < WEIGHT_FLOOR:
        raise DegenerateWeightError(
            f"intensity {worst:.6g} below weight floor {WEIGHT_FLOOR:g}; "
            "the expansion point is degenerate"
        )
    root = np.sqrt(lam)
    x_work = X.values * root[:, None]
    eps = (y - lam) / root
    y_work = x_work @ beta_tilde.values + eps
    _freeze(y_work, x_work, lam, eps)
    return WorkingProblem(
        y_work=y_work,
        x_work=x_work,
        lambda_tilde=lam,
        eps_tilde=eps,
        beta_tilde=beta_tilde,
        design=X,
    )
