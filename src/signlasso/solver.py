"""L1-penalized weighted least squares by cyclic coordinate descent.

The objective is ||y_work - x_work @ beta||_2^2 + alpha * ||beta||_1, with no
1/(2n) normalization anywhere.  Under this convention the subgradient
threshold is alpha/2: a minimizer satisfies

    (x_work^T (y_work - x_work beta))_j  = (alpha/2) sign(beta_j)   if beta_j != 0,
    |(x_work^T (y_work - x_work beta))_j| <= alpha/2                if beta_j == 0.

All internal formulas follow this single convention to avoid factor drift.

``fit`` uses covariance updates (Friedman, Hastie & Tibshirani, JSS 2010):
G = x_work^T x_work is the problem's cached ``xtx``, c = x_work^T y_work is
formed once, the gradient g = c - G beta is kept current with one length-p
update per coordinate that moves, and g is rebuilt from G after every sweep.
A sweep then costs O(p^2) instead of O(n p).  Each sweep checks that the
objective did not rise in Gram form, y^T y - 2 c^T beta + beta^T G beta +
alpha ||beta||_1, with the G beta that starts the next sweep.  The raw-form
objective is taken once, at the final iterate, and convergence is certified
by the raw-form ``kkt_check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .model import ZERO_TOL, CoefVector, _as_readonly, _freeze
from .working import WorkingProblem


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    max_sweeps: int = 1000
    tol: float = 1e-9
    kkt_tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError("alpha", f"must be finite and nonnegative, got {self.alpha}")
        if self.max_sweeps < 1:
            raise ConfigError("max_sweeps", f"must be positive, got {self.max_sweeps}")
        for name in ("tol", "kkt_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(name, f"must be finite and positive, got {value}")


@dataclass(frozen=True)
class KktReport:
    """Per-coordinate optimality report for the penalized objective.

    ``correlations`` holds g = x_work^T (y_work - x_work beta).  Active
    coordinates carry the stationarity residual |g_j - (alpha/2) sign(beta_j)|,
    inactive ones the subgradient slack |g_j| - alpha/2 (negative when strictly
    interior; NaN where inapplicable).  ``passed`` applies the tolerance
    coordinatewise.
    """

    alpha: float
    kkt_tol: float
    correlations: np.ndarray
    is_active: np.ndarray
    stationarity_residual: np.ndarray
    subgradient_slack: np.ndarray
    passed: np.ndarray
    all_passed: bool = field(init=False)

    def __post_init__(self):
        for name in ("correlations", "stationarity_residual", "subgradient_slack"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        for name in ("is_active", "passed"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name), dtype=bool))
        object.__setattr__(self, "all_passed", bool(self.passed.all()))


@dataclass(frozen=True)
class FitResult:
    beta_hat: CoefVector
    sweeps_used: int
    kkt_report: KktReport
    converged: bool
    objective: float


def objective_value(problem: WorkingProblem, beta_values: np.ndarray, alpha: float) -> float:
    r = problem.y_work - problem.x_work @ beta_values
    return float(r @ r + alpha * np.sum(np.abs(beta_values)))


def kkt_check(problem: WorkingProblem, beta: CoefVector, alpha: float, kkt_tol: float) -> KktReport:
    """Check the subgradient optimality conditions at beta."""
    if beta.p != problem.p:
        raise ValueError("beta length does not match problem")
    g = problem.x_work.T @ (problem.y_work - problem.x_work @ beta.values)
    half = 0.5 * alpha
    active = np.abs(beta.values) > ZERO_TOL
    stationarity = np.where(active, np.abs(g - half * np.sign(beta.values)), np.nan)
    slack = np.where(active, np.nan, np.abs(g) - half)
    passed = np.where(active, stationarity, slack) <= kkt_tol
    _freeze(g, active, stationarity, slack, passed)
    return KktReport(
        alpha=float(alpha),
        kkt_tol=float(kkt_tol),
        correlations=g,
        is_active=active,
        stationarity_residual=stationarity,
        subgradient_slack=slack,
        passed=passed,
    )


def fit(problem: WorkingProblem, config: SolverConfig) -> FitResult:
    """Minimize the penalized objective by cyclic coordinate descent.

    Warm-starts at the working problem's expansion point.  Convergence
    requires both a maximum coordinate change at most ``config.tol`` over a
    full sweep and a full KKT pass at ``config.kkt_tol``.  When sweeps run
    out the last iterate is returned with ``converged=False``.

    Raises
    ------
    NumericalError
        If the objective becomes non-finite or increases across a sweep.
    """
    p = problem.p
    half = 0.5 * config.alpha

    G = problem.xtx
    col_sq = np.diag(G)
    beta = problem.beta_tilde.values.copy()
    # Coordinates with an identically zero column cannot affect the fit;
    # the penalty pins them at zero.
    beta[col_sq == 0.0] = 0.0
    col_sq = col_sq.tolist()

    # A non-finite response is caught here, before it reaches a matmul.
    yty = float(problem.y_work @ problem.y_work)
    if not math.isfinite(yty):
        raise NumericalError("objective is non-finite at the warm start")
    c = problem.x_work.T @ problem.y_work

    def gram_objective(Gb):
        # Python floats, so a non-finite term gives inf or nan without a warning.
        return (yty - 2.0 * float(c @ beta) + float(beta @ Gb)
                + config.alpha * float(np.abs(beta).sum()))

    Gb = G @ beta
    prev_obj = gram_objective(Gb)
    if not math.isfinite(prev_obj):
        raise NumericalError("objective is non-finite at the warm start")

    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        # Rebuilt from G every sweep so float drift in g cannot accumulate.
        g = c - Gb
        max_delta = 0.0
        for j in range(p):
            d = col_sq[j]
            if d == 0.0:
                continue
            old = float(beta[j])
            # z = x_j^T (y - X beta + x_j beta_j), soft-thresholded at alpha/2
            # with np.sign's zeros: -0.0 when z < 0, and 0 at |z| == alpha/2.
            z = float(g[j]) + d * old
            if z > half:
                new = (z - half) / d
            elif z < -half:
                new = (z + half) / d
            else:
                new = -0.0 if z < 0.0 else 0.0
            if new != old:
                g -= G[j] * (new - old)
            beta[j] = new
            delta = abs(new - old)
            if delta > max_delta:
                max_delta = delta

        # Enforce monotonicity of the objective; Gb also starts the next sweep.
        Gb = G @ beta
        obj = gram_objective(Gb)
        if not math.isfinite(obj):
            raise NumericalError(f"objective became non-finite at sweep {sweeps}")
        if obj > prev_obj + 1e-10 * (1.0 + abs(prev_obj)):
            raise NumericalError(
                f"objective increased from {prev_obj!r} to {obj!r} at sweep {sweeps}"
            )
        prev_obj = obj

        if max_delta <= config.tol:
            candidate = CoefVector(beta)
            report = kkt_check(problem, candidate, config.alpha, config.kkt_tol)
            if report.all_passed:
                converged = True
                break
            # Coordinate stall without optimality: keep sweeping.

    if converged:
        beta_hat = candidate
    else:
        beta_hat = CoefVector(beta)
        report = kkt_check(problem, beta_hat, config.alpha, config.kkt_tol)
    return FitResult(
        beta_hat=beta_hat,
        sweeps_used=sweeps,
        kkt_report=report,
        converged=converged,
        objective=objective_value(problem, beta, config.alpha),
    )
