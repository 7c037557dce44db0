"""Preliminary estimators used as the expansion point of the working problem.

Two modes: the unpenalized Poisson MLE via damped Newton, and an oracle mode
that perturbs the true coefficients by at most ``scale / n`` per coordinate.
The oracle mode exists because theory experiments need an expansion point
whose error shrinks like 1/n, which the MLE does not deliver (its parametric
rate is 1/sqrt(n)); both modes are reported separately by the harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientError
from .model import (
    CoefVector,
    DesignMatrix,
    _check_counts,
    _cholesky_solver,
    _guarded_product,
    _kept,
    _ln_factorial,
)

# Relative singular-value cutoff for the full-column-rank precondition.
_RANK_RTOL = 1e-8
# Ridge added to the negated Hessian when its Cholesky factorization fails.
_NEWTON_RIDGE = 1e-10
# fit_mle's iteration and step-halving caps and its gradient tolerance.
_MAX_ITER = 100
_STEP_HALVING_MAX = 30
_GRAD_TOL = 1e-8
# A step may lower the log-likelihood by this many ulps of 1 + the
# magnitude of its terms.
_SLACK = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class MleFit:
    """MLE result; ``converged`` flags whether the gradient tolerance was met."""

    beta: CoefVector
    converged: bool
    iterations: int
    grad_norm: float
    log_likelihood: float


def _newton_solver(Xv: np.ndarray, lam: np.ndarray):
    """Solver of the negated Hessian (X^T lam) X, ridged if it is not positive definite."""
    neg_hess = (Xv.T * lam) @ Xv
    try:
        return _cholesky_solver(neg_hess)
    except np.linalg.LinAlgError:
        return _cholesky_solver(neg_hess + _NEWTON_RIDGE * np.eye(Xv.shape[1]))


def fit_mle(X: DesignMatrix, counts) -> MleFit:
    """Unpenalized Poisson MLE by damped Newton with step halving.

    At most 100 Newton iterations, each with at most 30 step halvings;
    converged means a gradient sup-norm of at most 1e-8.  The log-likelihood
    never decreases across accepted steps beyond float resolution, so full
    Newton steps stay acceptable at the plateau: a step may lower it by 4
    ulp of 1 + the sum of its terms' magnitudes, sum(|y_i eta_i| + lam_i +
    ln y_i!), which bounds its rounding even when the terms nearly cancel
    (large counts) and is never below 4 ulp of 1 + |ll|.  When no
    acceptable step exists or iterations run out, the last iterate is
    returned rather than raised; it is flagged ``converged`` if its gradient
    meets the tolerance or its Newton decrement ½ g^T H^-1 g, the gain a
    full Newton step promises, is within that slack (the counts cannot
    resolve a smaller gradient), and ``converged=False`` otherwise, also
    when the negated Hessian at the last iterate is not positive definite
    even ridged.

    Every fit starts at beta = 0, where eta = 0 and lam = 1 whatever the
    counts.  The Newton solver there is kept on ``X`` and shared by all fits
    on it; one that fails to form is not kept.  ln(y!) is ``model._ln_factorial``,
    the bits of scipy's ``gammaln(y + 1)``.

    Raises
    ------
    RankDeficientError
        If n < p or the smallest singular value of X is below 1e-8 times the
        largest.
    ValueError
        If a Newton step leaves the finite coefficients.
    numpy.linalg.LinAlgError
        If a Newton step's negated Hessian is not positive definite, even
        ridged.
    """
    y = _check_counts(counts, X.n)
    if X.n < X.p:
        raise RankDeficientError(f"need n >= p, got n={X.n}, p={X.p}")
    sv = X.singular_values
    if sv[-1] <= _RANK_RTOL * sv[0]:
        raise RankDeficientError(
            f"design is rank deficient: smallest/largest singular value "
            f"= {sv[-1]:.3g}/{sv[0]:.3g}"
        )

    # numpy casts int64 counts to these floats inside each ufunc anyway.
    y_f = y.astype(float)
    log_factorial = _ln_factorial(y)

    def magnitude_slack(eta, lam) -> float:
        """The slack by the magnitude of the log-likelihood's terms at ``eta``."""
        return _SLACK * (1.0 + float((np.abs(y_f * eta) + lam + log_factorial).sum()))

    Xv = X.values
    # X 0 and exp(X 0) are exact for every finite X.
    beta, eta, lam = np.zeros(X.p), np.zeros(X.n), np.ones(X.n)
    ll = float((y_f * eta - lam - log_factorial).sum())
    grad_norm = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, _MAX_ITER + 1):
        grad = Xv.T @ (y_f - lam)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= _GRAD_TOL:
            converged = True
            break

        if iterations == 1:
            solve = _kept(X, "_newton_solver", None, lambda: _newton_solver(Xv, lam))
        else:
            solve = _newton_solver(Xv, lam)
        direction = solve(grad)

        step = 1.0
        accepted = False
        for _ in range(_STEP_HALVING_MAX):
            candidate = beta + step * direction
            if not np.isfinite(candidate).all():
                raise ValueError("coefficient entries must be finite")
            try:
                eta_new = _guarded_product(Xv, candidate)
            except OverflowError:
                step *= 0.5
                continue
            lam_new = np.exp(eta_new)
            ll_new = float((y_f * eta_new - lam_new - log_factorial).sum())
            # Near the optimum the true improvement drops below the float
            # resolution of the log-likelihood; the slack keeps the full
            # Newton step acceptable there so convergence stays quadratic.
            # Only a trial that lowers ll needs it, and it costs a pass over
            # the terms, so it is formed only then.
            if ll_new >= ll or ll_new >= ll - magnitude_slack(eta, lam):
                beta, eta, ll, lam = candidate, eta_new, ll_new, lam_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break

    if not converged:
        if accepted:
            # Iterations ran out: the flag reflects where we stopped; lam is
            # always exp(eta) at the current beta.
            grad = Xv.T @ (y_f - lam)
            grad_norm = float(np.abs(grad).max())
            try:
                decrement = 0.5 * float(grad @ _newton_solver(Xv, lam)(grad))
            except np.linalg.LinAlgError:
                decrement = np.inf
        else:
            # No step was taken from the iterate whose direction solved grad.
            decrement = 0.5 * float(grad @ direction)
        converged = grad_norm <= _GRAD_TOL or decrement <= magnitude_slack(eta, lam)

    return MleFit(
        beta=CoefVector(beta),
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        log_likelihood=ll,
    )


def oracle_perturbation(beta_star: CoefVector, n: int, scale: float, seed) -> CoefVector:
    """beta_star plus a uniform perturbation bounded by scale/n per coordinate.

    ``scale`` must be finite and nonnegative.  ``seed`` is anything
    ``np.random.default_rng`` takes.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, beta_star.p)
    return CoefVector(beta_star.values + (scale / n) * u)
