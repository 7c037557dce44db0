"""Preliminary estimators used as the expansion point of the working problem.

Two modes: the unpenalized Poisson MLE via damped Newton, and an oracle mode
that perturbs the true coefficients by at most ``scale / n`` per coordinate.
The oracle mode exists because theory experiments need an expansion point
whose error shrinks like 1/n, which the MLE does not deliver (its parametric
rate is 1/sqrt(n)); both modes are reported separately by the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import gammaln

from .errors import RankDeficientError
from .model import CoefVector, DesignMatrix, _check_counts, linear_predictor

# Relative singular-value cutoff for the full-column-rank precondition.
_RANK_RTOL = 1e-8
# Ridge added to the negated Hessian when its Cholesky factorization fails.
_NEWTON_RIDGE = 1e-10
# fit_mle's iteration and step-halving caps and its gradient tolerance.
_MAX_ITER = 100
_STEP_HALVING_MAX = 30
_GRAD_TOL = 1e-8


@dataclass(frozen=True)
class MleFit:
    """MLE result; ``converged`` flags whether the gradient tolerance was met."""

    beta: CoefVector
    converged: bool
    iterations: int
    grad_norm: float
    log_likelihood: float


def fit_mle(X: DesignMatrix, counts) -> MleFit:
    """Unpenalized Poisson MLE by damped Newton with step halving.

    At most 100 Newton iterations, each with at most 30 step halvings;
    converged means a gradient sup-norm of at most 1e-8.  The log-likelihood
    never decreases across accepted steps beyond float resolution (a 4-ulp
    slack keeps full Newton steps acceptable at the plateau).  When no
    acceptable step exists or iterations run out, the last iterate is
    returned flagged ``converged=False`` rather than raised.

    Raises
    ------
    RankDeficientError
        If n < p or the smallest singular value of X is below 1e-8 times the
        largest.
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

    # log_likelihood's expression with the counts checked and ln(y!) taken
    # once per fit; it also hands back exp(eta), the next iteration's lam.
    log_factorial = gammaln(y + 1.0)

    def loglik_and_lam(beta_values):
        eta = linear_predictor(X, CoefVector(beta_values))
        lam = np.exp(eta)
        return float(np.sum(y * eta - lam - log_factorial)), lam

    beta = np.zeros(X.p)
    ll, lam = loglik_and_lam(beta)
    grad_norm = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, _MAX_ITER + 1):
        grad = X.values.T @ (y - lam)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= _GRAD_TOL:
            converged = True
            break

        neg_hess = (X.values.T * lam) @ X.values
        try:
            factor = cho_factor(neg_hess, lower=True)
        except LinAlgError:
            factor = cho_factor(neg_hess + _NEWTON_RIDGE * np.eye(X.p), lower=True)
        direction = cho_solve(factor, grad)

        # Near the optimum the true improvement drops below the float
        # resolution of the log-likelihood; the slack keeps the full Newton
        # step acceptable there so convergence stays quadratic.
        slack = 4.0 * np.finfo(float).eps * (1.0 + abs(ll))
        step = 1.0
        accepted = False
        for _ in range(_STEP_HALVING_MAX):
            candidate = beta + step * direction
            try:
                ll_new, lam_new = loglik_and_lam(candidate)
            except OverflowError:
                step *= 0.5
                continue
            if ll_new >= ll - slack:
                beta, ll, lam = candidate, ll_new, lam_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break

    if not converged:
        # Recompute at the final iterate so the flag reflects where we stopped;
        # lam is always exp(eta) at the current beta.
        grad_norm = float(np.max(np.abs(X.values.T @ (y - lam))))
        converged = grad_norm <= _GRAD_TOL

    return MleFit(
        beta=CoefVector(beta),
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        log_likelihood=ll,
    )


def oracle_perturbation(beta_star: CoefVector, n: int, scale: float, seed: int) -> CoefVector:
    """beta_star plus a uniform perturbation bounded by scale/n per coordinate."""
    if n < 1:
        raise ValueError("n must be positive")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, beta_star.p)
    return CoefVector(beta_star.values + (scale / n) * u)
