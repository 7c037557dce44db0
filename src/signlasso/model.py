"""Poisson log-linear model primitives.

Intensities, log-likelihood, score/Hessian, and an exact count sampler.
The model is Y_i ~ Poisson(lambda_i) with lambda_i = exp(x_i beta) and no
offset or implicit intercept; an intercept must be an explicit all-ones
column of the design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

# Linear predictors above this raise OverflowError.  Downstream code squares
# and inverts the intensities, so guard at half the representable exponent.
MAX_LINEAR_PREDICTOR = 0.5 * math.log(np.finfo(float).max)

# |beta_j| at or below this counts as zero for supports and signs.  The
# coordinate-descent solver produces exact zeros; the tolerance only absorbs
# float noise from other estimators.
ZERO_TOL = 1e-10

# Intensity threshold between the sequential-search and transformed-rejection
# branches of the count sampler.
_SAMPLER_SPLIT = 10.0

# The count sampler accepts intensities below this bound: it leaves about 2e9
# standard deviations of room below 2**63, so every draw fits in int64.
_MAX_INTENSITY = 2.0**62


def _as_readonly(values, dtype=float) -> np.ndarray:
    """A read-only ``dtype`` array of ``values``: shared if it already is one, else a copy."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _freeze(*arrays: np.ndarray) -> None:
    """Mark arrays a builder just made read-only, so its container shares them."""
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class DesignMatrix:
    """An n x p real design matrix with row/column norm accessors."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("design matrix must be 2-D with n >= 1 and p >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("design matrix entries must be finite")
        object.__setattr__(self, "values", _as_readonly(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=1)

    def col_norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=0)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values, largest first; computed once, so all fits on X share one SVD."""
        sv = np.linalg.svd(self.values, compute_uv=False)
        _freeze(sv)
        return sv


@dataclass(frozen=True)
class CoefVector:
    """A length-p coefficient vector with tolerance-based support and signs."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size < 1:
            raise ValueError("coefficient vector must be 1-D and nonempty")
        if not np.all(np.isfinite(v)):
            raise ValueError("coefficient entries must be finite")
        object.__setattr__(self, "values", _as_readonly(v))

    @property
    def p(self) -> int:
        return self.values.size

    @property
    def support(self) -> np.ndarray:
        """Indices (0-based, ascending) of coefficients beyond the zero tolerance."""
        return np.flatnonzero(np.abs(self.values) > ZERO_TOL)

    @property
    def q(self) -> int:
        return int(self.support.size)

    def signs(self) -> np.ndarray:
        """Componentwise signs in {-1, 0, +1}, zeros per the tolerance."""
        out = np.zeros(self.p, dtype=np.int64)
        idx = self.support
        out[idx] = np.sign(self.values[idx]).astype(np.int64)
        return out


@dataclass(frozen=True)
class PoissonSample:
    """Simulated counts with the generating intensities and seed."""

    counts: np.ndarray
    intensities: np.ndarray
    seed: int

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.counts, dtype=np.int64))
        lam = np.atleast_1d(np.asarray(self.intensities, dtype=float))
        if c.shape != lam.shape:
            raise ValueError("counts and intensities must have matching length")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
            raise ValueError("intensities must be finite and positive")
        object.__setattr__(self, "counts", _as_readonly(c, dtype=np.int64))
        object.__setattr__(self, "intensities", _as_readonly(lam))

    @property
    def n(self) -> int:
        return self.counts.size


def _check_counts(counts, n: int) -> np.ndarray:
    """``counts`` as n int64 values; each must be an integer in [0, 2**63)."""
    y = np.atleast_1d(np.asarray(counts))
    if y.shape != (n,):
        raise ValueError(f"counts must have length {n}, got shape {y.shape}")
    if not np.all(np.isfinite(y.astype(float))):
        raise ValueError("counts must be finite")
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise ValueError("counts must be nonnegative integers")
    # Checked before the cast, which would turn such a count into INT64_MIN;
    # a Python int compares exactly whatever the dtype.
    top = int(np.max(y)) if y.size else 0
    if top >= 2**63:
        raise ValueError(f"counts must be below 2**63, got {top}")
    return y.astype(np.int64)


def linear_predictor(X: DesignMatrix, beta: CoefVector) -> np.ndarray:
    """Compute eta = X beta, refusing values that would overflow exp."""
    if X.p != beta.p:
        raise ValueError(f"dimension mismatch: X has p={X.p}, beta has p={beta.p}")
    eta = X.values @ beta.values
    worst = float(np.max(eta)) if eta.size else 0.0
    if worst > MAX_LINEAR_PREDICTOR:
        raise OverflowError(
            f"linear predictor {worst:.6g} exceeds the overflow guard "
            f"{MAX_LINEAR_PREDICTOR:.6g}"
        )
    return eta


def intensities(X: DesignMatrix, beta: CoefVector) -> np.ndarray:
    """Componentwise exp(x_i beta); overflow raises rather than returning inf."""
    return np.exp(linear_predictor(X, beta))


def log_likelihood(X: DesignMatrix, beta: CoefVector, counts) -> float:
    """Poisson log-likelihood sum_i [y_i eta_i - exp(eta_i) - ln(y_i!)].

    The factorial constant is kept (via log-gamma) so the value is the full
    log-density; it does not affect maximization over beta.
    """
    y = _check_counts(counts, X.n)
    eta = linear_predictor(X, beta)
    return float(np.sum(y * eta - np.exp(eta) - gammaln(y + 1.0)))


def score_and_hessian(X: DesignMatrix, beta: CoefVector, counts):
    """Gradient and Hessian of the log-likelihood at beta.

    Returns
    -------
    gradient : ndarray, shape (p,)
        X^T (y - lambda).
    hessian : ndarray, shape (p, p)
        -X^T diag(lambda) X; symmetric negative semidefinite.
    """
    y = _check_counts(counts, X.n)
    lam = intensities(X, beta)
    Xv = X.values
    gradient = Xv.T @ (y - lam)
    hessian = -(Xv.T * lam) @ Xv
    hessian = 0.5 * (hessian + hessian.T)
    return gradient, hessian


def _poisson_inversion(lam: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inversion by sequential search; exact for small intensities.

    Only the lanes still searching are carried, compacted: at search step
    ``step`` each of them has taken ``step`` terms, so ``lam / step`` is the
    next term's factor for all of them at once.
    """
    u = rng.random(lam.size)
    prob = np.exp(-lam)
    k = np.zeros(lam.size, dtype=np.int64)
    idx = np.flatnonzero(u > prob)
    prob, cum, lam, u = prob[idx], prob[idx], lam[idx], u[idx]
    step = 0
    while idx.size:
        step += 1
        prob *= lam / step
        cum += prob
        # Once the term underflows the series cannot grow; stop those lanes.
        pending = (u > cum) & (prob > 0.0)
        if not pending.all():
            k[idx[~pending]] = step
            idx, prob, cum = idx[pending], prob[pending], cum[pending]
            lam, u = lam[pending], u[pending]
    return k


def _poisson_transformed_rejection(lam: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Transformed-rejection sampler with squeeze, valid for lam >= 10."""
    out = np.zeros(lam.size, dtype=np.int64)
    log_lam = np.log(lam)
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)

    todo = np.arange(lam.size)
    while todo.size:
        u = rng.random(todo.size) - 0.5
        v = rng.random(todo.size)
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a[todo] / us + b[todo]) * u + lam[todo] + 0.43)

        accept = (us >= 0.07) & (v <= v_r[todo])
        reject = (k < 0) | ((us < 0.013) & (v > us))
        needs_log = ~(accept | reject)
        if needs_log.any():
            t = todo[needs_log]
            kk = k[needs_log]
            lhs = np.log(v[needs_log] * inv_alpha[t] / (a[t] / us[needs_log] ** 2 + b[t]))
            rhs = kk * log_lam[t] - lam[t] - gammaln(kk + 1.0)
            accept[needs_log] = lhs <= rhs
        if accept.any():
            out[todo[accept]] = k[accept].astype(np.int64)
        todo = todo[~accept]
    return out


def poisson_counts(lam: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw independent Poisson counts for an array of intensities.

    Uses inversion by sequential search below 10 and transformed rejection
    above, so the marginals are exact at every scale.  Consumes the generator
    deterministically: the small-intensity block is sampled first.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.all((lam > 0) & (lam < _MAX_INTENSITY)):
        raise ValueError("intensities must lie in (0, 2**62)")
    out = np.zeros(lam.size, dtype=np.int64)
    small = lam < _SAMPLER_SPLIT
    if small.any():
        out[small] = _poisson_inversion(lam[small], rng)
    large = ~small
    if large.any():
        out[large] = _poisson_transformed_rejection(lam[large], rng)
    return out


def simulate(X: DesignMatrix, beta_star: CoefVector, seed: int) -> PoissonSample:
    """Simulate Y_i ~ Poisson(exp(x_i beta_star)), deterministically in seed."""
    lam = intensities(X, beta_star)
    rng = np.random.default_rng(seed)
    counts = poisson_counts(lam, rng)
    return PoissonSample(counts=counts, intensities=lam, seed=int(seed))
