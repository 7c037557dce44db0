"""Shared test helpers: instance generators, solver-independent oracles and a
factorisation counter.

Every oracle here evaluates the penalized objective (or the likelihood)
directly and never calls the coordinate-descent solver, so agreement between
the two is a real check.
"""

from __future__ import annotations

import numpy as np
import pytest

import signlasso.conditions
from signlasso import (
    CoefVector,
    DesignMatrix,
    build_working_problem,
    log_likelihood,
    oracle_perturbation,
    simulate,
)


@pytest.fixture()
def cho_factor_calls(monkeypatch):
    """A list that grows by one entry per active-block Cholesky factorisation."""
    calls = []
    real = signlasso.conditions.cho_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(signlasso.conditions, "cho_factor", counted)
    return calls


def make_instance(
    rng: np.random.Generator,
    n: int,
    p: int,
    q: int,
    beta_scale: float = 1.0,
    rho: float = 0.0,
    tilde_scale: float = 1.0,
    x_scale: float = 0.7,
):
    """Random Poisson regression instance with a working problem attached.

    The first q coordinates are active with magnitudes in
    [0.5, 1] * beta_scale and random signs; the expansion point is the truth
    perturbed by at most tilde_scale / n per coordinate.
    """
    if rho != 0.0:
        cov = x_scale**2 * rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        X = DesignMatrix(rng.standard_normal((n, p)) @ np.linalg.cholesky(cov).T)
    else:
        X = DesignMatrix(x_scale * rng.standard_normal((n, p)))
    magnitudes = rng.uniform(0.5, 1.0, q) * beta_scale
    signs = rng.choice([-1.0, 1.0], q)
    beta = np.zeros(p)
    beta[:q] = magnitudes * signs
    beta_star = CoefVector(beta)
    sample = simulate(X, beta_star, int(rng.integers(0, 2**63 - 1)))
    beta_tilde = oracle_perturbation(
        beta_star, n, tilde_scale, int(rng.integers(0, 2**63 - 1))
    )
    problem = build_working_problem(X, beta_tilde, sample.counts)
    return {
        "X": X,
        "beta_star": beta_star,
        "sample": sample,
        "beta_tilde": beta_tilde,
        "problem": problem,
    }


def penalized_objective(problem, beta_values, alpha: float) -> float:
    r = problem.y_work - problem.x_work @ np.asarray(beta_values, dtype=float)
    return float(r @ r + alpha * np.sum(np.abs(beta_values)))


def default_box(problem) -> float:
    """Search-box half-width enclosing the warm-start neighborhood."""
    return 2.0 * (float(np.max(np.abs(problem.beta_tilde.values))) + 1.0)


def dense_grid_oracle(problem, alpha: float, half_width: float | None = None,
                      step: float = 1e-3):
    """Exhaustive grid minimization for p <= 2; returns (value, argmin)."""
    p = problem.p
    if half_width is None:
        half_width = default_box(problem)
    axis = np.arange(-half_width, half_width + step / 2, step)
    X = problem.x_work
    y = problem.y_work
    G = X.T @ X
    c = X.T @ y
    yy = float(y @ y)
    if p == 1:
        vals = G[0, 0] * axis**2 - 2 * c[0] * axis + yy + alpha * np.abs(axis)
        k = int(np.argmin(vals))
        return float(vals[k]), np.array([axis[k]])
    if p != 2:
        raise ValueError("dense oracle only supports p <= 2")
    best_val = np.inf
    best = None
    b2 = axis
    pen2 = alpha * np.abs(b2)
    lin2 = -2 * c[1] * b2 + G[1, 1] * b2**2
    for start in range(0, axis.size, 256):
        b1 = axis[start : start + 256]
        vals = (
            G[0, 0] * b1[:, None] ** 2
            + 2 * G[0, 1] * b1[:, None] * b2[None, :]
            + lin2[None, :]
            - 2 * c[0] * b1[:, None]
            + alpha * np.abs(b1)[:, None]
            + pen2[None, :]
        )
        k = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[k] < best_val:
            best_val = float(vals[k])
            best = np.array([b1[k[0]], b2[k[1]]])
    return best_val + yy, best


def refined_grid_oracle(problem, alpha: float, half_width: float | None = None,
                        points: int = 81, levels: int = 4):
    """Zooming grid search for p <= 3 on the convex objective.

    Each level lays a uniform grid over a box around the current best point
    and shrinks the box to a few grid steps; the returned value is an upper
    bound on the true minimum that tightens geometrically.
    """
    p = problem.p
    if half_width is None:
        half_width = default_box(problem)
    X = problem.x_work
    y = problem.y_work
    G = X.T @ X
    c = X.T @ y
    yy = float(y @ y)

    center = np.zeros(p)
    hw = half_width
    best_val = np.inf
    best = center
    for _ in range(levels):
        axes = [np.linspace(center[j] - hw, center[j] + hw, points) for j in range(p)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = (
            np.einsum("ij,jk,ik->i", pts, G, pts)
            - 2.0 * pts @ c
            + alpha * np.sum(np.abs(pts), axis=1)
        )
        k = int(np.argmin(vals))
        if vals[k] + yy < best_val:
            best_val = float(vals[k]) + yy
            best = pts[k]
        center = pts[k]
        step = 2.0 * hw / (points - 1)
        hw = 4.0 * step
    return best_val, best


def exact_minimizer_from_pattern(problem, alpha: float, active, signs):
    """Solve the stationarity equations for a fixed support/sign pattern.

    Given the active set and its signs, the minimizer restricted to that
    pattern is beta_A = (X_A^T X_A)^{-1} (X_A^T y - (alpha/2) s_A).  The
    caller is responsible for the pattern being the right one (e.g. read off
    a grid argmin); this routine just does exact linear algebra.
    """
    beta = np.zeros(problem.p)
    active = np.asarray(active, dtype=int)
    if active.size:
        Xa = problem.x_work[:, active]
        s = np.asarray(signs, dtype=float)
        beta[active] = np.linalg.solve(
            Xa.T @ Xa, Xa.T @ problem.y_work - 0.5 * alpha * s
        )
    return beta


def fd_gradient(X, beta: CoefVector, counts, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the log-likelihood."""
    base = beta.values
    out = np.zeros(base.size)
    for j in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[j] += h
        minus[j] -= h
        out[j] = (
            log_likelihood(X, CoefVector(plus), counts)
            - log_likelihood(X, CoefVector(minus), counts)
        ) / (2 * h)
    return out
