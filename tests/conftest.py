"""Shared test helpers: instance generators, solver-independent oracles, a
reference Newton MLE, a reference PTRS sampler, a reference replicate loop
and a factorisation counter.

Every oracle here evaluates the penalized objective (or the likelihood)
directly and never calls the coordinate-descent solver, so agreement between
the two is a real check.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.special import gammaln

import signlasso.conditions
from signlasso import (
    CoefVector,
    DegenerateWeightError,
    DesignMatrix,
    NumericalError,
    RankDeficientError,
    SingularBlockError,
    blocked_gram,
    build_working_problem,
    fit,
    log_likelihood,
    make_design,
    oracle_perturbation,
    proposition_diagnostics,
    simulate,
)
from signlasso.conditions import irrepresentable_margin
from signlasso.harness import (
    _TAG_COUNTS,
    _TAG_DESIGN,
    _TAG_PRELIM,
    ReplicateRecord,
    derive_seed,
    expansion_point,
)
from signlasso.model import _check_counts, _cholesky_solver, linear_predictor
from signlasso.prelim import (
    _GRAD_TOL,
    _MAX_ITER,
    _NEWTON_RIDGE,
    _RANK_RTOL,
    _STEP_HALVING_MAX,
    MleFit,
)


@pytest.fixture()
def cho_factor_calls(monkeypatch):
    """A list that grows by one entry per active-block Cholesky factorisation."""
    calls = []
    real = signlasso.conditions._cholesky_solver

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(signlasso.conditions, "_cholesky_solver", counted)
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
    counts = simulate(X, beta_star, int(rng.integers(0, 2**63 - 1)))
    beta_tilde = oracle_perturbation(
        beta_star, n, tilde_scale, int(rng.integers(0, 2**63 - 1))
    )
    problem = build_working_problem(X, beta_tilde, counts)
    return {
        "X": X,
        "beta_star": beta_star,
        "counts": counts,
        "beta_tilde": beta_tilde,
        "problem": problem,
    }


def soft_threshold(z, gamma):
    """sign(z) * max(|z| - gamma, 0); at |z| == gamma exactly, returns 0."""
    return np.sign(z) * np.maximum(np.abs(z) - gamma, 0.0)


def gram_form_gradient(problem, beta_values) -> np.ndarray:
    """The optimality conditions in Gram form: C (beta - beta_tilde) - W.

    Equals -1/n times the raw correlations x_work^T (y_work - x_work beta);
    a minimizer has (C (beta - beta_tilde) - W)_j = -(alpha/2n) sign(beta_j)
    on its active set, so the solver's raw form can be checked against it.
    """
    C = problem.gram()
    W = problem.noise()
    return C @ (np.asarray(beta_values, dtype=float) - problem.beta_tilde.values) - W


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


def reference_fit_mle(X: DesignMatrix, counts) -> MleFit:
    """Damped Newton for the Poisson MLE, one library call per step.

    The loop ``prelim.fit_mle`` had before it kept its beta = 0 state on the
    design and evaluated trial points without ``CoefVector`` and
    ``linear_predictor``.  It does the same floating-point operations in the
    same order, so the two must agree bit for bit.
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
            solve = _cholesky_solver(neg_hess)
        except LinAlgError:
            solve = _cholesky_solver(neg_hess + _NEWTON_RIDGE * np.eye(X.p))
        direction = solve(grad)

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
        grad_norm = float(np.max(np.abs(X.values.T @ (y - lam))))
        converged = grad_norm <= _GRAD_TOL

    return MleFit(
        beta=CoefVector(beta),
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        log_likelihood=ll,
    )


def reference_ptrs(lam: np.ndarray, rng: np.random.Generator, constants: tuple) -> np.ndarray:
    """Hoermann's PTRS with two draws per round, as the sampler had it.

    ``model._poisson_transformed_rejection`` draws each round's u and v as
    one block of 2m uniforms, which are the doubles of these two draws of m
    in the same order, so the two must agree in counts and generator state.
    """
    log_lam, b, a, inv_alpha, v_r = constants
    out = np.zeros(lam.size, dtype=np.int64)
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


def reference_records(config) -> list:
    """The replicate records of ``run_experiment(config)``, one replicate at a time.

    Each replicate evaluates its own events on its own blocked Gram right
    after its fit, as the harness did before one diagnostics pass per design
    took the queued blocked Grams of all its replicates; the records must be
    equal, failures and their messages included.
    """
    records = []
    signs = config.beta_star.signs()
    for n in config.n_grid:
        design = make_design(config.design, n, config.p, derive_seed(config.seed, _TAG_DESIGN, n))
        solver = config.solver_config(n)
        for r in range(config.replicates):
            if config.redraw_design:
                design = make_design(
                    config.design, n, config.p, derive_seed(config.seed, _TAG_DESIGN, n, r)
                )
            seed_used = derive_seed(config.seed, _TAG_COUNTS, n, r)
            record = partial(ReplicateRecord, n=n, replicate=r, seed_used=seed_used,
                             alpha_n=solver.alpha)
            try:
                counts = simulate(design, config.beta_star, seed_used)
                beta_tilde, mle = expansion_point(
                    config.beta_tilde_mode, design, counts, config.beta_star,
                    derive_seed(config.seed, _TAG_PRELIM, n, r),
                )
                if mle is not None and not mle.converged:
                    records.append(record(ok=False, error="mle did not converge"))
                    continue
                problem = build_working_problem(design, beta_tilde, counts)
                result = fit(problem, solver)
                if not result.converged:
                    records.append(record(ok=False, error="solver did not converge"))
                    continue
                bg = blocked_gram(problem, config.beta_star.support)
                diag = proposition_diagnostics(bg, config.beta_star, solver.alpha)
                records.append(record(
                    ok=True, sign_match=bool((result.beta_hat.signs() == signs).all()),
                    An=diag.An_holds, Bn=diag.Bn_holds,
                    irrep_margin=irrepresentable_margin(diag.d),
                    kkt_pass=result.kkt_report.all_passed,
                ))
            except (OverflowError, DegenerateWeightError, NumericalError, RankDeficientError,
                    SingularBlockError, ValueError, LinAlgError) as exc:
                records.append(record(ok=False, error=f"{type(exc).__name__}: {exc}"))
    return records
