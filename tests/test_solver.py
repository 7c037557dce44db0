"""Coordinate-descent solver: closed forms, grid oracles, KKT certification."""

import numpy as np
import pytest

from conftest import (
    dense_grid_oracle,
    exact_minimizer_from_pattern,
    make_instance,
    refined_grid_oracle,
)
from signlasso import (
    CoefVector,
    DesignMatrix,
    SolverConfig,
    build_working_problem,
    fit,
    gram_form_gradient,
    kkt_check,
    objective_value,
    soft_threshold,
)


def test_soft_threshold_branches():
    assert soft_threshold(5.0, 2.0) == 3.0
    assert soft_threshold(-1.0, 2.0) == 0.0
    assert soft_threshold(-5.0, 2.0) == -3.0
    # Tie |z| == gamma produces an exact zero.
    assert soft_threshold(2.0, 2.0) == 0.0
    np.testing.assert_allclose(soft_threshold(np.array([3.0, -0.5]), 1.0), [2.0, 0.0])


def _problem_from_arrays(X, beta_tilde, counts):
    return build_working_problem(DesignMatrix(X), CoefVector(beta_tilde), counts)


def test_alpha_zero_recovers_least_squares():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((3, 3)) + np.eye(3)
    y = rng.integers(0, 6, 3)
    problem = _problem_from_arrays(X, np.zeros(3), y)
    result = fit(problem, SolverConfig(alpha=0.0, max_sweeps=20_000, tol=1e-13))
    exact = np.linalg.solve(problem.x_work, problem.y_work)
    assert result.converged
    np.testing.assert_allclose(result.beta_hat.values, exact, atol=1e-8)


def test_orthogonal_design_closed_form():
    rng = np.random.default_rng(43)
    n, p = 16, 4
    # Tiled Hadamard rows give x_work^T x_work = n I exactly at beta_tilde = 0.
    H = np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ],
        dtype=float,
    )
    X = np.tile(H, (4, 1))
    assert np.allclose(X.T @ X, n * np.eye(p))
    y = rng.integers(0, 7, n)
    problem = _problem_from_arrays(X, np.zeros(p), y)
    alpha = 6.0
    result = fit(problem, SolverConfig(alpha=alpha))
    z = problem.x_work.T @ problem.y_work / n
    expected = soft_threshold(z, alpha / (2 * n))
    assert result.converged
    np.testing.assert_allclose(result.beta_hat.values, expected, atol=1e-8)


def test_matches_dense_grid_oracle_p2():
    rng = np.random.default_rng(47)
    inst = make_instance(rng, n=20, p=2, q=1)
    problem = inst["problem"]
    alpha = 1.0
    result = fit(problem, SolverConfig(alpha=alpha))
    oracle_val, oracle_arg = dense_grid_oracle(problem, alpha, step=1e-3)
    assert result.converged
    assert result.objective <= oracle_val + 1e-5
    assert np.max(np.abs(result.beta_hat.values - oracle_arg)) <= 2e-3


def test_objective_below_refined_oracle_random_instances():
    rng = np.random.default_rng(53)
    for _ in range(25):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(max(p + 2, 8), 31))
        q = int(rng.integers(1, p + 1))
        inst = make_instance(rng, n=n, p=p, q=q)
        alpha = float(rng.choice([0.0, 0.5, 2.0]))
        result = fit(inst["problem"], SolverConfig(alpha=alpha))
        assert result.converged
        oracle_val, _ = refined_grid_oracle(inst["problem"], alpha)
        assert result.objective <= oracle_val + 1e-5


def test_kkt_at_exact_minimizer_from_grid_pattern():
    # Locate the sign pattern with a dense grid, solve the stationarity
    # system exactly, and confirm the KKT report passes at 1e-4.
    rng = np.random.default_rng(59)
    inst = make_instance(rng, n=25, p=2, q=1)
    problem = inst["problem"]
    alpha = 1.5
    _, arg = dense_grid_oracle(problem, alpha, step=1e-3)
    active = np.flatnonzero(np.abs(arg) > 1e-3)
    beta = exact_minimizer_from_pattern(problem, alpha, active, np.sign(arg[active]))
    report = kkt_check(problem, CoefVector(beta), alpha, kkt_tol=1e-4)
    assert report.all_passed
    # And the solver agrees with the exact minimizer.
    result = fit(problem, SolverConfig(alpha=alpha))
    np.testing.assert_allclose(result.beta_hat.values, beta, atol=1e-7)


def test_kkt_null_solution_when_penalty_dominates():
    rng = np.random.default_rng(61)
    inst = make_instance(rng, n=15, p=3, q=2)
    problem = inst["problem"]
    alpha = 2.0 * float(np.max(np.abs(problem.x_work.T @ problem.y_work)))
    report = kkt_check(problem, CoefVector(np.zeros(3)), alpha, kkt_tol=1e-9)
    assert report.all_passed
    result = fit(problem, SolverConfig(alpha=alpha * 1.000001))
    assert np.array_equal(result.beta_hat.values, np.zeros(3))


def test_kkt_fails_after_perturbation():
    rng = np.random.default_rng(67)
    inst = make_instance(rng, n=30, p=3, q=2)
    problem = inst["problem"]
    alpha = 0.8
    result = fit(problem, SolverConfig(alpha=alpha))
    assert result.converged and result.kkt_report.all_passed
    active = result.beta_hat.support
    assert active.size > 0
    bumped = result.beta_hat.values.copy()
    j = int(active[0])
    bumped[j] += 0.1
    report = kkt_check(problem, CoefVector(bumped), alpha, kkt_tol=result.kkt_report.kkt_tol)
    assert not report.passed[j]


def test_unconverged_iterate_fails_kkt():
    rng = np.random.default_rng(71)
    # Strongly correlated design makes one sweep insufficient.
    inst = make_instance(rng, n=40, p=3, q=2, rho=0.9)
    problem = inst["problem"]
    result = fit(problem, SolverConfig(alpha=0.3, max_sweeps=1, tol=1e-13, kkt_tol=1e-10))
    assert not result.converged
    assert not result.kkt_report.all_passed


def test_objective_monotone_and_below_start():
    rng = np.random.default_rng(73)
    inst = make_instance(rng, n=30, p=4, q=2, rho=0.4)
    problem = inst["problem"]
    alpha = 1.2
    start = objective_value(problem, problem.beta_tilde.values, alpha)
    result = fit(problem, SolverConfig(alpha=alpha))
    assert result.objective <= start + 1e-12


def test_null_threshold_by_bisection():
    rng = np.random.default_rng(79)
    inst = make_instance(rng, n=25, p=3, q=2)
    problem = inst["problem"]
    alpha0 = 2.0 * float(np.max(np.abs(problem.x_work.T @ problem.y_work)))

    def is_null(alpha):
        res = fit(problem, SolverConfig(alpha=alpha))
        return bool(np.all(res.beta_hat.values == 0.0))

    lo, hi = 0.0, 4.0 * alpha0
    assert not is_null(lo) and is_null(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if is_null(mid):
            hi = mid
        else:
            lo = mid
    assert abs(hi - alpha0) <= 0.01 * alpha0


def test_inactive_coordinates_are_exact_zeros():
    rng = np.random.default_rng(83)
    for _ in range(10):
        inst = make_instance(rng, n=20, p=4, q=2)
        result = fit(inst["problem"], SolverConfig(alpha=3.0))
        inactive = np.setdiff1d(np.arange(4), result.beta_hat.support)
        assert np.all(result.beta_hat.values[inactive] == 0.0)


def test_gram_form_equals_scaled_raw_form():
    rng = np.random.default_rng(89)
    inst = make_instance(rng, n=35, p=4, q=2)
    problem = inst["problem"]
    beta = rng.standard_normal(4)
    raw = problem.x_work.T @ (problem.y_work - problem.x_work @ beta)
    gram = gram_form_gradient(problem, beta)
    np.testing.assert_allclose(gram, -raw / problem.n, rtol=1e-10, atol=1e-12)
    # At a converged solution the Gram form meets the -(alpha/2n) sign rule.
    alpha = 1.0
    result = fit(problem, SolverConfig(alpha=alpha))
    g = gram_form_gradient(problem, result.beta_hat.values)
    for j in result.beta_hat.support:
        expected = -(alpha / (2 * problem.n)) * np.sign(result.beta_hat.values[j])
        assert g[j] == pytest.approx(expected, abs=1e-8)


def test_repeat_fit_is_deterministic():
    rng = np.random.default_rng(97)
    inst = make_instance(rng, n=20, p=2, q=1)
    problem = inst["problem"]
    result = fit(problem, SolverConfig(alpha=0.7))
    again = fit(problem, SolverConfig(alpha=0.7))
    assert again.converged
    assert np.array_equal(again.beta_hat.values, result.beta_hat.values)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0, max_sweeps=0)
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(alpha=float("nan"))
    with pytest.raises(ValueError, match="kkt_tol"):
        SolverConfig(alpha=0.0, kkt_tol=float("inf"))
