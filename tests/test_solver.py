"""Coordinate-descent solver: closed forms, grid oracles, KKT certification."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_grid_oracle,
    exact_minimizer_from_pattern,
    gram_form_gradient,
    make_instance,
    refined_grid_oracle,
    soft_threshold,
)
from signlasso import (
    CoefVector,
    DesignMatrix,
    SolverConfig,
    build_working_problem,
    fit,
    kkt_check,
    objective_value,
)
from signlasso.errors import NumericalError
from signlasso.model import ZERO_TOL
from signlasso.working import WEIGHT_FLOOR


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
    # Sweeps are checked in Gram form; the reported objective is the raw form.
    assert result.objective == objective_value(problem, result.beta_hat.values, alpha)


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


def _raw_form_fit(problem, alpha, max_sweeps=1000, tol=1e-9):
    """Reference coordinate descent on the raw residual, one O(n) pass per update.

    The solver's method before covariance updates; returns (beta, sweeps,
    converged) under the solver's rule: a sweep moving no coordinate by more
    than tol, then a KKT pass.
    """
    X, y = problem.x_work, problem.y_work
    half = 0.5 * alpha
    col_sq = np.einsum("ij,ij->j", X, X)
    beta = problem.beta_tilde.values.copy()
    beta[col_sq == 0.0] = 0.0
    resid = y - X @ beta
    for sweeps in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j in range(problem.p):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            if old != 0.0:
                resid += X[:, j] * old
            new = float(soft_threshold(float(X[:, j] @ resid), half)) / col_sq[j]
            if new != 0.0:
                resid -= X[:, j] * new
            beta[j] = new
            max_delta = max(max_delta, abs(new - old))
        resid = y - X @ beta
        if max_delta <= tol and kkt_check(problem, CoefVector(beta), alpha, 1e-6).all_passed:
            return beta, sweeps, True
    return beta, max_sweeps, False


def _special_problems():
    rng = np.random.default_rng(307)
    cases = {}
    for k in range(6):
        inst = make_instance(rng, n=int(rng.integers(20, 80)), p=int(rng.integers(2, 7)), q=2, rho=0.4)
        cases[f"random{k}"] = (inst["problem"], float(rng.choice([0.5, 2.0, 6.0])))
    base = make_instance(rng, n=40, p=4, q=2, rho=0.3)["problem"]
    zero = base.x_work.copy()
    zero[:, 2] = 0.0
    cases["zero_column"] = (replace(base, x_work=zero), 1.0)
    dup = base.x_work.copy()
    dup[:, 3] = dup[:, 0]
    cases["duplicate_columns"] = (replace(base, x_work=dup), 1.0)
    null_alpha = 2.0 * float(np.max(np.abs(base.x_work.T @ base.y_work)))
    cases["null_threshold"] = (base, null_alpha)
    return cases


SPECIAL_PROBLEMS = _special_problems()


@pytest.mark.parametrize("name", sorted(SPECIAL_PROBLEMS))
def test_covariance_updates_match_raw_form_reference(name):
    problem, alpha = SPECIAL_PROBLEMS[name]
    result = fit(problem, SolverConfig(alpha=alpha))
    ref_beta, ref_sweeps, ref_converged = _raw_form_fit(problem, alpha)
    ref = CoefVector(ref_beta)
    assert result.converged == ref_converged
    assert result.sweeps_used == ref_sweeps
    np.testing.assert_array_equal(result.beta_hat.support, ref.support)
    np.testing.assert_array_equal(result.beta_hat.signs(), ref.signs())
    np.testing.assert_allclose(result.beta_hat.values, ref_beta, rtol=0.0, atol=1e-10)
    if result.converged:
        assert result.kkt_report.all_passed
        assert kkt_check(problem, result.beta_hat, alpha, 1e-6).all_passed


def test_zero_column_is_pinned_and_null_threshold_gives_exact_zeros():
    problem, alpha = SPECIAL_PROBLEMS["zero_column"]
    assert problem.beta_tilde.values[2] != 0.0
    assert fit(problem, SolverConfig(alpha=alpha)).beta_hat.values[2] == 0.0
    problem, alpha = SPECIAL_PROBLEMS["null_threshold"]
    result = fit(problem, SolverConfig(alpha=alpha))
    assert result.converged
    assert np.all(result.beta_hat.values == 0.0)


def test_negative_subthreshold_correlation_gives_negative_zero():
    # np.sign(z) * 0 is -0.0 for z < 0, and fit.json prints that sign; the
    # covariance-update soft threshold keeps it.
    rng = np.random.default_rng(311)
    seen = 0
    for _ in range(20):
        problem = make_instance(rng, n=30, p=5, q=2)["problem"]
        result = fit(problem, SolverConfig(alpha=4.0))
        ref_beta, _, _ = _raw_form_fit(problem, 4.0)
        zeros = ref_beta == 0.0
        np.testing.assert_array_equal(result.beta_hat.values[zeros], 0.0)
        np.testing.assert_array_equal(
            np.signbit(result.beta_hat.values[zeros]), np.signbit(ref_beta[zeros])
        )
        seen += int(np.sum(np.signbit(ref_beta[zeros])))
    assert seen > 0, "no coordinate ended at -0.0; the case is not covered"


def test_fit_keeps_its_numerical_guards():
    rng = np.random.default_rng(313)
    problem = make_instance(rng, n=20, p=3, q=1)["problem"]
    # A non-finite working response fails the warm-start objective check.
    broken = replace(problem, y_work=np.full(problem.n, np.inf))
    with pytest.raises(NumericalError, match="warm start"):
        fit(broken, SolverConfig(alpha=1.0))
    # Sweeps that run out return the last iterate unconverged, with its KKT report.
    result = fit(problem, SolverConfig(alpha=0.5, max_sweeps=1, tol=1e-300))
    assert not result.converged and result.sweeps_used == 1
    ref_beta, _, _ = _raw_form_fit(problem, 0.5, max_sweeps=1, tol=1e-300)
    np.testing.assert_allclose(result.beta_hat.values, ref_beta, rtol=0.0, atol=1e-10)


def _with_gram(problem, edit):
    """A copy of ``problem`` whose cached ``xtx`` is ``edit`` applied to a copy of its own."""
    G = problem.xtx.copy()
    edit(G)
    broken = replace(problem)
    broken.__dict__["xtx"] = G
    return broken


def _set_cross_inf(G):
    G[0, 1] = np.inf


def _add_asymmetric(G):
    G[0, 1] += 50.0


def _set_cross_huge(G):
    G[1, 2] = G[2, 1] = 1e308


@pytest.mark.parametrize("edit, message", [
    # A finite response with an infinite Gram entry: the Gram-form objective,
    # not y^T y, is non-finite at the warm start.
    (_set_cross_inf, "objective is non-finite at the warm start"),
    # Row 0 updates the gradient with an entry column 0 does not have, so the
    # sweep is no descent step.
    (_add_asymmetric,
     "objective increased from 16.502917745225574 to 26.862337835635334 at sweep 1"),
    # Finite at the warm start; the first sweep's update overflows.
    (_set_cross_huge, "objective became non-finite at sweep 1"),
], ids=["warm_start", "increase", "non_finite_sweep"])
def test_fit_raises_on_a_broken_gram(edit, message):
    problem = make_instance(np.random.default_rng(313), n=20, p=3, q=1)["problem"]
    assert np.all(problem.beta_tilde.values != 0.0)
    assert math.isfinite(float(problem.y_work @ problem.y_work))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as raised:
            fit(_with_gram(problem, edit), SolverConfig(alpha=1.0))
    assert str(raised.value) == message


@st.composite
def _working_problems(draw):
    """A small working problem with zero columns, duplicate columns and near-floor weights.

    Returns the problem and the indices of its zero columns.
    """
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Columns of correlation about rho, so coordinate descent can crawl.
    rho = draw(st.sampled_from((0.0, 0.9, 0.999)))
    X = rho * rng.uniform(-2.0, 2.0, (n, 1)) + math.sqrt(1 - rho**2) * rng.uniform(
        -2.0, 2.0, (n, p))
    X[:, draw(st.lists(st.integers(0, p - 1), max_size=p - 1, unique=True))] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        # A copy of another column, zero or not.
        X[:, draw(st.integers(0, p - 1))] = X[:, draw(st.integers(0, p - 1))]
    zero = np.flatnonzero(~X.any(axis=0))
    beta_tilde = rng.uniform(-1.0, 1.0, p)
    beta_tilde[zero] = 0.0
    # Rows rescaled so their weight exp(x_i beta_tilde) lies just above the floor.
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)):
        eta = X[i] @ beta_tilde
        if abs(eta) > 1e-3:
            X[i] *= (math.log(WEIGHT_FLOOR) + draw(st.floats(0.05, 3.0))) / eta
    counts = rng.poisson(np.exp(np.clip(X @ beta_tilde, None, 3.0)))
    problem = build_working_problem(DesignMatrix(X), CoefVector(beta_tilde), counts)
    return problem, zero


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_working_problems(), st.sampled_from([0.3, None, 0.0, 1.0, 1.7]),
       st.sampled_from((1e-9, 1e-6, 1e-3)), st.sampled_from((1e-6, 1e-3)),
       st.sampled_from((2, 20, 1000)))
def test_every_converged_fit_meets_kkt_in_gram_form(case, fraction, tol, kkt_tol, max_sweeps):
    # alpha is exactly 2 max|x_work^T y_work| (fraction None), where beta = 0
    # is optimal, or that fraction of it.  Under the loose solver tolerances
    # coordinate descent often stalls short of optimality, which only the
    # KKT pass of the convergence rule catches.
    problem, zero = case
    edge = 2.0 * float(np.max(np.abs(problem.x_work.T @ problem.y_work)))
    alpha = edge if fraction is None else fraction * edge
    result = fit(problem, SolverConfig(alpha=alpha, max_sweeps=max_sweeps, tol=tol,
                                       kkt_tol=kkt_tol))
    beta = result.beta_hat.values
    assert np.all(beta[zero] == 0.0)
    if not result.converged:
        return
    # The raw-form KKT conditions at kkt_tol, divided by n as the Gram form
    # is, plus the rounding of the two forms, which accumulate the same sums
    # in different orders: 64 ulps of the largest product they take.
    x, n = problem.x_work, problem.n
    size = np.linalg.norm(x) * (np.linalg.norm(problem.y_work) + np.linalg.norm(x) * (
        np.abs(beta).sum() + np.abs(problem.beta_tilde.values).sum()))
    bound = (kkt_tol + 64 * np.finfo(float).eps * size) / n
    g = gram_form_gradient(problem, beta)
    active = np.abs(beta) > ZERO_TOL
    assert np.all(np.abs(g + alpha / (2 * n) * np.sign(beta))[active] <= bound)
    assert np.all(np.abs(g[~active]) <= alpha / (2 * n) + bound)
