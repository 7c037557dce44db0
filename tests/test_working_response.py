"""Working-response construction and its defining identities."""

from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from conftest import make_instance
from signlasso import (
    CoefVector,
    DesignMatrix,
    DegenerateWeightError,
    SolverConfig,
    WorkingProblem,
    blocked_gram,
    build_working_problem,
    fit,
)


def test_zero_expansion_point_gives_unweighted_problem():
    rng = np.random.default_rng(5)
    X = DesignMatrix(rng.standard_normal((8, 3)))
    y = rng.integers(0, 5, 8)
    problem = build_working_problem(X, CoefVector(np.zeros(3)), y)
    np.testing.assert_array_equal(problem.lambda_tilde, np.ones(8))
    np.testing.assert_array_equal(problem.x_work, X.values)
    np.testing.assert_allclose(problem.y_work, y - 1.0, atol=1e-15)


def test_working_problem_keeps_its_design():
    rng = np.random.default_rng(19)
    inst = make_instance(rng, n=30, p=3, q=1)
    problem = inst["problem"]
    assert problem.design is inst["X"]
    # A design of another shape cannot stand in for the one x_work came from.
    with pytest.raises(ValueError, match="shape"):
        replace(problem, design=DesignMatrix(rng.standard_normal((70, 3))))


def test_defining_identity_holds_exactly():
    rng = np.random.default_rng(17)
    inst = make_instance(rng, n=40, p=4, q=2)
    problem = inst["problem"]
    lhs = problem.y_work - problem.x_work @ problem.beta_tilde.values
    assert np.max(np.abs(lhs - problem.eps_tilde)) <= 1e-14
    # Row scaling and residual scaling definitions.
    root = np.sqrt(problem.lambda_tilde)
    np.testing.assert_allclose(problem.x_work, inst["X"].values * root[:, None], rtol=1e-15)
    np.testing.assert_allclose(
        problem.eps_tilde,
        (inst["counts"] - problem.lambda_tilde) / root,
        rtol=1e-13,
    )


def test_quadratic_form_matches_taylor_expansion():
    # The least-squares criterion differs from the (negated, doubled) quadratic
    # expansion of the log-likelihood around beta_tilde only by a constant.
    rng = np.random.default_rng(29)
    inst = make_instance(rng, n=25, p=3, q=2)
    problem = inst["problem"]
    X = inst["X"].values
    y = inst["counts"]
    lam = problem.lambda_tilde
    bt = problem.beta_tilde.values
    base = problem.y_work - problem.x_work @ bt
    base_sq = float(base @ base)
    for _ in range(5):
        beta = bt + rng.uniform(-1.0, 1.0, 3)
        r = problem.y_work - problem.x_work @ beta
        delta = X @ (beta - bt)
        expansion = float(np.sum((y - lam) * delta) - 0.5 * np.sum(lam * delta**2))
        assert abs((float(r @ r) - base_sq) - (-2.0 * expansion)) <= 1e-9


def test_argmin_agrees_with_expansion_argmax_on_grid():
    # At p=2 the least-squares argmin and the quadratic-expansion argmax
    # coincide on a dense grid.
    rng = np.random.default_rng(31)
    inst = make_instance(rng, n=30, p=2, q=1)
    problem = inst["problem"]
    X = inst["X"].values
    y = inst["counts"]
    lam = problem.lambda_tilde
    bt = problem.beta_tilde.values
    axis = np.linspace(-2.0, 2.0, 161)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    delta = (grid - bt) @ X.T
    ls = np.sum((problem.y_work[None, :] - grid @ problem.x_work.T) ** 2, axis=1)
    expansion = (y - lam) @ delta.T - 0.5 * lam @ (delta.T**2)
    k_ls = int(np.argmin(ls))
    k_ex = int(np.argmax(expansion))
    step = axis[1] - axis[0]
    assert np.max(np.abs(grid[k_ls] - grid[k_ex])) <= step + 1e-12


def test_degenerate_weight_raises():
    X = DesignMatrix([[1.0], [30.0]])
    # exp(-30) < 1e-12: the second weight collapses.
    with pytest.raises(DegenerateWeightError):
        build_working_problem(X, CoefVector([-1.0]), [1, 0])


def test_result_arrays_are_readonly():
    rng = np.random.default_rng(2)
    inst = make_instance(rng, n=10, p=2, q=1)
    problem = inst["problem"]
    with pytest.raises(ValueError):
        problem.x_work[0, 0] = 99.0


def test_fit_and_gram_share_one_cached_product(monkeypatch):
    formed = []
    original = WorkingProblem.xtx.func

    def counted(self):
        formed.append(1)
        return original(self)

    counted_xtx = cached_property(counted)
    counted_xtx.__set_name__(WorkingProblem, "xtx")
    monkeypatch.setattr(WorkingProblem, "xtx", counted_xtx)

    rng = np.random.default_rng(5)
    inst = make_instance(rng, n=40, p=4, q=2)
    problem = inst["problem"]
    fit(problem, SolverConfig(alpha=1.0))
    assert len(formed) == 1
    G = problem.xtx
    assert not G.flags.writeable
    # gram() divides the cached product: bitwise the old expression.
    x = problem.x_work
    assert np.array_equal(problem.gram(), x.T @ x / problem.n)
    blocked_gram(problem, inst["beta_star"].support)
    fit(problem, SolverConfig(alpha=2.0))
    assert len(formed) == 1 and problem.xtx is G
