"""Blocked Gram, recovery conditions, and the sufficient-event diagnostics."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from signlasso import (
    AssumptionConstants,
    CoefVector,
    DesignMatrix,
    EmptySupportError,
    PropositionDiagnostics,
    SingularBlockError,
    SolverConfig,
    blocked_gram,
    build_working_problem,
    check_assumptions,
    fit,
    irrepresentable_vector,
    kkt_check,
    oracle_perturbation,
    population_gram,
    proposition_diagnostics,
    simulate,
)
from signlasso.conditions import blocking
from signlasso.model import _cholesky_solver


def _unweighted_problem(X, counts=None):
    X = np.asarray(X, dtype=float)
    if counts is None:
        counts = np.zeros(X.shape[0], dtype=int)
    return build_working_problem(
        DesignMatrix(X), CoefVector(np.zeros(X.shape[1])), counts
    )


def test_blocked_gram_hand_instance():
    problem = _unweighted_problem([[1.0, 0.0], [1.0, 1.0]])
    bg = blocked_gram(problem, [0])
    np.testing.assert_allclose(bg.C, [[1.0, 0.5], [0.5, 0.5]], rtol=1e-15)
    np.testing.assert_allclose(bg.C11, [[1.0]], rtol=1e-15)
    np.testing.assert_allclose(bg.C22, [[0.5]], rtol=1e-15)


def test_blocked_gram_orthogonal_design():
    H = np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=float)
    problem = _unweighted_problem(H)
    bg = blocked_gram(problem, [0])
    np.testing.assert_allclose(bg.C, np.eye(2), atol=1e-15)
    assert np.all(bg.C12 == 0.0)


def test_blocked_gram_symmetry_and_reassembly():
    rng = np.random.default_rng(211)
    inst = make_instance(rng, n=30, p=5, q=2)
    bg = blocked_gram(inst["problem"], inst["beta_star"].support)
    np.testing.assert_array_equal(bg.C12, bg.C21.T)
    reassembled = np.block([[bg.C11, bg.C12], [bg.C21, bg.C22]])
    assert np.array_equal(reassembled, bg.C)
    w = np.concatenate([bg.W1, bg.W2])
    assert np.array_equal(w, bg.W)


def test_blocked_gram_blocks_are_readonly_views():
    rng = np.random.default_rng(212)
    inst = make_instance(rng, n=30, p=5, q=2)
    support = inst["beta_star"].support
    bg = blocked_gram(inst["problem"], support)
    for block in (bg.C11, bg.C12, bg.C21, bg.C22):
        assert np.shares_memory(block, bg.C)
        assert not block.flags.writeable
    for part in (bg.W1, bg.W2):
        assert np.shares_memory(part, bg.W)
        assert not part.flags.writeable
    with pytest.raises(ValueError):
        bg.C[0, 0] = 1.0
    pg = population_gram(inst["X"], inst["beta_star"], support)
    assert np.shares_memory(pg.gram.C11, pg.gram.C)
    assert np.shares_memory(pg.gram.C22, pg.gram.C)


def test_blocked_gram_rejects_empty_support():
    problem = _unweighted_problem(np.eye(3))
    with pytest.raises(EmptySupportError):
        blocked_gram(problem, [])


def test_check_assumptions_orthogonal_design():
    H = np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=float)
    problem = _unweighted_problem(H)
    beta_star = CoefVector([1.0, 0.0])
    report = check_assumptions(
        DesignMatrix(H), blocked_gram(problem, [0]), beta_star,
        AssumptionConstants(min_eigen_active=1.0),
    )
    assert report.irrep_margin == 1.0
    assert report.lambda_min_C11 == pytest.approx(1.0)
    assert report.passes["eigen_active"]
    assert report.passes["irrepresentable"]
    d = irrepresentable_vector(blocked_gram(problem, [0]), beta_star)
    assert np.all(d == 0.0)


def test_check_assumptions_full_support_conventions():
    rng = np.random.default_rng(223)
    inst = make_instance(rng, n=25, p=3, q=3)
    report = check_assumptions(
        inst["X"], blocked_gram(inst["problem"], inst["beta_star"].support),
        inst["beta_star"], AssumptionConstants(),
    )
    assert report.irrep_margin == 1.0
    assert report.lambda_max_C22 == 0.0
    assert report.lambda_max_C12 == 0.0
    assert report.q == 3


def test_check_assumptions_two_predictor_closed_form():
    # p = 2, q = 1: the irrepresentability statistic is |c21 / c11| computed
    # from scalar sums, so the margin has a closed form.
    rng = np.random.default_rng(227)
    n = 40
    x1 = rng.standard_normal(n)
    x2 = 0.6 * x1 + 0.8 * rng.standard_normal(n)
    X = DesignMatrix(np.column_stack([x1, x2]))
    beta_star = CoefVector([0.8, 0.0])
    problem = build_working_problem(X, beta_star, rng.integers(0, 4, n))
    lam = problem.lambda_tilde
    c11 = float(np.sum(lam * x1 * x1) / n)
    c21 = float(np.sum(lam * x2 * x1) / n)
    expected_margin = 1.0 - abs(c21 / c11)
    report = check_assumptions(X, blocked_gram(problem, [0]), beta_star, AssumptionConstants())
    assert report.irrep_margin == pytest.approx(expected_margin, abs=1e-10)


def test_check_assumptions_reports_observed_constants():
    rng = np.random.default_rng(229)
    inst = make_instance(rng, n=50, p=4, q=2)
    X = inst["X"]
    bg = blocked_gram(inst["problem"], inst["beta_star"].support)
    report = check_assumptions(X, bg, inst["beta_star"], None)
    assert report.row_norm_max == pytest.approx(float(np.max(X.row_norms())))
    assert report.col_norm_max == pytest.approx(float(np.max(X.col_norms())))
    # beta_min statistic with default c1 = 1 is just min |active beta|.
    expected = float(np.min(np.abs(inst["beta_star"].values[:2])))
    assert report.beta_min_scaled == pytest.approx(expected)


def test_beta_min_scaling_with_c1():
    rng = np.random.default_rng(233)
    inst = make_instance(rng, n=100, p=3, q=1)
    report = check_assumptions(
        inst["X"], blocked_gram(inst["problem"], inst["beta_star"].support),
        inst["beta_star"], AssumptionConstants(c1=0.5),
    )
    expected = 100 ** 0.25 * float(np.abs(inst["beta_star"].values[0]))
    assert report.beta_min_scaled == pytest.approx(expected)


def test_singular_active_block_raises():
    X = np.column_stack([np.ones(6), np.ones(6), np.arange(6.0)])
    problem = _unweighted_problem(X)
    beta_star = CoefVector([1.0, 1.0, 0.0])
    with pytest.raises(SingularBlockError):
        check_assumptions(problem.design, blocked_gram(problem, [0, 1]), beta_star, None)


@pytest.mark.parametrize("consumer", [
    lambda bg, beta: check_assumptions(DesignMatrix(np.ones((bg.n, bg.p))), bg, beta),
    lambda bg, beta: irrepresentable_vector(bg, beta),
    lambda bg, beta: proposition_diagnostics(bg, beta, 1.0),
], ids=["check_assumptions", "irrepresentable_vector", "proposition_diagnostics"])
def test_consumers_reject_a_gram_blocked_off_the_support(consumer):
    rng = np.random.default_rng(239)
    X = DesignMatrix(rng.standard_normal((50, 4)))
    beta_star = CoefVector([1.0, -1.0, 0.0, 0.0])
    problem = build_working_problem(X, beta_star, rng.integers(0, 4, 50))
    # A wrong active set, and the right one for a beta of the wrong length.
    for support, beta in (([2], beta_star), ([0, 1], CoefVector([1.0, -1.0, 0.0]))):
        with pytest.raises(ValueError, match="support"):
            consumer(blocked_gram(problem, support), beta)


def test_blocked_gram_keeps_its_problem():
    rng = np.random.default_rng(241)
    inst = make_instance(rng, n=40, p=5, q=2)
    # It keeps its problem's sample size and expansion point, not the problem
    # or its design.
    bg = blocked_gram(inst["problem"], inst["beta_star"].support)
    assert bg.n == inst["problem"].n
    assert bg.beta_tilde is inst["problem"].beta_tilde
    assert "design" not in {f.name for f in fields(bg)}


def test_blocked_gram_takes_a_blocking_taken_once_for_many_problems():
    rng = np.random.default_rng(243)
    inst = make_instance(rng, n=40, p=5, q=2)
    support = inst["beta_star"].support
    once = blocking(support, 5)
    assert once.q == 2 and not once.perm.flags.writeable
    for problem in (inst["problem"], make_instance(rng, n=40, p=5, q=2)["problem"]):
        shared, own = blocked_gram(problem, once), blocked_gram(problem, support)
        assert shared.perm is once.perm and shared.q == own.q
        assert shared.C.tobytes() == own.C.tobytes() and shared.W.tobytes() == own.W.tobytes()
    with pytest.raises(ValueError, match="blocking of 4 coordinates"):
        blocked_gram(inst["problem"], blocking(support, 4))


def _chkfinite_message() -> str:
    with pytest.raises(ValueError) as info:
        np.asarray_chkfinite([np.nan])
    return str(info.value)


@pytest.mark.parametrize("field", ["W", "C"])
def test_a_non_finite_lane_fails_its_pass_with_the_finiteness_error(field):
    # One finiteness check per pass raises asarray_chkfinite's error, so a
    # lane's own pass fails as its per-lane checks made it fail.
    rng = np.random.default_rng(281)
    inst = make_instance(rng, n=40, p=4, q=2)
    bg = blocked_gram(inst["problem"], inst["beta_star"].support)
    bad = getattr(bg, field).copy()
    if field == "W":
        bad[0] = np.nan
    else:
        bad[0, 1] = bad[1, 0] = np.nan
    lane = replace(bg, **{field: bad})
    lanes = [replace(bg), lane, replace(bg)]
    for pass_lanes in (lane, lanes):
        with pytest.raises(ValueError) as info:
            proposition_diagnostics(pass_lanes, inst["beta_star"], 1.0)
        assert str(info.value) == _chkfinite_message()
    for other in (lanes[0], lanes[2]):
        proposition_diagnostics(other, inst["beta_star"], 1.0)


def test_proposition_zero_remainder_when_tilde_is_truth():
    rng = np.random.default_rng(239)
    inst = make_instance(rng, n=30, p=4, q=2, tilde_scale=0.0)
    bg = blocked_gram(inst["problem"], inst["beta_star"].support)
    diag = proposition_diagnostics(bg, inst["beta_star"], 1.0)
    assert np.all(diag.R1 == 0.0)
    assert np.all(diag.R2 == 0.0)


def test_proposition_noise_free_events():
    # With eps = 0 injected (counts equal to intensities would be needed; use
    # beta_tilde = beta_star and replace the response by the exact mean),
    # alpha = 0 makes the active event hold iff |beta*_1| > 0 and the
    # inactive event hold trivially.
    X = DesignMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    beta_star = CoefVector([0.7, 0.0])
    from signlasso.working import WorkingProblem

    lam = np.exp(X.values @ beta_star.values)
    x_work = X.values * np.sqrt(lam)[:, None]
    problem = WorkingProblem(
        y_work=x_work @ beta_star.values,
        x_work=x_work,
        lambda_tilde=lam,
        eps_tilde=np.zeros(3),
        beta_tilde=beta_star,
        design=X,
    )
    bg = blocked_gram(problem, [0])
    diag = proposition_diagnostics(bg, beta_star, 0.0)
    assert np.all(bg.W == 0.0)
    assert diag.An_holds
    assert diag.Bn_holds


def test_d_matches_irrepresentable_vector():
    rng = np.random.default_rng(241)
    inst = make_instance(rng, n=40, p=5, q=2, rho=0.3)
    bg = blocked_gram(inst["problem"], inst["beta_star"].support)
    diag = proposition_diagnostics(bg, inst["beta_star"], 2.0)
    np.testing.assert_array_equal(diag.d, irrepresentable_vector(bg, inst["beta_star"]))
    # The candidate minimizer lives on the true active set.
    assert set(diag.beta_check.support) <= set(bg.active_idx)


def test_full_support_makes_inactive_event_vacuous():
    rng = np.random.default_rng(251)
    inst = make_instance(rng, n=30, p=3, q=3)
    bg = blocked_gram(inst["problem"], inst["beta_star"].support)
    diag = proposition_diagnostics(bg, inst["beta_star"], 1.0)
    assert diag.Bn_holds
    assert diag.d.size == 0
    assert diag.zeta.size == 0


def _implication_sweep(rng, count):
    """Instances where both events hold must have sign-recovering solutions."""
    events = 0
    for _ in range(count):
        p = int(rng.integers(2, 7))
        q = int(rng.integers(1, min(p, 3) + 1))
        n = int(rng.integers(40, 140))
        rho = float(rng.choice([0.0, 0.2, 0.5]))
        inst = make_instance(
            rng, n=n, p=p, q=q, rho=rho,
            tilde_scale=float(rng.choice([0.0, 0.5, 2.0])),
        )
        alpha = float(rng.choice([0.5, 1.0, 2.0])) * n**0.75
        problem = inst["problem"]
        bg = blocked_gram(problem, inst["beta_star"].support)
        diag = proposition_diagnostics(bg, inst["beta_star"], alpha)
        if not (diag.An_holds and diag.Bn_holds):
            continue
        events += 1
        result = fit(problem, SolverConfig(alpha=alpha, tol=1e-12, kkt_tol=1e-8))
        assert result.converged, "solver must converge on these benign instances"
        assert np.array_equal(
            result.beta_hat.signs(), inst["beta_star"].signs()
        ), "events held but signs were not recovered"
        # The candidate minimizer built from the event algebra is itself
        # optimal: it passes the KKT check at 1e-6.
        report = kkt_check(problem, diag.beta_check, alpha, 1e-6)
        assert report.all_passed
    return events


def test_event_implication_property():
    rng = np.random.default_rng(257)
    events = _implication_sweep(rng, 80)
    assert events >= 10, f"too few event-positive instances ({events}) to be meaningful"


def test_stacked_solve_equals_three_separate_solves():
    # proposition_diagnostics solves C11 against [W1, s1, R1] at once; each
    # column must carry exactly the bits of its own solve, since irrep_margin
    # and the event flags in results.csv are computed from them.
    rng = np.random.default_rng(263)
    for _ in range(40):
        q = int(rng.integers(1, 13))
        p = q + int(rng.integers(0, 5))
        n = int(rng.integers(4 * p, 12 * p))
        inst = make_instance(rng, n=n, p=p, q=q, rho=float(rng.choice([0.0, 0.3])))
        bg = blocked_gram(inst["problem"], inst["beta_star"].support)
        alpha = n**0.75
        diag = proposition_diagnostics(bg, inst["beta_star"], alpha)

        solve = _cholesky_solver(bg.C11)
        perm = np.concatenate([bg.active_idx, bg.inactive_idx])
        R1 = (bg.C @ (inst["beta_star"].values[perm] - inst["beta_tilde"].values[perm]))[:q]
        beta1 = inst["beta_star"].values[bg.active_idx]
        xi, b, inv_R1 = solve(bg.W1), solve(np.sign(beta1)), solve(R1)
        np.testing.assert_array_equal(diag.xi, xi)
        np.testing.assert_array_equal(diag.b, b)
        np.testing.assert_array_equal(diag.d, bg.C21 @ b)
        np.testing.assert_array_equal(diag.zeta, bg.C21 @ xi - bg.W2)
        ratio = alpha / (2.0 * n)
        np.testing.assert_array_equal(
            diag.beta_check.values[bg.active_idx], beta1 + xi - ratio * b - inv_R1
        )


def _bits(value) -> bytes:
    values = value.values if isinstance(value, CoefVector) else value
    return np.asarray(values).tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    p=st.integers(1, 8),
    inactive=st.integers(0, 4),
    lanes=st.integers(1, 6),
    rows_per_coef=st.integers(4, 12),
    rho=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_diagnostics_equal_separate_calls_bit_for_bit(
    p, inactive, lanes, rows_per_coef, rho, seed
):
    # One pass over the blocked Grams of R replicates of one design shape is
    # R separate calls, in every field; q == p (no inactive coordinate, an
    # infinite bn_margin) included.
    q = max(1, p - inactive)
    n = rows_per_coef * p
    rng = np.random.default_rng(seed)
    beta_star = make_instance(rng, n=n, p=p, q=q, rho=rho)["beta_star"]
    bgs = []
    for _ in range(lanes):
        X = DesignMatrix(0.7 * rng.standard_normal((n, p)))
        counts = simulate(X, beta_star, int(rng.integers(2**63)))
        beta_tilde = oracle_perturbation(beta_star, n, 1.0, int(rng.integers(2**63)))
        problem = build_working_problem(X, beta_tilde, counts)
        bgs.append(blocked_gram(problem, beta_star.support))
    alpha = n**0.75
    stacked = proposition_diagnostics(bgs, beta_star, alpha)
    for i, bg in enumerate(bgs):
        # A fresh blocked Gram, so the lone call factorises its own block.
        single = proposition_diagnostics(replace(bg), beta_star, alpha)
        for f in fields(PropositionDiagnostics):
            lane, own = getattr(stacked, f.name)[i], getattr(single, f.name)
            assert _bits(lane) == _bits(own), f.name
    if q == p:
        assert np.all(stacked.bn_margin == np.inf) and stacked.Bn_holds.all()


def test_stacked_diagnostics_need_one_sample_size():
    rng = np.random.default_rng(271)
    inst = make_instance(rng, n=40, p=4, q=2)
    other = make_instance(rng, n=50, p=4, q=2)
    bgs = [blocked_gram(problem, inst["beta_star"].support)
           for problem in (inst["problem"], other["problem"])]
    with pytest.raises(ValueError, match="share n"):
        proposition_diagnostics(bgs, inst["beta_star"], 1.0)


def test_check_assumptions_rejects_a_design_of_another_shape():
    # The norms come from X and the Gram from bg: they must be one design's.
    rng = np.random.default_rng(251)
    inst = make_instance(rng, n=50, p=4, q=2)
    bg = blocked_gram(inst["problem"], inst["beta_star"].support)
    for shape in ((49, 4), (50, 5)):
        with pytest.raises(ValueError, match="50 x 4 design"):
            check_assumptions(DesignMatrix(np.ones(shape)), bg, inst["beta_star"])
