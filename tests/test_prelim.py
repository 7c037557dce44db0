"""Newton MLE and the oracle perturbation mode."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.linalg import LinAlgError

from conftest import reference_fit_mle
from signlasso import prelim
from signlasso import (
    CoefVector,
    DesignMatrix,
    RankDeficientError,
    fit_mle,
    log_likelihood,
    oracle_perturbation,
    simulate,
)
from signlasso.model import _check_counts


def test_intercept_only_closed_form():
    X = DesignMatrix(np.ones((7, 1)))
    y = np.array([2, 0, 1, 4, 3, 1, 2])
    result = fit_mle(X, y)
    assert result.converged
    assert result.beta.values[0] == pytest.approx(math.log(y.mean()), abs=1e-8)


def test_gradient_tolerance_postcondition():
    rng = np.random.default_rng(101)
    X = DesignMatrix(0.5 * rng.standard_normal((60, 3)))
    counts = simulate(X, CoefVector([0.5, -0.4, 0.2]), 7)
    result = fit_mle(X, counts)
    assert result.converged
    assert result.grad_norm <= prelim._GRAD_TOL


def test_consistency_at_null_truth():
    # Orthogonal-ish design with unit intensities: estimator standard error is
    # about 1/sqrt(n), so 0.05 is a 5-sigma envelope at n = 10^4.
    rng = np.random.default_rng(103)
    X = DesignMatrix(rng.choice([-1.0, 1.0], size=(10_000, 3)))
    counts = simulate(X, CoefVector(np.zeros(3)), 11)
    result = fit_mle(X, counts)
    assert result.converged
    assert np.max(np.abs(result.beta.values)) <= 0.05


def test_likelihood_improves_from_start():
    from signlasso import log_likelihood

    rng = np.random.default_rng(107)
    for _ in range(12):
        n = int(rng.integers(20, 80))
        X = DesignMatrix(0.6 * rng.standard_normal((n, 2)))
        counts = simulate(X, CoefVector([1.0, -0.5]), int(rng.integers(0, 2**31)))
        result = fit_mle(X, counts)
        assert result.converged
        start = log_likelihood(X, CoefVector(np.zeros(2)), counts)
        assert result.log_likelihood >= start - 1e-9


def test_rank_deficient_raises():
    X = DesignMatrix(np.column_stack([np.ones(10), np.ones(10)]))
    with pytest.raises(RankDeficientError):
        fit_mle(X, np.zeros(10, dtype=int))
    with pytest.raises(RankDeficientError):
        fit_mle(DesignMatrix(np.ones((2, 3))), np.zeros(2, dtype=int))


def test_mle_error_scales_like_root_n():
    # The parametric rate: the log-log slope of the median error against n
    # should sit near -1/2, detectably far from the -1 rate the oracle mode
    # delivers by construction.
    rng = np.random.default_rng(109)
    beta_star = CoefVector([0.8, -0.6])
    sizes = [250, 1000, 4000]
    medians = []
    for n in sizes:
        errors = []
        for _ in range(40):
            X = DesignMatrix(rng.choice([-1.0, 1.0], size=(n, 2)))
            counts = simulate(X, beta_star, int(rng.integers(0, 2**63 - 1)))
            result = fit_mle(X, counts)
            assert result.converged
            errors.append(np.max(np.abs(result.beta.values - beta_star.values)))
        medians.append(float(np.median(errors)))
    slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
    assert -0.65 <= slope <= -0.35


def test_oracle_perturbation_zero_scale_is_exact():
    beta = CoefVector([1.0, 0.0, -2.0])
    out = oracle_perturbation(beta, n=50, scale=0.0, seed=5)
    assert np.array_equal(out.values, beta.values)


def test_oracle_perturbation_bound_and_determinism():
    beta = CoefVector(np.linspace(-1, 1, 6))
    a = oracle_perturbation(beta, n=100, scale=1.0, seed=77)
    b = oracle_perturbation(beta, n=100, scale=1.0, seed=77)
    assert np.array_equal(a.values, b.values)
    assert np.max(np.abs(a.values - beta.values)) <= 1.0 / 100
    c = oracle_perturbation(beta, n=100, scale=1.0, seed=78)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("scale, message", [
    (float("nan"), "finite"), (float("inf"), "finite"), (-1.0, "nonnegative"),
])
def test_oracle_perturbation_rejects_a_bad_scale(scale, message):
    # A non-finite scale used to fail later, in CoefVector, without naming it.
    with pytest.raises(ValueError, match=f"scale must be {message}"):
        oracle_perturbation(CoefVector([1.0, 0.0]), n=10, scale=scale, seed=0)


def test_oracle_perturbation_rate_by_construction():
    beta = CoefVector([0.5, -0.5])
    for n in (10, 100, 1000, 10_000):
        out = oracle_perturbation(beta, n=n, scale=2.5, seed=3)
        assert np.max(np.abs(out.values - beta.values)) <= 2.5 / n


def test_reported_likelihood_is_log_likelihood_at_the_estimate():
    # fit_mle evaluates the likelihood with ln(y!) hoisted out of its loop;
    # the value it reports must keep log_likelihood's bits.
    rng = np.random.default_rng(131)
    for _ in range(10):
        n, p = int(rng.integers(30, 300)), int(rng.integers(1, 5))
        X = DesignMatrix(0.5 * rng.standard_normal((n, p)))
        beta = CoefVector(rng.uniform(-1.0, 1.0, p))
        counts = simulate(X, beta, int(rng.integers(0, 2**32)))
        result = fit_mle(X, counts)
        assert result.log_likelihood == log_likelihood(X, result.beta, counts)


def test_rank_check_runs_one_svd_per_design(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(31)
    X = DesignMatrix(0.5 * rng.standard_normal((80, 3)))
    beta_star = CoefVector([0.4, -0.3, 0.0])
    first = fit_mle(X, simulate(X, beta_star, 1))
    second = fit_mle(X, simulate(X, beta_star, 2))
    assert first.converged and second.converged
    assert len(calls) == 1
    assert not X.singular_values.flags.writeable


def _outcome(fit, X, counts):
    """Every field of ``fit(X, counts)`` as exact bits, or the exception it raised."""
    try:
        r = fit(X, counts)
    except (ValueError, LinAlgError) as exc:
        return type(exc), str(exc)
    return r.beta.values.tobytes(), r.iterations, r.converged, r.grad_norm, r.log_likelihood


@st.composite
def _designs_and_counts(draw):
    n = draw(st.integers(4, 60))
    p = draw(st.integers(1, min(4, n)))
    X = draw(arrays(np.float64, (n, p), elements=st.floats(-2.0, 2.0, width=64)))
    sv = np.linalg.svd(X, compute_uv=False)
    assume(sv[-1] > 1e-3 * sv[0])
    counts = draw(arrays(np.int64, n, elements=st.integers(0, 6)))
    if draw(st.booleans()):
        # A count of at least n takes ln(y!) off the lookup table.
        counts[draw(st.integers(0, n - 1))] = draw(st.integers(n, 4 * n))
    return DesignMatrix(X), counts


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_designs_and_counts())
def test_fit_mle_matches_the_reference_loop_bit_for_bit(case):
    X, counts = case
    expected = _outcome(reference_fit_mle, X, counts)
    # The second fit on X takes the beta = 0 solver the first one kept.
    assert _outcome(fit_mle, X, counts) == expected
    assert _outcome(fit_mle, X, counts) == expected


def _start_hessian(X):
    return (X.values.T * np.ones(X.n)) @ X.values


def _recording_solver(monkeypatch, refuse=()):
    """Patch fit_mle's Cholesky solver to record its matrices, refusing those in ``refuse``."""
    seen = []
    real = prelim._cholesky_solver

    def recorded(a):
        seen.append(np.array(a))
        if any(np.array_equal(a, r) for r in refuse):
            raise LinAlgError("refused")
        return real(a)

    monkeypatch.setattr(prelim, "_cholesky_solver", recorded)
    return seen


def _two_fits(X):
    beta_star = CoefVector(np.linspace(0.4, -0.3, X.p))
    return [fit_mle(X, simulate(X, beta_star, seed)) for seed in (1, 2)]


def test_two_fits_on_a_design_form_the_start_hessian_once(monkeypatch):
    X = DesignMatrix(0.5 * np.random.default_rng(37).standard_normal((80, 3)))
    seen = _recording_solver(monkeypatch)
    fits = _two_fits(X)
    assert all(fit.converged for fit in fits)
    start = _start_hessian(X)
    assert sum(np.array_equal(a, start) for a in seen) == 1


def test_ridged_start_solver_is_kept_for_the_next_fit(monkeypatch):
    X = DesignMatrix(0.5 * np.random.default_rng(41).standard_normal((80, 3)))
    start = _start_hessian(X)
    seen = _recording_solver(monkeypatch, refuse=(start,))
    fits = _two_fits(X)
    assert all(fit.converged for fit in fits)
    ridged = start + prelim._NEWTON_RIDGE * np.eye(X.p)
    assert sum(np.array_equal(a, start) for a in seen) == 1
    assert sum(np.array_equal(a, ridged) for a in seen) == 1


def test_fit_mle_never_keeps_a_failing_start_solver(monkeypatch):
    X = DesignMatrix(0.5 * np.random.default_rng(47).standard_normal((80, 3)))
    counts = simulate(X, CoefVector([0.4, -0.1, -0.3]), 1)
    X.singular_values  # the rank check caches it; only kept state may add keys after
    kept = set(X.__dict__)
    start = _start_hessian(X)
    ridged = start + prelim._NEWTON_RIDGE * np.eye(X.p)
    with monkeypatch.context() as patch:
        seen = _recording_solver(patch, refuse=(start, ridged))
        for _ in range(3):
            with pytest.raises(LinAlgError, match="refused"):
                fit_mle(X, counts)
            assert set(X.__dict__) == kept
        assert len(seen) == 6
    # The next fit forms the solver afresh and keeps it.
    assert _outcome(fit_mle, X, counts) == _outcome(reference_fit_mle, X, counts)
    assert len(set(X.__dict__) - kept) == 1


def test_non_finite_newton_step_raises(monkeypatch):
    def infinite(a):
        return lambda rhs: np.full(rhs.shape, np.inf)

    monkeypatch.setattr(prelim, "_cholesky_solver", infinite)
    X = DesignMatrix(0.5 * np.random.default_rng(43).standard_normal((30, 2)))
    counts = simulate(X, CoefVector([0.5, -0.5]), 3)
    with pytest.raises(ValueError, match="coefficient entries must be finite"):
        fit_mle(X, counts)


def test_int64_counts_are_checked_for_sign_and_kept():
    counts = np.array([0, 3, 2**63 - 1])
    assert _check_counts(counts, 3) is counts
    with pytest.raises(ValueError, match="nonnegative integers"):
        _check_counts(np.array([1, -1, 2]), 3)
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        _check_counts(np.array([1, 2**63], dtype=np.uint64), 2)
