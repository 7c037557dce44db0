"""Newton MLE and the oracle perturbation mode."""

import math

import numpy as np
import pytest

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


def test_intercept_only_closed_form():
    X = DesignMatrix(np.ones((7, 1)))
    y = np.array([2, 0, 1, 4, 3, 1, 2])
    result = fit_mle(X, y)
    assert result.converged
    assert result.beta.values[0] == pytest.approx(math.log(y.mean()), abs=1e-8)


def test_gradient_tolerance_postcondition():
    rng = np.random.default_rng(101)
    X = DesignMatrix(0.5 * rng.standard_normal((60, 3)))
    sample = simulate(X, CoefVector([0.5, -0.4, 0.2]), 7)
    result = fit_mle(X, sample.counts)
    assert result.converged
    assert result.grad_norm <= prelim._GRAD_TOL


def test_consistency_at_null_truth():
    # Orthogonal-ish design with unit intensities: estimator standard error is
    # about 1/sqrt(n), so 0.05 is a 5-sigma envelope at n = 10^4.
    rng = np.random.default_rng(103)
    X = DesignMatrix(rng.choice([-1.0, 1.0], size=(10_000, 3)))
    sample = simulate(X, CoefVector(np.zeros(3)), 11)
    result = fit_mle(X, sample.counts)
    assert result.converged
    assert np.max(np.abs(result.beta.values)) <= 0.05


def test_likelihood_improves_from_start():
    from signlasso import log_likelihood

    rng = np.random.default_rng(107)
    for _ in range(12):
        n = int(rng.integers(20, 80))
        X = DesignMatrix(0.6 * rng.standard_normal((n, 2)))
        sample = simulate(X, CoefVector([1.0, -0.5]), int(rng.integers(0, 2**31)))
        result = fit_mle(X, sample.counts)
        assert result.converged
        start = log_likelihood(X, CoefVector(np.zeros(2)), sample.counts)
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
            sample = simulate(X, beta_star, int(rng.integers(0, 2**63 - 1)))
            result = fit_mle(X, sample.counts)
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
        counts = simulate(X, beta, int(rng.integers(0, 2**32))).counts
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
    first = fit_mle(X, simulate(X, beta_star, 1).counts)
    second = fit_mle(X, simulate(X, beta_star, 2).counts)
    assert first.converged and second.converged
    assert len(calls) == 1
    assert not X.singular_values.flags.writeable
