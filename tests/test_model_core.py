"""Poisson model primitives: intensities, likelihood, derivatives, sampling."""

import math

import numpy as np
import pytest

from conftest import fd_gradient
from signlasso import (
    CoefVector,
    DesignMatrix,
    build_working_problem,
    intensities,
    log_likelihood,
    score_and_hessian,
    simulate,
)
from signlasso.model import MAX_LINEAR_PREDICTOR, _check_counts, _poisson_inversion, poisson_counts


def test_intensities_zero_predictor():
    X = DesignMatrix([[0.0]])
    assert intensities(X, CoefVector([5.0])) == pytest.approx([1.0])


def test_intensities_identity_design():
    X = DesignMatrix(np.eye(2))
    lam = intensities(X, CoefVector([math.log(2), math.log(3)]))
    np.testing.assert_allclose(lam, [2.0, 3.0], rtol=1e-15)


def test_intensities_matches_scalar_evaluation():
    X = DesignMatrix([[1.0, 1.0], [1.0, -1.0]])
    beta = CoefVector([0.5, 0.25])
    expected = [math.exp(1.0 * 0.5 + 1.0 * 0.25), math.exp(1.0 * 0.5 - 1.0 * 0.25)]
    np.testing.assert_allclose(intensities(X, beta), expected, rtol=1e-15)


def test_intensities_overflow_is_an_error():
    X = DesignMatrix([[1.0]])
    with pytest.raises(OverflowError):
        intensities(X, CoefVector([MAX_LINEAR_PREDICTOR + 1.0]))
    # Just inside the guard is fine.
    lam = intensities(X, CoefVector([MAX_LINEAR_PREDICTOR - 1.0]))
    assert np.isfinite(lam).all()


def test_log_likelihood_trivial_values():
    X = DesignMatrix([[0.0]])
    beta = CoefVector([0.0])
    assert log_likelihood(X, beta, [0]) == pytest.approx(-1.0)
    assert log_likelihood(X, beta, [2]) == pytest.approx(-1.0 - math.log(2.0))


def test_log_likelihood_matches_scalar_loop():
    rng = np.random.default_rng(7)
    X = DesignMatrix(rng.standard_normal((5, 2)))
    beta = CoefVector(rng.standard_normal(2))
    y = rng.integers(0, 6, 5)
    expected = 0.0
    for i in range(5):
        eta = float(X.values[i] @ beta.values)
        expected += y[i] * eta - math.exp(eta) - math.lgamma(y[i] + 1.0)
    assert log_likelihood(X, beta, y) == pytest.approx(expected, abs=1e-12)


def test_score_hand_instance():
    X = DesignMatrix([[1.0]])
    grad, hess = score_and_hessian(X, CoefVector([0.0]), [3])
    assert grad == pytest.approx([2.0])
    np.testing.assert_allclose(hess, [[-1.0]], rtol=1e-15)


def test_score_matches_finite_differences():
    rng = np.random.default_rng(11)
    X = DesignMatrix(0.5 * rng.standard_normal((10, 3)))
    beta = CoefVector(0.3 * rng.standard_normal(3))
    y = rng.integers(0, 8, 10)
    grad, _ = score_and_hessian(X, beta, y)
    approx = fd_gradient(X, beta, y)
    scale = max(1.0, float(np.max(np.abs(grad))))
    assert np.max(np.abs(grad - approx)) / scale < 1e-5


def test_gradient_zero_at_mle():
    # Intercept-only model: the MLE is log(mean(Y)) in closed form.
    X = DesignMatrix(np.ones((6, 1)))
    y = np.array([1, 2, 0, 3, 2, 1])
    beta = CoefVector([math.log(y.mean())])
    grad, _ = score_and_hessian(X, beta, y)
    assert np.max(np.abs(grad)) < 1e-8


def test_hessian_negative_semidefinite():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n, p = int(rng.integers(5, 50)), int(rng.integers(1, 6))
        X = DesignMatrix(0.6 * rng.standard_normal((n, p)))
        beta = CoefVector(0.5 * rng.standard_normal(p))
        y = rng.integers(0, 5, n)
        _, hess = score_and_hessian(X, beta, y)
        assert np.all(np.linalg.eigvalsh(hess) <= 1e-10)


def test_simulate_is_deterministic_in_seed():
    rng = np.random.default_rng(3)
    X = DesignMatrix(rng.standard_normal((50, 2)))
    beta = CoefVector([0.4, -0.3])
    a = simulate(X, beta, 123456)
    b = simulate(X, beta, 123456)
    assert np.array_equal(a.counts, b.counts)
    c = simulate(X, beta, 123457)
    assert not np.array_equal(a.counts, c.counts)


def test_simulate_unit_intensity_mean():
    X = DesignMatrix(np.zeros((100_000, 1)))
    sample = simulate(X, CoefVector([3.0]), 2024)
    np.testing.assert_array_equal(sample.intensities, 1.0)
    assert abs(sample.counts.mean() - 1.0) < 0.02


@pytest.mark.parametrize("lam", [4.0, 25.0])
def test_sampler_moments(lam):
    # Covers both sampler branches (inversion below 10, rejection above).
    rng = np.random.default_rng(99)
    draws = poisson_counts(np.full(100_000, lam), rng)
    se_mean = math.sqrt(lam / draws.size)
    assert abs(draws.mean() - lam) < 4 * se_mean
    # Var(sample variance) ~ (mu4 - var^2)/n with mu4 = lam(1+3lam) + 3lam^2... use
    # the simple normal-theory bound var * sqrt(2/(n-1)) * 4, generous here.
    se_var = lam * math.sqrt(2.0 / (draws.size - 1))
    assert abs(draws.var(ddof=1) - lam) < max(4 * se_var, 0.15)


def _masked_inversion(lam, rng):
    """Reference sequential-search sampler, masking all n lanes every step."""
    u = rng.random(lam.size)
    prob = np.exp(-lam)
    cum = prob.copy()
    k = np.zeros(lam.size, dtype=np.int64)
    pending = u > cum
    while pending.any():
        k[pending] += 1
        prob[pending] *= lam[pending] / k[pending]
        cum[pending] += prob[pending]
        pending = (u > cum) & (prob > 0.0)
    return k


@pytest.mark.parametrize("regime", ["near_zero", "near_ten", "mixed"])
def test_compacted_inversion_matches_masked_loop(regime):
    # The lane-compacted sampler must reproduce the masked loop bit for bit,
    # counts and generator state alike, or every seeded artifact moves.
    for seed in range(60):
        shape = np.random.default_rng(seed)
        size = int(shape.integers(1, 400))
        if regime == "near_zero":
            lam = shape.uniform(1e-12, 1e-2, size)
        elif regime == "near_ten":
            lam = np.nextafter(10.0, 0.0) - shape.uniform(0.0, 0.5, size)
        else:
            lam = np.exp(shape.uniform(np.log(1e-8), np.log(9.999), size))
        ours, theirs = np.random.default_rng(1000 + seed), np.random.default_rng(1000 + seed)
        np.testing.assert_array_equal(_poisson_inversion(lam, ours), _masked_inversion(lam, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_sampler_rejects_bad_intensities():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        poisson_counts(np.array([1.0, -2.0]), rng)
    with pytest.raises(ValueError):
        poisson_counts(np.array([np.nan]), rng)


def test_sampler_keeps_draws_inside_int64():
    # At intensity 1e19 a draw was cast to INT64_MIN under a RuntimeWarning.
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match=r"\(0, 2\*\*62\)"):
        poisson_counts(np.array([1e19]), rng)
    top = poisson_counts(np.array([np.nextafter(2.0**62, 0.0)]), rng)
    assert 0 < top[0] < 2**63 - 2**61


def test_count_at_or_beyond_int64_is_rejected_before_the_cast():
    # A count of 1e19 became INT64_MIN and an eps_tilde entry of -9.22e18.
    X = DesignMatrix(np.ones((3, 1)))
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        build_working_problem(X, CoefVector([0.0]), [1.0, 1e19, 2.0])
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        _check_counts([2.0**63], 1)
    assert _check_counts(np.array([2**63 - 1]), 1)[0] == 2**63 - 1


def test_coef_vector_support_and_signs():
    beta = CoefVector([1.5, 0.0, -2.0, 1e-12])
    np.testing.assert_array_equal(beta.support, [0, 2])
    assert beta.q == 2
    np.testing.assert_array_equal(beta.signs(), [1, 0, -1, 0])


def test_design_matrix_norms():
    X = DesignMatrix([[3.0, 4.0], [0.0, 1.0]])
    assert X.row_norms()[0] == pytest.approx(5.0)
    assert X.col_norms()[0] == pytest.approx(3.0)
    np.testing.assert_allclose(X.row_norms(), [5.0, 1.0])
    assert X.n == 2 and X.p == 2


def test_design_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        DesignMatrix([[1.0, np.inf]])


def test_dimension_mismatch():
    X = DesignMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        intensities(X, CoefVector([1.0]))


def test_containers_copy_writeable_input_and_share_readonly_arrays():
    values = np.array([[3.0, 4.0], [0.0, 1.0]])
    X = DesignMatrix(values)
    values[0, 0] = 99.0
    assert X.values[0, 0] == 3.0
    assert not X.values.flags.writeable
    # An array that is already read-only is shared, not copied again.
    assert DesignMatrix(X.values).values is X.values
    assert CoefVector(X.values[0]).values.base is X.values
    # A read-only array of another dtype is converted, which copies it.
    ints = np.array([1, 2])
    ints.flags.writeable = False
    converted = CoefVector(ints).values
    assert converted.dtype == float and not np.shares_memory(converted, ints)
    listed = [1.0, -2.0]
    beta = CoefVector(listed)
    listed[0] = 5.0
    assert beta.values[0] == 1.0 and not beta.values.flags.writeable
