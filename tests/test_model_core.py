"""Poisson model primitives: intensities, likelihood, derivatives, sampling."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import fd_gradient, reference_ptrs
from signlasso import (
    CoefVector,
    DesignMatrix,
    build_working_problem,
    intensities,
    log_likelihood,
    score_and_hessian,
    simulate,
)
from signlasso.model import (
    MAX_LINEAR_PREDICTOR,
    _check_counts,
    _guarded_product,
    linear_predictor,
    _SAMPLER_SPLIT,
    _TABLE_HEAD,
    _CountSampler,
    _poisson_transformed_rejection,
    _ptrs_constants,
    poisson_counts,
)


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


def test_linear_predictor_rejects_every_non_finite_entry_without_a_warning():
    # pytest turns numpy's overflow warning into an error, so each call shows
    # the overflow is reported by the guard alone.  A NaN entry made the old
    # guard's max NaN, which passed its comparison.
    with pytest.raises(OverflowError, match="exceeds the overflow guard"):
        linear_predictor(DesignMatrix([[1e300, 1e300]]), CoefVector([1e10, 1e10]))
    with pytest.raises(OverflowError, match="not finite"):
        linear_predictor(DesignMatrix([[1e300], [1.0]]), CoefVector([-1e10]))
    with pytest.raises(OverflowError, match="not finite"):
        _guarded_product(np.array([[np.nan], [1.0]]), np.array([1.0]))


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
    assert np.array_equal(a, b)
    c = simulate(X, beta, 123457)
    assert not np.array_equal(a, c)


def test_simulate_returns_read_only_int64_counts():
    X = DesignMatrix(np.random.default_rng(4).standard_normal((30, 2)))
    counts = simulate(X, CoefVector([0.4, -0.3]), 99)
    assert isinstance(counts, np.ndarray)
    assert counts.dtype == np.int64 and counts.shape == (30,)
    assert not counts.flags.writeable


def test_simulate_unit_intensity_mean():
    X = DesignMatrix(np.zeros((100_000, 1)))
    beta = CoefVector([3.0])
    np.testing.assert_array_equal(intensities(X, beta), 1.0)
    assert abs(simulate(X, beta, 2024).mean() - 1.0) < 0.02


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
        lam = _inversion_regime(regime, shape, size)
        ours, theirs = np.random.default_rng(1000 + seed), np.random.default_rng(1000 + seed)
        np.testing.assert_array_equal(_CountSampler(lam).draw(ours), _masked_inversion(lam, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state


def _inversion_regime(regime, shape, size):
    if regime == "near_zero":
        return shape.uniform(1e-12, 1e-2, size)
    if regime == "near_ten":
        return np.nextafter(10.0, 0.0) - shape.uniform(0.0, 0.5, size)
    return np.exp(shape.uniform(np.log(1e-8), np.log(9.999), size))


@pytest.mark.parametrize("regime", ["near_zero", "near_ten", "mixed"])
def test_inversion_table_matches_masked_loop(regime):
    # The second draw of a sampler deepens its table past row 0 and every
    # later draw looks its counts up there; each must be the masked loop's,
    # bit for bit.
    for seed in range(40):
        shape = np.random.default_rng(seed)
        lam = _inversion_regime(regime, shape, int(shape.integers(1, 400)))
        sampler = _CountSampler(lam)
        ours, theirs = np.random.default_rng(2000 + seed), np.random.default_rng(2000 + seed)
        for draw in range(3):
            np.testing.assert_array_equal(sampler.draw(ours), _masked_inversion(lam, theirs))
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert (len(sampler.rows) == 1) == (draw == 0)


def _deepened(lam):
    """A sampler of ``lam`` after two draws, so its table is at full depth."""
    sampler = _CountSampler(lam)
    rng = np.random.default_rng(0)
    sampler.draw(rng)
    sampler.draw(rng)
    return sampler


class _FixedUniforms:
    """A generator stand-in whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("u", [np.nextafter(1.0, 0.0), 2.0])
def test_inversion_table_hands_lanes_past_it_to_the_search(u):
    # A uniform above a lane's largest cum pushes it past the table's last
    # row and on until its term underflows; a lane whose term underflows
    # inside the table meets its +inf entries.
    lam = np.array([1e-150, 1e-15, 1e-8, 0.3, 1.0, 4.0, 9.0, np.nextafter(10.0, 0.0)])
    uniforms = np.full(lam.size, u)
    sampler = _CountSampler(lam)
    reference = _masked_inversion(lam, _FixedUniforms(uniforms))
    for draw in range(2):
        np.testing.assert_array_equal(sampler.draw(_FixedUniforms(uniforms)), reference)
    past = reference >= sampler.rows.shape[0]
    assert past[5:].all()
    if u > 1.0:
        # lam = 1e-150: the third term underflows, so row 3 is +inf; the
        # terms of 1e-15 and 1e-8 underflow inside the table too.
        assert reference[0] == 3 and not past[:3].any() and past[3:].all()


def test_inversion_lookup_is_exact_at_the_head_boundary():
    # A lane whose uniform equals its last head row stops in the head; one
    # just above it goes on to the rest of the table.  Both must count as
    # the sequential search does, as must a table shallower than the head.
    lam = np.array([3.0, 3.0, 3.0, 9.5, 1e-3])
    sampler = _deepened(lam)
    last = sampler.rows[_TABLE_HEAD - 1]
    uniforms = np.array([
        last[0], np.nextafter(last[1], 2.0), np.nextafter(last[2], 0.0), 0.999, 0.5,
    ])
    counts = sampler.lookup(uniforms)
    np.testing.assert_array_equal(counts, _masked_inversion(lam, _FixedUniforms(uniforms)))
    assert counts[0] == _TABLE_HEAD - 1 and counts[1] == _TABLE_HEAD
    shallow = _deepened(np.full(3, 1e-6))
    assert shallow.rows.shape[0] < _TABLE_HEAD
    u = np.array([0.1, 1.0 - 1e-7, np.nextafter(1.0, 0.0)])
    np.testing.assert_array_equal(
        shallow.lookup(u), _masked_inversion(np.full(3, 1e-6), _FixedUniforms(u))
    )


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    lam=arrays(np.float64, st.integers(1, 60), elements=st.one_of(
        st.floats(_SAMPLER_SPLIT, 1e3), st.floats(1e3, 2.0**61),
    )),
    seed=st.integers(0, 2**64 - 1),
)
def test_ptrs_leaves_the_generator_where_two_draws_per_round_would(lam, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    constants = _ptrs_constants(lam)
    np.testing.assert_array_equal(
        _poisson_transformed_rejection(lam, ours, constants),
        reference_ptrs(lam, theirs, constants),
    )
    assert ours.random() == theirs.random()


class _UniformStream:
    """A generator stand-in whose ``random`` hands out the next uniforms of a stream."""

    def __init__(self, u):
        self.u, self.used = np.asarray(u, dtype=float), 0

    def random(self, size):
        self.used += size
        assert self.used <= self.u.size
        return self.u[self.used - size:self.used].copy()


def test_ptrs_takes_each_branch_as_the_reference_does():
    # Round one at lam = 10, lane by lane: squeeze accept; squeeze reject
    # (us < 0.013, v > us); k < 0 with v = 0, where the log test's sides are
    # both -inf and only k's sign rejects; log-test accept; log-test
    # reject; a zero uniform for u (us = 0, k = -inf); a zero v that the log
    # test accepts.  The four rejected lanes take round two's uniforms and
    # are accepted by the squeeze at k = 10.
    lam = np.full(7, 10.0)
    round_one = [0.5, 0.995, 0.001, 0.5, 0.8, 0.0, 0.95,
                 0.1, 0.5, 0.0, 0.8, 0.95, 0.3, 0.0]
    stream = round_one + [0.5] * 4 + [0.1] * 4
    constants = _ptrs_constants(lam)
    ours, theirs = _UniformStream(stream), _UniformStream(stream)
    counts = _poisson_transformed_rejection(lam, ours, constants)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = reference_ptrs(lam, theirs, constants)
    np.testing.assert_array_equal(counts, expected)
    np.testing.assert_array_equal(counts, [10, 10, 10, 10, 10, 10, 17])
    assert ours.used == theirs.used == len(stream)


def test_inversion_table_counts_fit_in_uint8():
    # A lookup counts rows in uint8, so the deepest table, just below the
    # split at 10, must have fewer than 256 rows.
    sampler = _deepened(np.array([np.nextafter(_SAMPLER_SPLIT, 0.0)]))
    assert sampler.rows.shape[0] < 256


def test_poisson_counts_draws_as_before():
    # Counts and generator state of both branches, taken from the one-shot
    # sampler before per-design samplers existed.
    lam = np.exp(np.random.default_rng(5).uniform(np.log(1e-6), np.log(1e4), 500))
    rng = np.random.default_rng(11)
    counts = poisson_counts(lam, rng)
    assert hashlib.sha256(counts.tobytes()).hexdigest() == (
        "01dd556903e5586e75c90e7ebb16498ecc90e19652ea873b1dce1247650b6ee6"
    )
    assert rng.bit_generator.state["state"] == {
        "state": 299304154746140065633313718946618603358,
        "inc": 7937318808080196428804369945471644491,
    }


def _kept_sampler(X):
    kept = X.__dict__.get("_count_sampler")
    return None if kept is None else kept[1]


def test_simulate_keeps_one_sampler_per_design():
    X = DesignMatrix(np.random.default_rng(3).standard_normal((300, 3)))
    beta = CoefVector([1.5, -1.0, 0.5])
    first = simulate(X, beta, 17)
    sampler = _kept_sampler(X)
    # A design drawn once keeps its table at row 0 alone.
    assert sampler is not None and len(sampler.rows) == 1
    second = simulate(X, beta, 17)
    assert _kept_sampler(X) is sampler and len(sampler.rows) > 1
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(simulate(X, beta, 17), first)
    # Another beta_star replaces the design's sampler; equal values share it.
    simulate(X, CoefVector([1.0, 0.0, 0.0]), 17)
    assert _kept_sampler(X) is not sampler
    kept = _kept_sampler(X)
    simulate(X, CoefVector([1.0, 0.0, 0.0]), 18)
    assert _kept_sampler(X) is kept


def test_simulate_never_keeps_a_failing_sampler():
    # exp(43) is above 2**62; the sampler fails to build on every call.
    X = DesignMatrix([[1.0], [0.0]])
    beta = CoefVector([43.0])
    for _ in range(3):
        with pytest.raises(ValueError, match=r"\(0, 2\*\*62\)"):
            simulate(X, beta, 1)
        assert _kept_sampler(X) is None


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
    # A read-only array that owns its data is shared, not copied again; a
    # read-only view is copied, since its base may be writeable.
    assert DesignMatrix(X.values).values is X.values
    row = CoefVector(X.values[0]).values
    assert row.flags.owndata and not np.shares_memory(row, X.values)
    # A read-only array of another dtype is converted, which copies it.
    ints = np.array([1, 2])
    ints.flags.writeable = False
    converted = CoefVector(ints).values
    assert converted.dtype == float and not np.shares_memory(converted, ints)
    listed = [1.0, -2.0]
    beta = CoefVector(listed)
    listed[0] = 5.0
    assert beta.values[0] == 1.0 and not beta.values.flags.writeable


def test_design_does_not_share_a_read_only_view_of_a_writeable_base():
    # A shared view used to follow its base, so the design changed under its
    # kept count sampler and cached SVD.
    base = np.zeros((4, 1))
    view = base.view()
    view.flags.writeable = False
    X = DesignMatrix(view)
    beta = CoefVector([1.0])
    first = simulate(X, beta, 1)
    base[:] = 3.0
    np.testing.assert_array_equal(X.values, 0.0)
    np.testing.assert_array_equal(X.singular_values, [0.0])
    np.testing.assert_array_equal(simulate(X, beta, 1), first)
