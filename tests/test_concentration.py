"""Stirling numbers, Poisson raw moments, the Bernstein bound, population Gram."""

import math
import numpy as np
import pytest

from signlasso import (
    CoefVector,
    DegenerateWeightError,
    DesignMatrix,
    RangeError,
    bernstein_tail,
    blocked_gram,
    build_working_problem,
    oracle_perturbation,
    poisson_raw_moment,
    population_gram,
    stirling2,
)
from signlasso.model import poisson_counts


def _partitions_count(ell: int, blocks: int) -> int:
    """Brute-force count of set partitions of {0..ell-1} into `blocks` parts."""

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for k in range(len(sub)):
                yield sub[:k] + [[first] + sub[k]] + sub[k + 1 :]
            yield [[first]] + sub

    return sum(1 for part in partitions(list(range(ell))) if len(part) == blocks)


def test_base_cases():
    assert stirling2(1, 1) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7


def test_matches_brute_force_partition_enumeration():
    for ell in range(1, 8):
        for i in range(1, ell + 1):
            assert stirling2(ell, i) == _partitions_count(ell, i)


def test_recurrence_everywhere_in_range():
    for ell in range(2, 21):
        for i in range(1, ell + 1):
            left = i * stirling2(ell - 1, i) if i <= ell - 1 else 0
            right = stirling2(ell - 1, i - 1) if i >= 2 else 0
            assert stirling2(ell, i) == left + right


def test_row_sums_bounded_by_factorial():
    # Row sums are the Bell numbers; each is at most ell!.
    assert sum(stirling2(4, i) for i in range(1, 5)) == 15 <= math.factorial(4)
    for ell in range(1, 21):
        assert sum(stirling2(ell, i) for i in range(1, ell + 1)) <= math.factorial(ell)


def test_range_guard():
    with pytest.raises(RangeError):
        stirling2(21, 1)
    with pytest.raises(RangeError):
        stirling2(5, 0)
    with pytest.raises(RangeError):
        stirling2(5, 6)


def test_exact_integers_at_the_top_of_the_range():
    # Values near the top of the range are 13-14 digit integers; keep them as
    # Python ints and spot-check exactness via the recurrence.
    value = stirling2(20, 10)
    assert isinstance(value, int)
    assert value == 10 * stirling2(19, 10) + stirling2(19, 9)
    assert value == 5_917_584_964_655


def test_low_order_moments():
    lam = 1.7
    assert poisson_raw_moment(lam, 1) == pytest.approx(lam)
    assert poisson_raw_moment(lam, 2) == pytest.approx(lam + lam**2)
    assert poisson_raw_moment(lam, 3) == pytest.approx(lam + 3 * lam**2 + lam**3)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_raw_moment_rejects_a_bad_intensity(lam):
    # An infinite intensity used to give an infinite moment.
    with pytest.raises(ValueError, match="finite and positive"):
        poisson_raw_moment(lam, 2)


@pytest.mark.parametrize(
    "lam", [1e200, np.float64(1e200), 1e154], ids=["float", "numpy_float", "cube_overflows"]
)
def test_raw_moment_rejects_an_overflowing_moment(lam):
    # A Python float raised OverflowError and a numpy float gave inf.
    with pytest.raises(ValueError, match="overflows"):
        poisson_raw_moment(lam, 3)


def test_moment_recursion_identity():
    # E[Y^{l+1}] = lam * sum_k C(l, k) E[Y^k] with E[Y^0] = 1.
    for lam in (0.3, 1.0, 2.5, 7.0):
        for ell in range(1, 9):
            moments = [1.0] + [poisson_raw_moment(lam, k) for k in range(1, ell + 1)]
            rhs = lam * sum(math.comb(ell, k) * moments[k] for k in range(ell + 1))
            assert poisson_raw_moment(lam, ell + 1) == pytest.approx(rhs, rel=1e-9)


def test_moment_against_monte_carlo():
    rng = np.random.default_rng(311)
    lam = 2.5
    draws = poisson_counts(np.full(2_000_000, lam), rng).astype(float)
    for ell in (2, 3, 4):
        sample = draws**ell
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - poisson_raw_moment(lam, ell)) < 4 * se


def test_bernstein_limit_and_value():
    tiny = bernstein_tail(nu=1.0, c=1.0, t=1e-12)
    assert tiny == pytest.approx(2.0, abs=1e-9)
    value = bernstein_tail(nu=1.0, c=1e-12, t=2.0)
    assert value == pytest.approx(2.0 * math.exp(-2.0), rel=1e-9)


def test_bernstein_monotonicity():
    base = bernstein_tail(1.0, 0.5, 1.0)
    assert bernstein_tail(1.0, 0.5, 2.0) < base
    assert bernstein_tail(2.0, 0.5, 1.0) > base
    assert bernstein_tail(1.0, 1.0, 1.0) > base


@pytest.mark.parametrize("nu, c, t", [
    (0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0),
    (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.inf),
])
def test_bernstein_tail_rejects_a_bad_parameter(nu, c, t):
    # nu = nan used to give a NaN bound and nu = inf the vacuous bound 2.
    with pytest.raises(ValueError, match="finite and positive"):
        bernstein_tail(nu, c, t)


def _projection_instance(rng, n=40, p=3, q=1):
    X = DesignMatrix(0.5 * rng.standard_normal((n, p)))
    beta = np.zeros(p)
    beta[:q] = [0.8, -0.6][:q]
    beta_star = CoefVector(beta)
    pg = population_gram(X, beta_star, beta_star.support)
    return X, beta_star, pg


def test_bernstein_dominates_empirical_projection_tails():
    # The scaled active-block projection of the centered counts: the tail of
    # |sum_k G_jk (Y_k - lam_k)/sqrt(lam_k)| must sit below the bound built
    # from nu = 2*lambda_bar/lambda_min(C11*) and c = sqrt(lambda_bar/(n*lmin)).
    rng = np.random.default_rng(313)
    X, beta_star, pg = _projection_instance(rng)
    n = X.n
    lam = pg.lambda_star
    lmin = float(np.linalg.eigvalsh(pg.gram.C11)[0])
    nu = 2.0 * pg.lambda_bar / lmin
    c = math.sqrt(pg.lambda_bar / (n * lmin))
    x1 = X.values[:, pg.gram.active_idx]
    G = np.linalg.solve(pg.gram.C11, x1.T * np.sqrt(lam)) / n

    replicates = 100_000
    lam_matrix = np.tile(lam, replicates)
    counts = poisson_counts(lam_matrix, rng).reshape(replicates, n)
    centered = (counts - lam) / np.sqrt(lam)
    sums = centered @ G[0]

    # Verify the moment hypotheses hold for the tested range of orders using
    # exact Poisson moments (they hold for all orders by the same algebra).
    for ell in range(3, 11):
        total = sum(
            (abs(G[0, k]) / math.sqrt(lam[k])) ** ell * poisson_raw_moment(lam[k], ell)
            for k in range(n)
        )
        assert total <= math.factorial(ell) / 2.0 * nu * c ** (ell - 2) * (1 + 1e-12)
    assert np.sum(G[0] ** 2 * (1.0 + lam)) <= nu * (1 + 1e-12)

    for t in np.linspace(0.05, 3.0, 12):
        bound = bernstein_tail(nu, c, float(t))
        freq = float(np.mean(np.abs(sums) >= t))
        allowance = 2.33 * math.sqrt(max(bound * (1 - bound), 1e-12) / replicates)
        assert freq <= min(bound, 1.0) + allowance


def test_population_gram_equals_blocked_gram_at_truth():
    rng = np.random.default_rng(317)
    X = DesignMatrix(0.4 * rng.standard_normal((30, 3)))
    beta_star = CoefVector([0.9, 0.0, -0.4])
    support = beta_star.support
    problem = build_working_problem(X, beta_star, rng.integers(0, 5, 30))
    bg = blocked_gram(problem, support)
    pg = population_gram(X, beta_star, support)
    assert np.array_equal(pg.gram.C, bg.C)
    assert pg.lambda_bar == pytest.approx(max(1.0, float(np.max(pg.lambda_star))))


def test_population_gram_single_observation():
    X = DesignMatrix([[2.0]])
    beta_star = CoefVector([0.5])
    pg = population_gram(X, beta_star, [0])
    assert pg.gram.C11[0, 0] == pytest.approx(math.exp(1.0) * 4.0)


def test_population_gram_obeys_the_weight_floor():
    # exp(-30) is below the working problem's weight floor of 1e-12.
    with pytest.raises(DegenerateWeightError):
        population_gram(DesignMatrix([[1.0], [-1.0]]), CoefVector([30.0]), [0])


def test_active_gap_shrinks_along_fixed_design_sequence():
    # A fixed infinite design stream, truth-perturbed expansion points at
    # scale delta/n: the active-block gap must shrink at least like n^{-0.8}.
    rng = np.random.default_rng(331)
    n_max = 10_000
    stream = 0.5 * rng.standard_normal((n_max, 3))
    beta_star = CoefVector([0.7, -0.5, 0.0])
    support = beta_star.support
    gaps = []
    sizes = [100, 1000, 10_000]
    for n in sizes:
        X = DesignMatrix(stream[:n])
        beta_tilde = oracle_perturbation(beta_star, n, 2.0, 17)
        problem = build_working_problem(X, beta_tilde, np.zeros(n, dtype=int))
        bg = blocked_gram(problem, support)
        pg = population_gram(X, beta_star, support)
        gaps.append(np.linalg.norm(bg.C11 - pg.gram.C11, 2))
    slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
    assert slope <= -0.8
