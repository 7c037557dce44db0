"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criterion 4 pins exact recovery rates from a frozen pilot run of
the canonical configuration; those numbers are regression values, not
tolerances.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    dense_grid_oracle,
    fd_gradient,
    make_instance,
    refined_grid_oracle,
)
from signlasso import (
    CoefVector,
    DesignMatrix,
    DesignSpec,
    ExperimentConfig,
    SolverConfig,
    bernstein_tail,
    blocked_gram,
    build_working_problem,
    check_assumptions,
    fit,
    irrepresentable_vector,
    kkt_check,
    population_gram,
    proposition_diagnostics,
    run_experiment,
    score_and_hessian,
    stirling2,
)
from signlasso.cli import main as cli_main
from signlasso.concentration import poisson_raw_moment
from signlasso.model import poisson_counts


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {title}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {title}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. Solver-oracle equivalence
# ---------------------------------------------------------------------------


@criterion(1, "solver objective matches dense grid oracle on 200 instances")
def test_acceptance_solver_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    alphas = [0.0, 0.5, 2.0]
    for k in range(200):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(max(p + 3, 8), 31))
        q = int(rng.integers(1, p + 1))
        inst = make_instance(rng, n=n, p=p, q=q)
        alpha = alphas[k % 3]
        result = fit(inst["problem"], SolverConfig(alpha=alpha, kkt_tol=1e-6))
        assert result.converged
        report = kkt_check(inst["problem"], result.beta_hat, alpha, 1e-6)
        assert report.all_passed
        if p <= 2:
            oracle_val, _ = dense_grid_oracle(inst["problem"], alpha, step=5e-3)
        else:
            oracle_val, _ = refined_grid_oracle(inst["problem"], alpha)
        assert result.objective <= oracle_val + 1e-5, (
            f"instance {k}: solver {result.objective} above oracle {oracle_val}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 1 minute"


# ---------------------------------------------------------------------------
# 2. KKT contract
# ---------------------------------------------------------------------------


@criterion(2, "every converged fit is KKT-certified; null threshold within 1%")
def test_acceptance_kkt_contract():
    rng = np.random.default_rng(1002)
    for _ in range(30):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 5, 40))
        inst = make_instance(rng, n=n, p=p, q=int(rng.integers(1, p + 1)))
        alpha = float(rng.uniform(0.0, 3.0))
        result = fit(inst["problem"], SolverConfig(alpha=alpha))
        if result.converged:
            assert kkt_check(inst["problem"], result.beta_hat, alpha,
                             result.kkt_report.kkt_tol).all_passed

    for seed in (2, 3, 4, 5, 6):
        inst = make_instance(np.random.default_rng(seed), n=25, p=3, q=2)
        problem = inst["problem"]
        alpha0 = 2.0 * float(np.max(np.abs(problem.x_work.T @ problem.y_work)))

        def is_null(alpha):
            res = fit(problem, SolverConfig(alpha=alpha))
            return bool(np.all(res.beta_hat.values == 0.0))

        lo, hi = 0.0, 4.0 * alpha0
        assert is_null(hi) and not is_null(lo)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if is_null(mid):
                hi = mid
            else:
                lo = mid
        assert abs(hi - alpha0) <= 0.01 * alpha0


# ---------------------------------------------------------------------------
# 3. Event dominance over 500 randomized instances
# ---------------------------------------------------------------------------


@criterion(3, "joint events imply sign recovery over 500 instances; "
              "candidate minimizer is KKT-feasible")
def test_acceptance_event_dominance():
    start = time.monotonic()
    rng = np.random.default_rng(1003)
    events = 0
    for _ in range(500):
        p = int(rng.integers(2, 7))
        q = int(rng.integers(1, min(p, 3) + 1))
        n = int(rng.integers(40, 150))
        inst = make_instance(
            rng, n=n, p=p, q=q,
            rho=float(rng.choice([0.0, 0.2, 0.4])),
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
        assert result.converged
        assert np.array_equal(result.beta_hat.signs(), inst["beta_star"].signs()), (
            "events held but the solver's signs disagree with the truth"
        )
        assert kkt_check(problem, diag.beta_check, alpha, 1e-6).all_passed
    assert events >= 50, f"only {events} event-positive instances; sweep is too weak"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"criterion 3 runtime {elapsed:.1f}s exceeds 5 minutes"


# ---------------------------------------------------------------------------
# 4. Recovery-rate trend on the canonical configuration
# ---------------------------------------------------------------------------

CANONICAL_CONFIG = dict(
    design=DesignSpec(kind="correlated_gaussian", rho=0.2, scale=1.0),
    beta_star=None,  # filled below; CoefVector is not hashable for dict reuse
    n_grid=(250, 1000, 4000),
    c1=1.0,
    c2=0.5,
    alpha_coef=1.0,
    replicates=200,
    seed=20260811,
    beta_tilde_mode="oracle:1.0",
)

# Frozen by the pilot run of the canonical configuration (seed 20260811).
PILOT_RECOVERY = {250: 0.555, 1000: 0.79, 4000: 0.955}
PILOT_EVENT = {250: 0.41, 1000: 0.705, 4000: 0.93}


def _isotonic_residual(rates):
    blocks = []
    for value in rates:
        blocks.append([value, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2 = blocks.pop()
            v1, w1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    fitted = []
    for value, weight in blocks:
        fitted.extend([value] * weight)
    return max(abs(a - b) for a, b in zip(rates, fitted))


@criterion(4, "canonical experiment: recovery rate rises toward 1 with n")
def test_acceptance_recovery_trend():
    start = time.monotonic()
    config = ExperimentConfig(
        **{**CANONICAL_CONFIG, "beta_star": CoefVector([1.0, -1.0, 0, 0, 0, 0])}
    )
    result = run_experiment(config)
    assert not result.failures
    rates = [row.recovery_rate for row in result.summary]
    assert _isotonic_residual(rates) <= 2.0 / math.sqrt(config.replicates)
    assert rates[-1] - rates[0] > 0.0
    for row in result.summary:
        assert row.recovery_rate == PILOT_RECOVERY[row.n], (
            f"n={row.n}: recovery {row.recovery_rate} drifted from the pilot "
            f"value {PILOT_RECOVERY[row.n]}"
        )
        assert row.event_rate == PILOT_EVENT[row.n]
        assert row.recovery_rate >= row.event_rate
    # Replicate-level dominance, zero tolerance.
    for rec in result.records:
        if rec.An and rec.Bn:
            assert rec.sign_match
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"criterion 4 runtime {elapsed:.1f}s exceeds 10 minutes"


# ---------------------------------------------------------------------------
# 5. Conditions engine exactness
# ---------------------------------------------------------------------------


@criterion(5, "conditions engine: orthogonal margins, 2x2 closed form, reassembly")
def test_acceptance_conditions_engine():
    # Orthogonal design: the irrepresentability vector vanishes identically.
    H = np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=float)
    problem = build_working_problem(
        DesignMatrix(H), CoefVector([0.0, 0.0]), np.zeros(4, dtype=int)
    )
    beta_star = CoefVector([1.0, 0.0])
    report = check_assumptions(DesignMatrix(H), blocked_gram(problem, [0]), beta_star, None)
    assert report.irrep_margin == 1.0
    d = irrepresentable_vector(blocked_gram(problem, [0]), beta_star)
    assert np.all(d == 0.0)

    # Two correlated predictors: closed-form block algebra at 1e-10.
    rng = np.random.default_rng(1005)
    n = 60
    x1 = rng.standard_normal(n)
    x2 = 0.45 * x1 + rng.standard_normal(n)
    X = DesignMatrix(np.column_stack([x1, x2]))
    beta_star = CoefVector([0.7, 0.0])
    problem = build_working_problem(X, beta_star, rng.integers(0, 4, n))
    lam = problem.lambda_tilde
    expected = 1.0 - abs(float(np.sum(lam * x2 * x1)) / float(np.sum(lam * x1 * x1)))
    report = check_assumptions(X, blocked_gram(problem, [0]), beta_star, None)
    assert report.irrep_margin == pytest.approx(expected, abs=1e-10)

    # Exact reassembly of the blocks.
    inst = make_instance(rng, n=35, p=5, q=2)
    bg = blocked_gram(inst["problem"], inst["beta_star"].support)
    assert np.array_equal(np.block([[bg.C11, bg.C12], [bg.C21, bg.C22]]), bg.C)


# ---------------------------------------------------------------------------
# 6. Concentration module
# ---------------------------------------------------------------------------


@criterion(6, "Stirling identities, 10^7-draw moment checks, Bernstein dominance")
def test_acceptance_concentration():
    for ell in range(2, 21):
        for i in range(1, ell + 1):
            left = i * stirling2(ell - 1, i) if i <= ell - 1 else 0
            right = stirling2(ell - 1, i - 1) if i >= 2 else 0
            assert stirling2(ell, i) == left + right
    for ell in range(1, 21):
        assert sum(stirling2(ell, i) for i in range(1, ell + 1)) <= math.factorial(ell)

    rng = np.random.default_rng(1006)
    for lam in (1.0, 2.5):
        draws = poisson_counts(np.full(10_000_000, lam), rng).astype(float)
        for ell in (2, 3, 4):
            powered = draws**ell
            se = powered.std(ddof=1) / math.sqrt(powered.size)
            expected = poisson_raw_moment(lam, ell)
            assert abs(powered.mean() - expected) < 4 * se, (
                f"lam={lam}, ell={ell}: {powered.mean()} vs {expected} (se {se})"
            )
        del draws

    # Bernstein dominance on the active-block projection of centered counts.
    X = DesignMatrix(0.5 * np.random.default_rng(7).standard_normal((40, 3)))
    beta_star = CoefVector([0.8, -0.6, 0.0])
    pg = population_gram(X, beta_star, beta_star.support)
    n = X.n
    lam = pg.lambda_star
    lmin = float(np.linalg.eigvalsh(pg.gram.C11)[0])
    nu = 2.0 * pg.lambda_bar / lmin
    c = math.sqrt(pg.lambda_bar / (n * lmin))
    x1 = X.values[:, pg.gram.active_idx]
    G = np.linalg.solve(pg.gram.C11, x1.T * np.sqrt(lam)) / n

    replicates = 100_000
    counts = poisson_counts(np.tile(lam, replicates), rng).reshape(replicates, n)
    sums = ((counts - lam) / np.sqrt(lam)) @ G[0]
    for t in np.linspace(0.05, 3.0, 12):
        bound = bernstein_tail(nu, c, float(t))
        freq = float(np.mean(np.abs(sums) >= t))
        allowance = 2.33 * math.sqrt(max(bound * (1 - bound), 1e-12) / replicates)
        assert freq <= min(bound, 1.0) + allowance, f"t={t}: {freq} above {bound}"


# ---------------------------------------------------------------------------
# 7. Score and Hessian checks
# ---------------------------------------------------------------------------


@criterion(7, "analytic score matches finite differences; Hessian is NSD")
def test_acceptance_score_and_hessian():
    rng = np.random.default_rng(1007)
    for _ in range(50):
        n = int(rng.integers(5, 51))
        p = int(rng.integers(1, 6))
        X = DesignMatrix(0.5 * rng.standard_normal((n, p)))
        beta = CoefVector(0.4 * rng.standard_normal(p))
        y = rng.integers(0, 6, n)
        grad, hess = score_and_hessian(X, beta, y)
        approx = fd_gradient(X, beta, y)
        scale = max(1.0, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - approx)) / scale < 1e-5
        assert np.all(np.linalg.eigvalsh(hess) <= 1e-10)


# ---------------------------------------------------------------------------
# 8. CLI determinism across thread counts
# ---------------------------------------------------------------------------


@criterion(8, "simulate artifacts byte-identical across reruns and thread counts")
def test_acceptance_cli_determinism(tmp_path):
    config = {
        "design": {"kind": "correlated_gaussian", "rho": 0.2, "scale": 1.0},
        "beta_star": [1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        "n_grid": [250, 500],
        "c1": 1.0,
        "c2": 0.5,
        "alpha_coef": 1.0,
        "replicates": 40,
        "seed": 555,
        "beta_tilde_mode": "oracle:1.0",
        "tau": 0.3,
    }
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config))
    outputs = {}
    for label, threads in (("serial", "1"), ("rerun", "1"), ("threaded", "8")):
        out = tmp_path / label
        code = cli_main([
            "simulate", "--config", str(config_path),
            "--out", str(out), "--threads", threads,
        ])
        assert code == 0
        outputs[label] = {
            name: (out / name).read_bytes()
            for name in ("results.csv", "summary.csv", "report.json")
        }
    assert outputs["serial"] == outputs["rerun"]
    assert outputs["serial"] == outputs["threaded"]
