"""ln k! and the Cholesky solves have scipy's bits without importing scipy.

``model._ln_factorial`` ports cephes' ``lgam`` and ``model._lapack`` calls
the LAPACK in scipy's bundled OpenBLAS through ctypes; scipy's own
``gammaln`` and ``scipy.linalg``'s ``potrf``/``potrs`` are the oracles.
"""

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs
from scipy.special import gammaln

from signlasso import blas, model
from signlasso.cli import main
from signlasso.fileio import write_counts_csv, write_matrix_csv, write_vector_csv
from signlasso.model import (
    _LN_FACTORIAL_CAP,
    _cholesky_solver,
    _lgam,
    _ln_factorial,
    _poisson_transformed_rejection,
    _ptrs_constants,
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_ln_factorial_is_gammaln_on_every_k_to_two_million():
    # Past the table's cap, so every k is evaluated by _lgam.
    k = np.arange(2_000_001)
    assert same_bits(_ln_factorial(k), gammaln(k + 1.0))
    # Inside the cap, from the table; float k as PTRS passes them.
    k = np.arange(_LN_FACTORIAL_CAP)
    assert same_bits(_ln_factorial(k), gammaln(k + 1.0))
    assert same_bits(_ln_factorial(k[::-1].astype(float)), gammaln(k[::-1] + 1.0))


def test_ln_factorial_is_gammaln_on_random_k_to_two_to_the_62():
    k = np.random.default_rng(28).integers(0, 2**62, 100_000)
    assert same_bits(_ln_factorial(k), gammaln(k + 1.0))
    assert same_bits(_ln_factorial(k.astype(float)), gammaln(k.astype(float) + 1.0))


def test_lgam_is_gammaln_at_every_branch_edge():
    edges = [1.0, 2.0, 12.0, 13.0, 999.0, 1000.0, 1e8, 1e8 + 1, 2.556348e305,
             np.nextafter(2.556348e305, np.inf), 1e154, 1e155, np.inf]
    x = np.array(edges)
    with np.errstate(all="raise"):
        assert same_bits(_lgam(x), gammaln(x))


def test_ptrs_never_casts_an_infinite_or_huge_k(monkeypatch):
    # Lane 0 draws u = -0.5, so us = 0 and k = -inf; lane 1 draws the largest
    # u, so us = 2**-53 and k is about 6e20, far above 2**63.  Both are
    # rejected; the next round accepts every lane by the squeeze.
    lam = np.array([20.0, 1e12])
    first = np.array([0.0, np.nextafter(1.0, 0.0), 0.5, 0.5])

    class Uniforms:
        calls = 0

        def random(self, size):
            Uniforms.calls += 1
            return first if Uniforms.calls == 1 else np.full(size, 0.25)

    seen = []

    def recorded(k):
        seen.append(k.copy())
        return _ln_factorial(k)

    monkeypatch.setattr(model, "_ln_factorial", recorded)
    out = _poisson_transformed_rejection(lam, Uniforms(), _ptrs_constants(lam))
    assert Uniforms.calls == 2
    assert seen[0][0] == 0.0 and seen[0][1] > 2.0**63
    # A float k past the table's cap is evaluated in floats, without a cast
    # or a warning.
    with np.errstate(all="raise"):
        assert same_bits(_ln_factorial(seen[0]), gammaln(seen[0] + 1.0))
    assert np.all(np.isfinite(np.concatenate(seen)))
    assert out.dtype == np.int64 and np.all(out > 0)


def _spd(rng, n):
    m = rng.standard_normal((n + 2, n))
    return m.T @ m + 0.01 * np.eye(n)


def test_cholesky_solver_has_scipy_linalgs_bits():
    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
    rng = np.random.default_rng(2028)
    sizes = [int(n) for n in rng.integers(1, 9, 10_000)] + [200] * 4
    for i, n in enumerate(sizes):
        a = _spd(rng, n)
        rhs = rng.standard_normal(n) if i % 2 else rng.standard_normal((n, 3))
        factor, info = potrf(a, lower=True, overwrite_a=False, clean=False)
        expected, _ = potrs(factor, rhs, lower=True, overwrite_b=False)
        got = _cholesky_solver(a)(rhs)
        assert info == 0 and same_bits(got, expected), (i, n)
        assert got.flags.f_contiguous == expected.flags.f_contiguous


def test_cholesky_solver_keeps_its_errors():
    with pytest.raises(np.linalg.LinAlgError,
                       match="^2-th leading minor of the array is not positive definite$"):
        _cholesky_solver(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _cholesky_solver(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    solve = _cholesky_solver(np.eye(2))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        solve(np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="square"):
        _cholesky_solver(np.ones((2, 3)), check_finite=False)
    with pytest.raises(ValueError, match="rows"):
        solve(np.ones(3))


@pytest.fixture()
def without_scipys_openblas(monkeypatch):
    """``model._lapack`` as it is where scipy's bundled OpenBLAS is not found."""
    monkeypatch.setattr(blas, "scipy_openblas", lambda: None)
    model._lapack.cache_clear()
    yield
    model._lapack.cache_clear()


def _fit_and_check(tmp_path, out):
    rng = np.random.default_rng(11)
    x = 0.6 * rng.standard_normal((200, 4))
    beta = np.array([0.9, -0.7, 0.0, 0.0])
    write_matrix_csv(tmp_path / "X.csv", x)
    write_counts_csv(tmp_path / "Y.csv", rng.poisson(np.exp(x @ beta)))
    write_vector_csv(tmp_path / "b.csv", beta)
    data = ["--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--beta-star", str(tmp_path / "b.csv"), "--alpha", "5"]
    assert main(["fit", *data, "--out", str(out / "fit")]) == 0
    assert main(["check", *data, "--out", str(out / "check")]) == 0
    return (out / "fit" / "fit.json").read_bytes(), (out / "check" / "report.json").read_bytes()


def test_the_fallback_without_scipys_openblas_gives_the_same_bytes(tmp_path, request):
    rng = np.random.default_rng(5)
    cases = [(_spd(rng, n), rng.standard_normal((n, 2))) for n in (1, 3, 8, 200)]
    solved = [_cholesky_solver(a)(rhs) for a, rhs in cases]
    artifacts = _fit_and_check(tmp_path, tmp_path / "ctypes")
    request.getfixturevalue("without_scipys_openblas")
    assert model._lapack()[0].func is get_lapack_funcs(("potrf",), dtype=np.float64)[0]
    assert all(same_bits(_cholesky_solver(a)(rhs), x) for (a, rhs), x in zip(cases, solved))
    assert _fit_and_check(tmp_path, tmp_path / "fallback") == artifacts
