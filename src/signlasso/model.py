"""Poisson log-linear model primitives.

Intensities, log-likelihood, score/Hessian, and an exact count sampler.
The model is Y_i ~ Poisson(lambda_i) with lambda_i = exp(x_i beta) and no
offset or implicit intercept; an intercept must be an explicit all-ones
column of the design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from . import blas

# Linear predictors above this raise OverflowError.  Downstream code squares
# and inverts the intensities, so guard at half the representable exponent.
MAX_LINEAR_PREDICTOR = 0.5 * math.log(np.finfo(float).max)

# |beta_j| at or below this counts as zero for supports and signs.  The
# coordinate-descent solver produces exact zeros; the tolerance only absorbs
# float noise from other estimators.
ZERO_TOL = 1e-10

# Intensity threshold between the sequential-search and transformed-rejection
# branches of the count sampler.
_SAMPLER_SPLIT = 10.0

# The count sampler accepts intensities below this bound: it leaves about 2e9
# standard deviations of room below 2**63, so every draw fits in int64.
_MAX_INTENSITY = 2.0**62


def _as_readonly(values, dtype=float) -> np.ndarray:
    """A read-only ``dtype`` array of ``values``.

    Shared if it already is one that owns its data, else a copy: a read-only
    view of a writeable base would still change when the base is written.
    """
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and not values.flags.writeable and values.flags.owndata):
        return values
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _freeze(*arrays: np.ndarray) -> None:
    """Mark arrays a builder just made read-only, so its container shares them."""
    for a in arrays:
        a.flags.writeable = False


@cache
def _lapack() -> tuple:
    """``(potrf, potrs)``: the float64 Cholesky factor and solve of scipy's LAPACK.

    ``potrf(a)`` returns ``(factor, info)``, ``factor`` holding the lower
    factor of a copy of the square ``a`` in Fortran order; ``potrs(factor,
    b)`` returns ``(x, info)``, ``x`` the Fortran-ordered solution of the
    factored system for the 1-D or 2-D ``b``.  They call ``scipy_dpotrf_``
    and ``scipy_dpotrs_`` through ctypes in the OpenBLAS that scipy
    bundles: the library that ``scipy.linalg``'s own ``potrf`` and
    ``potrs`` call, so the factors and solutions have their bits, and scipy
    is not imported.  numpy's bundled OpenBLAS has a LAPACK too, whose bits
    differ; it is not used.  Where scipy's library is not found, they are
    ``scipy.linalg``'s functions.
    """
    lib = blas.scipy_openblas()
    if lib is None:
        from scipy.linalg import get_lapack_funcs

        potrf, potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
        return (partial(potrf, lower=True, overwrite_a=False, clean=False),
                partial(potrs, lower=True, overwrite_b=False))

    import ctypes

    # LP64 Fortran arguments, each by reference: ('L', n, a, lda, info) and
    # ('L', n, nrhs, a, lda, b, ldb, info), then the hidden length of 'L'.
    # Every argument is a ctypes object of its C type, which ctypes passes as
    # it is; declared argtypes would convert each one on every call, about
    # half the cost of a call.  A factor is held with the references its
    # solves pass, and the references of a size are made once.
    c_int, byref = ctypes.c_int, ctypes.byref
    dpotrf, dpotrs = lib.scipy_dpotrf_, lib.scipy_dpotrs_
    dpotrf.restype = dpotrs.restype = None
    uplo, uplo_len = ctypes.c_char_p(b"L"), ctypes.c_size_t(1)
    info = c_int()
    info_ref, refs = byref(info), {}

    def sizes(n: int) -> tuple:
        """``n`` and the leading dimension ``max(n, 1)``, by reference."""
        found = refs.get(n)
        if found is None:
            found = refs[n] = (byref(c_int(n)), byref(c_int(max(n, 1))))
        return found

    one = sizes(1)[0]
    # An array's buffer as a pointer argument.  ``.T`` of a Fortran-ordered
    # array is the C-contiguous view that from_buffer takes.
    buffer = (ctypes.c_char * 0).from_buffer

    def potrf(a):
        factor = np.array(a, dtype=np.float64, order="F")
        shape = factor.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"expected a square matrix, got shape {shape}")
        (n_ref, ld), at = sizes(shape[0]), buffer(factor.T)
        dpotrf(uplo, n_ref, at, ld, info_ref, uplo_len)
        return (factor, at, n_ref, ld), info.value

    def potrs(held, b):
        factor, at, n_ref, ld = held
        x = np.array(b, dtype=np.float64, order="F")
        shape = x.shape
        if not 1 <= len(shape) <= 2 or shape[0] != factor.shape[0]:
            raise ValueError(f"expected {factor.shape[0]} rows in the right-hand side, "
                             f"got shape {shape}")
        if len(shape) == 1:
            dpotrs(uplo, n_ref, one, at, ld, buffer(x), ld, info_ref, uplo_len)
        else:
            dpotrs(uplo, n_ref, sizes(shape[1])[0], at, ld, buffer(x.T), ld, info_ref,
                   uplo_len)
        return x, info.value

    return potrf, potrs


# cephes' lgam, the code behind scipy.special.gammaln, at x >= 1: the log of
# an exact product below 13, then Stirling's series with these constants.
_LS2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
# ln k! for k = 0..11, the log of the exact product lgam forms below 13.
_LN_SMALL_FACTORIALS = np.array([math.log(float(math.factorial(k))) for k in range(12)])
# The table of ln k! grows on demand to a power of two up to this length;
# a larger k is computed on each call.
_LN_FACTORIAL_CAP = 1 << 16


def _lgam(x: np.ndarray) -> np.ndarray:
    """cephes' ``lgam`` at the integer-valued floats ``x >= 1``, bit for bit.

    Its arithmetic in its order, with glibc's ``log`` (``math.log``):
    numpy's vectorised ``np.log`` rounds some arguments the other way.
    """
    log_x = np.array([math.log(v) for v in x.tolist()])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        q = (x - 0.5) * log_x - x + _LS2PI
        p = 1.0 / (x * x)
        a0, a1, a2, a3, a4 = _LGAM_A
        series = np.where(
            x >= 1000.0,
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333,
            (((a0 * p + a1) * p + a2) * p + a3) * p + a4,
        )
        out = np.where(x > 1.0e8, q, q + series / x)
    out[x > _MAXLGM] = math.inf
    small = x < 13.0
    out[small] = _LN_SMALL_FACTORIALS[(x[small] - 1.0).astype(np.intp)]
    return out


# ln k! for every k below its length, grown by ``_ln_factorial``.  Its
# entries are fixed numbers, so every caller may share it.
_ln_factorials = [_LN_SMALL_FACTORIALS]


def _ln_factorial(k: np.ndarray) -> np.ndarray:
    """ln k! for the nonnegative integer-valued int64 or float ``k``: ``gammaln(k + 1)``'s bits.

    Looked up in a table of ``_lgam(k + 1)`` grown on demand, one ``take``
    when every ``k`` is inside it; if the largest is past the table's cap,
    ``_lgam`` is evaluated for them all instead.  A float ``k`` is cast to
    an integer only when the table holds it.
    """
    table = _ln_factorials[0]
    top = k.max()
    if top >= table.size:
        if top >= _LN_FACTORIAL_CAP:
            return _lgam(k + 1.0)
        size = min(1 << int(top).bit_length(), _LN_FACTORIAL_CAP)
        table = np.concatenate([table, _lgam(np.arange(table.size, size) + 1.0)])
        _ln_factorials[0] = table
    return table.take(k if k.dtype.kind == "i" else k.astype(np.int64))


def _cholesky_solver(a: np.ndarray, check_finite: bool = True):
    """``solve(rhs)`` for the symmetric positive-definite ``a``, by its lower Cholesky factor.

    The LAPACK calls of ``cho_solve(cho_factor(a, lower=True), rhs)``, in
    the same library (``_lapack``), so the same bits, without those
    functions' per-call argument handling or scipy's import.
    A non-finite entry of ``a`` or of ``rhs`` raises ValueError, unless
    ``check_finite`` is false (for ``a`` here, for ``rhs`` in ``solve``):
    a caller that has checked a whole stack of them at once passes that.  A
    matrix that is not positive definite raises LinAlgError.
    """
    potrf, potrs = _lapack()
    factor, info = potrf(np.asarray_chkfinite(a) if check_finite else a)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrf")

    def solve(rhs, check_finite: bool = True):
        x, info = potrs(factor, np.asarray_chkfinite(rhs) if check_finite else rhs)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return x

    return solve


@dataclass(frozen=True)
class DesignMatrix:
    """An n x p real design matrix with row/column norm accessors."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("design matrix must be 2-D with n >= 1 and p >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("design matrix entries must be finite")
        object.__setattr__(self, "values", _as_readonly(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=1)

    def col_norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=0)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values, largest first; computed once, so all fits on X share one SVD."""
        sv = np.linalg.svd(self.values, compute_uv=False)
        _freeze(sv)
        return sv


def _kept(X: DesignMatrix, name: str, key, build):
    """``build()``, kept on ``X`` under ``name`` for the next call with an equal ``key``.

    A design carries the state that does not change between the replicates
    drawn from it; this is the one place that writes it.  Another key builds
    afresh and replaces what was kept, and a ``build`` that raises keeps
    nothing.
    """
    kept = X.__dict__.get(name)
    if kept is None or kept[0] != key:
        kept = (key, build())
        # A frozen dataclass's __dict__, written as functools.cached_property does.
        X.__dict__[name] = kept
    return kept[1]


@dataclass(frozen=True)
class CoefVector:
    """A length-p coefficient vector with tolerance-based support and signs."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size < 1:
            raise ValueError("coefficient vector must be 1-D and nonempty")
        if not np.isfinite(v).all():
            raise ValueError("coefficient entries must be finite")
        object.__setattr__(self, "values", _as_readonly(v))

    @property
    def p(self) -> int:
        return self.values.size

    @property
    def support(self) -> np.ndarray:
        """Indices (0-based, ascending) of coefficients beyond the zero tolerance."""
        return np.flatnonzero(np.abs(self.values) > ZERO_TOL)

    @property
    def q(self) -> int:
        return int(self.support.size)

    def signs(self) -> np.ndarray:
        """Componentwise signs in {-1, 0, +1}, zeros per the tolerance."""
        out = np.zeros(self.p, dtype=np.int64)
        idx = self.support
        out[idx] = np.sign(self.values[idx]).astype(np.int64)
        return out


def _check_counts(counts, n: int) -> np.ndarray:
    """``counts`` as n int64 values; each must be an integer in [0, 2**63).

    An int64 array is finite, integral and below 2**63 by its type, so it is
    only checked for sign and returned itself.
    """
    y = np.atleast_1d(np.asarray(counts))
    if y.shape != (n,):
        raise ValueError(f"counts must have length {n}, got shape {y.shape}")
    if y.dtype == np.int64:
        if y.min() < 0:
            raise ValueError("counts must be nonnegative integers")
        return y
    if not np.all(np.isfinite(y.astype(float))):
        raise ValueError("counts must be finite")
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise ValueError("counts must be nonnegative integers")
    # Checked before the cast, which would turn such a count into INT64_MIN;
    # a Python int compares exactly whatever the dtype.
    top = int(np.max(y))
    if top >= 2**63:
        raise ValueError(f"counts must be below 2**63, got {top}")
    return y.astype(np.int64)


def linear_predictor(X: DesignMatrix, beta: CoefVector) -> np.ndarray:
    """Compute eta = X beta, refusing values that would overflow exp."""
    if X.p != beta.p:
        raise ValueError(f"dimension mismatch: X has p={X.p}, beta has p={beta.p}")
    return _guarded_product(X.values, beta.values)


def _guarded_product(values: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``values @ beta``; OverflowError if an entry is above the guard or not finite.

    The guard is ``MAX_LINEAR_PREDICTOR``.  A product that overflows is
    reported by this error, not by numpy's warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        eta = values @ beta
    worst = float(eta.max())
    if worst > MAX_LINEAR_PREDICTOR:
        raise OverflowError(
            f"linear predictor {worst:.6g} exceeds the overflow guard "
            f"{MAX_LINEAR_PREDICTOR:.6g}"
        )
    # max is NaN if any entry is; -inf shows only in the min.
    if math.isnan(worst) or float(eta.min()) == -math.inf:
        raise OverflowError("linear predictor is not finite: X beta overflows")
    return eta


def intensities(X: DesignMatrix, beta: CoefVector) -> np.ndarray:
    """Componentwise exp(x_i beta); overflow raises rather than returning inf."""
    return np.exp(linear_predictor(X, beta))


def log_likelihood(X: DesignMatrix, beta: CoefVector, counts) -> float:
    """Poisson log-likelihood sum_i [y_i eta_i - exp(eta_i) - ln(y_i!)].

    The factorial constant is kept (``_ln_factorial``, the bits of scipy's
    ``gammaln(y + 1)``) so the value is the full log-density; it does not
    affect maximization over beta.
    """
    y = _check_counts(counts, X.n)
    eta = linear_predictor(X, beta)
    return float(np.sum(y * eta - np.exp(eta) - _ln_factorial(y)))


def score_and_hessian(X: DesignMatrix, beta: CoefVector, counts):
    """Gradient and Hessian of the log-likelihood at beta.

    Returns
    -------
    gradient : ndarray, shape (p,)
        X^T (y - lambda).
    hessian : ndarray, shape (p, p)
        -X^T diag(lambda) X; symmetric negative semidefinite.
    """
    y = _check_counts(counts, X.n)
    lam = intensities(X, beta)
    Xv = X.values
    gradient = Xv.T @ (y - lam)
    hessian = -(Xv.T * lam) @ Xv
    hessian = 0.5 * (hessian + hessian.T)
    return gradient, hessian


def _sequential_search(k, idx, lam, u, prob, cum, step: int) -> None:
    """Finish the inversion of lanes that have taken ``step`` terms with ``u > cum``.

    Writes each lane's count to ``k[idx]``.  Only the lanes still searching
    are carried, compacted: at search step ``step`` each of them has taken
    ``step`` terms, so ``lam / step`` is the next term's factor for all of
    them at once.  ``prob`` and ``cum`` are updated in place.
    """
    while idx.size:
        step += 1
        prob *= lam / step
        cum += prob
        # Once the term underflows the series cannot grow; stop those lanes.
        pending = (u > cum) & (prob > 0.0)
        if not pending.all():
            k[idx[~pending]] = step
            idx, prob, cum = idx[pending], prob[pending], cum[pending]
            lam, u = lam[pending], u[pending]


# The second draw tabulates the search until every lane's tail is below
# this; a lane drawn past the table finishes in the sequential search.
_TABLE_TAIL = 1e-12
# Rows of the inversion table compared for every lane; the rest are compared
# only for the lanes whose uniform lies beyond all of these.
_TABLE_HEAD = 8
# Rows the deepest table needs: an intensity just below 10 takes 40 (9.5
# takes 39, 5 takes 28 and 1 takes 15), so a count fits in uint8.
_TABLE_DEPTH = 40


def _poisson_transformed_rejection(lam: np.ndarray, rng: np.random.Generator,
                                   constants: tuple) -> np.ndarray:
    """Transformed rejection with squeeze (Hoermann's PTRS, 1993), valid for lam >= 10.

    ``constants`` is ``_ptrs_constants(lam)``.  Each round draws the m lanes
    still open as one block of 2m uniforms, u from the first half and v
    from the second: the doubles, in the order, of a draw of m for u and
    then one of m for v, so the generator ends where those two leave it.
    The log test is evaluated for every open lane, in one pass with the
    squeeze; it decides only the lanes that the squeeze neither accepts nor
    rejects, which get the bits of evaluating it for those lanes alone.  A
    uniform of exactly 0.0 makes ``us`` = 0 (k = -inf, rejected) or v = 0
    (the log test's left side is -inf); the divide and invalid warnings of
    those infinities are not raised.  The log test's ln k! is
    ``_ln_factorial`` of k clipped at 0: a lane with k < 0, -inf included,
    is rejected whatever its right side, and a huge k (from a tiny ``us``,
    up to about 1e24) is evaluated in floats, never cast to an integer.
    """
    log_lam, b, a, inv_alpha, v_r = constants
    out = np.zeros(lam.size, dtype=np.int64)
    todo = np.arange(lam.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        while todo.size:
            m = todo.size
            uv = rng.random(2 * m)
            u = uv[:m] - 0.5
            v = uv[m:]
            us = 0.5 - np.abs(u)
            a_t, b_t, lam_t = a[todo], b[todo], lam[todo]
            k = np.floor((2.0 * a_t / us + b_t) * u + lam_t + 0.43)
            lhs = np.log(v * inv_alpha[todo] / (a_t / us ** 2 + b_t))
            rhs = k * log_lam[todo] - lam_t - _ln_factorial(np.maximum(k, 0.0))
            # Accepted by the squeeze, or rejected neither by it nor by the log test.
            accept = ((us >= 0.07) & (v <= v_r[todo])) | (
                (k >= 0) & ((us >= 0.013) | (v <= us)) & (lhs <= rhs)
            )
            out[todo[accept]] = k[accept]
            todo = todo[~accept]
    return out


def _ptrs_constants(lam: np.ndarray) -> tuple:
    """PTRS's per-intensity constants ``(log_lam, b, a, inv_alpha, v_r)``."""
    b = 0.931 + 2.53 * np.sqrt(lam)
    return (
        np.log(lam),
        b,
        -0.059 + 0.02483 * b,
        1.1239 + 1.1328 / (b - 3.4),
        0.9277 - 3.6224 / (b - 2.0),
    )


class _CountSampler:
    """What a count draw needs of its intensities, kept for the next draw.

    It holds the validated intensities split at 10 into the inversion and
    rejection lanes, the PTRS constants of the latter, and the inversion
    lanes' table of the sequential search (Devroye 1986).  ``rows`` has
    shape (depth, lanes), lanes in sample order: row ``s`` is every lane's
    ``cum`` after ``s`` search steps, formed with the search's own ``prob
    *= lam / step; cum += prob`` arithmetic, and ``+inf`` once the lane's
    term has underflowed, where the search stops.  ``prob`` is each lane's
    term at the last row, where a lane drawn past the table resumes.

    The table starts as row 0, ``exp(-lam)``, alone, so the first draw is
    the sequential search itself.  The second draw deepens it until no lane
    has both a tail ``1 - cum`` of at least ``_TABLE_TAIL`` and a live term,
    and every later draw looks its counts up there.  Intensities below 10
    need at most ``_TABLE_DEPTH`` (40) rows, so a count fits in uint8; at
    n=4000 the canonical design's table is 40 rows of 3,852 lanes (1.23 MB).
    The counts and the generator's use are those of the search on every
    draw.
    """

    def __init__(self, lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if not np.all((lam > 0) & (lam < _MAX_INTENSITY)):
            raise ValueError("intensities must lie in (0, 2**62)")
        self.small = lam < _SAMPLER_SPLIT
        self.large = ~self.small
        self.lam_small = lam[self.small]
        self.lam_large = lam[self.large]
        self.ptrs = _ptrs_constants(self.lam_large)
        self.prob = np.exp(-self.lam_small)
        self.rows = self.prob[np.newaxis]
        self.draws = 0

    def _deepen(self) -> None:
        """Add the table's rows past row 0, until every lane's tail is below ``_TABLE_TAIL``.

        The rows are written into one array of ``_TABLE_DEPTH`` rows, and
        ``rows`` becomes a view of those written, so the build holds the
        table once.
        """
        lam, prob = self.lam_small, self.prob.copy()
        cum = prob.copy()
        table = np.empty((_TABLE_DEPTH, lam.size))
        table[0] = self.rows[0]
        step = 0
        while np.any((1.0 - cum >= _TABLE_TAIL) & (prob > 0.0)):
            step += 1
            prob *= lam / step
            cum += prob
            table[step] = np.where(prob > 0.0, cum, np.inf)
        self.rows, self.prob = table[:step + 1], prob

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """The sequential search's counts for uniforms ``u``, one per inversion lane.

        Looked up in two levels: the first ``_TABLE_HEAD`` rows for every
        lane, the rest, if the table has more, only for the lanes past all
        of those.  A lane's rows do not decrease, so a lane that stops in
        the head has none of its later rows below its uniform, and each
        count is that of the whole table; a lane past the last row goes on
        in the search.
        """
        head, tail = self.rows[:_TABLE_HEAD], self.rows[_TABLE_HEAD:]
        # int64: a lane the search takes past the table can count beyond 255.
        k = np.add.reduce(head < u, axis=0, dtype=np.uint8).astype(np.int64)
        past = (k == len(head)).nonzero()[0]
        if len(tail) and past.size:
            more = np.add.reduce(tail[:, past] < u[past], axis=0, dtype=np.uint8)
            k[past] += more
            past = past[more == len(tail)]
        if past.size:
            _sequential_search(k, past, self.lam_small[past], u[past], self.prob[past],
                               self.rows[-1, past], len(self.rows) - 1)
        return k

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One count per intensity; the inversion lanes take the generator first."""
        out = np.zeros(self.small.size, dtype=np.int64)
        if self.lam_small.size:
            if self.draws == 1:
                self._deepen()
            out[self.small] = self.lookup(rng.random(self.lam_small.size))
        if self.lam_large.size:
            out[self.large] = _poisson_transformed_rejection(self.lam_large, rng, self.ptrs)
        self.draws += 1
        return out


def poisson_counts(lam: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw independent Poisson counts for an array of intensities.

    Uses inversion by sequential search below 10 and transformed rejection
    above, so the marginals are exact at every scale.  Consumes the generator
    deterministically: the small-intensity block is sampled first.
    """
    return _CountSampler(lam).draw(rng)


def _count_sampler(X: DesignMatrix, beta_star: CoefVector) -> _CountSampler:
    """``X``'s kept sampler of ``intensities(X, beta_star)``; ValueError outside (0, 2**62)."""
    return _kept(X, "_count_sampler", beta_star.values.tobytes(),
                 lambda: _CountSampler(intensities(X, beta_star)))


def simulate(X: DesignMatrix, beta_star: CoefVector, seed) -> np.ndarray:
    """Counts Y_i ~ Poisson(exp(x_i beta_star)) as a read-only int64 array.

    Deterministic in ``seed``, an int or a seed sequence as
    ``np.random.default_rng`` takes them.  Draws from ``_count_sampler(X,
    beta_star)``.
    """
    counts = _count_sampler(X, beta_star).draw(np.random.default_rng(seed))
    _freeze(counts)
    return counts
