"""Support-recovery condition diagnostics.

Splits the weighted Gram matrix C = x_work^T x_work / n and the noise vector
W = x_work^T eps / n by the true active set, checks the eigenvalue, norm,
beta-min, and irrepresentability requirements for sign recovery, and
evaluates the two sufficient events whose joint occurrence forces the
penalized estimator to recover the true sign pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptySupportError, SingularBlockError
from .model import CoefVector, DesignMatrix, _as_readonly, _cholesky_solver, _freeze
from .working import WorkingProblem, build_working_problem

# Smallest active-block eigenvalue treated as invertible.
SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class BlockedGram:
    """Gram matrix and noise vector permuted so active coordinates come first.

    ``C`` is the full p x p Gram and ``W`` the noise vector, both in the order
    ``perm``: ``perm[:q]`` are the active and ``perm[q:]`` the inactive
    coordinates.  ``n`` and ``beta_tilde`` are the sample size and expansion
    point of the working problem the Gram was built from; neither the
    problem nor its design is kept, so a blocked Gram that waits for its
    sample size's diagnostics pass holds p^2 + 2p floats and no n x p array.
    The blocks ``C11``, ``C12``, ``C21``, ``C22`` (with C12 == C21.T
    exactly), ``W1``, ``W2``, ``active_idx`` and ``inactive_idx`` are
    read-only views derived on access.  ``active_solver`` factorises C11 on
    first use and keeps the factor, so every consumer of one blocked Gram
    shares a single factorisation.
    """

    C: np.ndarray
    W: np.ndarray
    perm: np.ndarray
    q: int
    n: int
    beta_tilde: CoefVector

    def __post_init__(self):
        object.__setattr__(self, "C", _as_readonly(self.C))
        object.__setattr__(self, "W", _as_readonly(self.W))
        object.__setattr__(self, "perm", _as_readonly(self.perm, dtype=np.int64))

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def C11(self) -> np.ndarray:
        return self.C[: self.q, : self.q]

    @property
    def C12(self) -> np.ndarray:
        return self.C[: self.q, self.q :]

    @property
    def C21(self) -> np.ndarray:
        return self.C[self.q :, : self.q]

    @property
    def C22(self) -> np.ndarray:
        return self.C[self.q :, self.q :]

    @property
    def W1(self) -> np.ndarray:
        return self.W[: self.q]

    @property
    def W2(self) -> np.ndarray:
        return self.W[self.q :]

    @property
    def active_idx(self) -> np.ndarray:
        return self.perm[: self.q]

    @property
    def inactive_idx(self) -> np.ndarray:
        return self.perm[self.q :]

    @property
    def active_solver(self):
        """``(solve, lambda_min)`` for C11; raises SingularBlockError if singular."""
        return _active_solvers([self])[0]

    def _check_truth(self, beta_star: CoefVector) -> None:
        """Raise ValueError unless the active set is exactly beta_star's support."""
        if beta_star.p != self.p or not np.array_equal(self.active_idx, beta_star.support):
            raise ValueError(
                f"blocked Gram has active set {self.active_idx.tolist()} of p={self.p}, "
                f"but beta_star has support {beta_star.support.tolist()} of p={beta_star.p}"
            )


class Blocking(NamedTuple):
    """A support of p coordinates as ``blocked_gram`` orders them.

    ``perm`` (read-only) lists the ``q`` active coordinates, ascending, and
    then the inactive ones.
    """

    perm: np.ndarray
    q: int


def blocking(support, p: int) -> Blocking:
    """Check a support of ``p`` coordinates and take its permutation."""
    active = np.unique(np.asarray(support, dtype=np.int64))
    if active.size == 0:
        raise EmptySupportError("support must contain at least one index")
    if active[0] < 0 or active[-1] >= p:
        raise ValueError(f"support indices must lie in [0, {p})")
    mask = np.zeros(p, dtype=bool)
    mask[active] = True
    perm = np.concatenate([active, np.flatnonzero(~mask)])
    _freeze(perm)
    return Blocking(perm, active.size)


def blocked_gram(problem: WorkingProblem, support) -> BlockedGram:
    """Split C and W of a working problem by the given active index set.

    ``support`` is an index set, or a ``Blocking`` of ``problem.p``
    coordinates, taken once for the problems of many replicates.
    """
    if not isinstance(support, Blocking):
        support = blocking(support, problem.p)
    perm = support.perm
    if perm.size != problem.p:
        raise ValueError(f"blocking of {perm.size} coordinates, problem has p={problem.p}")
    # A C-ordered copy, as np.ix_ makes it: ``C @ diff`` in
    # proposition_diagnostics takes another BLAS path, with other last bits,
    # on a copy laid out otherwise (``gram()[perm][:, perm]``, say).
    C = problem.gram()[perm[:, None], perm]
    W = problem.noise()[perm]
    _freeze(C, W)
    return BlockedGram(C=C, W=W, perm=perm, q=support.q, n=problem.n,
                       beta_tilde=problem.beta_tilde)


@dataclass(frozen=True)
class PopulationGram:
    """Blocked Gram of the truth-weighted design sqrt(lambda*) x rowwise.

    ``gram`` is the blocked Gram of the working problem at beta_tilde = beta*,
    so ``gram.C`` is x*^T x* / n with x* = sqrt(lambda*) x rowwise.  That
    problem is built from a zero response, so ``gram.W`` has no meaning here.
    ``lambda_star`` holds the true intensities exp(x_i beta*) and
    ``lambda_bar`` is max(1, max intensity).
    """

    gram: BlockedGram
    lambda_star: np.ndarray
    lambda_bar: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_star", _as_readonly(self.lambda_star))


def population_gram(X: DesignMatrix, beta_star: CoefVector, support) -> PopulationGram:
    """Blocked Gram built from the true intensities exp(x_i beta_star).

    Raises
    ------
    DegenerateWeightError
        If a true intensity falls below the weight floor (1e-12).
    OverflowError
        If a linear predictor exceeds the overflow guard.
    """
    problem = build_working_problem(X, beta_star, np.zeros(X.n, dtype=np.int64))
    return PopulationGram(
        gram=blocked_gram(problem, support),
        lambda_star=problem.lambda_tilde,
        lambda_bar=float(max(1.0, np.max(problem.lambda_tilde))),
    )


def _active_solvers(bgs) -> list:
    """``(solve, lambda_min)`` for the C11 of each blocked Gram in ``bgs``.

    Raises SingularBlockError at the first block whose smallest eigenvalue is
    at or below ``SINGULAR_TOL``, and then ValueError if a block has a
    non-finite entry.  A blocked Gram keeps its pair, written into its
    ``__dict__`` as functools.cached_property does; the blocks not yet
    factorised share one stacked eigenvalue pass, whose eigenvalues are the
    bits of one pass per block, and one finiteness check.  Each block then
    gets its own LAPACK Cholesky factorisation.
    """
    todo = [bg for bg in bgs if "_active_solver" not in bg.__dict__]
    if todo:
        blocks = np.stack([bg.C11 for bg in todo])
        eigmins = np.linalg.eigvalsh(blocks)[:, 0].tolist()
        for eigmin in eigmins:
            if eigmin <= SINGULAR_TOL:
                raise SingularBlockError(
                    f"active-block Gram is numerically singular: lambda_min = {eigmin:.3g}"
                )
        np.asarray_chkfinite(blocks)
        for bg, eigmin in zip(todo, eigmins):
            try:
                solve = _cholesky_solver(bg.C11, check_finite=False)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - caught by the eigen check
                raise SingularBlockError(str(exc)) from exc
            bg.__dict__["_active_solver"] = (solve, eigmin)
    return [bg.__dict__["_active_solver"] for bg in bgs]


def irrepresentable_margin(d: np.ndarray):
    """1 - max|d| over the last axis, or 1 where ``d`` is empty.

    ``d`` is empty when every coordinate is active.  Returns a float for one
    vector ``d`` and an array of one margin per row for a stack.
    """
    margin = 1.0 - np.abs(d).max(axis=-1) if d.shape[-1] else np.ones(d.shape[:-1])
    return float(margin) if margin.ndim == 0 else margin


def _largest_singular_value(block: np.ndarray) -> float:
    if block.size == 0:
        return 0.0
    return float(np.linalg.svd(block, compute_uv=False)[0])


@dataclass(frozen=True)
class AssumptionConstants:
    """User-supplied bounds for the recovery conditions.

    Bounds left as None are reported but not pass/fail checked.  ``c1`` scales
    the beta-min statistic n^{(1-c1)/2} * min |beta*_active| and ``tau`` is the
    irrepresentability slack: the condition demands margin >= tau.
    """

    max_row_norm: float | None = None
    max_col_norm: float | None = None
    min_eigen_active: float | None = None
    max_eigen_cross12: float | None = None
    max_eigen_cross21: float | None = None
    max_eigen_inactive: float | None = None
    min_beta_scaled: float | None = None
    c1: float = 1.0
    tau: float = 0.67

    def __post_init__(self):
        if not 0.0 < self.c1 <= 1.0:
            raise ConfigError("c1", "must lie in (0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("tau", f"must lie in [0, 1], got {self.tau}")


@dataclass(frozen=True)
class ConditionReport:
    """Observed condition statistics plus pass/fail against supplied bounds.

    The observed fields double as the tightest constants that would pass:
    e.g. ``lambda_min_C11`` is the largest usable eigenvalue floor.  Rectangular
    blocks are measured by their largest singular value; empty blocks report 0
    and ``irrep_margin`` is 1 by convention when every coordinate is active.
    """

    n: int
    q: int
    lambda_min_C11: float
    lambda_max_C12: float
    lambda_max_C21: float
    lambda_max_C22: float
    row_norm_max: float
    col_norm_max: float
    beta_min_scaled: float
    irrep_margin: float
    passes: dict = field(default_factory=dict)
    all_passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "all_passed", all(self.passes.values()))


def irrepresentable_vector(bg: BlockedGram, beta_star: CoefVector) -> np.ndarray:
    """C21 C11^{-1} sign(beta*_active); empty when every coordinate is active."""
    bg._check_truth(beta_star)
    if bg.q == bg.p:
        return np.zeros(0)
    solve, _ = bg.active_solver
    s1 = np.sign(beta_star.values[bg.active_idx])
    return bg.C21 @ solve(s1)


def check_assumptions(
    X: DesignMatrix, bg: BlockedGram, beta_star: CoefVector,
    constants: AssumptionConstants | None = None,
) -> ConditionReport:
    """Evaluate the recovery conditions of the weighted design at beta_star's support.

    ``bg`` is the blocked Gram at that support of a working problem on the
    design ``X``, whose row and column norms the report gives.

    Raises
    ------
    SingularBlockError
        If the active-block Gram has an eigenvalue at or below 1e-12.
    ValueError
        If ``bg``'s active set is not beta_star's support, or ``bg`` was built
        from a design of another shape than X.
    """
    bg._check_truth(beta_star)
    if (X.n, X.p) != (bg.n, bg.p):
        raise ValueError(f"X is {X.n} x {X.p}, but bg was built from an {bg.n} x {bg.p} design")
    constants = constants or AssumptionConstants()
    _, eigmin = bg.active_solver

    row_norm_max = float(np.max(X.row_norms()))
    col_norm_max = float(np.max(X.col_norms()))
    lambda_max_c12 = _largest_singular_value(bg.C12)
    lambda_max_c21 = _largest_singular_value(bg.C21)
    lambda_max_c22 = (
        float(np.linalg.eigvalsh(bg.C22)[-1]) if bg.C22.size else 0.0
    )
    beta_min = float(np.min(np.abs(beta_star.values[bg.active_idx])))
    beta_min_scaled = float(bg.n ** ((1.0 - constants.c1) / 2.0) * beta_min)
    d = irrepresentable_vector(bg, beta_star)
    irrep_margin = irrepresentable_margin(d)

    passes = {"irrepresentable": irrep_margin >= constants.tau}
    if constants.max_row_norm is not None:
        passes["row_norms"] = row_norm_max <= constants.max_row_norm
    if constants.max_col_norm is not None:
        passes["col_norms"] = col_norm_max <= constants.max_col_norm
    if constants.min_eigen_active is not None:
        passes["eigen_active"] = eigmin >= constants.min_eigen_active
    if constants.max_eigen_cross12 is not None:
        passes["eigen_cross12"] = lambda_max_c12 <= constants.max_eigen_cross12
    if constants.max_eigen_cross21 is not None:
        passes["eigen_cross21"] = lambda_max_c21 <= constants.max_eigen_cross21
    if constants.max_eigen_inactive is not None:
        passes["eigen_inactive"] = lambda_max_c22 <= constants.max_eigen_inactive
    if constants.min_beta_scaled is not None:
        passes["beta_min"] = beta_min_scaled >= constants.min_beta_scaled

    return ConditionReport(
        n=bg.n,
        q=bg.q,
        lambda_min_C11=eigmin,
        lambda_max_C12=lambda_max_c12,
        lambda_max_C21=lambda_max_c21,
        lambda_max_C22=lambda_max_c22,
        row_norm_max=row_norm_max,
        col_norm_max=col_norm_max,
        beta_min_scaled=beta_min_scaled,
        irrep_margin=irrep_margin,
        passes=passes,
    )


@dataclass(frozen=True)
class PropositionDiagnostics:
    """Ingredients and outcomes of the two sufficient sign-recovery events.

    ``An_holds`` is the strict componentwise event
        |C11^{-1} W1| < |beta*_1| - (alpha/2n) |C11^{-1} sign(beta*_1)| - |C11^{-1} R1|
    and ``Bn_holds`` the non-strict event
        |C21 C11^{-1} W1 - W2|
            <= (alpha/2n) (1 - |C21 C11^{-1} sign(beta*_1)|) - |C21 C11^{-1} R1 - R2|,
    with R = C (beta* - beta_tilde) split by the active set.  ``beta_check`` is
    the candidate minimizer supported on the active set; its signs match
    beta*'s and it satisfies the optimality conditions whenever both events
    hold.  ``an_margin``/``bn_margin`` are the smallest componentwise slacks
    (positive means the event holds with room); ``bn_margin`` is infinite,
    written as null, when every coordinate is active.

    The diagnostics of a stack of R blocked Grams carry a leading replicate
    axis: the vectors are (R, k) arrays, the flags and margins arrays of R
    entries and ``beta_check`` an (R, p) array.
    """

    R1: np.ndarray
    R2: np.ndarray
    xi: np.ndarray
    b: np.ndarray
    zeta: np.ndarray
    d: np.ndarray
    An_holds: bool | np.ndarray
    Bn_holds: bool | np.ndarray
    an_margin: float | np.ndarray
    bn_margin: float | np.ndarray
    beta_check: CoefVector | np.ndarray

    def __post_init__(self):
        for name in ("R1", "R2", "xi", "b", "zeta", "d"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for each replicate: one gemv per lane, the bits of the unstacked product.

    Every lane of ``A`` and ``x`` must have unit stride along its last axis,
    as the unstacked operands have: numpy hands other layouts to other code
    (its own loop, or BLAS with other strides), which may give other last
    bits.
    """
    return (A @ x[..., None])[..., 0]


def proposition_diagnostics(bg, beta_star: CoefVector, alpha: float) -> PropositionDiagnostics:
    """Evaluate the sufficient sign-recovery events at penalty ``alpha``.

    ``bg`` is one blocked Gram, or a sequence of blocked Grams of one sample
    size and one permutation (the replicates of one n, on any designs), which are
    evaluated in one pass with a leading replicate axis.  One blocked Gram is
    the pass over a stack of one, so each lane of a stack gets the bits of
    its own call.  The expansion point and the sample size are each blocked
    Gram's ``beta_tilde`` and ``n``.
    """
    single = isinstance(bg, BlockedGram)
    lanes = [bg] if single else list(bg)
    first = lanes[0]
    first._check_truth(beta_star)
    q, perm = first.q, first.perm
    if len(lanes) > 1 and (
        any(other.n != first.n for other in lanes)
        or not (np.stack([other.perm for other in lanes]) == perm).all()
    ):
        raise ValueError("stacked blocked Grams must share n and perm")
    solves = [solve for solve, _ in _active_solvers(lanes)]

    # Stacks of C-ordered lanes, so each lane's products take the unstacked
    # BLAS calls.  An index along the last axis of a stack lays it out by
    # columns, hence the contiguous copy of the permuted difference.
    C = np.stack([lane.C for lane in lanes])
    W = np.stack([lane.W for lane in lanes])
    beta_perm = beta_star.values[perm]
    diff = beta_perm - np.stack([lane.beta_tilde.values for lane in lanes])[:, perm]
    R = _matvec(C, np.ascontiguousarray(diff))
    R1, R2 = R[:, :q].copy(), R[:, q:].copy()
    beta1 = beta_perm[:q]

    # One solve per lane for the three right-hand sides; each column is
    # bit-identical to its own solve.  cols[:, k] holds every lane's k-th
    # solution with unit stride; xi and b are copied out, so the diagnostics
    # own them.
    rhs = np.stack([W[:, :q], np.broadcast_to(np.sign(beta1), R1.shape), R1], axis=-1)
    np.asarray_chkfinite(rhs)
    cols = np.empty((len(lanes), 3, q))
    for i, solve in enumerate(solves):
        cols[i] = solve(rhs[i], check_finite=False).T
    xi, b, inv_R1 = cols[:, 0].copy(), cols[:, 1].copy(), cols[:, 2]
    ratio = alpha / (2.0 * first.n)

    an_slack = np.abs(beta1) - ratio * np.abs(b) - np.abs(inv_R1) - np.abs(xi)
    an_margin = an_slack.min(axis=-1)
    An_holds = (an_slack > 0.0).all(axis=-1)

    C21 = C[:, q:, :q]
    zeta = _matvec(C21, xi) - W[:, q:]
    d = _matvec(C21, b)
    bn_slack = ratio * (1.0 - np.abs(d)) - np.abs(_matvec(C21, inv_R1) - R2) - np.abs(zeta)
    if bn_slack.shape[-1]:
        bn_margin = bn_slack.min(axis=-1)
        Bn_holds = (bn_slack >= 0.0).all(axis=-1)
    else:
        # No inactive coordinates: the event is vacuously true.
        bn_margin = np.full(len(lanes), np.inf)
        Bn_holds = np.ones(len(lanes), dtype=bool)

    beta_check = np.zeros((len(lanes), first.p))
    beta_check[:, perm[:q]] = beta1 + xi - ratio * b - inv_R1

    if single:
        return PropositionDiagnostics(
            R1=R1[0], R2=R2[0], xi=xi[0], b=b[0], zeta=zeta[0], d=d[0],
            An_holds=bool(An_holds[0]), Bn_holds=bool(Bn_holds[0]),
            an_margin=float(an_margin[0]), bn_margin=float(bn_margin[0]),
            beta_check=CoefVector(beta_check[0]),
        )
    _freeze(R1, R2, xi, b, zeta, d, An_holds, Bn_holds, an_margin, bn_margin, beta_check)
    return PropositionDiagnostics(
        R1=R1, R2=R2, xi=xi, b=b, zeta=zeta, d=d, An_holds=An_holds, Bn_holds=Bn_holds,
        an_margin=an_margin, bn_margin=bn_margin, beta_check=beta_check,
    )
