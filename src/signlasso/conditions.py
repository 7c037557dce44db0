"""Support-recovery condition diagnostics.

Splits the weighted Gram matrix C = x_work^T x_work / n and the noise vector
W = x_work^T eps / n by the true active set, checks the eigenvalue, norm,
beta-min, and irrepresentability requirements for sign recovery, and
evaluates the two sufficient events whose joint occurrence forces the
penalized estimator to recover the true sign pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    coordinates.  ``problem`` is the working problem the Gram was built
    from; its ``n``, ``beta_tilde`` and ``design`` are the Gram's.  The blocks
    ``C11``, ``C12``, ``C21``, ``C22`` (with C12 == C21.T exactly), ``W1``,
    ``W2``, ``active_idx`` and ``inactive_idx`` are read-only views derived
    on access.  ``active_solver`` factorises C11 on first use and keeps the
    factor, so every consumer of one blocked Gram shares a single
    factorisation.
    """

    C: np.ndarray
    W: np.ndarray
    perm: np.ndarray
    q: int
    problem: WorkingProblem

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

    @cached_property
    def active_solver(self):
        """``(solve, lambda_min)`` for C11; raises SingularBlockError if singular."""
        return _active_solver(self.C11)

    def _check_truth(self, beta_star: CoefVector) -> None:
        """Raise ValueError unless the active set is exactly beta_star's support."""
        if beta_star.p != self.p or not np.array_equal(self.active_idx, beta_star.support):
            raise ValueError(
                f"blocked Gram has active set {self.active_idx.tolist()} of p={self.p}, "
                f"but beta_star has support {beta_star.support.tolist()} of p={beta_star.p}"
            )


def blocked_gram(problem: WorkingProblem, support) -> BlockedGram:
    """Split C and W of a working problem by the given active index set."""
    p = problem.p
    active = np.unique(np.asarray(support, dtype=np.int64))
    if active.size == 0:
        raise EmptySupportError("support must contain at least one index")
    if active.min() < 0 or active.max() >= p:
        raise ValueError(f"support indices must lie in [0, {p})")
    mask = np.zeros(p, dtype=bool)
    mask[active] = True
    perm = np.concatenate([active, np.flatnonzero(~mask)])
    # A C-ordered copy, as np.ix_ makes it: ``C @ diff`` in
    # proposition_diagnostics takes another BLAS path, with other last bits,
    # on a copy laid out otherwise (``gram()[perm][:, perm]``, say).
    C = problem.gram()[perm[:, None], perm]
    W = problem.noise()[perm]
    _freeze(C, W, perm)
    return BlockedGram(C=C, W=W, perm=perm, q=active.size, problem=problem)


@dataclass(frozen=True)
class PopulationGram:
    """Blocked Gram of the truth-weighted design sqrt(lambda*) x rowwise.

    ``gram`` is the blocked Gram of the working problem at beta_tilde = beta*,
    so ``gram.C`` is x*^T x* / n with x* = sqrt(lambda*) x rowwise.  That
    problem is built from a zero response, so ``gram.W`` has no meaning here.
    ``gram.problem.lambda_tilde`` holds the true intensities exp(x_i beta*)
    and ``lambda_bar`` is max(1, max intensity).
    """

    gram: BlockedGram
    lambda_bar: float


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
        lambda_bar=float(max(1.0, np.max(problem.lambda_tilde))),
    )


def _active_solver(C11: np.ndarray):
    """Return a solve(rhs) closure for C11, or raise SingularBlockError."""
    eigmin = float(np.linalg.eigvalsh(C11)[0])
    if eigmin <= SINGULAR_TOL:
        raise SingularBlockError(
            f"active-block Gram is numerically singular: lambda_min = {eigmin:.3g}"
        )
    try:
        solve = _cholesky_solver(C11)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - caught by the eigen check
        raise SingularBlockError(str(exc)) from exc
    return solve, eigmin


def irrepresentable_margin(d: np.ndarray) -> float:
    """1 - max|d|, or 1 when ``d`` is empty because every coordinate is active."""
    return float(1.0 - np.abs(d).max()) if d.size else 1.0


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
    bg: BlockedGram, beta_star: CoefVector, constants: AssumptionConstants | None = None
) -> ConditionReport:
    """Evaluate the recovery conditions of the weighted design at beta_star's support.

    ``bg`` is the blocked Gram at that support; the row and column norms are
    those of ``bg.problem.design``.

    Raises
    ------
    SingularBlockError
        If the active-block Gram has an eigenvalue at or below 1e-12.
    ValueError
        If ``bg``'s active set is not beta_star's support.
    """
    bg._check_truth(beta_star)
    constants = constants or AssumptionConstants()
    _, eigmin = bg.active_solver
    X, n = bg.problem.design, bg.problem.n

    row_norm_max = float(np.max(X.row_norms()))
    col_norm_max = float(np.max(X.col_norms()))
    lambda_max_c12 = _largest_singular_value(bg.C12)
    lambda_max_c21 = _largest_singular_value(bg.C21)
    lambda_max_c22 = (
        float(np.linalg.eigvalsh(bg.C22)[-1]) if bg.C22.size else 0.0
    )
    beta_min = float(np.min(np.abs(beta_star.values[bg.active_idx])))
    beta_min_scaled = float(n ** ((1.0 - constants.c1) / 2.0) * beta_min)
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
        n=n,
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
    """

    R1: np.ndarray
    R2: np.ndarray
    xi: np.ndarray
    b: np.ndarray
    zeta: np.ndarray
    d: np.ndarray
    An_holds: bool
    Bn_holds: bool
    an_margin: float
    bn_margin: float
    beta_check: CoefVector

    def __post_init__(self):
        for name in ("R1", "R2", "xi", "b", "zeta", "d"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))


def proposition_diagnostics(
    bg: BlockedGram, beta_star: CoefVector, alpha: float
) -> PropositionDiagnostics:
    """Evaluate the sufficient sign-recovery events at penalty ``alpha``.

    The expansion point and the sample size are those of ``bg.problem``.
    """
    bg._check_truth(beta_star)
    solve, _ = bg.active_solver
    q = bg.q

    beta_perm = beta_star.values[bg.perm]
    R = bg.C @ (beta_perm - bg.problem.beta_tilde.values[bg.perm])
    R1, R2 = R[:q].copy(), R[q:].copy()
    beta1 = beta_perm[:q]

    # One solve for the three right-hand sides; each column is bit-identical
    # to its own solve.  xi and b are copied out, so the diagnostics own them.
    cols = solve(np.column_stack([bg.W[:q], np.sign(beta1), R1]))
    xi, b, inv_R1 = cols[:, 0].copy(), cols[:, 1].copy(), cols[:, 2]
    ratio = alpha / (2.0 * bg.problem.n)

    an_slack = np.abs(beta1) - ratio * np.abs(b) - np.abs(inv_R1) - np.abs(xi)
    an_margin = float(an_slack.min())
    An_holds = bool((an_slack > 0.0).all())

    C21 = bg.C21
    zeta = C21 @ xi - bg.W[q:]
    d = C21 @ b
    bn_slack = ratio * (1.0 - np.abs(d)) - np.abs(C21 @ inv_R1 - R2) - np.abs(zeta)
    if bn_slack.size:
        bn_margin = float(bn_slack.min())
        Bn_holds = bool((bn_slack >= 0.0).all())
    else:
        # No inactive coordinates: the event is vacuously true.
        bn_margin = float("inf")
        Bn_holds = True

    beta_check = np.zeros(bg.p)
    beta_check[bg.perm[:q]] = beta1 + xi - ratio * b - inv_R1
    _freeze(R1, R2, xi, b, zeta, d, beta_check)

    return PropositionDiagnostics(
        R1=R1,
        R2=R2,
        xi=xi,
        b=b,
        zeta=zeta,
        d=d,
        An_holds=An_holds,
        Bn_holds=Bn_holds,
        beta_check=CoefVector(beta_check),
        an_margin=an_margin,
        bn_margin=bn_margin,
    )
