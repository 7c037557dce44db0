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
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import ConfigError, EmptySupportError, SingularBlockError
from .model import CoefVector, DesignMatrix, _as_readonly, _freeze
from .working import WorkingProblem

# Smallest active-block eigenvalue treated as invertible.
SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class BlockedGram:
    """Gram matrix and noise vector permuted so active coordinates come first.

    ``C`` is the full p x p Gram in permuted order; the four blocks are
    read-only views of its sub-blocks, with C12 == C21.T exactly, and ``W1``
    and ``W2`` are views of ``W``.  ``active_idx`` and ``inactive_idx`` map
    block rows back to original coordinates.  ``active_solver`` factorises
    C11 on first use and keeps the factor, so every consumer of one blocked
    Gram shares a single factorisation.
    """

    C: np.ndarray
    C11: np.ndarray
    C12: np.ndarray
    C21: np.ndarray
    C22: np.ndarray
    W: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    q: int
    active_idx: np.ndarray
    inactive_idx: np.ndarray

    def __post_init__(self):
        for name in ("C", "C11", "C12", "C21", "C22", "W", "W1", "W2"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        for name in ("active_idx", "inactive_idx"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name), dtype=np.int64))

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @cached_property
    def active_solver(self):
        """``(solve, lambda_min)`` for C11; raises SingularBlockError if singular."""
        return _active_solver(self.C11)


def _permute_and_split(C_full: np.ndarray, support):
    """Reorder a p x p Gram so the support comes first, and cut it into blocks.

    Returns ``(perm, q, (C, C11, C12, C21, C22))``: ``perm[:q]`` are the active
    and ``perm[q:]`` the inactive coordinates, ``C`` is ``C_full`` in that
    order and the four blocks are views of it.  ``perm`` and ``C`` are
    read-only, and so are the views.
    """
    p = C_full.shape[0]
    active = np.unique(np.asarray(support, dtype=np.int64))
    if active.size == 0:
        raise EmptySupportError("support must contain at least one index")
    if active.min() < 0 or active.max() >= p:
        raise ValueError(f"support indices must lie in [0, {p})")
    mask = np.zeros(p, dtype=bool)
    mask[active] = True
    perm = np.concatenate([active, np.flatnonzero(~mask)])
    C = C_full[np.ix_(perm, perm)]
    _freeze(perm, C)
    q = active.size
    return perm, q, (C, C[:q, :q], C[:q, q:], C[q:, :q], C[q:, q:])


def blocked_gram(problem: WorkingProblem, support) -> BlockedGram:
    """Split C and W of a working problem by the given active index set."""
    perm, q, (C, C11, C12, C21, C22) = _permute_and_split(problem.gram(), support)
    W = problem.noise()[perm]
    _freeze(W)
    return BlockedGram(
        C=C,
        C11=C11,
        C12=C12,
        C21=C21,
        C22=C22,
        W=W,
        W1=W[:q],
        W2=W[q:],
        q=q,
        active_idx=perm[:q],
        inactive_idx=perm[q:],
    )


def _active_solver(C11: np.ndarray):
    """Return a solve(rhs) closure for C11, or raise SingularBlockError."""
    eigmin = float(np.linalg.eigvalsh(C11)[0])
    if eigmin <= SINGULAR_TOL:
        raise SingularBlockError(
            f"active-block Gram is numerically singular: lambda_min = {eigmin:.3g}"
        )
    try:
        factor = cho_factor(C11, lower=True)
    except LinAlgError as exc:  # pragma: no cover - caught by the eigen check
        raise SingularBlockError(str(exc)) from exc

    def solve(rhs):
        return cho_solve(factor, rhs)

    return solve, eigmin


def irrepresentable_margin(d: np.ndarray) -> float:
    """1 - max|d|, or 1 when ``d`` is empty because every coordinate is active."""
    return float(1.0 - np.max(np.abs(d))) if d.size else 1.0


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
    if bg.q == bg.p:
        return np.zeros(0)
    solve, _ = bg.active_solver
    s1 = np.sign(beta_star.values[bg.active_idx])
    return bg.C21 @ solve(s1)


def check_assumptions(
    X: DesignMatrix,
    problem: WorkingProblem,
    beta_star: CoefVector,
    constants: AssumptionConstants | None = None,
) -> ConditionReport:
    """Evaluate the recovery conditions of the weighted design at beta_star's support.

    Raises
    ------
    SingularBlockError
        If the active-block Gram has an eigenvalue at or below 1e-12.
    """
    constants = constants or AssumptionConstants()
    support = beta_star.support
    bg = blocked_gram(problem, support)
    _, eigmin = bg.active_solver

    n = X.n
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
    bg: BlockedGram,
    beta_star: CoefVector,
    beta_tilde: CoefVector,
    alpha: float,
    n: int,
) -> PropositionDiagnostics:
    """Evaluate the sufficient sign-recovery events for one problem instance."""
    if beta_star.p != bg.p or beta_tilde.p != bg.p:
        raise ValueError("coefficient vectors must match the Gram dimension")
    solve, _ = bg.active_solver

    perm = np.concatenate([bg.active_idx, bg.inactive_idx])
    diff = beta_star.values[perm] - beta_tilde.values[perm]
    R = bg.C @ diff
    R1, R2 = R[: bg.q], R[bg.q :]

    s1 = np.sign(beta_star.values[bg.active_idx])
    W1, W2 = bg.W1, bg.W2
    # One solve for the three right-hand sides; each column is bit-identical
    # to its own solve.
    xi, b, inv_R1 = solve(np.column_stack([W1, s1, R1])).T
    ratio = alpha / (2.0 * n)

    beta1_abs = np.abs(beta_star.values[bg.active_idx])
    an_slack = beta1_abs - ratio * np.abs(b) - np.abs(inv_R1) - np.abs(xi)
    an_margin = float(np.min(an_slack))
    An_holds = bool(np.all(an_slack > 0.0))

    zeta = bg.C21 @ xi - W2
    d = bg.C21 @ b
    bn_slack = ratio * (1.0 - np.abs(d)) - np.abs(bg.C21 @ inv_R1 - R2) - np.abs(zeta)
    if bn_slack.size:
        bn_margin = float(np.min(bn_slack))
        Bn_holds = bool(np.all(bn_slack >= 0.0))
    else:
        # No inactive coordinates: the event is vacuously true.
        bn_margin = float("inf")
        Bn_holds = True

    check1 = beta_star.values[bg.active_idx] + xi - ratio * b - inv_R1
    beta_check = np.zeros(bg.p)
    beta_check[bg.active_idx] = check1
    _freeze(R1, R2, xi, b, zeta, d)

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
