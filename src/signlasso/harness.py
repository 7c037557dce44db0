"""Monte-Carlo sign-recovery experiments over a grid of sample sizes.

For each n the pipeline is: generate (or load) a design, simulate counts,
form the preliminary estimate, build the working problem, solve with the
scheduled penalty alpha_n = alpha_coef * n^{(c2+1)/2}, and compare the
recovered sign pattern against the truth.  Every replicate also logs the
sufficient-event diagnostics so recovery rates can be checked against event
rates: each replicate queues its blocked Gram, and one diagnostics pass per
design evaluates the queue with a leading replicate axis, with the bits of
one pass per replicate.  Each replicate draws its counts and then takes its
expansion point, each from a seed of its own; one pass per block of
replicates derives their seeds and generator states.  Everything is
deterministic in the master seed; replicates run serially in (n, replicate)
order.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .conditions import (
    AssumptionConstants,
    BlockedGram,
    Blocking,
    ConditionReport,
    blocked_gram,
    blocking,
    check_assumptions,
    irrepresentable_margin,
    population_gram,
    proposition_diagnostics,
)
from .errors import (
    BadGeneratorError,
    ConfigError,
    DegenerateWeightError,
    NumericalError,
    RankDeficientError,
    SingularBlockError,
)
from .fileio import format_float, read_matrix_csv
from .model import CoefVector, DesignMatrix, _count_sampler, _freeze, simulate
from .prelim import MleFit, fit_mle, oracle_perturbation
from .schema import write_json
from .solver import SolverConfig, fit
from .working import build_working_problem

logger = logging.getLogger("signlasso.harness")

RESULTS_COLUMNS = (
    "n",
    "replicate",
    "sign_match",
    "An",
    "Bn",
    "irrep_margin",
    "kkt_pass",
    "alpha_n",
    "seed_used",
)

# Stream tags for per-purpose seed derivation from the master seed.
_TAG_DESIGN = 1
_TAG_COUNTS = 2
_TAG_PRELIM = 3

GENERATORS = ("iid_gaussian", "correlated_gaussian", "orthogonal_ish")


# numpy's SeedSequence: a pool of four 32-bit words and its hash and mix
# constants.  The seeds below are its bits, derived for many lanes at once.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# Replicates per pass of the seed and generator-state derivation.  A power
# of two at most 2**32, so no block holds replicate indices of two word counts.
_SEED_BLOCK = 4096


def _word_count(value: int) -> int:
    """How many 32-bit entropy words SeedSequence makes of a nonnegative int."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed parts must be nonnegative, got {value}")
    return max(1, -(-value.bit_length() // 32))


def _hash_entropy(entropy: np.ndarray, n_words: int = 1) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words, np.uint64)`` for each column ``e`` of ``entropy``.

    ``entropy`` is a (words, lanes) uint32 array, one column per lane; the
    result is a (lanes, n_words) uint64 array.  numpy's mix of the entropy
    into the pool and its draw of ``2 * n_words`` words, done in uint32
    arithmetic, which wraps as numpy's does, on every lane at once.  The
    hash constants advance the same way on every lane.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ (value >> 16)

    zero = np.zeros(entropy.shape[1], dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    hash_const = _INIT_B
    state = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # Of each pair of words, the first is the low half of the uint64.
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)], axis=1)


def _seeds(*parts) -> np.ndarray:
    """``SeedSequence(list(parts)).generate_state(1, np.uint64)[0]`` of each lane, as uint64.

    A part is an int shared by every lane, or a uint64 array of per-lane
    values that all take the same number of 32-bit words; each adds its
    words, low first.
    """
    lanes = max((part.size for part in parts if isinstance(part, np.ndarray)), default=1)
    rows = []
    for part in parts:
        top = part.max() if isinstance(part, np.ndarray) else part
        rows += [np.broadcast_to(part >> 32 * k & _MASK32, lanes) for k in range(_word_count(top))]
    return _hash_entropy(np.array(rows, dtype=np.uint32).reshape(-1, lanes))[:, 0]


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit seed from nonnegative integers: ``_seeds`` of one lane."""
    return int(_seeds(*parts)[0])


class _SeedState(ISeedSequence):
    """``SeedSequence(seed)``'s four uint64 words, all that PCG64 asks of it.

    ``np.random.default_rng`` of it is ``default_rng(seed)``'s generator.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a _SeedState holds only PCG64's four uint64 state words")
        return self.words


def _seed_states(seeds: np.ndarray) -> list[_SeedState]:
    """The ``_SeedState`` of each of the uint64 ``seeds``, in one pass.

    SeedSequence pads its pool with zero words, so a seed below 2**32 (one
    entropy word) hashes as its two words do.
    """
    words = _hash_entropy(np.array([seeds & _MASK32, seeds >> 32], dtype=np.uint32), 4)
    return list(map(_SeedState, words))


def _replicate_seeds(seed: int, tags: tuple[int, ...], n: int, replicates: int):
    """Yield ``(seed_used, states)`` for r = 0, 1, ...: one ``_SeedState`` per tag.

    ``seed_used`` is ``derive_seed(seed, tags[0], n, r)`` and ``states[t]``
    that of ``derive_seed(seed, tags[t], n, r)``, in one pass per block.
    """
    for start in range(0, replicates, _SEED_BLOCK):
        r = np.arange(start, min(start + _SEED_BLOCK, replicates), dtype=np.uint64)
        # Lanes are replicate-major: every tag of the first replicate, then the next.
        seeds = _seeds(seed, np.tile(np.array(tags, dtype=np.uint64), r.size), n,
                       np.repeat(r, len(tags)))
        states = iter(_seed_states(seeds))
        yield from zip(seeds[::len(tags)].tolist(), zip(*[states] * len(tags)))


@dataclass(frozen=True)
class DesignSpec:
    """How to produce the design matrix for a given n.

    ``kind`` is one of the named generators or ``"file"`` with ``path`` set.
    Rows whose norm exceeds ``row_norm_cap`` are rescaled to the cap exactly;
    a cap of None means 2 * scale * sqrt(p) for generators and no capping for
    file designs.
    """

    kind: str
    scale: float = 1.0
    rho: float = 0.0
    row_norm_cap: float | None = None
    path: str | None = field(default=None, metadata={"omit_if_none": True})

    def __post_init__(self):
        if self.kind not in GENERATORS and self.kind != "file":
            raise BadGeneratorError(
                "kind", f"unknown design generator {self.kind!r}; expected one of "
                f"{GENERATORS + ('file',)}"
            )
        if self.kind == "file" and not self.path:
            raise ConfigError("path", "is required for a file design")
        if self.scale <= 0:
            raise ConfigError("scale", f"must be positive, got {self.scale}")
        if not -1.0 < self.rho < 1.0:
            raise ConfigError("rho", f"must lie in (-1, 1), got {self.rho}")
        if self.row_norm_cap is not None and self.row_norm_cap <= 0:
            raise ConfigError("row_norm_cap", f"must be positive, got {self.row_norm_cap}")


def read_design_file(spec: DesignSpec) -> np.ndarray:
    """A ``file`` design's matrix, parsed once for every n of a sweep.

    A file that is not a finite matrix is a ConfigError on ``design.path``;
    a missing file is an OSError and keeps its own message.
    """
    try:
        return DesignMatrix(read_matrix_csv(spec.path)).values
    except ValueError as exc:
        raise ConfigError("design.path", str(exc)) from exc


def make_design(spec: DesignSpec, n: int, p: int, seed, rows: np.ndarray | None = None
                ) -> DesignMatrix:
    """Generate an n x p design, or take a file's first n rows, enforcing the row-norm cap.

    A generator draws from ``seed``, an int or a seed sequence as
    ``np.random.default_rng`` takes them.  A file design takes the first n
    of ``rows``, its file's matrix from ``read_design_file(spec)``; one with
    fewer than n rows or other than p columns is a ConfigError on
    ``design.path``.  So is a file whose row norms overflow, and a
    generator's ``design.scale`` that overflows the design or its row norms.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    if spec.kind == "file":
        if rows is None:
            raise ValueError("a file design needs its rows, from read_design_file(spec)")
        if rows.shape[0] < n or rows.shape[1] != p:
            raise ConfigError("design.path", (
                f"design file {spec.path} has shape {rows.shape}, "
                f"need at least {n} rows and exactly {p} columns"
            ))
        values = rows[:n].copy()
    cap = spec.row_norm_cap
    if cap is None and spec.kind != "file":
        cap = 2.0 * spec.scale * math.sqrt(p)
    try:
        # numpy's overflow warning becomes this error, raised before the
        # design's first replicate.
        with np.errstate(over="raise"):
            if spec.kind != "file":
                values = _generate(spec, n, p, seed)
            # Every design's row norms, so a file whose rows overflow fails
            # here, capped or not, rather than in every replicate.
            norms = np.linalg.norm(values, axis=1)
            if cap is not None:
                over = norms > cap
                if over.any():
                    values[over] *= (cap / norms[over])[:, None]
    except (OverflowError, FloatingPointError) as exc:
        if spec.kind == "file":
            raise ConfigError("design.path", f"{spec.path}: row norms overflow") from exc
        raise ConfigError(
            "design.scale", f"{spec.scale} is too large: the {spec.kind} design "
            "or its row norms overflow"
        ) from exc
    _freeze(values)
    return DesignMatrix(values)


def _generate(spec: DesignSpec, n: int, p: int, seed) -> np.ndarray:
    """The n x p values of a generator design, before the row-norm cap."""
    rng = np.random.default_rng(seed)
    if spec.kind == "iid_gaussian":
        return spec.scale * rng.standard_normal((n, p))
    if spec.kind == "correlated_gaussian":
        cov = spec.scale**2 * spec.rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        chol = np.linalg.cholesky(cov)
        return rng.standard_normal((n, p)) @ chol.T
    # orthogonal_ish, a random-sign design: columns are orthogonal on average
    # and every row has norm scale * sqrt(p) exactly.
    return spec.scale * rng.choice([-1.0, 1.0], size=(n, p))


def parse_beta_tilde_mode(mode: str) -> tuple[str, float]:
    """Parse 'mle' or 'oracle:SCALE' into (kind, scale)."""
    if mode == "mle":
        return "mle", 0.0
    if mode.startswith("oracle:"):
        try:
            scale = float(mode.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad oracle scale in beta_tilde mode {mode!r}") from exc
        if not math.isfinite(scale):
            raise ValueError(f"oracle scale must be finite, got {scale}")
        if scale < 0:
            raise ValueError("oracle scale must be nonnegative")
        return "oracle", scale
    raise ValueError(f"beta_tilde mode must be 'mle' or 'oracle:SCALE', got {mode!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a sign-recovery experiment.

    The penalty schedule is alpha_n = alpha_coef * n^{(c2+1)/2} with
    0 < c2 < c1 <= 1.  ``beta_tilde_mode`` is 'mle' or 'oracle:SCALE'.  The
    design is regenerated per n from the master seed and held fixed across
    replicates unless ``redraw_design`` is set.  ``constants``, when given,
    takes the top-level ``c1`` and ``tau``, the values the reference reports
    use.
    """

    design: DesignSpec
    beta_star: CoefVector
    n_grid: tuple[int, ...]
    c1: float
    c2: float
    alpha_coef: float
    replicates: int
    seed: int
    beta_tilde_mode: str = "oracle:1.0"
    tau: float = AssumptionConstants.tau
    redraw_design: bool = False
    max_sweeps: int = SolverConfig.max_sweeps
    solver_tol: float = SolverConfig.tol
    kkt_tol: float = SolverConfig.kkt_tol
    constants: AssumptionConstants | None = None

    def __post_init__(self):
        schedule = f"must satisfy 0 < c2 < c1 <= 1, got c1={self.c1}, c2={self.c2}"
        if not 0.0 < self.c1 <= 1.0:
            raise ConfigError("c1", schedule)
        if not 0.0 < self.c2 < self.c1:
            raise ConfigError("c2", schedule)
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) == 0 or any(n < 1 for n in grid):
            raise ConfigError("n_grid", "must be a nonempty list of positive integers")
        if any(b >= a for a, b in zip(grid[1:], grid)):
            raise ConfigError("n_grid", "must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.replicates < 1:
            raise ConfigError("replicates", "must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed", f"must be nonnegative, got {self.seed}")
        if self.alpha_coef < 0:
            raise ConfigError("alpha_coef", "must be nonnegative")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("tau", f"must lie in [0, 1], got {self.tau}")
        if self.constants is not None:
            # The reference reports use the top-level c1 and tau, so the
            # constants carry them: report.json echoes the values used.
            object.__setattr__(
                self, "constants", replace(self.constants, c1=self.c1, tau=self.tau)
            )
        if self.beta_star.q < 1:
            raise ConfigError("beta_star", "needs at least one nonzero coefficient")
        try:
            kind, _ = parse_beta_tilde_mode(self.beta_tilde_mode)
        except ValueError as exc:
            raise ConfigError("beta_tilde_mode", str(exc)) from exc
        if kind == "mle" and grid[0] < self.p:
            raise ConfigError(
                "n_grid", f"entry {grid[0]} is below p={self.p}: an mle expansion point "
                "needs n >= p, so every replicate at that n would fail"
            )
        try:
            # The largest n has the largest penalty, so one build checks all.
            self.solver_config(grid[-1])
        except ConfigError as exc:
            name = {"alpha": "alpha_coef", "tol": "solver_tol"}.get(exc.field, exc.field)
            if name == "alpha_coef" and math.isfinite(self.alpha_coef):
                # A finite, nonnegative alpha_coef fails only by overflowing.
                raise ConfigError(name, (
                    f"{self.alpha_coef!r} * n^((c2+1)/2) overflows the largest float "
                    f"at n={grid[-1]}"
                )) from exc
            raise ConfigError(name, exc.message) from exc
        except OverflowError as exc:
            raise ConfigError("n_grid", "entries must be below the largest float") from exc
        if grid[-1] * self.p * 8 > np.iinfo(np.intp).max:
            raise ConfigError(
                "n_grid", f"entry {grid[-1]} is too large: an n x {self.p} float64 design "
                "would exceed the largest array"
            )

    @property
    def p(self) -> int:
        return self.beta_star.p

    def alpha_for(self, n: int) -> float:
        return self.alpha_coef * n ** ((self.c2 + 1.0) / 2.0)

    def solver_config(self, n: int) -> SolverConfig:
        return SolverConfig(
            alpha=self.alpha_for(n),
            max_sweeps=self.max_sweeps,
            tol=self.solver_tol,
            kkt_tol=self.kkt_tol,
        )


@dataclass(frozen=True)
class ReplicateRecord:
    n: int
    replicate: int
    seed_used: int
    alpha_n: float
    ok: bool
    sign_match: bool | None = None
    An: bool | None = None
    Bn: bool | None = None
    irrep_margin: float | None = None
    kkt_pass: bool | None = None
    error: str = ""


@dataclass(frozen=True)
class SummaryRow:
    n: int
    alpha_n: float
    replicates: int
    failures: int
    recovery_rate: float
    event_rate: float
    mean_irrep_margin: float


SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[ReplicateRecord, ...]
    summary: tuple[SummaryRow, ...]
    condition_reports: dict

    @property
    def failures(self) -> tuple[tuple[int, int, str], ...]:
        """(n, replicate, error) of each failed replicate, in record order."""
        return tuple((rec.n, rec.replicate, rec.error) for rec in self.records if not rec.ok)


def expansion_point(
    mode: str, X: DesignMatrix, counts, beta_star: CoefVector, seed
) -> tuple[CoefVector, MleFit | None]:
    """The expansion point beta_tilde of ``mode``, 'mle' or 'oracle:SCALE'.

    In mle mode returns the MLE's last iterate and the ``MleFit``, which the
    caller checks for convergence.  In oracle mode returns beta_star perturbed
    by at most SCALE / X.n per coordinate, drawn from ``seed`` (an int or a
    seed sequence, as ``np.random.default_rng`` takes them), and None.
    """
    kind, scale = parse_beta_tilde_mode(mode)
    if kind == "mle":
        mle = fit_mle(X, counts)
        return mle.beta, mle
    return oracle_perturbation(beta_star, X.n, scale, seed), None


class _PerN(NamedTuple):
    """What every replicate of one n shares: its solver config and the truth's pattern.

    ``support`` is the truth's support as ``blocked_gram`` takes it, blocked
    once per sweep.
    """

    n: int
    solver: SolverConfig
    support: Blocking
    signs: np.ndarray


class _Queued(NamedTuple):
    """A replicate whose fit converged, waiting for its design's diagnostics pass."""

    record: partial
    bg: BlockedGram
    sign_match: bool
    kkt_pass: bool


# What a replicate may raise; each becomes that replicate's failure record.
_REPLICATE_ERRORS = (
    OverflowError,
    DegenerateWeightError,
    NumericalError,
    RankDeficientError,
    SingularBlockError,
    ValueError,
    np.linalg.LinAlgError,
)


def _failed(record: partial, exc: Exception) -> ReplicateRecord:
    return record(ok=False, error=f"{type(exc).__name__}: {exc}")


def _run_replicate(config: ExperimentConfig, per_n: _PerN, design: DesignMatrix, r: int,
                   seed_used: int, states) -> ReplicateRecord | _Queued:
    """The replicate's failure record, or its blocked Gram queued for the diagnostics.

    ``states`` are the generator states of the replicate's counts (seed
    ``seed_used``) and expansion point.  The working problem goes out of
    scope on return: the queue keeps only the blocked Gram, its sign match
    and its KKT flag.
    """
    record = partial(ReplicateRecord, n=per_n.n, replicate=r, seed_used=seed_used,
                     alpha_n=per_n.solver.alpha)
    try:
        counts = simulate(design, config.beta_star, states[0])
        beta_tilde, mle = expansion_point(
            config.beta_tilde_mode, design, counts, config.beta_star, states[1]
        )
        if mle is not None and not mle.converged:
            return record(ok=False, error="mle did not converge")
        problem = build_working_problem(design, beta_tilde, counts)
        result = fit(problem, per_n.solver)
        if not result.converged:
            return record(ok=False, error="solver did not converge")
        return _Queued(
            record, blocked_gram(problem, per_n.support),
            sign_match=bool((result.beta_hat.signs() == per_n.signs).all()),
            kkt_pass=result.kkt_report.all_passed,
        )
    except _REPLICATE_ERRORS as exc:
        return _failed(record, exc)


def _diagnosed(config: ExperimentConfig, per_n: _PerN, items: list) -> list[ReplicateRecord]:
    """The records of ``items``, in order: the queued ones get one diagnostics pass.

    A pass that raises (a singular active block, a non-finite entry) is
    redone one replicate at a time, so each failing replicate gets the record
    of its own pass and the others their outcomes.
    """
    queued = [item for item in items if isinstance(item, _Queued)]
    if not queued:
        return items
    try:
        diag = proposition_diagnostics(
            [item.bg for item in queued], config.beta_star, per_n.solver.alpha
        )
    except _REPLICATE_ERRORS as exc:
        if len(items) > 1:
            return [rec for item in items for rec in _diagnosed(config, per_n, [item])]
        return [_failed(items[0].record, exc)]
    outcomes = zip(diag.An_holds.tolist(), diag.Bn_holds.tolist(),
                   irrepresentable_margin(diag.d).tolist())
    records = []
    for item in items:
        if isinstance(item, _Queued):
            an, bn, margin = next(outcomes)
            item = item.record(ok=True, sign_match=item.sign_match, An=an, Bn=bn,
                               irrep_margin=margin, kkt_pass=item.kkt_pass)
        records.append(item)
    return records


def _reference(config: ExperimentConfig, design: DesignMatrix) -> ConditionReport:
    """The condition report of an n's design at beta_tilde = beta_star, the population Gram's.

    Every reason the sweep cannot run at n is a ConfigError on ``design``.
    """
    n = design.n
    constants = config.constants or AssumptionConstants(c1=config.c1, tau=config.tau)
    try:
        pg = population_gram(design, config.beta_star, config.beta_star.support)
        # Kept on the design: its first replicate draws from this sampler.
        _count_sampler(design, config.beta_star)
        report = check_assumptions(pg.gram, config.beta_star, constants)
    except (SingularBlockError, DegenerateWeightError, OverflowError, ValueError) as exc:
        raise ConfigError("design", f"reference design at n={n}: {exc}") from exc
    if report.irrep_margin < config.tau:
        raise ConfigError(
            "design",
            f"irrepresentability margin {report.irrep_margin:.6g} at n={n} "
            f"is below tau={config.tau}; the scheduled penalty cannot "
            "be expected to recover signs",
        )
    return report


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full sweep; deterministic in the config.

    Per-replicate errors are logged as failures without aborting; every n's
    reference design is checked before the first replicate.
    """
    # A file design is parsed once; each n's design copies its first n rows,
    # so the parsed matrix is not kept through the replicates.
    rows = read_design_file(config.design) if config.design.kind == "file" else None
    references = {}
    for n in config.n_grid:
        (state,) = _seed_states(_seeds(config.seed, _TAG_DESIGN, n))
        design = make_design(config.design, n, config.p, state, rows)
        references[n] = design, _reference(config, design)
    del rows
    condition_reports = {n: report for n, (_, report) in references.items()}
    records: list[ReplicateRecord] = []
    support, signs = blocking(config.beta_star.support, config.p), config.beta_star.signs()
    # A file design ignores its seed, so only a generated design is redrawn.
    redraw = config.redraw_design and config.design.kind != "file"
    tags = (_TAG_COUNTS, _TAG_PRELIM) + ((_TAG_DESIGN,) if redraw else ())
    for n in config.n_grid:
        # Popped, so each design is freed once its replicates are done.
        design, report = references.pop(n)
        solver = config.solver_config(n)
        logger.info(
            "n=%d: irrep_margin=%.4f lambda_min_C11=%.4g alpha_n=%.6g",
            n, report.irrep_margin, report.lambda_min_C11, solver.alpha,
        )
        per_n = _PerN(n, solver, support, signs)
        batch, items = [], []
        replicate_seeds = _replicate_seeds(config.seed, tags, n, config.replicates)
        for r, (seed_used, states) in enumerate(replicate_seeds):
            if redraw:
                design = make_design(config.design, n, config.p, states[2])
            items.append(_run_replicate(config, per_n, design, r, seed_used, states))
            # One diagnostics pass per design: at the end of the n, or after
            # each replicate when every replicate draws its own design.
            if redraw or r == config.replicates - 1:
                batch.extend(_diagnosed(config, per_n, items))
                items = []
        records.extend(batch)
        done = sum(1 for rec in batch if rec.ok)
        logger.info("n=%d: %d/%d replicates ok", n, done, len(batch))

    return ExperimentResult(
        config=config,
        records=tuple(records),
        summary=tuple(summarize_records(config, records)),
        condition_reports=condition_reports,
    )


def summarize_records(config: ExperimentConfig, records) -> list[SummaryRow]:
    """Per-n aggregates; failures are excluded from rate denominators.

    Verifies the one-directional dominance recovery_rate >= event_rate -
    2/sqrt(replicates); a violation indicates an implementation bug and
    raises NumericalError.
    """
    rows = []
    for n in sorted({rec.n for rec in records}):
        batch = [rec for rec in records if rec.n == n]
        ok = [rec for rec in batch if rec.ok]
        failures = len(batch) - len(ok)
        if ok:
            recovery = float(np.mean([rec.sign_match for rec in ok]))
            event = float(np.mean([rec.An and rec.Bn for rec in ok]))
            margin = float(np.mean([rec.irrep_margin for rec in ok]))
        else:
            recovery = event = margin = float("nan")
        rows.append(
            SummaryRow(
                n=n,
                alpha_n=config.alpha_for(n),
                replicates=len(batch),
                failures=failures,
                recovery_rate=recovery,
                event_rate=event,
                mean_irrep_margin=margin,
            )
        )
        if ok and recovery < event - 2.0 / math.sqrt(len(batch)):
            raise NumericalError(
                f"recovery rate {recovery} fell below event rate {event} "
                f"beyond binomial slack at n={n}"
            )
    return rows


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    """One CSV cell: empty for None, 1/0 for a bool, 17 digits for a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows([_cell(getattr(row, name)) for name in columns] for row in rows)


def write_results_csv(result: ExperimentResult, path) -> None:
    _write_csv(path, RESULTS_COLUMNS, result.records)


def write_summary_csv(summary, path) -> None:
    _write_csv(path, SUMMARY_COLUMNS, summary)


def write_report_json(result: ExperimentResult, path) -> None:
    import scipy

    from . import __version__

    write_json(path, {
        "config": result.config,
        "versions": {
            "signlasso": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "conditions": {
            str(n): report for n, report in result.condition_reports.items()
        },
        "failures": [
            {"n": n, "replicate": r, "error": message}
            for n, r, message in result.failures
        ],
    })
