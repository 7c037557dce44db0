"""Monte-Carlo sign-recovery experiments over a grid of sample sizes.

For each n the pipeline is: generate (or load) a design, simulate counts,
form the preliminary estimate, build the working problem, solve with the
scheduled penalty alpha_n = alpha_coef * n^{(c2+1)/2}, and compare the
recovered sign pattern against the truth.  Every replicate also logs the
sufficient-event diagnostics so recovery rates can be checked against event
rates.  Everything is deterministic in the master seed; replicates run
serially in (n, replicate) order.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .conditions import (
    AssumptionConstants,
    ConditionReport,
    blocked_gram,
    check_assumptions,
    irrepresentable_margin,
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
from .model import CoefVector, DesignMatrix, simulate
from .prelim import fit_mle, oracle_perturbation
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


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit seed from a tuple of integers."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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
                f"unknown design generator {self.kind!r}; expected one of "
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


def make_design(spec: DesignSpec, n: int, p: int, seed: int) -> DesignMatrix:
    """Generate (or load) an n x p design, enforcing the row-norm cap."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    rng = np.random.default_rng(seed)
    if spec.kind == "iid_gaussian":
        values = spec.scale * rng.standard_normal((n, p))
    elif spec.kind == "correlated_gaussian":
        cov = spec.scale**2 * spec.rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        chol = np.linalg.cholesky(cov)
        values = rng.standard_normal((n, p)) @ chol.T
    elif spec.kind == "orthogonal_ish":
        # Random-sign design: columns are orthogonal on average and every row
        # has norm scale * sqrt(p) exactly.
        values = spec.scale * rng.choice([-1.0, 1.0], size=(n, p))
    else:  # file
        values = read_matrix_csv(spec.path)
        if values.shape[0] < n or values.shape[1] != p:
            raise ValueError(
                f"design file {spec.path} has shape {values.shape}, "
                f"need at least {n} rows and exactly {p} columns"
            )
        values = values[:n].copy()

    cap = spec.row_norm_cap
    if cap is None and spec.kind != "file":
        cap = 2.0 * spec.scale * math.sqrt(p)
    if cap is not None:
        norms = np.linalg.norm(values, axis=1)
        over = norms > cap
        if over.any():
            values[over] *= (cap / norms[over])[:, None]
    return DesignMatrix(values)


def parse_beta_tilde_mode(mode: str) -> tuple[str, float]:
    """Parse 'mle' or 'oracle:SCALE' into (kind, scale)."""
    if mode == "mle":
        return "mle", 0.0
    if mode.startswith("oracle:"):
        try:
            scale = float(mode.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad oracle scale in beta_tilde mode {mode!r}") from exc
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
    replicates unless ``redraw_design`` is set.
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
        if not 0.0 < self.c2 < self.c1 <= 1.0:
            raise ConfigError("c2", f"must satisfy 0 < c2 < c1 <= 1, got c1={self.c1}, c2={self.c2}")
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
        if self.beta_star.q < 1:
            raise ConfigError("beta_star", "needs at least one nonzero coefficient")
        try:
            parse_beta_tilde_mode(self.beta_tilde_mode)
        except ValueError as exc:
            raise ConfigError("beta_tilde_mode", str(exc)) from exc
        try:
            # The largest n has the largest penalty, so one build checks all.
            self.solver_config(grid[-1])
        except ConfigError as exc:
            name = {"alpha": "alpha_coef", "tol": "solver_tol"}.get(exc.field, exc.field)
            raise ConfigError(name, exc.message) from exc

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


def _run_replicate(config: ExperimentConfig, design: DesignMatrix, n: int, r: int) -> ReplicateRecord:
    alpha_n = config.alpha_for(n)
    seed_used = derive_seed(config.seed, _TAG_COUNTS, n, r)
    kind, scale = parse_beta_tilde_mode(config.beta_tilde_mode)
    record = partial(ReplicateRecord, n=n, replicate=r, seed_used=seed_used, alpha_n=alpha_n)
    try:
        sample = simulate(design, config.beta_star, seed_used)
        if kind == "mle":
            mle = fit_mle(design, sample.counts)
            if not mle.converged:
                return record(ok=False, error="mle did not converge")
            beta_tilde = mle.beta
        else:
            beta_tilde = oracle_perturbation(
                config.beta_star, n, scale, derive_seed(config.seed, _TAG_PRELIM, n, r)
            )
        problem = build_working_problem(design, beta_tilde, sample.counts)
        result = fit(problem, config.solver_config(n))
        if not result.converged:
            return record(ok=False, error="solver did not converge")
        bg = blocked_gram(problem, config.beta_star.support)
        diag = proposition_diagnostics(bg, config.beta_star, beta_tilde, alpha_n, n)
        sign_match = bool(
            np.array_equal(result.beta_hat.signs(), config.beta_star.signs())
        )
        return record(
            ok=True, sign_match=sign_match, An=diag.An_holds, Bn=diag.Bn_holds,
            irrep_margin=irrepresentable_margin(diag.d),
            kkt_pass=result.kkt_report.all_passed,
        )
    except (
        OverflowError,
        DegenerateWeightError,
        NumericalError,
        RankDeficientError,
        SingularBlockError,
        ValueError,
        np.linalg.LinAlgError,
    ) as exc:
        return record(ok=False, error=f"{type(exc).__name__}: {exc}")


def _reference_report(config: ExperimentConfig, design: DesignMatrix) -> ConditionReport:
    """Condition report at the idealized expansion point beta_tilde = beta_star.

    The noise vector plays no role in the report, so zero counts are used as a
    placeholder response.
    """
    problem = build_working_problem(
        design, config.beta_star, np.zeros(design.n, dtype=np.int64)
    )
    constants = replace(config.constants or AssumptionConstants(), tau=config.tau)
    return check_assumptions(design, problem, config.beta_star, constants)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full sweep; deterministic in the config.

    Per-replicate errors are logged as failures without aborting.  Raises
    ConfigError if the reference problem for some n overflows, has a weight
    below the floor or a singular active block, or if it violates the
    irrepresentability requirement (margin below tau).
    """
    records: list[ReplicateRecord] = []
    condition_reports: dict = {}
    for n in config.n_grid:
        design = make_design(
            config.design, n, config.p, derive_seed(config.seed, _TAG_DESIGN, n)
        )
        try:
            report = _reference_report(config, design)
        except (SingularBlockError, DegenerateWeightError, OverflowError) as exc:
            raise ConfigError("design", f"reference design at n={n}: {exc}") from exc
        condition_reports[n] = report
        if report.irrep_margin < config.tau:
            raise ConfigError(
                "design",
                f"irrepresentability margin {report.irrep_margin:.6g} at n={n} "
                f"is below tau={config.tau}; the scheduled penalty cannot "
                "be expected to recover signs",
            )
        logger.info(
            "n=%d: irrep_margin=%.4f lambda_min_C11=%.4g alpha_n=%.6g",
            n, report.irrep_margin, report.lambda_min_C11, config.alpha_for(n),
        )
        batch = []
        for r in range(config.replicates):
            if config.redraw_design:
                design = make_design(
                    config.design, n, config.p, derive_seed(config.seed, _TAG_DESIGN, n, r)
                )
            batch.append(_run_replicate(config, design, n, r))
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


def read_results_csv(path) -> list[ReplicateRecord]:
    records = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != RESULTS_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            cells = dict(zip(RESULTS_COLUMNS, row))
            ok = cells["sign_match"] != ""
            records.append(
                ReplicateRecord(
                    n=int(cells["n"]),
                    replicate=int(cells["replicate"]),
                    seed_used=int(cells["seed_used"]),
                    alpha_n=float(cells["alpha_n"]),
                    ok=ok,
                    sign_match=cells["sign_match"] == "1" if ok else None,
                    An=cells["An"] == "1" if ok else None,
                    Bn=cells["Bn"] == "1" if ok else None,
                    irrep_margin=float(cells["irrep_margin"]) if ok else None,
                    kkt_pass=cells["kkt_pass"] == "1" if ok else None,
                )
            )
    return records


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
