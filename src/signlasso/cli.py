"""Command-line entry point: fit, check, and simulate over file-based inputs.

stdout carries only the paths of written artifacts, one per line; all logging
goes to stderr at the level set by SIGNLASSO_LOG (error, warning, info, or
debug; the default is warning, and an unknown name says so and uses it).

Exit codes
----------
fit:      0 converged, 2 solver stopped without convergence, 1 I/O or parse error
check:    0 all requested checks pass, 3 some check failed,
          4 singular active block, 1 I/O or parse error
simulate: 0 sweep completed (replicate failures are logged, not fatal),
          1 configuration or I/O error
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .conditions import (
    AssumptionConstants,
    blocked_gram,
    check_assumptions,
    proposition_diagnostics,
)
from .errors import ConfigError, SignLassoError, SingularBlockError
from .fileio import read_counts_csv, read_matrix_csv, read_vector_csv
from .harness import (
    ExperimentConfig,
    parse_beta_tilde_mode,
    run_experiment,
    write_report_json,
    write_results_csv,
    write_summary_csv,
)
from .model import CoefVector, DesignMatrix
from .prelim import fit_mle, oracle_perturbation
from .schema import from_json, jsonable, read_json, write_json
from .solver import SolverConfig, fit
from .working import build_working_problem

logger = logging.getLogger("signlasso")


def _setup_logging() -> None:
    level_name = os.environ.get("SIGNLASSO_LOG", "warning").lower()
    levels = {
        "error": logging.ERROR,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.handlers.clear()
    logger.addHandler(handler)
    logger.setLevel(levels.get(level_name, logging.WARNING))
    if level_name not in levels:
        logger.warning(
            "unknown SIGNLASSO_LOG level %r; using warning (choose from %s)",
            level_name, ", ".join(levels),
        )


@contextmanager
def _input(name: str):
    """Report a ValueError raised while reading input ``name`` as a ConfigError on it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from exc


def _read_coefficients(path: str, name: str, X: DesignMatrix) -> CoefVector:
    """A coefficient CSV, which must hold one entry per column of X."""
    with _input(name):
        values = read_vector_csv(path)
        if values.size != X.p:
            raise ValueError(f"has {values.size} entries, but X has {X.p} columns")
        return CoefVector(values)


def _resolve_beta_tilde(mode: str, X: DesignMatrix, counts, beta_star, seed: int) -> CoefVector:
    """Resolve --beta-tilde: a CSV path, 'mle', or 'oracle:SCALE'."""
    if seed < 0:
        raise ConfigError("seed", f"must be nonnegative, got {seed}")
    if mode != "mle" and not mode.startswith("oracle:"):
        if not Path(mode).exists():
            raise ConfigError(
                "beta-tilde",
                f"{mode!r} is neither a mode ('mle' or 'oracle:SCALE') nor an existing file",
            )
        return _read_coefficients(mode, "beta-tilde", X)
    try:
        kind, scale = parse_beta_tilde_mode(mode)
    except ValueError as exc:
        raise ConfigError("beta-tilde", str(exc)) from exc
    if kind == "mle":
        result = fit_mle(X, counts)
        if not result.converged:
            logger.warning("MLE stopped without convergence (grad norm %.3g)", result.grad_norm)
        return result.beta
    if beta_star is None:
        raise ConfigError("beta-tilde", "oracle mode requires --beta-star")
    return oracle_perturbation(beta_star, X.n, scale, seed)


def _load_problem(args):
    """fit's or check's X, beta_star (or None), beta_tilde and working problem."""
    with _input("x"):
        X = DesignMatrix(read_matrix_csv(args.x))
    with _input("y"):
        counts = read_counts_csv(args.y)
        if counts.size != X.n:
            raise ValueError(f"has {counts.size} entries, but X has {X.n} rows")
    beta_star = _read_coefficients(args.beta_star, "beta-star", X) if args.beta_star else None
    beta_tilde = _resolve_beta_tilde(args.beta_tilde, X, counts, beta_star, args.seed)
    return X, beta_star, beta_tilde, build_working_problem(X, beta_tilde, counts)


def _load_constants(path: str | None) -> AssumptionConstants:
    if path is None:
        return AssumptionConstants()
    return from_json(AssumptionConstants, read_json(path), "constants")


def load_experiment_config(path) -> ExperimentConfig:
    """Parse and validate an experiment JSON file with field-path diagnostics."""
    raw = read_json(path)
    # The reference reports always use the top-level tau.
    constants = raw.get("constants") if isinstance(raw, dict) else None
    if isinstance(constants, dict) and "tau" in constants:
        raise ConfigError("constants.tau", "is not read by simulate; set the top-level tau")
    return from_json(ExperimentConfig, raw)


def cmd_fit(args) -> int:
    _, _, beta_tilde, problem = _load_problem(args)
    result = fit(problem, SolverConfig(alpha=args.alpha))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # fit.json puts support and signs after beta_hat, and the KKT report last.
    fitted = jsonable(result)
    kkt = fitted.pop("kkt_report")
    payload = {
        "beta_hat": fitted.pop("beta_hat"),
        "support": result.beta_hat.support,
        "signs": result.beta_hat.signs(),
        **fitted,
        "kkt": kkt,
        "alpha": args.alpha,
        "beta_tilde": beta_tilde,
    }
    target = out_dir / "fit.json"
    write_json(target, payload)
    print(target)
    return 0 if result.converged else 2


def cmd_check(args) -> int:
    # The events take the same penalty as fit: SolverConfig rejects a
    # non-finite or negative alpha with a ConfigError on "alpha".
    SolverConfig(alpha=args.alpha)
    X, beta_star, beta_tilde, problem = _load_problem(args)
    constants = _load_constants(args.constants)
    report = check_assumptions(X, problem, beta_star, constants)
    bg = blocked_gram(problem, beta_star.support)
    diag = proposition_diagnostics(bg, beta_star, beta_tilde, args.alpha, X.n)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"alpha": args.alpha, "conditions": report, "events": diag, "constants": constants}
    target = out_dir / "report.json"
    write_json(target, payload)
    print(target)
    return 0 if report.all_passed else 3


def cmd_simulate(args) -> int:
    # The sweep always runs on one thread; --threads is only checked.
    if args.threads < 1:
        raise ConfigError("threads", f"must be at least 1, got {args.threads}")
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.alpha is not None:
        config = replace(config, alpha_coef=args.alpha)

    result = run_experiment(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    summary_path = out_dir / "summary.csv"
    report_path = out_dir / "report.json"
    write_results_csv(result, results_path)
    write_summary_csv(result.summary, summary_path)
    write_report_json(result, report_path)
    for path in (results_path, summary_path, report_path):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signlasso",
        description="Sign-consistent L1-penalized estimation for sparse Poisson models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="solve the penalized working problem from CSVs")
    p_fit.add_argument("--x", required=True, help="design matrix CSV")
    p_fit.add_argument("--y", required=True, help="counts CSV (single column)")
    p_fit.add_argument("--alpha", type=float, required=True, help="L1 penalty level")
    p_fit.add_argument(
        "--beta-tilde", default="mle",
        help="expansion point: CSV path, 'mle', or 'oracle:SCALE' (needs --beta-star)",
    )
    p_fit.add_argument("--beta-star", default=None, help="true coefficients CSV")
    p_fit.add_argument("--seed", type=int, default=0, help="seed for oracle mode")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_check = sub.add_parser("check", help="evaluate recovery conditions and events")
    p_check.add_argument("--x", required=True, help="design matrix CSV")
    p_check.add_argument("--y", required=True, help="counts CSV (single column)")
    p_check.add_argument("--beta-star", required=True, help="true coefficients CSV")
    p_check.add_argument(
        "--beta-tilde", default="mle",
        help="expansion point: CSV path, 'mle', or 'oracle:SCALE'",
    )
    p_check.add_argument("--alpha", type=float, default=0.0, help="penalty level for the events")
    p_check.add_argument("--constants", default=None, help="JSON file of condition bounds")
    p_check.add_argument("--seed", type=int, default=0, help="seed for oracle mode")
    p_check.add_argument("--out", required=True, help="output directory")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo sign-recovery sweep")
    p_sim.add_argument("--config", required=True, help="experiment JSON file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument(
        "--threads", type=int, default=1, help="at least 1; the sweep always runs on one thread"
    )
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--alpha", type=float, default=None, help="override alpha_coef")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularBlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SignLassoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
