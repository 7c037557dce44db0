"""Command-line entry point: fit, check, and simulate over file-based inputs.

stdout carries only the paths of written artifacts, one per line; all logging
goes to stderr at the level set by SIGNLASSO_LOG (error, warning, info, or
debug; the default is warning, and an unknown name says so and uses it).
Each command loads numpy's and scipy's bundled OpenBLAS on entry and runs
with each on one thread (``blas.one_thread``), so its artifacts do not depend
on the BLAS thread count.

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
import shutil
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import replace
from functools import partial
from pathlib import Path

from .blas import one_thread
from .conditions import (
    AssumptionConstants,
    blocked_gram,
    check_assumptions,
    proposition_diagnostics,
)
from .errors import (
    ConfigError,
    DegenerateWeightError,
    RankDeficientError,
    SignLassoError,
    SingularBlockError,
)
from .fileio import read_counts_csv, read_matrix_csv, read_vector_csv
from .harness import (
    ExperimentConfig,
    expansion_point,
    parse_beta_tilde_mode,
    run_experiment,
    write_report_json,
    write_results_csv,
    write_summary_csv,
)
from .model import CoefVector, DesignMatrix
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
def _input(name: str, errors=ValueError):
    """Report an ``errors`` exception raised reading input ``name``, or making
    artifact ``name``, as a ConfigError on it."""
    try:
        yield
    except errors as exc:
        # An OSError's own text names its file, which for an artifact is the
        # temporary one.
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)
        raise ConfigError(name, reason) from exc


def _read_coefficients(path: str, name: str, X: DesignMatrix) -> CoefVector:
    """A coefficient CSV, which must hold one entry per column of X."""
    with _input(name):
        values = read_vector_csv(path)
        if values.size != X.p:
            raise ValueError(f"has {values.size} entries, but X has {X.p} columns")
        return CoefVector(values)


def _out_dir(out: str, *artifacts: str) -> Path:
    """--out, refused if it, or its nearest existing ancestor, is not a directory.

    So is one of the ``artifacts`` names in it that exists and is not a
    regular file: the set could not be replaced whole.
    """
    out_dir = Path(out)
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(str(existing), "exists and is not a directory")
    for name in artifacts:
        path = out_dir / name
        if path.exists() and not path.is_file():
            raise ConfigError(str(path), "exists and is not a file")
    return out_dir


def _save(out_dir: Path, artifacts: dict) -> None:
    """Write every artifact ``name: write`` of a command as ``out_dir / name``, as one set.

    Each ``write(path)`` writes into a temporary directory inside
    ``out_dir``.  Once all are written, each artifact takes its name with
    ``os.replace``, after the file it replaces has been moved into the
    temporary directory; if a rename fails, every file already moved goes
    back, so the previous set stays whole.  Only then are the paths
    printed, in order.  A failure removes the temporaries, prints nothing
    and names the artifact.
    """
    with _input(str(out_dir), OSError):
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".signlasso-", dir=out_dir))
    previous = staging / "previous"
    try:
        with _input(str(out_dir), OSError):
            previous.mkdir()
        for name, write in artifacts.items():
            with _input(str(out_dir / name), (OSError, ValueError)):
                write(staging / name)
        swapped = []
        try:
            for name in artifacts:
                with _input(str(out_dir / name), OSError):
                    try:
                        os.replace(out_dir / name, previous / name)
                    except FileNotFoundError:
                        pass
                    swapped.append(name)
                    os.replace(staging / name, out_dir / name)
        except ConfigError:
            _swap_back(out_dir, staging, swapped)
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    for name in artifacts:
        print(out_dir / name)


def _swap_back(out_dir: Path, staging: Path, names: list) -> None:
    """Undo ``_save``'s renames of ``names``, last first, as far as the file system lets it.

    A name whose previous file is in ``staging / "previous"`` gets it back;
    one that had none loses the artifact that took it.
    """
    for name in reversed(names):
        with suppress(OSError):
            previous = staging / "previous" / name
            if previous.exists():
                os.replace(previous, out_dir / name)
            elif not (staging / name).exists():
                (out_dir / name).unlink()


def _read_inputs(args):
    """fit's or check's X, counts and beta_star (None without --beta-star)."""
    with _input("x"):
        X = DesignMatrix(read_matrix_csv(args.x))
    with _input("y"):
        counts = read_counts_csv(args.y)
        if counts.size != X.n:
            raise ValueError(f"has {counts.size} entries, but X has {X.n} rows")
    beta_star = _read_coefficients(args.beta_star, "beta-star", X) if args.beta_star else None
    return X, counts, beta_star


def _working_problem(args, X: DesignMatrix, counts, beta_star: CoefVector | None):
    """The working problem at --beta-tilde: a CSV path, 'mle' or 'oracle:SCALE'."""
    mode = args.beta_tilde
    if args.seed < 0:
        raise ConfigError("seed", f"must be nonnegative, got {args.seed}")
    if mode != "mle" and not mode.startswith("oracle:"):
        if not Path(mode).exists():
            raise ConfigError(
                "beta-tilde",
                f"{mode!r} is neither a mode ('mle' or 'oracle:SCALE') nor an existing file",
            )
        beta_tilde = _read_coefficients(mode, "beta-tilde", X)
    else:
        with _input("beta-tilde"):
            kind, _ = parse_beta_tilde_mode(mode)
        if kind == "oracle" and beta_star is None:
            raise ConfigError("beta-tilde", "oracle mode requires --beta-star")
        # The MLE needs a design of full column rank.
        with _input("beta-tilde", RankDeficientError):
            beta_tilde, mle = expansion_point(mode, X, counts, beta_star, args.seed)
        if mle is not None:
            if mle.converged:
                logger.info("MLE converged in %d iterations (grad norm %.3g)",
                            mle.iterations, mle.grad_norm)
            else:
                logger.warning("MLE stopped without convergence (grad norm %.3g)",
                               mle.grad_norm)
    # An expansion point whose intensities overflow or fall below the weight
    # floor is a bad --beta-tilde.
    with _input("beta-tilde", (OverflowError, DegenerateWeightError)):
        return build_working_problem(X, beta_tilde, counts)


def _load_constants(path: str | None) -> AssumptionConstants:
    if path is None:
        return AssumptionConstants()
    return from_json(AssumptionConstants, read_json(path), "constants")


def load_experiment_config(path) -> ExperimentConfig:
    """Parse and validate an experiment JSON file with field-path diagnostics."""
    raw = read_json(path)
    # The reference reports always use the top-level c1 and tau.
    constants = raw.get("constants") if isinstance(raw, dict) else None
    for key in ("c1", "tau"):
        if isinstance(constants, dict) and key in constants:
            raise ConfigError(
                f"constants.{key}", f"is not read by simulate; set the top-level {key}"
            )
    return from_json(ExperimentConfig, raw)


def cmd_fit(args) -> int:
    solver = SolverConfig(alpha=args.alpha)
    out_dir = _out_dir(args.out, "fit.json")
    problem = _working_problem(args, *_read_inputs(args))
    result = fit(problem, solver)
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
        "beta_tilde": problem.beta_tilde,
    }
    _save(out_dir, {"fit.json": partial(write_json, value=payload)})
    return 0 if result.converged else 2


def cmd_check(args) -> int:
    # The events take fit's penalty, so alpha gets fit's check.
    SolverConfig(alpha=args.alpha)
    out_dir = _out_dir(args.out, "report.json")
    constants = _load_constants(args.constants)
    X, counts, beta_star = _read_inputs(args)
    if beta_star.q == 0:
        raise ConfigError("beta-star", "needs at least one nonzero coefficient")
    problem = _working_problem(args, X, counts, beta_star)
    bg = blocked_gram(problem, beta_star.support)
    report = check_assumptions(X, bg, beta_star, constants)
    diag = proposition_diagnostics(bg, beta_star, args.alpha)
    payload = {"alpha": args.alpha, "conditions": report, "events": diag, "constants": constants}
    _save(out_dir, {"report.json": partial(write_json, value=payload)})
    return 0 if report.all_passed else 3


def cmd_simulate(args) -> int:
    # The sweep always runs on one thread; --threads is only checked.
    if args.threads < 1:
        raise ConfigError("threads", f"must be at least 1, got {args.threads}")
    out_dir = _out_dir(args.out, "results.csv", "summary.csv", "report.json")
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.alpha is not None:
        config = replace(config, alpha_coef=args.alpha)
    result = run_experiment(config)
    _save(out_dir, {
        "results.csv": partial(write_results_csv, result),
        "summary.csv": partial(write_summary_csv, result.summary),
        "report.json": partial(write_report_json, result),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signlasso",
        description="Sign-consistent L1-penalized estimation for sparse Poisson models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--x", required=True, help="design matrix CSV")
    shared.add_argument("--y", required=True, help="counts CSV (single column)")
    shared.add_argument(
        "--beta-tilde", default="mle",
        help="expansion point: CSV path, 'mle', or 'oracle:SCALE' (needs --beta-star)",
    )
    shared.add_argument("--seed", type=int, default=0, help="seed for oracle mode")
    shared.add_argument("--out", required=True, help="output directory")

    p_fit = sub.add_parser(
        "fit", parents=[shared], help="solve the penalized working problem from CSVs"
    )
    p_fit.add_argument("--alpha", type=float, required=True, help="L1 penalty level")
    p_fit.add_argument("--beta-star", default=None, help="true coefficients CSV")
    p_fit.set_defaults(func=cmd_fit)

    p_check = sub.add_parser(
        "check", parents=[shared], help="evaluate recovery conditions and events"
    )
    p_check.add_argument("--beta-star", required=True, help="true coefficients CSV")
    p_check.add_argument("--alpha", type=float, default=0.0, help="penalty level for the events")
    p_check.add_argument("--constants", default=None, help="JSON file of condition bounds")
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
        with one_thread():
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
        # An OSError on a path (a directory given as a file) names it as a parse error does.
        named = isinstance(exc, OSError) and exc.filename
        print(f"error: {exc.filename}: {exc.strerror}" if named else f"error: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
