"""Workload definitions, one `signlasso simulate` op, and its correctness gate.

A workload is a `simulate` config built from a fixed definition and the
benchmark's ``--seed``.  One op runs ``signlasso.cli.main(["simulate", ...])``
in-process on that config and writes results.csv, summary.csv and
report.json to a fresh directory.  The gate then decides whether the op's
outputs are correct.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ARTIFACTS = ("results.csv", "summary.csv", "report.json")

# The master seed of the acceptance configuration.  ``--seed 0`` maps every
# workload onto it, so the reference digests below are those of seed 0.
BASE_SEED = 20260811
DEFAULT_SEED = 0

# Frozen pilot rates of the canonical configuration at seed 20260811, copied
# from PILOT_RECOVERY and PILOT_EVENT in tests/test_acceptance.py
# (acceptance criterion 4).
PILOT_RECOVERY = {250: 0.555, 1000: 0.79, 4000: 0.955}
PILOT_EVENT = {250: 0.41, 1000: 0.705, 4000: 0.93}

_CANONICAL = {
    "design": {"kind": "correlated_gaussian", "rho": 0.2, "scale": 1.0},
    "beta_star": [1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
    "n_grid": [250, 1000, 4000],
    "c1": 1.0,
    "c2": 0.5,
    "alpha_coef": 1.0,
    "replicates": 200,
    "seed": BASE_SEED,
    "beta_tilde_mode": "oracle:1.0",
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # sha256 of results.csv followed by summary.csv at --seed 0, taken from
    # the unmodified program.  report.json is left out on purpose: it is
    # meant to gain deterministic telemetry later.
    reference_digest: str
    # True gates every op on the frozen pilot rates.  They hold only at
    # BASE_SEED, so such a workload ignores --seed.
    pilot_rates: bool = False

    def make_config(self, seed: int) -> dict:
        """The experiment JSON this workload runs at benchmark seed ``seed``."""
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        config = json.loads(json.dumps(self.config))
        if not self.pilot_rates:
            config["seed"] = BASE_SEED + seed
        return config

    def uses_reference(self, seed: int) -> bool:
        return self.pilot_rates or seed == DEFAULT_SEED


# mle sets tau to 0.  The sweep aborts when a reference design's
# irrepresentability margin falls below tau, and over 2000 probed seeds the
# margin at n=250 fell below the default 0.67 on 39% of them (lowest 0.20).
# tau enters only report.json, so results.csv and summary.csv keep the bytes
# they have under the default.
WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance config exactly.
        Workload(
            name="canonical",
            config=_CANONICAL,
            reference_digest="959626fc662c3da731fd4a76588e21826f2582930f438654e1dc3d1def49fdd9",
            pilot_rates=True,
        ),
        Workload(
            name="mle",
            config={**_CANONICAL, "replicates": 100, "beta_tilde_mode": "mle", "tau": 0.0},
            reference_digest="fd29986a9cfe636fe6da38bd019aa8ff186d6bbda701476d452038effe10c6a4",
        ),
    )
}


@dataclass
class OpResult:
    wall_s: float
    replicates_ok: int
    digest: str
    errors: list
    out_dir: Path


def artifact_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ("results.csv", "summary.csv"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def gate(workload: Workload, config: dict, exit_code, stdout: str, out_dir: Path,
         expected_digest: str) -> list[str]:
    """Every reason the op's outputs are wrong; an empty list means correct."""
    if exit_code != 0:
        return [f"exit code {exit_code!r}"]
    errors = []
    expected_stdout = "".join(f"{out_dir / name}\n" for name in ARTIFACTS)
    if stdout != expected_stdout:
        errors.append(f"stdout is not the three artifact paths: {stdout!r}")
    try:
        digest = artifact_digest(out_dir)
        results = _read_rows(out_dir / "results.csv")
        summary = _read_rows(out_dir / "summary.csv")
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        return errors + [f"artifacts unreadable: {exc}"]
    if digest != expected_digest:
        errors.append(f"digest {digest} differs from the expected {expected_digest}")
    grid = config["n_grid"]
    if len(results) != len(grid) * config["replicates"]:
        errors.append(f"results.csv has {len(results)} rows")
    if [int(row["n"]) for row in summary] != grid:
        errors.append("summary.csv does not list the n grid")
    if workload.pilot_rates:
        for row in summary:
            n = int(row["n"])
            got = (float(row["recovery_rate"]), float(row["event_rate"]))
            want = (PILOT_RECOVERY.get(n), PILOT_EVENT.get(n))
            if got != want:
                errors.append(f"n={n}: rates {got} differ from the pilot rates {want}")
    return errors


def count_ok(out_dir: Path) -> int:
    """Replicates with ok=True: their outcome cells are filled."""
    return sum(1 for row in _read_rows(out_dir / "results.csv") if row["sign_match"] != "")


def run_op(main, config_path: Path, scratch: Path, workload: Workload, config: dict,
           expected_digest: str | None) -> OpResult:
    """One timed `simulate` invocation plus its gate.

    With ``expected_digest`` None the op's own digest is taken as the
    expectation, so the gate checks everything but the digest; the caller
    then compares digests op to op.
    """
    out_dir = Path(tempfile.mkdtemp(prefix="op-", dir=scratch))
    stdout = io.StringIO()
    argv = ["simulate", "--config", str(config_path), "--out", str(out_dir)]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    wall = time.perf_counter() - start
    digest = ""
    if code == 0 and all((out_dir / name).exists() for name in ARTIFACTS[:2]):
        digest = artifact_digest(out_dir)
    errors = gate(workload, config, code, stdout.getvalue(), out_dir,
                  expected_digest if expected_digest is not None else digest)
    ok = count_ok(out_dir) if not errors else 0
    return OpResult(wall_s=wall, replicates_ok=ok, digest=digest, errors=errors,
                    out_dir=out_dir)


def discard(result: OpResult) -> None:
    shutil.rmtree(result.out_dir, ignore_errors=True)
