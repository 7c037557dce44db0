"""Benchmark of `signlasso simulate` on the canonical and mle workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload canonical --seed 0 --seconds 56 --trace 0

It starts one workload process (worker.py), which runs a warm-up op and
timed ops for ``--seconds``, and times set-up in fresh interpreters between
them.  Every child gets BLAS pinned to one thread.  The last stdout line is
the result object; the line before it holds host facts and run diagnostics,
which are not metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ops import WORKLOADS  # noqa: E402

# Every run must end within 180 s; the workload process gets what is left.
RUN_LIMIT_S = 175.0
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(checkout: Path) -> dict:
    """The parent environment with BLAS pinned and only the checkout's src on the path.

    Pinning must happen before numpy is imported, so it goes into the
    environment of each child rather than into the child's code.
    """
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREADS})
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs, read from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")

    begin = time.perf_counter()
    checkout = Path.cwd()
    if not (checkout / "src" / "signlasso" / "cli.py").is_file():
        print("error: no src/signlasso here; run from the root of a signlasso checkout",
              file=sys.stderr)
        return 2
    env = child_env(checkout)
    steal_before, load_before = steal_ticks(), loadavg()

    scratch = checkout / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(scratch),
    ]
    try:
        with subprocess.Popen(command, cwd=checkout, env=env, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=RUN_LIMIT_S - (time.perf_counter() - begin))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                print("error: the workload process ran out of time", file=sys.stderr)
                return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    if proc.returncode != 0:
        print(f"error: the workload process exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 3
    report = json.loads(out.strip().splitlines()[-1])

    steal_after = steal_ticks()
    diagnostics = report["diagnostics"]
    diagnostics.update({
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": WORKLOADS[args.workload].make_config(args.seed)["seed"],
        "steal_ticks": None if steal_before is None or steal_after is None
        else steal_after - steal_before,
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
    })
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
