"""The workload process: one warm-up op, then timed ops until the deadline.

Started by run.py with BLAS pinned to one thread and ``src`` on the path.
Prints one JSON object on its last stdout line.  With ``--trace 0`` it also
times set-up in a fresh interpreter before each timed op.  With
``--trace 1`` it alternates untraced and traced ops, so both means see the
same drift and their ratio is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ops import ARTIFACTS, WORKLOADS, discard, run_op
from spans import SPAN_NAMES, Tracer, TraceError, self_times, traced

# At least this many timed ops, however short --seconds is, so that a traced
# run compares counts between ops and takes medians of self times.
MIN_TIMED_OPS = 3
_READY = "import signlasso.cli; print('ready', flush=True)"


def layer_counts(tracer: Tracer, out_dir: Path) -> dict:
    """The exact per-op counts of one traced op."""
    c = tracer.counts
    return {
        "model.simulate.calls": c["model.simulate.calls"],
        "prelim.fit_mle.iterations": c["prelim.fit_mle.iterations"],
        "prelim.fit_mle.unconverged": c["prelim.fit_mle.unconverged"],
        "working.gram.calls": c["working.gram.calls"],
        "solver.fit.sweeps": c["solver.fit.sweeps"],
        "solver.fit.sweeps_max": tracer.sweeps_max,
        "solver.fit.converged_ratio": c["solver.fit.converged"] / max(c["solver.fit.calls"], 1),
        "solver.kkt_check.calls": c["solver.kkt_check.calls"],
        "solver.kkt_check.pass_ratio":
            c["solver.kkt_check.passed"] / max(c["solver.kkt_check.calls"], 1),
        "harness.replicates_ok": c["harness.replicates_ok"],
        "harness.replicates_failed": c["harness.replicates_failed"],
        "harness.write.bytes": sum((out_dir / name).stat().st_size for name in ARTIFACTS),
    }


def check_layers_ran(tracer: Tracer, config: dict) -> None:
    """Fail loudly when a layer the workload must run recorded no calls.

    Exactly one preliminary estimator runs, chosen by beta_tilde_mode.
    """
    mle = config["beta_tilde_mode"] == "mle"
    for name in SPAN_NAMES:
        calls = tracer.counts[name + ".calls"]
        expected = {"prelim.fit_mle": mle, "prelim.oracle_perturbation": not mle}.get(name, True)
        if bool(calls) != expected:
            raise TraceError(
                f"{name} recorded {calls} calls; it must "
                f"{'run' if expected else 'not run'} on this workload"
            )


def setup_seconds() -> float:
    """Wall time from starting an interpreter until signlasso.cli is imported.

    The child inherits this process's environment, so BLAS is pinned and
    bytecode is already compiled, as for the workload process itself.
    """
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _READY], stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"importing signlasso.cli failed (exit {code})")
    return elapsed


def host_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    import signlasso
    import signlasso.cli

    checkout_src = (Path.cwd() / "src").resolve()
    if checkout_src not in Path(signlasso.__file__).resolve().parents:
        print(f"error: imported {signlasso.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2

    def cli_main(argv):
        # Looked up per call so a traced op runs the patched entry point.
        return signlasso.cli.main(argv)

    workload = WORKLOADS[args.workload]
    config = workload.make_config(args.seed)
    scratch = Path(args.scratch)
    config_path = scratch / "experiment.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    expected = workload.reference_digest if workload.uses_reference(args.seed) else None
    attempted = failed = 0
    reasons = []

    def op(tracer=None):
        nonlocal attempted, failed
        with traced(tracer) if tracer else contextlib.nullcontext():
            result = run_op(cli_main, config_path, scratch, workload, config, expected)
        attempted += 1
        if result.errors:
            failed += 1
            reasons.extend(result.errors[:3])
        return result

    warm = op()
    if expected is None:
        # Off the reference seed the first op's bytes are the expectation:
        # every later op of the run must reproduce them.
        expected = warm.digest
    discard(warm)

    plain, traced_walls, ok_replicates, setup = [], [], 0, []
    layer_self, counts_seen, failure_classes = [], None, {}
    deadline = time.perf_counter() + args.seconds
    # Start another round only if one more, at the median pace so far, still
    # ends before the deadline.
    pace = [warm.wall_s * (2 if args.trace else 1)]
    while len(plain) < MIN_TIMED_OPS or time.perf_counter() + statistics.median(pace) <= deadline:
        round_start = time.perf_counter()
        if not args.trace:
            # One set-up probe per op, so both means see the same drift.
            setup.append(setup_seconds())
        result = op()
        plain.append(result.wall_s)
        ok_replicates += result.replicates_ok
        discard(result)
        if args.trace:
            tracer = Tracer()
            result = op(tracer)
            traced_walls.append(result.wall_s)
            if result.errors:
                raise TraceError(f"a traced op failed the gate: {result.errors[0]}")
            check_layers_ran(tracer, config)
            counts = layer_counts(tracer, result.out_dir)
            if counts_seen is not None and counts != counts_seen:
                raise TraceError(f"exact counts changed between ops: {counts_seen} -> {counts}")
            counts_seen = counts
            failure_classes = {
                key.rsplit(".", 1)[1]: value for key, value in tracer.counts.items()
                if key.startswith("harness.replicates_failed.")
            }
            times = self_times(tracer.spans)
            layer_self.append({name: times.get(name, 0.0) for name in SPAN_NAMES})
            discard(result)
        pace.append(time.perf_counter() - round_start)

    if args.trace:
        metrics = {
            f"{name}.self_s": {
                "value": statistics.median(t[name] for t in layer_self), "unit": "s"}
            for name in SPAN_NAMES
        }
        for name, value in counts_seen.items():
            unit = "ratio" if name.endswith("_ratio") else "bytes" if name.endswith(".bytes") else "count"
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.fmean(traced_walls) / statistics.fmean(plain),
            "unit": "ratio",
        }
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            # Means, not medians: within a run the machine switches between
            # speed states, so op times form a mixture of modes.  The median
            # jumps from one mode to another as their mix shifts; the mean
            # follows the mix, and varied less from run to run.
            "op_s_mean": {"value": statistics.fmean(plain), "unit": "s"},
            "replicates_per_s": {"value": ok_replicates / sum(plain), "unit": "1/s"},
            "peak_rss_mb": {"value": rss_kib * 1024 / 1e6, "unit": "MB"},
        }
        metrics["setup_s"] = {"value": statistics.fmean(setup), "unit": "s"}
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "diagnostics": {
            "host": host_facts(),
            "timed_ops": len(plain),
            "op_s_p50": statistics.median(plain),
            "op_s": plain,
            "traced_op_s": traced_walls,
            "setup_s": setup,
            "replicates_failed_by_class": failure_classes,
            "failure_reasons": reasons[:10],
        },
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
