"""Repeat the benchmark over seeds and summarise it.

    python3 perfbench/sweep.py --out perfbench/baseline.json

Run from the root of a checkout.  For seeds 0 .. 9 it runs every
workload once with tracing off, workload after workload, so that drift in
the machine's speed reaches all of them alike.  Then it makes two traced runs
per workload at seed 0, whose exact counts must agree.  Each run measures
for BENCHMARK.json's ``run_seconds``.

For each end-to-end metric the output gives the values, their median and
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median.  To compare two
commits, measure both with the same settings and alternate their runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Untraced runs per workload: the ten values whose quartiles give the spread.
RUNS = 10
# Per-layer metrics that are not exact counts.
_TIMED = (".self_s", "overhead_ratio")
# Diagnostics kept per untraced run.
_RUN_FACTS = ("seed", "timed_ops", "op_s_p50", "steal_ticks", "loadavg_before", "loadavg_after")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["diagnostics"] = json.loads(lines[-2])["diagnostics"]
    print(workload, seed, trace, result["correct"],
          {k: round(v["value"], 4) for k, v in result["metrics"].items()
           if trace == 0 or k == "trace.overhead_ratio"}, flush=True)
    return result


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, help="summary JSON to write")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    plain = {w: [] for w in workloads}
    for seed in range(RUNS):
        for w in workloads:
            plain[w].append(run(w, seed, seconds, 0))
    traced = {w: [run(w, 0, seconds, 1) for _ in range(2)] for w in workloads}

    report = {"run_seconds": seconds, "host": plain[workloads[0]][0]["diagnostics"]["host"]}
    for w in workloads:
        first, second = (r["metrics"] for r in traced[w])
        counts = {k: v["value"] for k, v in first.items() if not k.endswith(_TIMED)}
        report[w] = {
            "correct": all(r["correct"] for r in plain[w] + traced[w]),
            "attempted": sum(r["attempted"] for r in plain[w] + traced[w]),
            "failed": sum(r["failed"] for r in plain[w] + traced[w]),
            "end_to_end": {
                m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in plain[w]])
                for m in spec["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in first.items()},
            # In run order, so that a drifting machine shows as a trend.
            "runs": [{key: r["diagnostics"][key] for key in _RUN_FACTS} for r in plain[w]],
            "counts_repeat": counts == {k: second[k]["value"] for k in counts},
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for w in workloads:
        spreads = {k: round(v["spread"], 4) for k, v in report[w]["end_to_end"].items()}
        print(w, "correct", report[w]["correct"], "counts_repeat", report[w]["counts_repeat"],
              "spreads", spreads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
