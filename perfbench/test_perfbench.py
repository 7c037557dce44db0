"""Tests of the benchmark itself.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from ops import WORKLOADS, gate, run_op
from spans import Span, Tracer, TraceError, self_times, traced

REPO = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_is_duration_minus_children():
    spans = [
        Span("op", 0.0, 10.0),
        Span("fit", 1.0, 4.0, parent=0),
        Span("kkt", 2.0, 3.0, parent=1),
        Span("fit", 5.0, 6.0, parent=0),
        Span("gram", 7.0, 7.5, parent=0),
    ]
    assert self_times(spans) == {"op": 5.5, "fit": 3.0, "kkt": 1.0, "gram": 0.5}


def test_traced_records_nesting_and_restores_originals():
    module = types.ModuleType("fake")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    originals = (module.inner, module.outer)
    tracer = Tracer()
    wrap = [("outer", module, "outer"), ("inner", module, "inner")]
    with traced(tracer, wrap):
        assert module.outer(1) == 4
    assert (module.inner, module.outer) == originals
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert tracer.counts["inner.calls"] == 1


def test_traced_fails_loudly_on_a_missing_name():
    module = types.ModuleType("fake")
    module.present = lambda: None
    original = module.present
    with pytest.raises(TraceError, match="absent"):
        with traced(Tracer(), [("p", module, "present"), ("a", module, "absent")]):
            pass
    assert module.present is original


@pytest.fixture(scope="module")
def canonical_op(tmp_path_factory):
    import signlasso.cli

    workload = WORKLOADS["canonical"]
    config = workload.make_config(0)
    scratch = tmp_path_factory.mktemp("op")
    config_path = scratch / "experiment.json"
    config_path.write_text(json.dumps(config))
    result = run_op(signlasso.cli.main, config_path, scratch, workload, config,
                    workload.reference_digest)
    return workload, config, result


def test_gate_accepts_the_reference_op(canonical_op):
    _, _, result = canonical_op
    assert result.errors == []
    assert result.replicates_ok == 600


def test_gate_rejects_a_tampered_summary(canonical_op, tmp_path):
    workload, config, result = canonical_op
    out = tmp_path / "out"
    shutil.copytree(result.out_dir, out)
    summary = out / "summary.csv"
    text = summary.read_text()
    assert "0.55500000000000005" in text
    summary.write_text(text.replace("0.55500000000000005", "0.56000000000000005"))
    stdout = "".join(f"{out / name}\n" for name in ("results.csv", "summary.csv", "report.json"))
    errors = gate(workload, config, 0, stdout, out, workload.reference_digest)
    assert any("digest" in e for e in errors)
    assert any("pilot" in e for e in errors)


def test_gate_rejects_extra_stdout_and_a_failed_exit(canonical_op):
    workload, config, result = canonical_op
    out = result.out_dir
    stdout = "".join(f"{out / name}\n" for name in ("results.csv", "summary.csv", "report.json"))
    assert gate(workload, config, 0, stdout, out, workload.reference_digest) == []
    assert gate(workload, config, 0, stdout + "noise\n", out, workload.reference_digest)
    assert gate(workload, config, 1, stdout, out, workload.reference_digest)


def test_traced_op_groups_spans_by_replicate(canonical_op):
    import signlasso.cli

    workload, config, result = canonical_op
    config_path = result.out_dir.parent / "experiment.json"
    tracer = Tracer()
    with traced(tracer):
        traced_result = run_op(signlasso.cli.main, config_path, result.out_dir.parent,
                               workload, config, workload.reference_digest)
    assert traced_result.errors == []
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, set()).add(span.replicate)
    assert by_name["model.simulate"] == set(range(1, 601))
    assert by_name["solver.fit"] == by_name["model.simulate"]
    for name in ("cli.main", "harness.run_experiment", "harness.make_design",
                 "conditions.check_assumptions", "harness.write"):
        assert by_name[name] == {0}, name


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=180,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, kind):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    proc = _run(REPO, "--workload", "mle", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(NAME.fullmatch(name) for name in emitted)


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "canonical", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
