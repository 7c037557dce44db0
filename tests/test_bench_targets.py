"""Every function the benchmark traces is still a function of the program,
the program still calls it, and every benchmark config still loads.

``perfbench/spans.py`` patches names in signlasso's modules and
``perfbench/ops.py`` builds the configs it runs; a renamed or moved name, a
call moved off the patched binding, or a loader rule that rejects a
benchmark config would otherwise surface only when the benchmark runs.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import signlasso.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses look themselves up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def spans(monkeypatch):
    return _load(monkeypatch, "spans")


@pytest.fixture()
def ops(monkeypatch):
    return _load(monkeypatch, "ops")


def test_every_benchmark_target_is_a_callable_of_its_owner(spans):
    resolved = spans.targets()
    assert len(resolved) == len(spans.TARGETS)
    for name, owner, attr in resolved:
        assert callable(owner.__dict__.get(attr)), f"{name}: {owner.__name__}.{attr}"


def test_every_traced_layer_records_calls(spans, tmp_path, capsys):
    config = {
        "design": {"kind": "correlated_gaussian", "rho": 0.2, "scale": 0.6},
        "beta_star": [1.0, -1.0, 0.0, 0.0],
        "n_grid": [60, 120],
        "c1": 1.0,
        "c2": 0.5,
        "alpha_coef": 1.0,
        "replicates": 2,
        "seed": 90210,
        "tau": 0.3,
    }
    counts = {}
    for mode in ("oracle:1.0", "mle"):
        path = tmp_path / f"{mode.replace(':', '_')}.json"
        path.write_text(json.dumps({**config, "beta_tilde_mode": mode}))
        tracer = spans.Tracer()
        with spans.traced(tracer):
            # Looked up at call time: cli.main itself is a traced name.
            code = signlasso.cli.main(
                ["simulate", "--config", str(path), "--out", str(tmp_path / mode)]
            )
        assert code == 0
        counts[mode] = tracer.counts
    # Exactly one preliminary estimator runs per mode.
    assert counts["mle"]["prelim.oracle_perturbation.calls"] == 0
    assert counts["oracle:1.0"]["prelim.fit_mle.calls"] == 0
    silent = [
        name for name in spans.SPAN_NAMES
        if not any(c[name + ".calls"] for c in counts.values())
    ]
    assert silent == []


def test_every_benchmark_config_loads(ops, tmp_path):
    for name, workload in ops.WORKLOADS.items():
        for seed in (0, 1):
            config = workload.make_config(seed)
            path = tmp_path / f"{name}_{seed}.json"
            path.write_text(json.dumps(config))
            assert signlasso.cli.load_experiment_config(path).seed == config["seed"]
