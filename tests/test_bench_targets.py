"""Every function the benchmark traces is still a function of the program.

``perfbench/spans.py`` patches names in signlasso's modules; a renamed or
moved name would otherwise surface only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_benchmark_target_is_a_callable_of_its_owner(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # The module's dataclasses look themselves up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    resolved = spans.targets()
    assert len(resolved) == len(spans.TARGETS)
    for name, owner, attr in resolved:
        assert callable(owner.__dict__.get(attr)), f"{name}: {owner.__name__}.{attr}"
