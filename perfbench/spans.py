"""Span tracing of signlasso's public functions, wrapped from outside.

The benchmark patches module attributes for the duration of a traced op and
restores them afterwards, so the program itself carries no tracing code.
Each span records its name, start, end, parent span and the replicate it
belongs to; counts are read from the wrapped functions' return values.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


class TraceError(RuntimeError):
    """A wrapped name is missing, or a layer that must run recorded nothing."""


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    # Spans of one replicate share this id; 0 marks spans outside replicates.
    replicate: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    sweeps_max: int = 0
    _stack: list = field(default_factory=list)
    _replicate: int = 0
    _opened: int = 0

    def call(self, name, fn, args, kwargs):
        if name == "model.simulate":
            # One count sample per replicate: it opens the replicate.  A new
            # design (the next n) or the end of the sweep closes it.
            self._opened += 1
            self._replicate = self._opened
        elif name == "harness.make_design":
            self._replicate = 0
        index = len(self.spans)
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None,
                    replicate=self._replicate)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if name == "harness.run_experiment":
                self._replicate = 0
        self.counts[name + ".calls"] += 1
        self._count(name, result)
        return result

    def _count(self, name, result):
        c = self.counts
        if name == "prelim.fit_mle":
            c["prelim.fit_mle.iterations"] += result.iterations
            c["prelim.fit_mle.unconverged"] += not result.converged
        elif name == "solver.fit":
            c["solver.fit.sweeps"] += result.sweeps_used
            c["solver.fit.converged"] += result.converged
            self.sweeps_max = max(self.sweeps_max, result.sweeps_used)
        elif name == "solver.kkt_check":
            c["solver.kkt_check.passed"] += result.all_passed
        elif name == "harness.run_experiment":
            for rec in result.records:
                if rec.ok:
                    c["harness.replicates_ok"] += 1
                else:
                    c["harness.replicates_failed"] += 1
                    c["harness.replicates_failed." + error_class(rec.error)] += 1


def error_class(message: str) -> str:
    """The exception class of a replicate error, or its message if it has none."""
    head, sep, _ = message.partition(":")
    return head if sep else message.replace(" ", "_")


def self_times(spans) -> dict:
    """Total self time per span name: its duration minus its children's.

    Spans nest strictly (the sweep runs on one thread), so the children of a
    span cover disjoint parts of its interval.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += span.end - span.start - child_time[index]
    return dict(totals)


# (span name, module[:class], attribute) of every wrapped function.
# ``signlasso.harness`` imports its layers by name, so the harness's own
# bindings are the ones patched.
TARGETS = (
    ("cli.main", "signlasso.cli", "main"),
    ("cli.load_experiment_config", "signlasso.cli", "load_experiment_config"),
    ("harness.run_experiment", "signlasso.cli", "run_experiment"),
    ("harness.write", "signlasso.cli", "write_results_csv"),
    ("harness.write", "signlasso.cli", "write_summary_csv"),
    ("harness.write", "signlasso.cli", "write_report_json"),
    ("harness.make_design", "signlasso.harness", "make_design"),
    ("model.simulate", "signlasso.harness", "simulate"),
    ("prelim.fit_mle", "signlasso.harness", "fit_mle"),
    ("prelim.oracle_perturbation", "signlasso.harness", "oracle_perturbation"),
    ("working.build_working_problem", "signlasso.harness", "build_working_problem"),
    ("working.gram", "signlasso.working:WorkingProblem", "gram"),
    ("solver.fit", "signlasso.harness", "fit"),
    ("solver.kkt_check", "signlasso.solver", "kkt_check"),
    ("conditions.blocked_gram", "signlasso.harness", "blocked_gram"),
    ("conditions.proposition_diagnostics", "signlasso.harness", "proposition_diagnostics"),
    ("conditions.check_assumptions", "signlasso.harness", "check_assumptions"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def targets():
    """TARGETS with each owner resolved to its module or class."""
    resolved = []
    for name, where, attr in TARGETS:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
            if owner is None:
                raise TraceError(f"{where} is missing; cannot trace {name}")
        resolved.append((name, owner, attr))
    return resolved


@contextlib.contextmanager
def traced(tracer: Tracer, wrap=None):
    """Patch every target to record into ``tracer``; restore on exit."""
    saved = []
    try:
        for name, owner, attr in wrap if wrap is not None else targets():
            original = owner.__dict__.get(attr)
            if not callable(original):
                raise TraceError(f"{owner.__name__}.{attr} is missing; cannot trace {name}")
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapped
