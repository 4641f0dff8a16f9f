"""Spans around calls into chshkit's public functions, and the per-layer
metrics computed from them.

The tracer wraps module attributes and class methods of the package in
place, from outside: nothing under ``src/`` changes.  A wrapped name that
no longer exists is skipped, so the metrics built from it go absent
instead of failing the run.  Spans stay in memory as
``[name, start, end, parent, op_id]`` lists and are written out once,
by the caller, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

#: The modules of ``src/chshkit``; a span's layer is the module that
#: defines the wrapped function.
LAYERS = ("cli", "sources", "estimators", "resort", "core", "rng")

#: Names wrapped besides the ones cli and resort import from other modules:
#: the CLI entry point, what the library workload calls directly, and the
#: two constructors every layer goes through.
EXPLICIT_TARGETS = (
    ("chshkit.cli", "main"),
    ("chshkit.resort", "resort_cascade"),
    ("chshkit.resort", "closure_probability"),
    ("chshkit.sources", "generate_subruns"),
    ("chshkit.core", "OutcomeSequence.__init__"),
    ("chshkit.rng", "RngSpec.generator"),
)

#: Modules whose imports from sibling modules are wrapped, so each CLI
#: command's span tree shows which layer its time went to.
IMPORTING_MODULES = ("chshkit.cli", "chshkit.resort")

#: Span names of ``closure_probability``: exact mode, Monte-Carlo mode.
CLOSURE_SPANS = ("resort.closure_exact", "resort.closure_mc")


def _span_name(fn, attr: str):
    layer = fn.__module__.rsplit(".", 1)[-1]
    if attr == "OutcomeSequence.__init__":
        return "core.OutcomeSequence"
    if fn.__name__ == "closure_probability":
        # Exact odds and the Monte-Carlo estimate cost orders of magnitude
        # apart and feed different metrics: one span name each.
        def by_mode(args, kwargs):
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
            return CLOSURE_SPANS[mode != "exact"]

        return by_mode
    return f"{layer}.{fn.__name__}"


def _count_rows(counts, args, kwargs, result):
    counts["sources.ingest_csv_rows"] += sum(result.counts)


def _count_bytes(counts, args, kwargs, result):
    dest = args[1] if len(args) > 1 else kwargs.get("dest")
    if isinstance(dest, (str, os.PathLike)):
        counts["sources.csv_bytes_written"] += os.path.getsize(dest)


def _count_cascade(counts, args, kwargs, result):
    counts["resort.steps_feasible"] += sum(result.feasible)
    counts["resort.steps_attempted"] += len(result.feasible)
    counts["resort.closures"] += int(result.closure)


#: Counts taken from a call's arguments and result, keyed by span name.
RESULT_HOOKS = {
    "sources.ingest_csv": _count_rows,
    "sources.write_subrun_csv": _count_bytes,
    "sources.write_counterfactual_csv": _count_bytes,
    "resort.resort_cascade": _count_cascade,
}


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.wrapped: set[str] = set()
        self.op_id = 0
        self._stack: list[int] = []

    def wrap(self, fn, name):
        tracer = self
        hook = None if callable(name) else RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            record = [span_name, perf_counter(), 0.0,
                      tracer._stack[-1] if tracer._stack else -1, tracer.op_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, original, name in _targets():
                attr = attr.rsplit(".", 1)[-1]
                setattr(owner, attr, self.wrap(original, name))
                saved.append((owner, attr, original))
                self.wrapped.update(CLOSURE_SPANS if callable(name) else (name,))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _targets():
    """(owner, attribute, original function, span name) for each wrap."""
    found = []
    for module_name, attr in EXPLICIT_TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            owner = getattr(owner, attr.split(".")[0], None)
            if owner is None:
                continue
        fn = vars(owner).get(attr.rsplit(".", 1)[-1])
        if inspect.isfunction(fn):
            found.append((owner, attr, fn, _span_name(fn, attr)))
    for module_name in IMPORTING_MODULES:
        module = importlib.import_module(module_name)
        for attr, fn in sorted(vars(module).items()):
            if (inspect.isfunction(fn) and fn.__module__.startswith("chshkit.")
                    and fn.__module__ != module_name):
                found.append((module, attr, fn, _span_name(fn, attr)))
    return found


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_metrics(tracer: Tracer, startup_s: float = 0.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass; names of unwrapped spans go absent.

    ``startup_s`` is cli-layer time that no span covers: interpreter start
    and ``import chshkit`` in the subprocesses the pass stands for.  It
    counts toward the cli share and the total the shares divide.
    """
    spans = tracer.spans
    own = self_times(spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    durations: dict[str, list[float]] = {}
    for span, self_time in zip(spans, own):
        self_s[span[0]] += self_time
        calls[span[0]] += 1
        durations.setdefault(span[0], []).append(span[2] - span[1])
    total = startup_s + sum(span[2] - span[1] for span in spans if span[3] < 0)
    counts = tracer.counts
    out: dict[str, float] = {}

    def has(name):
        return name in tracer.wrapped

    layer_self = Counter(cli=startup_s)
    for name, seconds in self_s.items():
        layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / total if total > 0 else 0.0

    for fn in ("ingest_csv", "ingest_counterfactual_csv",
               "write_subrun_csv", "write_counterfactual_csv"):
        name = f"sources.{fn}"
        if has(name):
            out[f"{name}_s"] = self_s[name]
            out[f"{name}_calls"] = calls[name]
    if has("sources.ingest_csv"):
        busy = sum(durations.get("sources.ingest_csv", ()))
        rows = counts["sources.ingest_csv_rows"]
        out["sources.ingest_rows_per_s"] = rows / busy if busy > 0 else 0.0
    if has("sources.write_subrun_csv") or has("sources.write_counterfactual_csv"):
        out["sources.csv_bytes_written"] = counts["sources.csv_bytes_written"]
    for name in ("sources.generate_subruns", "sources.lhv_generate",
                 "estimators.gamma_subruns", "estimators.gamma_pooled",
                 "estimators.termwise_bound_check", "estimators.split_random",
                 "resort.resort_cascade", "resort.closure_exact", "resort.closure_mc"):
        if has(name):
            out[f"{name}_s"] = self_s[name]
    if has("resort.resort_cascade"):
        cascades = calls["resort.resort_cascade"]
        steps = counts["resort.steps_attempted"]
        out["resort.cascade_calls"] = cascades
        per_call = durations.get("resort.resort_cascade")
        out["resort.cascade_call_us"] = statistics.median(per_call) * 1e6 if per_call else 0.0
        out["resort.steps_feasible_ratio"] = counts["resort.steps_feasible"] / steps if steps else 0.0
        out["resort.closure_ratio"] = counts["resort.closures"] / cascades if cascades else 0.0
    if has("resort.closure_exact"):
        out["resort.closure_exact_calls"] = calls["resort.closure_exact"]
    if has("core.OutcomeSequence"):
        out["core.outcome_sequences_built"] = calls["core.OutcomeSequence"]
        out["core.validate_s"] = self_s["core.OutcomeSequence"]
    if has("rng.generator"):
        out["rng.generators_created"] = calls["rng.generator"]
        out["rng.generator_s"] = self_s["rng.generator"]
    return out
