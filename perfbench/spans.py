"""Spans and counts around the public racetrack functions, for the traced run.

`Tracer.installed` rebinds each function at the module attribute the
program calls it through (e.g. `racetrack.schedulers.plan_reorder`) and
restores the original on exit.  A span is (name, start, end, parent); a
layer's self time is its span minus its child spans.  Spans are kept in
memory and folded into per-case totals after each case.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


def _on_build_dag(counts, circuit):
    counts["circuit.edges"] += len(circuit.edges)


def _on_layers(counts, layers):
    counts["translate.layers_2q"] += len(layers)


def _on_plan(counts, plan):
    counts["planner.calls"] += 1
    counts["planner.ops"] += len(plan.ops)
    counts["planner.circulating"] += plan.path_id is not None


def _on_blocks(counts, schedule):
    counts["blocks.layers"] += schedule.n_layers
    counts["blocks.residual_gates"] += len(schedule.residual)


def patch_points(rt):
    """(owner, attribute, span name or None for a bare call count, result hook)."""
    return [
        (rt.translate, "translate_to_native", "translate.translate", None),
        (rt.translate, "build_dag", "circuit.build_dag", _on_build_dag),
        (rt.translate, "extract_2q_layers", "translate.layering", _on_layers),
        (rt.translate, "one_qubit_phases", "translate.layering", None),
        (rt.schedulers, "schedule", "schedulers.schedule", None),
        (rt.schedulers, "plan_reorder", "planner.plan", _on_plan),
        (rt.schedulers, "extract_inplace_blocks", "blocks.extract", _on_blocks),
        (rt.trace.Trace, "validate", "trace.validate", None),
        (rt.metrics, "runtime_breakdown", "metrics.breakdown", None),
        (rt.metrics, "zone_utilization", "metrics.zone_util", None),
        (rt.metrics, "fidelity_report", "metrics.fidelity", None),
        # apply_reorder runs ~10^5 times per deep case: count it, no span
        (rt.ions, "apply_reorder", None, None),
        (rt.planner, "apply_reorder", None, None),
        (rt.schedulers, "apply_reorder", None, None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, result)
            return result
        return wrapper

    def _count(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["ions.apply_reorder_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, rt):
        saved = []
        try:
            for owner, attr, name, hook in patch_points(rt):
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._count(fn) if name is None else self._span(name, fn, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def take_self_times(self) -> dict[str, float]:
        """Self seconds per span name since the last call; clears the spans."""
        out: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        self.spans.clear()
        return out
