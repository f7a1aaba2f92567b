"""Runtime breakdown, zone utilization, analytic fidelity accounting, and
end-to-end training-time projection over a Trace."""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .machine import FidelityParams
from .trace import EventKind, Trace


@dataclass(frozen=True)
class RuntimeBreakdown:
    init: float
    gate_cooling: float
    shift_swap_split: float
    circulation: float
    measure: float
    hidden: float
    total_span: float

    def as_dict(self) -> dict[str, float]:
        return {
            "init_us": self.init,
            "gate_cooling_us": self.gate_cooling,
            "shift_swap_split_us": self.shift_swap_split,
            "circulation_us": self.circulation,
            "measure_us": self.measure,
            "hidden_us": self.hidden,
            "total_us": self.total_span,
        }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    last_end = -math.inf
    for a, b in sorted(intervals):
        if b <= last_end:
            continue
        total += b - max(a, last_end)
        last_end = b
    return total


class _Coverage:
    """The union of a set of intervals as sorted disjoint runs, with the
    total run length before each run, for O(log n) overlap queries."""

    def __init__(self, intervals: list[tuple[float, float]]):
        self.starts: list[float] = []
        self.ends: list[float] = []
        for a, b in sorted(intervals):
            if self.ends and a <= self.ends[-1]:
                if b > self.ends[-1]:
                    self.ends[-1] = b
            else:
                self.starts.append(a)
                self.ends.append(b)
        self.before = [0.0]
        for a, b in zip(self.starts, self.ends):
            self.before.append(self.before[-1] + (b - a))

    def overlap(self, a: float, b: float) -> float:
        """Length of [a, b] covered by the union."""
        i = bisect_right(self.ends, a)      # first run ending after a
        j = bisect_left(self.starts, b)     # first run starting at or after b
        if i >= j:
            return 0.0
        first = min(self.ends[i], b) - max(self.starts[i], a)
        if j - i == 1:
            return first
        inner = self.before[j - 1] - self.before[i + 1]
        return first + inner + (min(self.ends[j - 1], b) - self.starts[j - 1])


def runtime_breakdown(tr: Trace) -> RuntimeBreakdown:
    """Sum event durations by category.  Circulation time concurrent with
    zone-lane work or reordering counts as hidden, not as circulation."""
    init = sum(e.duration for e in tr.of_kind(EventKind.INIT))
    gate_cooling = sum(
        e.duration for e in tr.of_kind(EventKind.GATE_1Q, EventKind.GATE_2Q, EventKind.COOL)
    )
    shift = sum(e.duration for e in tr.of_kind(EventKind.SHUTTLE, EventKind.REORDER))
    measure = sum(e.duration for e in tr.of_kind(EventKind.MEASURE))
    busy = [
        (e.t_start, e.t_end)
        for e in tr.events
        if e.kind in (EventKind.GATE_1Q, EventKind.GATE_2Q, EventKind.COOL,
                      EventKind.REORDER, EventKind.SHUTTLE)
    ]
    circulating = tr.of_kind(EventKind.CIRCULATE)
    busy_cover = _Coverage(busy)
    circulation = 0.0
    hidden = 0.0
    for e in circulating:
        covered = busy_cover.overlap(e.t_start, e.t_end)
        circulation += e.duration - covered
        hidden += covered
    # overlapped prep time (pipelined init/measure) is also hidden
    zone_cover = _Coverage(busy + [(e.t_start, e.t_end) for e in circulating])
    for e in tr.of_kind(EventKind.INIT, EventKind.MEASURE):
        hidden += zone_cover.overlap(e.t_start, e.t_end)
    return RuntimeBreakdown(
        init=init,
        gate_cooling=gate_cooling,
        shift_swap_split=shift,
        circulation=circulation,
        measure=measure,
        hidden=hidden,
        total_span=tr.span,
    )


def zone_utilization(tr: Trace, k: int | None = None) -> float:
    """Time-weighted percentage of gate zones engaged in gate application
    or cooling, averaged over the union of busy intervals."""
    k = k if k is not None else tr.gate_zones
    if k < 1:
        raise ValueError("need at least one gate zone")
    events = tr.of_kind(EventKind.GATE_1Q, EventKind.GATE_2Q, EventKind.COOL)
    if not events:
        return 0.0
    window = _union_length([(e.t_start, e.t_end) for e in events])
    if window <= 0.0:
        return 0.0
    weighted = sum(min(e.zones_busy, k) * e.duration for e in events)
    return 100.0 * weighted / (k * window)


@dataclass(frozen=True)
class FidelityLedger:
    n_1q: int
    n_2q: int
    n_transport: int
    n_qubits: int
    runtime_s: float
    f_spam: float
    f_1q: float
    f_2q: float
    f_transport: float
    f_decoh: float

    @property
    def f_total(self) -> float:
        return self.f_spam * self.f_1q * self.f_2q * self.f_transport * self.f_decoh

    @property
    def i_total(self) -> float:
        return 1.0 - self.f_total

    def as_dict(self) -> dict[str, float]:
        return {
            "n_1q": self.n_1q,
            "n_2q": self.n_2q,
            "n_transport": self.n_transport,
            "n_qubits": self.n_qubits,
            "runtime_s": self.runtime_s,
            "f_spam": self.f_spam,
            "f_1q": self.f_1q,
            "f_2q": self.f_2q,
            "f_transport": self.f_transport,
            "f_decoh": self.f_decoh,
            "f_total": self.f_total,
            "i_total": self.i_total,
        }


def fidelity_report(tr: Trace, f: FidelityParams = FidelityParams()) -> FidelityLedger:
    """Multiplicative error budget: per-gate RB and leakage terms, one
    transport RB event per inter-pair exchange or curved-electrode passage,
    one SPAM term per qubit, and exponential T1 decay over the span."""
    n_1q = tr.gate_count_1q()
    n_2q = tr.gate_count_2q()
    n_transport = tr.transport_events()
    n_qubits = tr.width
    runtime_s = tr.span * 1e-6
    f_1q = ((1.0 - f.inf_1q_rb) * (1.0 - f.inf_1q_leak)) ** n_1q
    f_2q = ((1.0 - f.inf_2q_rb) * (1.0 - f.inf_2q_leak)) ** n_2q
    f_transport = (1.0 - f.inf_transport) ** n_transport
    f_spam = (1.0 - f.inf_spam) ** n_qubits
    f_decoh = math.exp(-runtime_s / f.t1)
    return FidelityLedger(
        n_1q=n_1q,
        n_2q=n_2q,
        n_transport=n_transport,
        n_qubits=n_qubits,
        runtime_s=runtime_s,
        f_spam=f_spam,
        f_1q=f_1q,
        f_2q=f_2q,
        f_transport=f_transport,
        f_decoh=f_decoh,
    )


def project_training_time(
    per_shot_us: float, shots: int, epochs: int, classical_overhead_us: float = 0.0
) -> float:
    """(per_shot * shots + classical_overhead) * epochs, in hours."""
    if per_shot_us < 0 or shots < 0 or epochs < 0 or classical_overhead_us < 0:
        raise ValueError("projection inputs must be non-negative")
    total_us = (per_shot_us * shots + classical_overhead_us) * epochs
    return total_us / 1e6 / 3600.0


def geometric_mean(values: list[float]) -> float:
    if not values:
        raise ValueError("geometric mean of empty list")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
