"""Runtime breakdown, zone utilization, analytic fidelity accounting, and
end-to-end training-time projection over a Trace.

Each of the three trace metrics reads the trace once: it tests event kinds
by identity and computes an event's end as `t_start + duration` in place.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .machine import FidelityParams
from .trace import EventKind, Trace

# members as module globals: reading one off the Enum class per event is slow
INIT = EventKind.INIT
GATE_1Q = EventKind.GATE_1Q
GATE_2Q = EventKind.GATE_2Q
COOL = EventKind.COOL
SHUTTLE = EventKind.SHUTTLE
REORDER = EventKind.REORDER
CIRCULATE = EventKind.CIRCULATE


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
    zone-lane work or reordering counts as hidden, not as circulation.

    Reads the trace once.  Each category's durations are collected in
    event order and added with `sum`: from Python 3.12 on, `sum`
    compensates float rounding, which a running `+=` would not.
    """
    init: list[float] = []
    gate_cooling: list[float] = []
    shift: list[float] = []
    measure: list[float] = []
    busy: list[tuple[float, float]] = []
    circulating: list[tuple[float, float, float]] = []
    prep: list[tuple[float, float]] = []
    events = tr.events
    span = events[0].t_start + events[0].duration if events else 0.0
    for e in events:
        kind = e.kind
        start = e.t_start
        duration = e.duration
        end = start + duration
        if end > span:
            span = end
        if kind is GATE_1Q or kind is GATE_2Q or kind is COOL:
            gate_cooling.append(duration)
            busy.append((start, end))
        elif kind is SHUTTLE or kind is REORDER:
            shift.append(duration)
            busy.append((start, end))
        elif kind is CIRCULATE:
            circulating.append((start, end, duration))
        else:
            (init if kind is INIT else measure).append(duration)
            prep.append((start, end))
    busy_cover = _Coverage(busy)
    circulation = 0.0
    hidden = 0.0
    for start, end, duration in circulating:
        covered = busy_cover.overlap(start, end)
        circulation += duration - covered
        hidden += covered
    # overlapped prep time (pipelined init/measure) is also hidden
    zone_cover = _Coverage(busy + [(start, end) for start, end, _ in circulating])
    for start, end in prep:
        hidden += zone_cover.overlap(start, end)
    return RuntimeBreakdown(
        init=sum(init),
        gate_cooling=sum(gate_cooling),
        shift_swap_split=sum(shift),
        circulation=circulation,
        measure=sum(measure),
        hidden=hidden,
        total_span=span,
    )


def zone_utilization(tr: Trace) -> float:
    """Time-weighted percentage of the trace's gate zones engaged in gate
    application or cooling, averaged over the union of busy intervals.
    Reads the trace once."""
    k = tr.gate_zones
    if k < 1:
        raise ValueError("need at least one gate zone")
    busy: list[tuple[float, float]] = []
    zone_us: list[float] = []
    for e in tr.events:
        kind = e.kind
        if kind is GATE_1Q or kind is GATE_2Q or kind is COOL:
            start = e.t_start
            duration = e.duration
            busy.append((start, start + duration))
            zones = e.zones_busy
            zone_us.append((k if k < zones else zones) * duration)
    if not busy:
        return 0.0
    window = _union_length(busy)
    if window <= 0.0:
        return 0.0
    return 100.0 * sum(zone_us) / (k * window)


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
    one SPAM term per qubit, and exponential T1 decay over the span.  Reads
    the trace once."""
    n_1q = n_2q = n_transport = 0
    events = tr.events
    span = events[0].t_start + events[0].duration if events else 0.0
    for e in events:
        end = e.t_start + e.duration
        if end > span:
            span = end
        payload = e.payload
        if payload:
            kind = e.kind
            if kind is GATE_1Q:
                n_1q += len(payload.get("gate_ids", ()))
            elif kind is GATE_2Q:
                n_2q += len(payload.get("gate_ids", ()))
            n_transport += int(payload.get("transports", 0))
    n_qubits = tr.width
    runtime_s = span * 1e-6
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
