"""Runtime breakdown, zone utilization and analytic fidelity accounting
over a Trace.

The breakdown splits the span exactly: each category is the total duration
of its events, `hidden` is the time they count more than once and `idle`
the time no event covers, so the categories minus `hidden` plus `idle` are
the span for every trace.

Each of the three trace metrics reads the trace once: it unpacks each
event, tests its kind by identity and computes its end as `t_start +
duration` in place.  The union of busy intervals is taken over the events
themselves, so neither union builds a `(start, end)` tuple per event.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .machine import FidelityParams, _check_type
from .trace import EventKind, Trace, TraceEvent

# members as module globals: reading one off the Enum class per event is slow
INIT = EventKind.INIT
GATE_1Q = EventKind.GATE_1Q
GATE_2Q = EventKind.GATE_2Q
COOL = EventKind.COOL
SHUTTLE = EventKind.SHUTTLE
REORDER = EventKind.REORDER
CIRCULATE = EventKind.CIRCULATE
MEASURE = EventKind.MEASURE

_start = itemgetter(0)
_duration = itemgetter(1)


@dataclass(frozen=True)
class RuntimeBreakdown:
    init: float
    gate_cooling: float
    shift_swap_split: float
    circulation: float
    measure: float
    hidden: float
    idle: float
    total_span: float


def _union_length(events: list[TraceEvent]) -> float:
    """Length of the union of the events' intervals, each from `t_start` to
    `t_start + duration`; an event covers nothing unless it ends after it
    starts, which one with a NaN start or end never does.

    Two stable sorts, by duration and then by start, order the events by
    (start, end) without building a tuple per event: of two events with
    one start, the longer never ends first.  The walk indexes each event,
    which costs less than unpacking its six fields, and computes its end
    as `t_start + duration`, as the metrics do.

    A NaN would leave the sorts' order undefined, so when the walk meets
    one it walks again over the events that end after their start.  The
    test for it sits in the branch of events that cover nothing, so a
    walk without one pays nothing for it.  The conditional is `max(a,
    last_end)` without the call: both give `a` unless `a < last_end`.
    """
    total = 0.0
    last_end = -math.inf
    nan = False
    order = sorted(events, key=_duration)
    order.sort(key=_start)
    for e in order:
        a = e[0]
        b = a + e[1]
        if a < b:
            if b > last_end:
                total += b - (last_end if a < last_end else a)
                last_end = b
        elif not b <= a:
            nan = True
    if nan:
        return _union_length([e for e in events if e[0] < e[0] + e[1]])
    return total


def runtime_breakdown(tr: Trace) -> RuntimeBreakdown:
    """Split the span by event kind.  Each category is the total duration
    of its events: gate and cooling, shuttle and reorder, circulation, init
    and measure.  A circulating transition is one CIRCULATE event, so its
    regrouping and exchanges count as circulation.  With `busy` the length
    of the union of all events,

        hidden = (sum of the categories) - busy
        idle   = span - busy

    so the categories minus `hidden` plus `idle` are the span, up to float
    rounding, for every trace.

    Reads the trace once and sorts its events once.  Each category's
    durations are collected in event order and added with `sum`: from
    Python 3.12 on, `sum` compensates float rounding, which a running `+=`
    would not.  An event of no known kind is named in a `ValueError`.
    """
    _check_type("tr", tr, Trace)
    init: list[float] = []
    gate_cooling: list[float] = []
    shift: list[float] = []
    circulation: list[float] = []
    measure: list[float] = []
    events = tr.events
    span = events[0][0] + events[0][1] if events else 0.0
    for e in events:
        start, duration, kind, _, _, _ = e
        end = start + duration
        if end > span:
            span = end
        if kind is GATE_1Q or kind is GATE_2Q or kind is COOL:
            gate_cooling.append(duration)
        elif kind is SHUTTLE or kind is REORDER:
            shift.append(duration)
        elif kind is CIRCULATE:
            circulation.append(duration)
        elif kind is INIT:
            init.append(duration)
        elif kind is MEASURE:
            measure.append(duration)
        else:
            raise ValueError(f"event of unknown kind: {e}")
    totals = [sum(init), sum(gate_cooling), sum(shift), sum(circulation), sum(measure)]
    busy = _union_length(events)
    return RuntimeBreakdown(*totals, hidden=sum(totals) - busy, idle=span - busy, total_span=span)


def zone_utilization(tr: Trace) -> float:
    """Time-weighted percentage of the trace's gate zones engaged in gate
    application or cooling, averaged over the union of busy intervals.
    Reads the trace once."""
    _check_type("tr", tr, Trace)
    k = tr.gate_zones
    if k < 1:
        raise ValueError("need at least one gate zone")
    busy: list[TraceEvent] = []
    zone_us: list[float] = []
    for e in tr.events:
        _, duration, kind, zones, _, _ = e
        if kind is GATE_1Q or kind is GATE_2Q or kind is COOL:
            busy.append(e)
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


def fidelity_report(tr: Trace, f: FidelityParams = FidelityParams()) -> FidelityLedger:
    """Multiplicative error budget: per-gate RB and leakage terms, one
    transport RB term per transport the events' payloads count, one SPAM
    term per qubit, and exponential T1 decay over the span.  Only a
    transition counts transports: `TRANSPORTS_PER_EXCHANGE` (2) per pair
    exchange, and a circulation `TRANSPORTS_PER_CIRCULATING_PAIR` (2) more
    for each of the ceil(width / 2) pairs aboard.  Reads the trace once."""
    _check_type("tr", tr, Trace)
    _check_type("f", f, FidelityParams)
    n_1q = n_2q = n_transport = 0
    events = tr.events
    span = events[0][0] + events[0][1] if events else 0.0
    for start, duration, kind, _, _, payload in events:
        end = start + duration
        if end > span:
            span = end
        if payload:
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
