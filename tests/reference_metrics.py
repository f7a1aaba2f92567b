"""Reference copies of the multi-walk metric and validation bodies.

`racetrack.metrics` and `Trace.validate` read a trace once.  These are the
straightforward versions, one pass over the events per quantity, kept so
that tests can hold the one-walk code to equal results.  The union of
intervals is computed here on its own, run by run, so that a fault in the
package's union shows.
"""
from __future__ import annotations

import math

from racetrack.machine import FidelityParams
from racetrack.metrics import FidelityLedger, RuntimeBreakdown
from racetrack.trace import EventKind, Trace, TraceEvent


def of_kind(tr: Trace, *kinds: EventKind) -> list[TraceEvent]:
    """The events of `tr` of any of `kinds`, in trace order."""
    return [e for e in tr.events if e.kind in kinds]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of `intervals`, as the sum of its disjoint runs;
    an interval that ends at or before its start covers nothing."""
    runs: list[list[float]] = []
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if runs and a <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], b)
        else:
            runs.append([a, b])
    return sum(b - a for a, b in runs)


def runtime_breakdown(tr: Trace) -> RuntimeBreakdown:
    init = sum(e.duration for e in of_kind(tr, EventKind.INIT))
    gate_cooling = sum(
        e.duration for e in of_kind(tr, EventKind.GATE_1Q, EventKind.GATE_2Q, EventKind.COOL)
    )
    shift = sum(e.duration for e in of_kind(tr, EventKind.SHUTTLE, EventKind.REORDER))
    circulation = sum(e.duration for e in of_kind(tr, EventKind.CIRCULATE))
    measure = sum(e.duration for e in of_kind(tr, EventKind.MEASURE))
    busy = union_length([(e.t_start, e.t_end) for e in tr.events])
    return RuntimeBreakdown(
        init=init,
        gate_cooling=gate_cooling,
        shift_swap_split=shift,
        circulation=circulation,
        measure=measure,
        hidden=init + gate_cooling + shift + circulation + measure - busy,
        idle=tr.span - busy,
        total_span=tr.span,
    )


def zone_utilization(tr: Trace) -> float:
    k = tr.gate_zones
    if k < 1:
        raise ValueError("need at least one gate zone")
    events = of_kind(tr, EventKind.GATE_1Q, EventKind.GATE_2Q, EventKind.COOL)
    if not events:
        return 0.0
    window = union_length([(e.t_start, e.t_end) for e in events])
    if window <= 0.0:
        return 0.0
    weighted = sum(min(e.zones_busy, k) * e.duration for e in events)
    return 100.0 * weighted / (k * window)


def fidelity_report(tr: Trace, f: FidelityParams = FidelityParams()) -> FidelityLedger:
    n_1q = sum(len(e.payload.get("gate_ids", ())) for e in of_kind(tr, EventKind.GATE_1Q))
    n_2q = sum(len(e.payload.get("gate_ids", ())) for e in of_kind(tr, EventKind.GATE_2Q))
    n_transport = sum(int(e.payload.get("transports", 0)) for e in tr.events)
    n_qubits = tr.width
    runtime_s = tr.span * 1e-6
    return FidelityLedger(
        n_1q=n_1q,
        n_2q=n_2q,
        n_transport=n_transport,
        n_qubits=n_qubits,
        runtime_s=runtime_s,
        f_spam=(1.0 - f.inf_spam) ** n_qubits,
        f_1q=((1.0 - f.inf_1q_rb) * (1.0 - f.inf_1q_leak)) ** n_1q,
        f_2q=((1.0 - f.inf_2q_rb) * (1.0 - f.inf_2q_leak)) ** n_2q,
        f_transport=(1.0 - f.inf_transport) ** n_transport,
        f_decoh=math.exp(-runtime_s / f.t1),
    )


def validate(tr: Trace) -> None:
    """The multi-walk `Trace.validate`, which let non-finite times pass."""
    eps = 1e-6
    for e in tr.events:
        if e.duration < 0 or e.t_start < -eps:
            raise ValueError(f"bad event time: {e}")
    zone_events = sorted(
        (e for e in tr.events if e.lane == "zones"), key=lambda e: e.t_start
    )
    for a, b in zip(zone_events, zone_events[1:]):
        if b.t_start < a.t_end - eps:
            raise ValueError(f"zone events overlap: {a} / {b}")
    touching = sorted(
        (e for e in tr.events if e.qubits), key=lambda e: e.t_start
    )
    active: list[TraceEvent] = []
    for e in touching:
        active = [x for x in active if x.t_end > e.t_start + eps]
        for x in active:
            if set(x.qubits) & set(e.qubits):
                raise ValueError(f"qubit overlap between {x} and {e}")
        active.append(e)
