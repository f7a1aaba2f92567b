"""Timestamped machine-event traces emitted by the schedulers.

Events live on lanes: "zones" (gate, cooling), "prep" (init, measure) and
"transport" (streaming, sweeps, reordering, circulation).  Zone-lane
events never overlap each other; pipelined policies may overlap lanes as
long as no qubit is touched by two events at once.  An event lists the
qubits it touches: a gate, init or readout batch its qubits, a transport
event the ions it moves, and a COOL event none.  So the rule that no qubit
is in two overlapping events (rule 4 of the validity rules) covers
transport too.

An event is a `NamedTuple`: a ring schedule builds ~10^5 of them, and the
scheduler builds each with `tuple.__new__` for a fraction of what a frozen
dataclass costs.  It compares as the tuple of its six fields, payload
included.  The trace readers here and in `metrics` unpack events instead
of reading their fields by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .circuit import Circuit
from .machine import _check_type


class EventKind(Enum):
    INIT = "Init"
    GATE_1Q = "Gate1Q"
    GATE_2Q = "Gate2Q"
    COOL = "Cool"
    SHUTTLE = "Shuttle"
    REORDER = "Reorder"
    CIRCULATE = "Circulate"
    MEASURE = "Measure"

    # a plain member attribute: a dict keyed by the member would run the
    # Python-level Enum.__hash__ per read
    def __init__(self, value: str):
        if value in ("Init", "Measure"):
            self.lane = "prep"
        elif value in ("Gate1Q", "Gate2Q", "Cool"):
            self.lane = "zones"
        else:
            self.lane = "transport"


class TraceEvent(NamedTuple):
    """One timed event.  `zones_busy` counts the gate zones a gate or COOL
    event engages, and `payload` annotates the event."""

    t_start: float
    duration: float
    kind: EventKind
    zones_busy: int
    qubits: tuple[int, ...]
    payload: dict

    @property
    def t_end(self) -> float:
        return self[0] + self[1]

    @property
    def lane(self) -> str:
        return self[2].lane


_start = itemgetter(0)


@dataclass
class Trace:
    width: int
    gate_zones: int
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, event: TraceEvent) -> TraceEvent:
        self.events.append(event)
        return event

    @property
    def span(self) -> float:
        return max((e.t_end for e in self.events), default=0.0)

    def transport_events(self) -> int:
        return sum(int(e.payload.get("transports", 0)) for e in self.events)

    def validate(self, circuit=None) -> None:
        """Zone-lane events are mutually exclusive (rule 3); no qubit is
        touched by two overlapping events (rule 4), transport events
        included, as they list the ions they move; every start and duration
        is finite, no duration is negative and no start is before 0 (with
        eps slack).

        Given the `Circuit` the trace was scheduled from, it also checks,
        reading gate ids from the `gate_ids` payloads:
        rule 1, every gate of the circuit runs exactly once;
        rule 2, no gate starts before a DAG predecessor ends (eps slack).
        Rule 2 walks the gates in program order, checking each against the
        last gate before it on each of its qubits.  Each edge of the DAG,
        `circuit.edges`, is such a pair, so a trace that passes the walk
        passes rule 2 and the DAG is not built.  Only when a pair fails are
        the edges read, to count the early ones and name the least; a pair
        that is no edge fails alone only by eps slack summed along the
        edges that imply it, and the trace then passes.

        Reads the trace once, checking times and collecting the zone-lane
        events and the events that touch qubits; then it checks the gates
        those events run, and each of those lists in start order.
        """
        eps = 1e-6
        zone_events: list[TraceEvent] = []
        touching: list[TraceEvent] = []
        for e in self.events:
            start, duration, kind, _, qubits, _ = e
            # the comparisons are false for NaN, and `< inf` rejects inf
            if not (-eps <= start < math.inf and 0.0 <= duration < math.inf):
                raise ValueError(f"bad event time: {e}")
            if kind.lane == "zones":
                zone_events.append(e)
            if qubits:
                touching.append(e)
        if circuit is not None:
            _check_type("circuit", circuit, Circuit)
            _check_gates(circuit, touching, eps)
        zone_events.sort(key=_start)
        prev, prev_end = None, -math.inf
        for e in zone_events:
            start, duration, _, _, _, _ = e
            if start < prev_end - eps:
                raise ValueError(f"zone events overlap: {prev} / {e}")
            prev, prev_end = e, start + duration
        touching.sort(key=_start)
        active: list[tuple[float, TraceEvent]] = []   # (end, event), in start order
        for e in touching:
            start, duration, _, _, qubits, _ = e
            after = start + eps
            active = [x for x in active if x[0] > after]
            if active:
                qubits = set(qubits)
                for _, x in active:
                    if not qubits.isdisjoint(x[4]):
                        raise ValueError(f"qubit overlap between {x} and {e}")
            active.append((start + duration, e))


def _check_gates(circuit, touching: list[TraceEvent], eps: float) -> None:
    """Rules 1 and 2 of `Trace.validate`, over the events that touch qubits
    (a gate event lists the qubits of its gates)."""
    start: dict[int, float] = {}
    end: dict[int, float] = {}
    repeated: list[int] = []
    for t0, duration, _, _, _, payload in touching:
        ids = payload.get("gate_ids")
        if ids:
            t1 = t0 + duration
            for gid in ids:
                if gid in start:
                    repeated.append(gid)
                start[gid] = t0
                end[gid] = t1
    ids = {g.id for g in circuit.gates}
    if repeated or start.keys() != ids:
        faults = [f"{what} {sorted(set(gids))}" for what, gids in (
            ("never run:", ids - start.keys()), ("run more than once:", repeated),
            ("not in the circuit:", start.keys() - ids)) if gids]
        raise ValueError("rule 1 (every gate runs exactly once) broken: gates "
                         + "; ".join(faults))
    limit = [-math.inf] * circuit.used_width   # per qubit: the end, less eps, of its last gate
    for g in circuit.gates:
        a, b, t0 = g.qubits[0], g.qubits[-1], start[g.id]
        if t0 < limit[a] or t0 < limit[b]:
            break
        limit[a] = limit[b] = end[g.id] - eps
    else:
        return
    early = [(a, b) for a, b in circuit.edges if start[b] < end[a] - eps]
    if early:
        a, b = min(early)
        raise ValueError(
            f"rule 2 (no gate starts before a DAG predecessor ends) broken by "
            f"{len(early)} edge(s), first: gate {b} starts at {start[b]!r} us, "
            f"before its predecessor gate {a} ends at {end[a]!r} us")
