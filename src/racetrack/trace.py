"""Timestamped machine-event traces emitted by the schedulers.

Events live on lanes: "zones" (gate, cooling), "prep" (init, measure) and
"transport" (streaming, sweeps, reordering, circulation).  Zone-lane
events never overlap each other; pipelined policies may overlap lanes as
long as no qubit is touched by two events at once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


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


@dataclass(frozen=True)
class TraceEvent:
    t_start: float
    duration: float
    kind: EventKind
    zones_busy: int = 0                 # gate zones engaged (gate/cool only)
    qubits: tuple[int, ...] = ()
    payload: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    @property
    def lane(self) -> str:
        return self.kind.lane


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

    def of_kind(self, *kinds: EventKind) -> list[TraceEvent]:
        # a tuple test matches members by identity; a set would run the
        # Python-level Enum.__hash__ once per event
        return [e for e in self.events if e.kind in kinds]

    def gate_count_1q(self) -> int:
        return sum(len(e.payload.get("gate_ids", ())) for e in self.of_kind(EventKind.GATE_1Q))

    def gate_count_2q(self) -> int:
        return sum(len(e.payload.get("gate_ids", ())) for e in self.of_kind(EventKind.GATE_2Q))

    def transport_events(self) -> int:
        return sum(int(e.payload.get("transports", 0)) for e in self.events)

    def sorted_events(self) -> list[TraceEvent]:
        return sorted(self.events, key=lambda e: (e.t_start, e.t_end))

    def validate(self) -> None:
        """Zone-lane events are mutually exclusive; no qubit is touched by
        two overlapping events; all times are sane."""
        eps = 1e-6
        for e in self.events:
            if e.duration < 0 or e.t_start < -eps:
                raise ValueError(f"bad event time: {e}")
        zone_events = sorted(
            (e for e in self.events if e.lane == "zones"), key=lambda e: e.t_start
        )
        for a, b in zip(zone_events, zone_events[1:]):
            if b.t_start < a.t_end - eps:
                raise ValueError(f"zone events overlap: {a} / {b}")
        touching = sorted(
            (e for e in self.events if e.qubits), key=lambda e: e.t_start
        )
        active: list[TraceEvent] = []
        for e in touching:
            active = [x for x in active if x.t_end > e.t_start + eps]
            for x in active:
                if set(x.qubits) & set(e.qubits):
                    raise ValueError(f"qubit overlap between {x} and {e}")
            active.append(e)

    def gate_order_per_qubit(self) -> dict[int, list[int]]:
        """Gate ids per qubit in start-time order (for dependency checks)."""
        out: dict[int, list[int]] = {}
        for e in self.sorted_events():
            if e.kind in (EventKind.GATE_1Q, EventKind.GATE_2Q):
                per_gate = e.payload.get("gate_qubits", {})
                for gid in e.payload.get("gate_ids", ()):
                    for q in per_gate.get(gid, e.qubits):
                        out.setdefault(q, []).append(gid)
        return out
