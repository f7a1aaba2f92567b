"""Schedule-validity oracle and canonical trace digest.

The oracle checks a scheduled trace against the circuit it came from:

1. every gate id of the circuit runs exactly once;
2. no gate starts before a DAG predecessor (`Circuit.edges`) has ended;
3. no two zone-lane events (gates and cooling) overlap;
4. no two overlapping events list a common qubit.

Gate ids are read from the `gate_ids` payload of gate, init and measure
events.  REORDER, SHUTTLE and CIRCULATE events list no ions, so rule 4
cannot see transport touching a qubit that is being gated: that overlap
goes unchecked until the schedulers record the ions they move.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass

EPS = 1e-6  # us; matches the tolerance of Trace.validate

GATE_EVENT_KINDS = frozenset({"Gate1Q", "Gate2Q", "Init", "Measure"})
ZONE_EVENT_KINDS = frozenset({"Gate1Q", "Gate2Q", "Cool"})


@dataclass(frozen=True)
class Verdict:
    missing: int              # circuit gates that never ran
    repeated: int             # circuit gates that ran more than once
    unknown: int              # gate ids in the trace that the circuit lacks
    violated_edges: int       # DAG edges whose successor starts too early
    zone_overlaps: int
    qubit_overlaps: int
    first_example: str        # first broken rule, "" when valid

    @property
    def ok(self) -> bool:
        return not (self.missing or self.repeated or self.unknown or self.violated_edges
                    or self.zone_overlaps or self.qubit_overlaps)


def check_schedule(circuit, trace) -> Verdict:
    """Check `trace` against the four validity rules for `circuit`."""
    examples: list[str] = []
    window: dict[int, tuple[float, float]] = {}
    runs: Counter = Counter()
    for e in trace.events:
        if e.kind.value in GATE_EVENT_KINDS:
            for gid in e.payload.get("gate_ids", ()):
                runs[gid] += 1
                window[gid] = (e.t_start, e.t_end)

    ids = {g.id for g in circuit.gates}
    missing = sorted(ids - runs.keys())
    repeated = sorted(gid for gid, n in runs.items() if n > 1)
    unknown = sorted(runs.keys() - ids)
    if missing:
        examples.append(f"gate {missing[0]} never runs")
    if repeated:
        examples.append(f"gate {repeated[0]} runs {runs[repeated[0]]} times")
    if unknown:
        examples.append(f"trace runs gate {unknown[0]}, which the circuit lacks")

    violated = 0
    for a, b in sorted(circuit.edges):
        if a in window and b in window and window[b][0] < window[a][1] - EPS:
            violated += 1
            if violated == 1:
                examples.append(
                    f"edge {a}->{b}: {circuit.gate(b)!r} starts at {window[b][0]!r} us, "
                    f"before {circuit.gate(a)!r} ends at {window[a][1]!r} us"
                )

    zone_overlaps = 0
    latest = None
    for e in sorted((e for e in trace.events if e.kind.value in ZONE_EVENT_KINDS),
                    key=lambda e: (e.t_start, e.t_end)):
        if latest is not None and e.t_start < latest.t_end - EPS:
            zone_overlaps += 1
            if zone_overlaps == 1:
                examples.append(f"zone events overlap: {_show(latest)} / {_show(e)}")
        if latest is None or e.t_end > latest.t_end:
            latest = e

    qubit_overlaps = 0
    active: list = []
    for e in sorted((e for e in trace.events if e.qubits), key=lambda e: (e.t_start, e.t_end)):
        active = [x for x in active if x.t_end > e.t_start + EPS]
        qs = set(e.qubits)
        for x in active:
            if qs.intersection(x.qubits):
                qubit_overlaps += 1
                if qubit_overlaps == 1:
                    examples.append(f"qubit overlap: {_show(x)} / {_show(e)}")
        active.append(e)

    return Verdict(
        missing=len(missing),
        repeated=len(repeated),
        unknown=len(unknown),
        violated_edges=violated,
        zone_overlaps=zone_overlaps,
        qubit_overlaps=qubit_overlaps,
        first_example=examples[0] if examples else "",
    )


def _show(e) -> str:
    return f"{e.kind.value} [{e.t_start!r}, {e.t_end!r}] us on qubits {list(e.qubits)}"


def trace_digest(trace) -> str:
    """sha256 of the trace with events sorted by (start, end, kind), floats
    written as `repr` (json's float format) and payload keys sorted."""
    events = sorted(trace.events, key=lambda e: (e.t_start, e.t_end, e.kind.value))
    rows = [[e.t_start, e.duration, e.kind.value, e.zones_busy, e.qubits, e.payload]
            for e in events]
    blob = json.dumps([trace.width, trace.gate_zones, rows], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
