"""Execution policies: Rolodex (circulate per layer), TILT (one-dimensional
sweeps, no circulation), and Plutarch (gate pipelining + in-place blocks).

All three share one engine.  A circuit is decomposed into passes: the 1Q
phases between consecutive 2Q layers plus the 2Q layers themselves (or,
for in-place block scheduling, into zone-capped block layers).  Policies
differ in how ions reach the next pass:

* Rolodex circulates the track between passes; top-zone reordering rides
  the circulation and is charged only beyond the lap time.
* TILT sweeps the chain across the bottom zones each pass and pays its
  one-dimensional reordering in full.
* Plutarch executes blocks in place, realigns with the cheapest of 1-D
  moves / shortcut loops / full laps, and (with pipelining) overlaps
  initialization, measurement and transport with gating.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .blocks import Block, extract_inplace_blocks
from .circuit import Circuit
from .gates import Gate, GateType
# apply_reorder stays importable from here: perfbench/spans.py counts calls
# through schedulers.apply_reorder
from .ions import (  # noqa: F401
    TRANSPORTS_PER_CIRCULATING_PAIR, TRANSPORTS_PER_EXCHANGE, IonState, ReorderTag, apply_reorder,
)
from .machine import Machine
from .planner import PlanMode, ReorderPlan, plan_reorder, split_all_plan
from .trace import EventKind, Trace, TraceEvent

# Fraction of the zone region a gathering pass traverses under in-place
# scheduling (ions are gathered to nearby zones instead of conveyed past
# every zone the way circulating passes are).
INPLACE_GATHER_FACTOR = 0.25


@dataclass
class PolicyFlags:
    pipelining: bool = True
    inplace_blocks: bool = True


@dataclass
class _Batch:
    kind: GateType
    gates: list[Gate]
    zones_busy: int
    duration: float


class _Engine:
    def __init__(self, c: Circuit, m: Machine, *, policy: str, pipelining: bool):
        if not c.is_native():
            raise ValueError("scheduler requires a native-translated circuit")
        if c.width > m.capacity:
            raise ValueError(
                f"circuit width {c.width} exceeds machine capacity {m.capacity}"
            )
        self.c = c
        self.m = m
        self.t = m.timing
        self.k = m.gate_zones
        self.policy = policy
        self.pipelining = pipelining
        self.trace = Trace(width=c.width, gate_zones=self.k)
        self.state = IonState.initial_pairs(c.width)
        self.cursor = 0.0          # serialized frontier (zone + transport)
        self.qubit_ready: dict[int, float] = {}
        self.prep_cursor = 0.0
        self.pass_first_batch_end = 0.0
        self.pass_start = 0.0

    # -- bookkeeping -----------------------------------------------------

    def _emit(self, kind: EventKind, start: float, duration: float, *,
              zones: int = 0, qubits: tuple[int, ...] = (), payload: dict | None = None) -> TraceEvent:
        ev = TraceEvent(start, duration, kind, zones, qubits, payload or {})
        return self.trace.add(ev)

    def _ready(self, qubits) -> float:
        return max((self.qubit_ready.get(q, 0.0) for q in qubits), default=0.0)

    # -- initialization / measurement -------------------------------------

    def init_all(self, first_use: list[int]):
        used = set(first_use)
        order = list(first_use) + [q for q in range(self.c.width) if q not in used]
        n_batches = math.ceil(self.c.width / self.k) if self.c.width else 0
        t0 = 0.0
        for b in range(n_batches):
            qs = tuple(order[b * self.k : (b + 1) * self.k])
            self._emit(EventKind.INIT, t0, self.t.init_batch, qubits=qs,
                       payload={"batch": b})
            t0 += self.t.init_batch
            for q in qs:
                self.qubit_ready[q] = t0
        self.prep_cursor = t0
        if self.pipelining:
            self.cursor = min(self.t.init_batch, t0) if n_batches else 0.0
        else:
            self.cursor = t0

    def measure_all(self, explicit: set[int]):
        rest = [q for q in range(self.c.width) if q not in explicit]
        start = self.cursor if not self.pipelining else max(self.cursor, self.prep_cursor)
        for b in range(math.ceil(len(rest) / self.k) if rest else 0):
            qs = tuple(rest[b * self.k : (b + 1) * self.k])
            begin = max(start, self._ready(qs))
            self._emit(EventKind.MEASURE, begin, self.t.measure_batch, qubits=qs)
            start = begin + self.t.measure_batch
        self.cursor = max(self.cursor, start)

    # -- batching ----------------------------------------------------------

    def _phase_batches(self, gates: list[Gate]) -> list[_Batch]:
        """Kind-homogeneous batches, one gate per zone slot, capacity k.

        Gates from different source (pre-translation) layers never share a
        batch: a zone fires one homogeneous wave per layer as ions pass.
        """
        batches: list[_Batch] = []
        groups: list[list[Gate]] = []
        # keyed by the kind's value: hashing the member itself runs the
        # Python-level Enum.__hash__ once per gate
        key_of: dict[tuple[int, str], int] = {}
        slot_of = self.state.crystal_index
        for g in gates:
            key = (g.source, g.kind._value_)
            if key not in key_of:
                key_of[key] = len(groups)
                groups.append([])
            groups[key_of[key]].append(g)
        for group in groups:
            remaining = group
            while remaining:
                kind = remaining[0].kind
                slots_used: set[int] = set()
                qubits_used: set[int] = set()
                taken: list[Gate] = []
                rest: list[Gate] = []
                for g in remaining:
                    slot = slot_of[g.qubits[0]]
                    if (len(taken) < self.k
                            and slot not in slots_used and g.qubits[0] not in qubits_used):
                        taken.append(g)
                        slots_used.add(slot)
                        qubits_used.add(g.qubits[0])
                    else:
                        rest.append(g)
                remaining = rest
                taken.sort(key=lambda g: min(g.qubits))
                batches.append(self._make_batch(kind, taken, len(slots_used)))
        return batches

    def _make_batch(self, kind: GateType, gates: list[Gate], zones: int) -> _Batch:
        if kind is GateType.INIT:
            dur = self.t.init_batch
        elif kind is GateType.MEASURE:
            dur = self.t.measure_batch
        elif kind.n_qubits == 2:
            dur = self.t.two_q_gate
        else:
            per_qubit: dict[int, int] = {}
            for g in gates:
                per_qubit[g.qubits[0]] = per_qubit.get(g.qubits[0], 0) + 1
            dur = max(per_qubit.values(), default=1) * self.t.one_q_gate
        return _Batch(kind, gates, zones, dur)

    def _run_batch(self, batch: _Batch):
        qs = tuple(sorted({q for g in batch.gates for q in g.qubits}))
        start = max(self.cursor, self._ready(qs)) if self.pipelining else self.cursor
        payload = {
            "gate_ids": [g.id for g in batch.gates],
            "gate_qubits": {g.id: g.qubits for g in batch.gates},
            "kind": batch.kind.value,
        }
        if batch.kind is GateType.INIT:
            self._emit(EventKind.INIT, start, batch.duration, qubits=qs, payload=payload)
            self.cursor = start + batch.duration
            return
        if batch.kind is GateType.MEASURE:
            self._emit(EventKind.MEASURE, start, batch.duration, qubits=qs, payload=payload)
            self.cursor = start + batch.duration
            return
        kind = EventKind.GATE_2Q if batch.kind.n_qubits == 2 else EventKind.GATE_1Q
        self._emit(kind, start, batch.duration, zones=batch.zones_busy, qubits=qs, payload=payload)
        cool = self.t.cool_2q_batch if kind is EventKind.GATE_2Q else self.t.cool_1q_batch
        self._emit(EventKind.COOL, start + batch.duration, cool, zones=batch.zones_busy)
        self.cursor = start + batch.duration + cool
        if self.pass_first_batch_end == 0.0:
            self.pass_first_batch_end = self.cursor

    # -- transport ---------------------------------------------------------

    def _stream(self, active_pairs: int, gather: float = 1.0):
        """Chain movement through the zone region for one pass."""
        if self.policy == "tilt":
            dur = (self.c.width - 1) * self.t.inter_zone_shift
        else:
            dur = (gather * self.k + active_pairs) * self.t.inter_zone_shift
        self._emit(EventKind.SHUTTLE, self.cursor, dur, payload={"pass_stream": True})
        self.cursor += dur

    def _apply_plan_events(self, plan: ReorderPlan, *, hidden_under_lap: bool,
                           prev_pass_work: float = 0.0):
        """Emit reorder (and circulation) events for a transition plan."""
        if plan.path_id is not None or hidden_under_lap:
            path = plan.path_id if plan.path_id is not None else self._rolodex_path()
            lap = self.m.lap(path)
            charge = max(lap, plan.regroup_time)
            if self.pipelining:
                headstart = max(0.0, prev_pass_work - self.pass_first_batch_end + self.pass_start)
                effective = max(0.0, charge - headstart)
            else:
                effective = charge
            start = self.cursor + effective - charge
            pairs_aboard = math.ceil(self.c.width / 2)
            self._emit(EventKind.CIRCULATE, start, lap, payload={
                "path": path, "transports": TRANSPORTS_PER_CIRCULATING_PAIR * pairs_aboard,
                "pairs_aboard": pairs_aboard,
            })
            if plan.ops:
                self._emit(EventKind.REORDER, start, max(plan.regroup_time, plan.hidden_time),
                           payload=_reorder_payload(plan))
            self.cursor += effective
        else:
            if plan.ops:
                self._emit(EventKind.REORDER, self.cursor, plan.time_1d,
                           payload=_reorder_payload(plan))
            self.cursor += plan.time_1d
        self.state = plan.final

    def _rolodex_path(self) -> int:
        """Smallest circulation path whose span hosts the whole chain."""
        need = math.ceil(self.c.width / 2) / max(self.k, 1)
        pid, _ = self.m.layout.shortest_path(min_fraction=min(need, 1.0))
        return pid


def _reorder_payload(plan: ReorderPlan, **extra) -> dict:
    """The REORDER event payload of a plan: op counts and ion transports."""
    ops = dict(plan.op_counts)
    exchanges = ops.get(ReorderTag.PAIR_EXCHANGE.value, 0)
    return {"ops": ops, "transports": TRANSPORTS_PER_EXCHANGE * exchanges, **extra}


def _interleave_passes(c: Circuit) -> list[tuple[str, list[Gate]]]:
    """[('1q', P0), ('2q', L1), ('1q', P1), ...] with empty phases dropped."""
    from .translate import extract_2q_layers, one_qubit_phases

    layers = extract_2q_layers(c)
    phases = one_qubit_phases(c, layers)
    passes: list[tuple[str, list[Gate]]] = []
    if phases[0]:
        passes.append(("1q", phases[0]))
    for j, layer in enumerate(layers):
        passes.append(("2q", list(layer)))
        if phases[j + 1]:
            passes.append(("1q", phases[j + 1]))
    return passes


def _first_use_order(items: list[tuple[str, list[Gate]]]) -> list[int]:
    seen: list[int] = []
    got: set[int] = set()
    for _, gates in items:
        for g in gates:
            for q in g.qubits:
                if q not in got:
                    got.add(q)
                    seen.append(q)
    return seen


def _schedule_passes(c: Circuit, m: Machine, *, policy: str, pipelining: bool) -> Trace:
    """Shared pass-based execution (rolodex, tilt, pipelined rolodex)."""
    eng = _Engine(c, m, policy=policy, pipelining=pipelining)
    passes = _interleave_passes(c)
    eng.init_all(_first_use_order(passes))

    explicit_measures: set[int] = set()
    prev_work = 0.0
    for idx, (kind, gates) in enumerate(passes):
        # transition: bring ions into the needed shape for this pass
        if kind == "2q":
            targets = [g.qubits for g in gates]
            mode = PlanMode.ONE_DIMENSIONAL if policy == "tilt" else PlanMode.CIRCULATION_ALLOWED
            plan = plan_reorder(eng.state, targets, m.layout, mode, eng.t)
        else:
            plan = split_all_plan(eng.state, m.layout, eng.t)
        if policy == "rolodex" and idx > 0:
            eng._apply_plan_events(plan, hidden_under_lap=True, prev_pass_work=prev_work)
        else:
            eng._apply_plan_events(plan, hidden_under_lap=False)

        pass_work_start = eng.cursor
        eng.pass_start = pass_work_start
        eng.pass_first_batch_end = 0.0
        eng._stream(active_pairs=math.ceil(c.width / 2))
        for batch in eng._phase_batches(gates):
            if batch.kind is GateType.MEASURE:
                explicit_measures.update(q for g in batch.gates for q in g.qubits)
            eng._run_batch(batch)
        prev_work = eng.cursor - pass_work_start

    eng.measure_all(explicit_measures)
    eng.trace.validate()
    return eng.trace


def schedule_rolodex(c: Circuit, m: Machine) -> Trace:
    return _schedule_passes(c, m, policy="rolodex", pipelining=False)


def schedule_tilt(c: Circuit, m: Machine) -> Trace:
    return _schedule_passes(c, m, policy="tilt", pipelining=False)


def _schedule_blocks(c: Circuit, m: Machine, *, pipelining: bool) -> Trace:
    eng = _Engine(c, m, policy="plutarch", pipelining=pipelining)
    schedule = extract_inplace_blocks(c, m.gate_zones)
    max_parallel = schedule.max_parallel

    order_items: list[tuple[str, list[Gate]]] = []
    for layer in schedule.layers:
        order_items.append(("layer", [g for b in layer for g in (b.pre_1q + (b.core_2q,) + b.post_1q)]))
    if schedule.residual:
        order_items.append(("residual", schedule.residual))
    eng.init_all(_first_use_order(order_items))

    explicit_measures: set[int] = set()
    # residual 1Q gates with no 2Q neighbors run first (dependency-legal)
    if schedule.residual:
        for batch in eng._phase_batches(schedule.residual):
            if batch.kind is GateType.MEASURE:
                explicit_measures.update(q for g in batch.gates for q in g.qubits)
            eng._run_batch(batch)

    prev_layer_qubits: set[int] = set()
    prev_work = 0.0
    for layer in schedule.layers:
        targets = [b.qubits for b in layer]
        # circulation allowed only below full block parallelism; shortcut
        # sub-loops always compete
        if m.gate_zones >= max_parallel and not m.layout.shortcuts:
            mode = PlanMode.ONE_DIMENSIONAL
        else:
            mode = PlanMode.CIRCULATION_ALLOWED
        plan = plan_reorder(eng.state, targets, m.layout, mode, eng.t)
        if plan.path_id == 0 and m.gate_zones >= max_parallel:
            # the full lap does not pay at full block parallelism: take the
            # same ops one-dimensionally
            plan = plan.one_dimensional()

        layer_qubits = {q for b in layer for g in (b.pre_1q + (b.core_2q,) + b.post_1q) for q in g.qubits}
        if pipelining and not (layer_qubits & prev_layer_qubits):
            # realignment of a disjoint cohort hides under previous gating
            charge = max(0.0, plan.time - prev_work)
            start = eng.cursor - (plan.time - charge)
            if plan.ops:
                eng._emit(EventKind.REORDER, start, plan.time,
                          payload=_reorder_payload(plan, hidden=plan.time - charge))
            if plan.path_id is not None:
                eng._emit(EventKind.CIRCULATE, start, m.lap(plan.path_id),
                          payload={"path": plan.path_id,
                                   "transports": TRANSPORTS_PER_CIRCULATING_PAIR * len(targets),
                                   "pairs_aboard": len(targets)})
            eng.cursor += charge
            eng.state = plan.final
        else:
            eng._apply_plan_events(plan, hidden_under_lap=False)

        layer_start = eng.cursor
        eng.pass_start = layer_start
        eng.pass_first_batch_end = 0.0
        eng._stream(active_pairs=len(layer), gather=INPLACE_GATHER_FACTOR)
        _run_block_layer(eng, layer, explicit_measures)
        prev_work = eng.cursor - layer_start
        prev_layer_qubits = layer_qubits

    eng.measure_all(explicit_measures)
    eng.trace.validate()
    return eng.trace


def _run_block_layer(eng: _Engine, layer: list[Block], explicit_measures: set[int]):
    """Split / left 1Q / shift / right 1Q / combine / 2Q / post mirror."""
    t = eng.t
    pair_left = {}
    pair_right = {}
    for b in layer:
        crystal = eng.state.crystals[eng.state.crystal_index[b.qubits[0]]]
        pair_left[b] = crystal.qubits[0]
        pair_right[b] = crystal.qubits[1] if crystal.is_pair else crystal.qubits[0]

    def run_1q_wave(selector) -> None:
        has_any = any(selector(b) for b in layer)
        if not has_any:
            return
        eng._emit(EventKind.REORDER, eng.cursor, t.split_or_combine,
                  payload={"ops": {"split": len(layer)}})
        eng.cursor += t.split_or_combine
        left = [g for b in layer for g in selector(b) if g.qubits[0] == pair_left[b]]
        right = [g for b in layer for g in selector(b) if g.qubits[0] == pair_right[b]]
        for i, side in enumerate((left, right)):
            if i == 1 and (left or right):
                eng._emit(EventKind.SHUTTLE, eng.cursor, t.intra_zone_shift,
                          payload={"intra": True})
                eng.cursor += t.intra_zone_shift
            for batch in eng._phase_batches(side):
                if batch.kind is GateType.MEASURE:
                    explicit_measures.update(q for g in batch.gates for q in g.qubits)
                eng._run_batch(batch)
        eng._emit(EventKind.REORDER, eng.cursor, t.split_or_combine,
                  payload={"ops": {"combine": len(layer)}})
        eng.cursor += t.split_or_combine

    run_1q_wave(lambda b: b.pre_1q)
    two_q = [b.core_2q for b in layer]
    eng._run_batch(eng._make_batch(two_q[0].kind, two_q, len(two_q)))
    run_1q_wave(lambda b: b.post_1q)


def schedule_plutarch(c: Circuit, m: Machine, flags: PolicyFlags | None = None) -> Trace:
    flags = flags or PolicyFlags()
    if not flags.pipelining and not flags.inplace_blocks:
        return schedule_rolodex(c, m)
    if not flags.inplace_blocks:
        return _schedule_passes(c, m, policy="rolodex", pipelining=True)
    return _schedule_blocks(c, m, pipelining=flags.pipelining)


def schedule(c: Circuit, m: Machine, policy: str, flags: PolicyFlags | None = None) -> Trace:
    if policy == "rolodex":
        return schedule_rolodex(c, m)
    if policy == "tilt":
        return schedule_tilt(c, m)
    if policy == "plutarch":
        return schedule_plutarch(c, m, flags)
    raise ValueError(f"unknown policy {policy!r}")
