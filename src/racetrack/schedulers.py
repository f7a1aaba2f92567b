"""Execution policies as data: one engine runs all five configs.

A circuit is decomposed into passes: the 1Q phases between consecutive 2Q
layers plus the 2Q layers themselves, or, for in-place blocks, zone-capped
block layers.  Each config is one `(transition, pipelining)` pair:

    config                                          transition  pipelining
    "rolodex"                                       LAP         False
    "tilt"                                          SWEEP       False
    "plutarch"                                      IN_PLACE    True
    "plutarch", PolicyFlags(pipelining=False)       IN_PLACE    False
    "plutarch", PolicyFlags(inplace_blocks=False)   LAP         True

so `PolicyFlags(False, False)` is Rolodex.  The transition says how ions
reach the next pass:

* LAP (Rolodex) circulates the track between passes; top-zone reordering
  rides the circulation and is charged only beyond the lap time.  A pass
  streams k + ceil(width / 2) zone gaps.
* SWEEP (TILT) pays its one-dimensional reordering in full and sweeps the
  chain across the bottom zones: width - 1 zone gaps per pass.
* IN_PLACE (Plutarch) executes blocks in place, realigns with the cheapest
  of 1-D moves / shortcut loops / full laps, and gathers over
  INPLACE_GATHER_FACTOR * k + (blocks in the layer) zone gaps.

Pipelining overlaps initialization, measurement and transport with gating.

Within a pass, or a side of a block layer's 1Q wave, gates run in zone
batches formed by the one list scheduler, `translate.list_layers`.  A gate
is ready once every earlier gate of the pass on its qubits has run; each
batch takes the (source layer, kind) of the earliest ready gate and at
most k ready gates of that key, lowest qubit first, one per slot (the
crystal a qubit sits in).  Precedence thus holds by construction, and
`schedule` checks the trace against the circuit's DAG before returning it.

A transition to a 2Q pass or block layer is planned for its target set:
the qubit pairs of the pass's gates, or of the layer's blocks, in order.
Layered circuits (one entangling layer per rep) ask for the same target
set again and again, and `plan_reorder` is a pure function of the
arrangement, the targets, the machine and the mode.  So before the first
transition the engine counts each target set's occurrences.  A set that
will occur again keeps one entry, `(arrangement planned from, plan)`, and
a later occurrence reuses the plan when the current arrangement equals
that one; otherwise it plans again and keeps the new entry.  An entry is
dropped at its set's last occurrence.  The engine thus holds at most one
plan per target set still to come, and none once `schedule` returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import translate   # called through the module: perfbench/spans.py rebinds its names
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


class _Transition(Enum):
    LAP = "lap"
    SWEEP = "sweep"
    IN_PLACE = "in-place"


def _policy(policy: str, flags: PolicyFlags | None) -> tuple[_Transition, bool]:
    """The `(transition, pipelining)` pair of a config."""
    if flags is not None and not isinstance(flags, PolicyFlags):
        raise ValueError(f"flags must be a PolicyFlags or None, got {flags!r}")
    if policy == "plutarch":
        flags = flags or PolicyFlags()
        return (_Transition.IN_PLACE if flags.inplace_blocks else _Transition.LAP), flags.pipelining
    if policy not in ("rolodex", "tilt"):
        raise ValueError(f"unknown policy {policy!r}")
    if flags is not None:
        raise ValueError(f"policy {policy!r} takes no flags, got {flags}")
    return (_Transition.LAP if policy == "rolodex" else _Transition.SWEEP), False


class _Engine:
    def __init__(self, c: Circuit, m: Machine, transition: _Transition, pipelining: bool):
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
        self.transition = transition
        self.pipelining = pipelining
        self.trace = Trace(width=c.width, gate_zones=self.k)
        self.state = IonState.initial_pairs(c.width)
        self.cursor = 0.0          # serialized frontier (zone + transport)
        self.qubit_ready: dict[int, float] = {}
        self.measured: set[int] = set()   # qubits of explicit MEASURE gates
        self.prep_cursor = 0.0
        self.pass_first_batch_end: float | None = None   # None until a batch of the pass ends
        self.pass_start = 0.0
        self.mode: PlanMode | None = None   # set by expect_transitions
        self.uses_left: dict[tuple[tuple[int, ...], ...], int] = {}
        self.kept: dict[tuple[tuple[int, ...], ...], tuple[IonState, ReorderPlan]] = {}

    # -- bookkeeping -----------------------------------------------------

    def _emit(self, kind: EventKind, start: float, duration: float, *,
              zones: int = 0, qubits: tuple[int, ...] = (), payload: dict | None = None) -> TraceEvent:
        ev = TraceEvent(start, duration, kind, zones, qubits, payload or {})
        return self.trace.add(ev)

    def _ready(self, qubits, start: float) -> float:
        """`start`, or the latest ready time of `qubits` if that is later
        (times are never negative)."""
        ready = self.qubit_ready
        for q in qubits:
            r = ready.get(q, 0.0)
            if r > start:
                start = r
        return start

    # -- transition plans --------------------------------------------------

    def expect_transitions(self, mode: PlanMode, target_sets) -> None:
        """Fix the plan mode and count how often each target set will be
        planned."""
        self.mode = mode
        uses = self.uses_left
        for targets in target_sets:
            uses[targets] = uses.get(targets, 0) + 1

    def plan(self, targets: tuple[tuple[int, ...], ...]) -> ReorderPlan:
        """The plan that takes the current state to `targets`: the kept one
        if it was planned from an equal state, else a fresh `plan_reorder`.
        It is kept only while `targets` has uses left (see the module
        docstring)."""
        left = self.uses_left[targets] - 1
        kept = self.kept.pop(targets, None)
        if kept is not None and kept[0] == self.state:
            plan = kept[1]
        else:
            plan = plan_reorder(self.state, targets, self.m, self.mode)
        if left:
            self.uses_left[targets] = left
            self.kept[targets] = (self.state, plan)
        else:
            del self.uses_left[targets]
        return plan

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

    def measure_all(self):
        """Read out every qubit that no explicit MEASURE gate has."""
        rest = [q for q in range(self.c.width) if q not in self.measured]
        start = self.cursor if not self.pipelining else max(self.cursor, self.prep_cursor)
        for b in range(math.ceil(len(rest) / self.k) if rest else 0):
            qs = tuple(rest[b * self.k : (b + 1) * self.k])
            begin = self._ready(qs, start)
            self._emit(EventKind.MEASURE, begin, self.t.measure_batch, qubits=qs)
            start = begin + self.t.measure_batch
        self.cursor = max(self.cursor, start)

    # -- batching ----------------------------------------------------------

    def _phase_batches(self, gates: list[Gate]) -> list[list[Gate]]:
        """The zone batches of `gates` (see the module docstring); keyed by
        the kind's value, as the member's hash is Python-level."""
        return translate.list_layers(gates, lambda g: (g.source, g.kind._value_),
                                     self.k, self.state.crystal_index)

    def _run_batch(self, gates: list[Gate]):
        """Run one kind-homogeneous batch, each gate in a zone of its own.

        A 1Q batch holds each qubit once, so it lasts one `one_q_gate`.
        """
        kind, t = gates[0].kind, self.t
        qs = tuple(sorted({q for g in gates for q in g.qubits}))
        start = self._ready(qs, self.cursor) if self.pipelining else self.cursor
        payload = {
            "gate_ids": [g.id for g in gates],
            "gate_qubits": {g.id: g.qubits for g in gates},
            "kind": kind._value_,   # `.value` is a Python-level property
        }
        if kind is GateType.INIT:
            event, dur, cool = EventKind.INIT, t.init_batch, None
        elif kind is GateType.MEASURE:
            event, dur, cool = EventKind.MEASURE, t.measure_batch, None
            self.measured.update(qs)
        elif kind.n_qubits == 2:
            event, dur, cool = EventKind.GATE_2Q, t.two_q_gate, t.cool_2q_batch
        else:
            event, dur, cool = EventKind.GATE_1Q, t.one_q_gate, t.cool_1q_batch
        if cool is None:
            self._emit(event, start, dur, qubits=qs, payload=payload)
            self.cursor = start + dur
        else:
            self._emit(event, start, dur, zones=len(gates), qubits=qs, payload=payload)
            self._emit(EventKind.COOL, start + dur, cool, zones=len(gates))
            self.cursor = start + dur + cool
        if self.pass_first_batch_end is None:
            self.pass_first_batch_end = self.cursor

    # -- transport ---------------------------------------------------------

    def _begin_pass(self, active_pairs: int, gather: float = 1.0):
        """Open a pass: mark its start and stream the chain through the
        zone region."""
        self.pass_start = self.cursor
        self.pass_first_batch_end = None
        if self.transition is _Transition.SWEEP:
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
            # the lap hides only under the pass's work after its first batch
            if self.pipelining and self.pass_first_batch_end is not None:
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
        return self.m.layout.shortest_path(min_fraction=min(need, 1.0))


def _reorder_payload(plan: ReorderPlan, **extra) -> dict:
    """The REORDER event payload of a plan: op counts and ion transports."""
    ops = dict(plan.op_counts)
    exchanges = ops.get(ReorderTag.PAIR_EXCHANGE.value, 0)
    return {"ops": ops, "transports": TRANSPORTS_PER_EXCHANGE * exchanges, **extra}


def _interleave_passes(c: Circuit) -> list[tuple[str, list[Gate]]]:
    """[('1q', P0), ('2q', L1), ('1q', P1), ...] with empty phases dropped."""
    layers = translate.extract_2q_layers(c)
    phases = translate.one_qubit_phases(c, layers)
    passes = [("1q", phases[0])]
    for layer, phase in zip(layers, phases[1:]):
        passes += [("2q", layer), ("1q", phase)]
    return [(kind, gates) for kind, gates in passes if gates]


def _first_use_order(gates) -> list[int]:
    """The qubits of `gates` in order of first use."""
    return list(dict.fromkeys(q for g in gates for q in g.qubits))


def _schedule_passes(eng: _Engine) -> None:
    """Pass-based execution: LAP and SWEEP transitions."""
    passes = _interleave_passes(eng.c)
    eng.init_all(_first_use_order(g for _, gates in passes for g in gates))
    mode = PlanMode.ONE_DIMENSIONAL if eng.transition is _Transition.SWEEP else PlanMode.CIRCULATION_ALLOWED
    targets_of = [tuple(g.qubits for g in gates) if kind == "2q" else None for kind, gates in passes]
    eng.expect_transitions(mode, [targets for targets in targets_of if targets is not None])
    prev_work = 0.0
    for idx, ((kind, gates), targets) in enumerate(zip(passes, targets_of)):
        # transition: bring ions into the needed shape for this pass
        if kind == "2q":
            plan = eng.plan(targets)
        else:
            plan = split_all_plan(eng.state, eng.m)
        eng._apply_plan_events(plan, prev_pass_work=prev_work,
                               hidden_under_lap=eng.transition is _Transition.LAP and idx > 0)
        eng._begin_pass(active_pairs=math.ceil(eng.c.width / 2))
        for batch in eng._phase_batches(gates):
            eng._run_batch(batch)
        prev_work = eng.cursor - eng.pass_start


def _schedule_blocks(eng: _Engine) -> None:
    """In-place block execution: the IN_PLACE transition."""
    m = eng.m
    schedule = extract_inplace_blocks(eng.c, m.gate_zones)
    eng.init_all(_first_use_order(
        [g for layer in schedule.layers for b in layer for g in b.gates] + schedule.residual))

    # residual 1Q gates with no 2Q neighbors run first (dependency-legal)
    for batch in eng._phase_batches(schedule.residual):
        eng._run_batch(batch)

    # every block layer fills at most all gate zones, so only shortcut
    # sub-loops compete with 1-D moves, and a full-lap win is taken 1-D
    mode = PlanMode.CIRCULATION_ALLOWED if m.layout.shortcuts else PlanMode.ONE_DIMENSIONAL
    targets_of = [tuple(b.qubits for b in layer) for layer in schedule.layers]
    eng.expect_transitions(mode, targets_of)
    prev_layer_qubits: set[int] = set()
    prev_work = 0.0
    for layer, targets in zip(schedule.layers, targets_of):
        plan = eng.plan(targets)
        if plan.path_id == 0:
            plan = plan.one_dimensional()

        layer_qubits = {q for b in layer for g in b.gates for q in g.qubits}
        if eng.pipelining and not (layer_qubits & prev_layer_qubits):
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

        eng._begin_pass(active_pairs=len(layer), gather=INPLACE_GATHER_FACTOR)
        _run_block_layer(eng, layer)
        prev_work = eng.cursor - eng.pass_start
        prev_layer_qubits = layer_qubits


def _run_block_layer(eng: _Engine, layer: list[Block]):
    """Split / left 1Q / shift / right 1Q / combine / 2Q / post mirror."""
    t = eng.t
    # each block's left and right ion, by position: a dict keyed by the
    # frozen Block would hash every gate of the block per lookup
    sides = []
    for b in layer:
        crystal = eng.state.crystals[eng.state.crystal_index[b.qubits[0]]]
        qs = crystal.qubits
        sides.append((qs[0], qs[-1]))

    def run_1q_wave(chains: list[tuple[Gate, ...]]) -> None:
        if not any(chains):
            return
        eng._emit(EventKind.REORDER, eng.cursor, t.split_or_combine,
                  payload={"ops": {"split": len(layer)}})
        eng.cursor += t.split_or_combine
        left = [g for chain, (lq, _) in zip(chains, sides) for g in chain if g.qubits[0] == lq]
        right = [g for chain, (_, rq) in zip(chains, sides) for g in chain if g.qubits[0] == rq]
        for i, side in enumerate((left, right)):
            if i == 1 and (left or right):
                eng._emit(EventKind.SHUTTLE, eng.cursor, t.intra_zone_shift,
                          payload={"intra": True})
                eng.cursor += t.intra_zone_shift
            for batch in eng._phase_batches(side):
                eng._run_batch(batch)
        eng._emit(EventKind.REORDER, eng.cursor, t.split_or_combine,
                  payload={"ops": {"combine": len(layer)}})
        eng.cursor += t.split_or_combine

    run_1q_wave([b.pre_1q for b in layer])
    eng._run_batch([b.core_2q for b in layer])
    run_1q_wave([b.post_1q for b in layer])


def schedule(c: Circuit, m: Machine, policy: str, flags: PolicyFlags | None = None) -> Trace:
    """Schedule a native circuit under one config (see the module docstring).

    `flags` applies to "plutarch" only; "rolodex" and "tilt" take None.
    """
    transition, pipelining = _policy(policy, flags)
    eng = _Engine(c, m, transition, pipelining)
    if transition is _Transition.IN_PLACE:
        _schedule_blocks(eng)
    else:
        _schedule_passes(eng)
    eng.measure_all()
    eng.trace.validate(c)
    return eng.trace
