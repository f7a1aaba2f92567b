"""Execution policies as data: one engine loop runs all five configs.

Each config is a pass builder and a pipelining flag:

    config                                          builder                 pipelining
    "rolodex"                                       _layer_passes, laps     False
    "tilt"                                          _layer_passes, sweeps   False
    "plutarch"                                      _block_passes           True
    "plutarch", PolicyFlags(pipelining=False)       _block_passes           False
    "plutarch", PolicyFlags(inplace_blocks=False)   _layer_passes, laps     True

so `PolicyFlags(False, False)` is Rolodex.  A builder returns the plan
mode of its transitions, the residual gates that run before any pass, and
the passes.  A pass is a `_Pass` record:

* `targets`: the pairs its transition combines, or None to split every
  pair;
* `gates`: its gates, in the order their qubits are initialized;
* `lap`: the path a 1-D plan takes instead, or None;
* `ions` and `stream`: the ions its stream moves and how long it takes;
* `layer`: its block layer, or None to run its gates in zone batches.

`schedule` is the one loop.  It initializes every qubit, those of the
passes' gates and then of the residual first, in order of use, and runs
the residual.  Then, for each pass, it makes the transition with the
pass's plan from `_Engine.plans`, streams the pass's ions (a SHUTTLE
marked `pass_stream`) and runs the pass's gates, in zone batches or as a
block layer.  Last, it reads out every qubit that no MEASURE gate has.
The builders say how ions reach each pass:

* Pass mode, `_layer_passes`: the 1Q phases between consecutive 2Q layers
  and the 2Q layers themselves, empty phases dropped, with no residual.  A
  2Q pass targets its gates' pairs, and a 1Q pass splits every pair.
  - Rolodex laps: the track circulates between passes, and the reorder
    zones regroup and exchange ions while the chain goes round.  A
    circulating plan rides `plan_reorder`'s cheapest path; a pass after
    the first whose plan is 1-D laps along the shortest path whose span
    hosts the whole chain.  A pass streams the chain over
    k + ceil(width / 2) zone gaps.
  - TILT sweeps: it pays its one-dimensional reordering in full and
    sweeps the chain across the bottom zones, width - 1 zone gaps per
    pass.
* Block mode, `_block_passes` (Plutarch): the residual 1Q gates that no 2Q
  gate neighbours, then one pass per in-place block layer.  It realigns
  with the cheapest of 1-D moves and, on a track with shortcuts,
  circulation, and gathers the layer's ions over
  INPLACE_GATHER_FACTOR * k + (blocks in the layer) zone gaps.

Timing.  The engine emits steps in program order, and one function,
`_Engine._step`, computes every start time by one rule: a step has a
duration, a lane and the ions it holds, and it starts once its lane and
each of its ions is free.  With pipelining, a step's lane is that of its
event kind ("zones", "prep" or "transport"), so a step may overlap any
step that shares neither its lane nor an ion.  Without pipelining, every
kind maps to one shared lane; no two steps on it overlap and none lasts a
negative time, so its free time is the end of the last step placed and
every step waits for every earlier one.  Each of those times is 0 or an
earlier step's end, so every step starts at 0 or where an earlier one
ends, and the events cover the span without a gap: `runtime_breakdown`
reports no idle time.

An ion is free once every earlier step that lists it has ended.  `_step`
keeps each ion's own latest end, the end of the last whole-chain step (a
step that lists every ion, such as a pass-mode stream or a circulation)
and the latest end of any step.  An ion's free time is the later of its
own end and the whole-chain end, so a whole-chain step reads and sets one
time, not one per ion: every step lists an ion and no ion's free time
goes down, so the latest free time of any ion is the latest end of any
step.  The engine's steps list distinct ions, so a step lists every ion
exactly when it lists as many as the chain holds.  The steps hold, with
their lanes under pipelining:

    step                                           lane       ions
    INIT or MEASURE batch                          prep       its qubits
    gate batch, until its cooling ends             zones      its qubits
    pass stream (pass mode)                        transport  the whole chain
    gather stream, 1Q-wave split and combine,      transport  the layer's ions
      intra-zone shift (block mode)
    1-D transition                                 transport  its ops' operands
    circulating transition                         transport  the whole chain

The COOL event after a gate batch lists no qubits.

A transition is one event.  It circulates along the plan's path or, for
a 1-D plan, the pass's lap; with neither it is 1-D.  A 1-D one is a
REORDER over the operands of its ops, lasting their staged time over the
gate zones.  A circulating one is a CIRCULATE over the whole chain,
lasting `ReorderPlan.charge` of the path's lap: max(lap, regroup time,
exchange time), as the reorder zones work while the chain circulates and
swaps that outlast the lap lengthen it.  Its payload carries the path,
the op counts and the transports: 2 per exchange plus 2 for each of the
ceil(width / 2) pairs aboard.  A lap moves the whole chain, so in pass
mode it can no longer hide under the previous pass's gating: it starts
once that gating has cooled.

Within a pass, or a side of a block layer's 1Q wave, gates run in zone
batches formed by the one list scheduler, `translate.list_layers`: a gate
is ready once every earlier gate of the pass on its qubits has run, and a
batch takes at most k ready gates of the earliest ready gate's (source
layer, kind), lowest qubit first, one per crystal.  Precedence thus holds
by construction, and `schedule` checks the trace against the DAG.  On a
serial chain, such as the CX entangler of `ring`'s circular ansatz, the
gates of a list seldom share a key; when none do, every batch is one gate
and gets no heap.

A transition to a 2Q pass or block layer is planned for its target set,
the qubit pairs of its gates or blocks in order, and one to a pass-mode 1Q
pass (a None set) splits every pair.  `plan_reorder` and `split_all_plan`
are pure functions of their arguments, and layered circuits make the same
transition again and again.  So one generator, `_Engine.plans`, yields the
plans of a schedule's transitions in order.  Each transition has a key:
its target set, or `(None, the set before it)` for a None set.  The
generator counts each key's uses up front, makes each plan from the state
at the moment the plan is asked for, reuses the plan it kept for the key
when that state is equal, and keeps `(state planned from, plan)` only
while the key has uses left.  It reads no order of the passes, and its
locals are the only store, so no plan outlives `schedule`.

A one-dimensional transition's REORDER lists `ReorderPlan.operands`, the
sorted qubits of the plan's ops, which a plan computes once however often
it is reused.  `_step` builds every `TraceEvent` with `tuple.__new__`,
which skips the named tuple's Python-level constructor, and appends it
straight to the trace's list.
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from . import translate   # called through the module: perfbench/spans.py rebinds its names
from .blocks import Block, extract_inplace_blocks
from .circuit import Circuit
from .gates import Gate, GateType
# apply_reorder stays importable from here: perfbench/spans.py counts calls
# through schedulers.apply_reorder
from .ions import (  # noqa: F401
    TRANSPORTS_PER_CIRCULATING_PAIR, TRANSPORTS_PER_EXCHANGE, IonState, ReorderTag, apply_reorder,
)
from .machine import Machine, TimingParams, _check_type
from .planner import PlanMode, ReorderPlan, plan_reorder, split_all_plan
from .trace import EventKind, Trace, TraceEvent

# members as module globals: reading one off the Enum class per step is slow
_COOL = EventKind.COOL
_MEASURE = EventKind.MEASURE
_EXCHANGE = ReorderTag.PAIR_EXCHANGE.value
_LANES = {kind.lane for kind in EventKind}

# Fraction of the zone region a gathering pass traverses under in-place
# scheduling (ions are gathered to nearby zones instead of conveyed past
# every zone the way circulating passes are).  It is an assumption of the
# block policy about how far its ions travel, not a hardware time, so it
# stays out of `TimingParams` and a machine description cannot set it.
INPLACE_GATHER_FACTOR = 0.25


@dataclass(frozen=True)
class PolicyFlags:
    pipelining: bool = True
    inplace_blocks: bool = True

    def __post_init__(self):
        for name in ("pipelining", "inplace_blocks"):
            _check_type(name, getattr(self, name), bool)


class _Pass(NamedTuple):
    """One pass of a schedule (see the module docstring)."""
    targets: tuple[tuple[int, ...], ...] | None   # the pairs its transition combines; None splits every pair
    gates: list[Gate]                   # in the order their qubits are initialized
    lap: int | None                     # the path a 1-D plan takes instead, or None
    ions: tuple[int, ...]               # the ions its stream moves
    stream: float                       # how long its stream takes
    layer: list[Block] | None           # its block layer, or None to run its gates in zone batches


_Passes = tuple[PlanMode, list[Gate], list[_Pass]]


def _policy(policy: str, flags: PolicyFlags | None) -> tuple[Callable[[Circuit, Machine], _Passes], bool]:
    """The pass builder and the pipelining of a config."""
    if flags is not None and not isinstance(flags, PolicyFlags):
        raise ValueError(f"flags must be a PolicyFlags or None, got {flags!r}")
    if policy == "plutarch":
        flags = flags or PolicyFlags()
        build = _block_passes if flags.inplace_blocks else partial(_layer_passes, sweep=False)
        return build, flags.pipelining
    if policy not in ("rolodex", "tilt"):
        raise ValueError(f"unknown policy {policy!r}")
    if flags is not None:
        raise ValueError(f"policy {policy!r} takes no flags, got {flags}")
    return partial(_layer_passes, sweep=policy == "tilt"), False


def _batch_table(t: TimingParams) -> dict[str, tuple[EventKind, float, float | None]]:
    """A zone batch's event kind, duration and cooling (None: no COOL
    event, no zones engaged), keyed by its gate kind's value."""
    def entry(kind: GateType) -> tuple[EventKind, float, float | None]:
        if kind is GateType.INIT:
            return EventKind.INIT, t.init_batch, None
        if kind is GateType.MEASURE:
            return EventKind.MEASURE, t.measure_batch, None
        if kind.n_qubits == 2:
            return EventKind.GATE_2Q, t.two_q_gate, t.cool_2q_batch
        return EventKind.GATE_1Q, t.one_q_gate, t.cool_1q_batch
    return {kind._value_: entry(kind) for kind in GateType}


class _Engine:
    def __init__(self, c: Circuit, m: Machine, pipelining: bool):
        if not c.is_native():
            raise ValueError("scheduler requires a native-translated circuit")
        if c.width > m.capacity:
            raise ValueError(f"circuit width {c.width} exceeds machine capacity {m.capacity}")
        self.c = c
        self.m = m
        self.t = m.timing
        self.k = m.gate_zones
        self.trace = Trace(width=c.width, gate_zones=self.k)
        self.state = IonState.initial_pairs(c.width)
        self.chain = tuple(range(c.width))
        # each lane's free time, in a one-item list; without pipelining the
        # lanes share one list, so every kind maps to one lane
        self.lane_free = ({lane: [0.0] for lane in _LANES} if pipelining
                          else dict.fromkeys(_LANES, [0.0]))
        self.width = c.width
        self.ion_free = [0.0] * c.width   # each ion's own latest end
        self.chain_free = 0.0             # the end of the last whole-chain step
        self.latest = 0.0                 # the latest end of any step
        self.measured: set[int] = set()   # qubits of explicit MEASURE gates
        self.batch_of = _batch_table(self.t)
        # what a circulation adds to its exchanges' transports
        self.aboard_transports = TRANSPORTS_PER_CIRCULATING_PAIR * math.ceil(c.width / 2)

    # -- placement -----------------------------------------------------------

    def _step(self, kind: EventKind, duration: float, ions: tuple[int, ...],
              payload: dict | None = None, zones: int = 0, cool: float | None = None) -> None:
        """Place one step (see the module docstring), the only place a start
        time is computed, and emit its event and any COOL event after it.

        A step starts once its lane and each of its ions is free, an ion
        being free at the later of its own end and the whole-chain end.  A
        whole-chain step waits for the latest end of any step, which is
        the latest of those times over every ion, and sets the whole-chain
        end instead of each ion's own: it runs no loop over the ions.
        """
        lane = self.lane_free[kind.lane]
        start = lane[0]
        whole = len(ions) == self.width
        if whole:
            if self.latest > start:
                start = self.latest
        else:
            if self.chain_free > start:
                start = self.chain_free
            free = self.ion_free
            for q in ions:
                if free[q] > start:
                    start = free[q]
        end = start + duration
        # tuple.__new__ takes TraceEvent's fields in order and skips its
        # Python-level constructor
        events = self.trace.events
        events.append(tuple.__new__(TraceEvent, (start, duration, kind, zones, ions, payload or {})))
        if cool is not None:
            events.append(tuple.__new__(TraceEvent, (end, cool, _COOL, zones, (), {})))
            end += cool
        lane[0] = end
        if whole:
            self.chain_free = end
        else:
            for q in ions:
                free[q] = end
        if end > self.latest:
            self.latest = end

    def transit(self, plan: ReorderPlan, lap: int | None) -> None:
        """The one event of a transition: a circulation along the plan's
        path or else `lap`, or a one-dimensional reorder when both are None."""
        path = lap if plan.path_id is None else plan.path_id
        ops = dict(plan.op_counts)
        transports = TRANSPORTS_PER_EXCHANGE * ops.get(_EXCHANGE, 0)
        if path is not None:
            transports += self.aboard_transports
            self._step(EventKind.CIRCULATE, plan.charge(self.m.lap(path)), self.chain,
                       {"path": path, "ops": ops, "transports": transports})
        elif plan.ops:
            self._step(EventKind.REORDER, plan.time_1d, plan.operands, {"ops": ops, "transports": transports})
        self.state = plan.final

    # -- transition plans --------------------------------------------------

    def plans(self, mode: PlanMode, target_sets: list) -> Iterator[ReorderPlan]:
        """The plan of each transition in `target_sets`, made from the state
        at the moment it is asked for: the plan kept for its key if that
        was made from an equal state, else a fresh `plan_reorder`, or
        `split_all_plan` for a None set (see the module docstring)."""
        keys = [(None, prev) if targets is None else targets
                for prev, targets in zip([None, *target_sets], target_sets)]
        uses_left = Counter(keys)
        kept: dict[tuple, tuple[IonState, ReorderPlan]] = {}
        for key, targets in zip(keys, target_sets):
            entry = kept.pop(key, None)
            if entry is None or entry[0] != self.state:
                entry = (self.state, split_all_plan(self.state, self.m) if targets is None
                         else plan_reorder(self.state, targets, self.m, mode))
            uses_left[key] -= 1
            if uses_left[key]:
                kept[key] = entry
            yield entry[1]

    # -- initialization / measurement -------------------------------------

    def init_all(self, gates) -> None:
        """Initialize every qubit, those of `gates` first, in order of use."""
        order = list(dict.fromkeys([*(q for g in gates for q in g.qubits), *range(self.c.width)]))
        for b in range(0, len(order), self.k):
            self._step(EventKind.INIT, self.t.init_batch, tuple(order[b : b + self.k]),
                       {"batch": b // self.k})

    def measure_all(self):
        """Read out every qubit that no explicit MEASURE gate has."""
        rest = [q for q in range(self.c.width) if q not in self.measured]
        for b in range(0, len(rest), self.k):
            self._step(EventKind.MEASURE, self.t.measure_batch, tuple(rest[b : b + self.k]))

    # -- batching ----------------------------------------------------------

    def run_gates(self, gates: list[Gate]) -> None:
        """Run `gates` in zone batches (see the module docstring); keyed by
        the kind's value, as the member's hash is Python-level."""
        for batch in translate.list_layers(gates, lambda g: (g.source, g.kind._value_),
                                           self.k, self.state.crystal_index):
            self._run_batch(batch)

    def _run_batch(self, gates: list[Gate]):
        """Run one kind-homogeneous batch, each gate in a zone of its own.

        A 1Q batch holds each qubit once, so it lasts one `one_q_gate`.  The
        batch's qubits need no dedupe: a batch's gates share no qubit (a
        zone batch is a `list_layers` layer, a block layer's 2Q gates act on
        disjoint pairs), which `test_each_step_lists_the_ions_it_holds`
        checks.  One loop collects the ids, the qubits per id and the
        qubits, where a comprehension each would be three calls on Python
        3.11, and the kind's value keys the event, its time and its cooling
        in `_Engine.batch_of`, built once per schedule.
        """
        value = gates[0].kind._value_   # `.value` is a Python-level property
        event, duration, cool = self.batch_of[value]
        ids, gate_qubits, qubits = [], {}, []
        for g in gates:
            gid, qs = g.id, g.qubits
            ids.append(gid)
            gate_qubits[gid] = qs
            qubits += qs
        qubits.sort()
        qs = tuple(qubits)
        payload = {"gate_ids": ids, "gate_qubits": gate_qubits, "kind": value}
        if event is _MEASURE:
            self.measured.update(qs)
        self._step(event, duration, qs, payload, 0 if cool is None else len(gates), cool)


def _layer_passes(c: Circuit, m: Machine, sweep: bool) -> _Passes:
    """Pass mode: the 1Q phases between consecutive 2Q layers and the 2Q
    layers themselves, empty phases dropped; Rolodex laps, TILT sweeps."""
    layers = translate.extract_2q_layers(c)
    phases = translate.one_qubit_phases(c, layers)
    runs = [(None, phases[0])]
    for layer, phase in zip(layers, phases[1:]):
        runs += [(tuple(g.qubits for g in layer), layer), (None, phase)]
    k, pairs = m.gate_zones, math.ceil(c.width / 2)
    stream = ((c.width - 1) if sweep else k + pairs) * m.timing.inter_zone_shift
    # a pass after the first whose plan is 1-D laps along the shortest path
    # whose span hosts the whole chain; a circulating plan keeps
    # plan_reorder's cheapest path
    lap_path = None if sweep else m.shortest_path(min_fraction=min(pairs / k, 1.0))
    chain = tuple(range(c.width))
    passes = [_Pass(targets, gates, lap_path if idx else None, chain, stream, None)
              for idx, (targets, gates) in enumerate(run for run in runs if run[1])]
    return (PlanMode.ONE_DIMENSIONAL if sweep else PlanMode.CIRCULATION_ALLOWED), [], passes


def _block_passes(c: Circuit, m: Machine) -> _Passes:
    """Block mode: one pass per in-place block layer, after the residual 1Q
    gates that no 2Q gate neighbours."""
    k, shift = m.gate_zones, m.timing.inter_zone_shift
    blocks = extract_inplace_blocks(c, k)
    passes = []
    for layer in blocks.layers:
        targets = tuple(b.qubits for b in layer)
        ions = tuple(sorted(q for pair in targets for q in pair))
        passes.append(_Pass(targets, [g for b in layer for g in b.gates], None, ions,
                            (INPLACE_GATHER_FACTOR * k + len(layer)) * shift, layer))
    # realignment circulates only on a track with shortcuts
    mode = PlanMode.CIRCULATION_ALLOWED if m.shortcuts else PlanMode.ONE_DIMENSIONAL
    return mode, blocks.residual, passes


def _run_block_layer(eng: _Engine, layer: list[Block], ions: tuple[int, ...]):
    """Split / left 1Q / shift / right 1Q / combine / 2Q / post mirror."""
    t = eng.t
    # each block's left and right ion, by position: a dict keyed by the
    # frozen Block would hash every gate of the block per lookup
    crystals, index = eng.state.crystals, eng.state.crystal_index
    sides = [(qs[0], qs[-1]) for qs in (crystals[index[b.qubits[0]]].qubits for b in layer)]

    def run_1q_wave(chains: list[tuple[Gate, ...]]) -> None:
        """Every gate of a chain acts on its block's left or right ion."""
        if not any(chains):
            return
        eng._step(EventKind.REORDER, t.split_or_combine, ions, {"ops": {"split": len(layer)}})
        left, right = [], []
        for chain, (lq, _) in zip(chains, sides):
            for g in chain:
                (left if g.qubits[0] == lq else right).append(g)
        eng.run_gates(left)
        eng._step(EventKind.SHUTTLE, t.intra_zone_shift, ions, {"intra": True})
        eng.run_gates(right)
        eng._step(EventKind.REORDER, t.split_or_combine, ions, {"ops": {"combine": len(layer)}})

    run_1q_wave([b.pre_1q for b in layer])
    eng._run_batch([b.core_2q for b in layer])
    run_1q_wave([b.post_1q for b in layer])


def schedule(c: Circuit, m: Machine, policy: str, flags: PolicyFlags | None = None) -> Trace:
    """Schedule a native circuit under one config (see the module docstring).

    `flags` applies to "plutarch" only; "rolodex" and "tilt" take None.
    """
    if not isinstance(c, Circuit):
        raise ValueError(f"schedule needs a Circuit, got {c!r}")
    if not isinstance(m, Machine):
        raise ValueError(f"schedule needs a Machine, got {m!r}")
    build, pipelining = _policy(policy, flags)
    eng = _Engine(c, m, pipelining)
    mode, residual, passes = build(c, m)
    eng.init_all([*(g for p in passes for g in p.gates), *residual])
    eng.run_gates(residual)
    for p, plan in zip(passes, eng.plans(mode, [p.targets for p in passes])):
        eng.transit(plan, p.lap)
        eng._step(EventKind.SHUTTLE, p.stream, p.ions, {"pass_stream": True})
        if p.layer is None:
            eng.run_gates(p.gates)
        else:
            _run_block_layer(eng, p.layer, p.ions)
    eng.measure_all()
    eng.trace.validate(c)
    return eng.trace
