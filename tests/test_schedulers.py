"""The five policy configs: closed-form spans on one ZZ at one gate zone,
and the batch and stream durations each config charges on random circuits.

Each expected one-ZZ span is the sum of the TimingParams fields the scheduler
charges on its critical path, read from schedulers.py:

* both qubits initialise in their own batch (k=1): 2 * init_batch;
* one stream pass through the zone region: TILT sweeps the chain,
  (width - 1) * inter_zone_shift; Rolodex streams (k + active pairs)
  zone gaps; in-place blocks gather over INPLACE_GATHER_FACTOR * k + 1;
* the ZZ and its cooling: two_q_gate + cool_2q_batch;
* one readout batch per qubit: 2 * measure_batch.

The qubits start paired, so no config reorders.  The stream moves both
qubits, so even with pipelining it waits for the second init batch, and
each pipelined span equals its serial counterpart: plutarch that of
plutarch-nopipe, (INPLACE_GATHER_FACTOR * 1 + 1) zone gaps, and
plutarch-noblocks that of rolodex, 1 + 1 zone gaps.
"""
import gc
import math
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racetrack import schedulers
from racetrack.blocks import extract_inplace_blocks
from racetrack.circuit import build_dag
from racetrack.gates import Gate, GateType
from racetrack.machine import TimingParams, make_machine
from racetrack.metrics import runtime_breakdown
from racetrack.planner import plan_reorder
from racetrack.schedulers import INPLACE_GATHER_FACTOR, PolicyFlags, schedule
from racetrack.trace import EventKind
from racetrack.translate import extract_2q_layers, one_qubit_phases, translate_to_native
from racetrack.workloads import GraphKind, GraphSpec, VqeAnsatz, gen_qaoa, gen_vqe
from test_blocks import native_circuits
from test_circuit_ir import UNITARY_KINDS, circuits

M = make_machine(1)
T = M.timing
PREP = 2 * T.init_batch + 2 * T.measure_batch
GATE = T.two_q_gate + T.cool_2q_batch

SPANS = {
    "tilt": PREP + (2 - 1) * T.inter_zone_shift + GATE,
    "rolodex": PREP + (1 + 1) * T.inter_zone_shift + GATE,
    "plutarch": PREP + (INPLACE_GATHER_FACTOR * 1 + 1) * T.inter_zone_shift + GATE,
    "plutarch-nopipe": PREP + (INPLACE_GATHER_FACTOR * 1 + 1) * T.inter_zone_shift + GATE,
    "plutarch-noblocks": PREP + (1 + 1) * T.inter_zone_shift + GATE,
}
CONFIGS = {
    "tilt": ("tilt", None),
    "rolodex": ("rolodex", None),
    "plutarch": ("plutarch", None),
    "plutarch-nopipe": ("plutarch", PolicyFlags(pipelining=False)),
    "plutarch-noblocks": ("plutarch", PolicyFlags(inplace_blocks=False)),
}


def one_zz():
    return build_dag([Gate(0, GateType.ZZ, (0, 1))], 2)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_one_zz_span(config):
    policy, flags = CONFIGS[config]
    tr = schedule(one_zz(), M, policy, flags)
    tr.validate()
    assert tr.span == SPANS[config]
    gates = tr.of_kind(EventKind.GATE_2Q)
    assert [e.payload["gate_ids"] for e in gates] == [[0]]
    assert not tr.of_kind(EventKind.REORDER, EventKind.CIRCULATE)


def test_tilt_span_literal():
    assert SPANS["tilt"] == 36_623.0


def test_unknown_policy():
    with pytest.raises(ValueError):
        schedule(one_zz(), M, "teleport")


def test_event_lanes():
    lanes = {"prep": {EventKind.INIT, EventKind.MEASURE},
             "zones": {EventKind.GATE_1Q, EventKind.GATE_2Q, EventKind.COOL},
             "transport": {EventKind.SHUTTLE, EventKind.REORDER, EventKind.CIRCULATE}}
    for kind in EventKind:
        assert [lane for lane, kinds in lanes.items() if kind in kinds] == [kind.lane]


@pytest.mark.parametrize("policy", ["rolodex", "tilt"])
def test_fixed_policies_take_no_flags(policy):
    with pytest.raises(ValueError, match=policy):
        schedule(one_zz(), M, policy, PolicyFlags())


@pytest.mark.parametrize("flags", [{}, {"inplace_blocks": False}, (False, False)])
def test_flags_must_be_policy_flags(flags):
    with pytest.raises(ValueError, match="PolicyFlags"):
        schedule(one_zz(), M, "plutarch", flags)


@pytest.mark.parametrize("name, value", [("pipelining", "no"), ("pipelining", 0),
                                         ("inplace_blocks", None), ("inplace_blocks", 1.0)])
def test_flags_must_be_bools(name, value):
    # "no" is truthy, so it would otherwise run pipelined
    with pytest.raises(ValueError) as err:
        PolicyFlags(**{name: value})
    assert str(err.value) == f"{name} must be a bool, got {value!r}"
    # the flags are frozen, so no value gets round the check
    with pytest.raises(FrozenInstanceError):
        setattr(PolicyFlags(), name, value)


def test_one_gate_per_slot():
    """q0 and q1 start as one paired crystal.  Block mode runs their
    residual U1q and Rz in that one slot, a gate at a time; pass mode
    splits the pair first, so each wave takes both."""
    c = translate_to_native(build_dag([Gate(0, GateType.H, (0,)), Gate(1, GateType.H, (1,))], 2))
    m = make_machine(2)
    for policy, sizes in (("plutarch", [1, 1, 1, 1]), ("rolodex", [2, 2])):
        tr = schedule(c, m, policy)
        assert [len(e.payload["gate_ids"]) for e in tr.of_kind(EventKind.GATE_1Q)] == sizes


def test_lap_after_a_pass_without_cooling_is_charged():
    """The 1Q pass between the two ZZ layers only measures, so it cools
    nothing; the lap after it still waits for that pass's readout to end."""
    gates = [Gate(0, GateType.ZZ, (0, 2)), Gate(1, GateType.MEASURE, (0,)),
             Gate(2, GateType.MEASURE, (2,)), Gate(3, GateType.ZZ, (1, 3)),
             Gate(4, GateType.ZZ, (0, 1))]
    tr = schedule(build_dag(gates, 4), make_machine(4), "plutarch", PolicyFlags(inplace_blocks=False))
    laps = [e.t_start for e in tr.of_kind(EventKind.CIRCULATE)]
    readout = next(e for e in tr.of_kind(EventKind.MEASURE) if e.qubits == (0,))
    assert laps == [21_851.0, 29_869.0, 39_867.0]
    assert laps[1] == readout.t_end
    assert tr.span == 48_005.0


MACHINES = {
    "k1": make_machine(1),
    "k4": make_machine(4),
    "k8": make_machine(8),
    "k8sc": make_machine(8, shortcuts=(0.5,)),
}


def events(tr):
    return [(e.t_start, e.duration, e.kind, e.zones_busy, e.qubits, e.payload) for e in tr.events]


@settings(max_examples=60, deadline=None)
@given(native_circuits, st.sampled_from(sorted(MACHINES)))
def test_plutarch_without_pipelining_or_blocks_is_rolodex(c, machine):
    m = MACHINES[machine]
    assert (events(schedule(c, m, "plutarch", PolicyFlags(False, False)))
            == events(schedule(c, m, "rolodex")))


def stream_durations(c, m, config):
    """What each pass stream costs under the config's transition."""
    k, shift = m.gate_zones, m.timing.inter_zone_shift
    if config == "plutarch" or config == "plutarch-nopipe":
        layers = extract_inplace_blocks(c, k).layers
        return [(INPLACE_GATHER_FACTOR * k + len(layer)) * shift for layer in layers]
    layers = extract_2q_layers(c)
    n_passes = len(layers) + sum(1 for phase in one_qubit_phases(c, layers) if phase)
    per_pass = (c.width - 1 if config == "tilt" else k + math.ceil(c.width / 2)) * shift
    return [per_pass] * n_passes


@settings(max_examples=100, deadline=None)
@given(native_circuits, st.sampled_from(sorted(MACHINES)), st.sampled_from(sorted(CONFIGS)))
def test_batches_and_streams_last_what_the_config_charges(c, machine, config):
    m = MACHINES[machine]
    t = m.timing
    policy, flags = CONFIGS[config]
    tr = schedule(c, m, policy, flags)
    for e in tr.of_kind(EventKind.GATE_1Q):
        ids = e.payload["gate_ids"]
        qubits = [q for gid in ids for q in e.payload["gate_qubits"][gid]]
        assert len(ids) <= m.gate_zones
        assert len(qubits) == len(set(qubits))
        assert e.duration == t.one_q_gate
    assert all(e.duration == t.two_q_gate for e in tr.of_kind(EventKind.GATE_2Q))
    streams = [e.duration for e in tr.of_kind(EventKind.SHUTTLE) if e.payload.get("pass_stream")]
    assert streams == stream_durations(c, m, config)


@pytest.mark.parametrize("name", [f.name for f in fields(TimingParams)])
def test_no_timing_field_is_idle(name):
    """Doubling any one timing field changes the events of at least one
    small case: SK-QAOA-8 and circular-SU2-8, at k=4 with a half-loop
    shortcut, under the five configs."""
    circuits = [translate_to_native(gen_qaoa(GraphSpec(GraphKind.SK, 8))),
                translate_to_native(gen_vqe(VqeAnsatz.CIRCULAR_SU2, 8))]
    base = make_machine(4, shortcuts=(0.5,))
    doubled = make_machine(4, shortcuts=(0.5,),
                           timing=replace(base.timing, **{name: 2 * getattr(base.timing, name)}))
    moved = [events(schedule(c, base, policy, flags)) != events(schedule(c, doubled, policy, flags))
             for c in circuits for policy, flags in CONFIGS.values()]
    assert any(moved)


class _PlanEveryTransition(schedulers._Engine):
    """The engine without plan reuse: every transition is planned anew."""

    def plans(self, mode, target_sets):
        for targets in target_sets:
            if targets is None:
                yield schedulers.split_all_plan(self.state, self.m)
            else:
                yield schedulers.plan_reorder(self.state, targets, self.m, mode)


def events_and_plan_calls(c, m, policy, flags):
    """The events of `schedule` and how often it called `plan_reorder`."""
    with patch.object(schedulers, "plan_reorder", wraps=plan_reorder) as counted:
        tr = schedule(c, m, policy, flags)
    return events(tr), counted.call_count


def check_reuse_changes_nothing(c, m, policy, flags):
    """Plan reuse gives the events of planning every transition, and plans
    no more often; returns the plan calls with and without reuse."""
    reused, calls = events_and_plan_calls(c, m, policy, flags)
    with patch.object(schedulers, "_Engine", _PlanEveryTransition):
        planned, reference_calls = events_and_plan_calls(c, m, policy, flags)
    assert reused == planned
    assert calls <= reference_calls
    return calls, reference_calls


@st.composite
def repeated_native_circuits(draw):
    """A random body of gates repeated 2..4 times, as the layers of a
    variational circuit repeat, translated to native gates."""
    body = draw(circuits(max_width=6, max_gates=12, kinds=UNITARY_KINDS + (GateType.MEASURE,)))
    reps = draw(st.integers(2, 4))
    gates = [Gate(r * body.n_gates + g.id, g.kind, g.qubits, g.params)
             for r in range(reps) for g in body.gates]
    return translate_to_native(build_dag(gates, body.width))


SHORTCUT_SETS = [(), (0.5,), (0.25, 0.5, 0.75)]


@settings(max_examples=150, deadline=None)
@given(repeated_native_circuits(), st.integers(1, 8), st.sampled_from(SHORTCUT_SETS),
       st.sampled_from(sorted(CONFIGS)))
def test_plan_reuse_keeps_every_event(c, k, shortcuts, config):
    policy, flags = CONFIGS[config]
    check_reuse_changes_nothing(c, make_machine(k, shortcuts=shortcuts), policy, flags)


@pytest.mark.parametrize("circuit", [
    translate_to_native(gen_vqe(VqeAnsatz.CIRCULAR_SU2, 8, 4)),
    translate_to_native(gen_qaoa(GraphSpec(GraphKind.SK, 8), 3)),
], ids=["vqe_su2_8x4", "qaoa_sk8_p3"])
def test_plan_reuse_keeps_every_event_of_layered_circuits(circuit):
    calls = reference_calls = 0
    for k in range(1, 9):
        for shortcuts in SHORTCUT_SETS:
            m = make_machine(k, shortcuts=shortcuts)
            for policy, flags in CONFIGS.values():
                made, planned = check_reuse_changes_nothing(circuit, m, policy, flags)
                calls += made
                reference_calls += planned
    # the layers repeat, so some transitions are reused
    assert calls < reference_calls


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_no_plan_is_kept_after_schedule_returns(config):
    policy, flags = CONFIGS[config]
    c = translate_to_native(gen_vqe(VqeAnsatz.CIRCULAR_SU2, 8, 4))
    made = []

    def planned(*args):
        plan = plan_reorder(*args)
        made.append(weakref.ref(plan))
        return plan

    with patch.object(schedulers, "plan_reorder", planned):
        tr = schedule(c, make_machine(4, shortcuts=(0.5,)), policy, flags)
    gc.collect()
    assert made and tr.events
    assert [ref for ref in made if ref() is not None] == []


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_no_two_events_share_a_payload(config):
    policy, flags = CONFIGS[config]
    c = translate_to_native(gen_vqe(VqeAnsatz.CIRCULAR_SU2, 8, 4))
    tr = schedule(c, make_machine(4, shortcuts=(0.5,)), policy, flags)
    assert len({id(e.payload) for e in tr.events}) == len(tr.events)


@settings(max_examples=150, deadline=None)
@given(native_circuits, st.integers(1, 8), st.sampled_from(SHORTCUT_SETS),
       st.sampled_from(sorted(CONFIGS)))
def test_every_schedule_obeys_its_dag(c, k, shortcuts, config):
    """And its breakdown splits the span with no idle time: every step
    starts at 0 or at the end of an earlier step, so the events cover the
    span without a gap, and the categories minus `hidden` are the span."""
    policy, flags = CONFIGS[config]
    tr = schedule(c, make_machine(k, shortcuts=shortcuts), policy, flags)
    tr.validate(c)
    b = runtime_breakdown(tr)
    assert b.idle == 0.0
    categories = b.init + b.gate_cooling + b.shift_swap_split + b.circulation + b.measure
    assert abs(categories - b.hidden - b.total_span) <= 1e-6


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_translated_cx_runs_its_gates_in_qubit_order(config, k):
    """CX(0, 1) -> U1q q1; ZZ; Rz q0; U1q q1; Rz q1, all from one source
    layer.  Grouping the 1Q gates after the ZZ by (source, kind) ran both
    Rz before the U1q, so Rz q1 before U1q q1 (rolodex, tilt and
    plutarch-noblocks at k = 1, 2 and 4)."""
    c = translate_to_native(build_dag([Gate(0, GateType.CX, (0, 1))], 2))
    assert [(g.kind, g.qubits) for g in c.gates[2:]] == [
        (GateType.RZ, (0,)), (GateType.U1Q, (1,)), (GateType.RZ, (1,))]
    policy, flags = CONFIGS[config]
    tr = schedule(c, make_machine(k), policy, flags)
    tr.validate(c)
    ran = {gid: e for e in tr.of_kind(EventKind.GATE_1Q) for gid in e.payload["gate_ids"]}
    assert ran[4].t_start >= ran[3].t_end


def test_exchanges_that_outlast_the_lap_set_the_charge():
    """Nesting 8 ions around the middle (ZZ(i, 7 - i)) takes 12 exchanges;
    over 8 reorder zones they stage into 10 stages of pair_exchange, 10,530
    us, against a 4,000 us lap (lap_4zone = 2,000 us at k = 8), 1,568 us of
    regrouping and 14,076 us one-dimensionally.  Rolodex circulates, and
    its one CIRCULATE lasts the exchange time, so the span is one init
    batch, 10,530 us, a stream of 8 + 4 zone gaps, the ZZ batch and its
    cooling, and one readout batch."""
    c = build_dag([Gate(i, GateType.ZZ, (i, 7 - i)) for i in range(4)], 8)
    m = make_machine(8, timing=replace(T, lap_4zone=2000.0))
    tr = schedule(c, m, "rolodex")
    (lap,) = tr.of_kind(EventKind.CIRCULATE)
    assert not tr.of_kind(EventKind.REORDER)
    assert m.lap(0) == 4000.0 and lap.duration == 10 * T.pair_exchange == 10_530.0
    assert lap.qubits == tuple(range(8))
    assert lap.payload == {"path": 0, "ops": {"split": 4, "exchange": 12, "combine": 4, "swap": 4},
                           "transports": 2 * 12 + 2 * 4}
    assert tr.span == T.init_batch + 10_530.0 + (8 + 4) * T.inter_zone_shift + GATE + T.measure_batch


@settings(max_examples=100, deadline=None)
@given(native_circuits, st.integers(1, 8), st.sampled_from(SHORTCUT_SETS),
       st.sampled_from(sorted(CONFIGS)))
def test_each_step_lists_the_ions_it_holds(c, k, shortcuts, config):
    """A gate, init or readout batch lists its qubits and its COOL none; a
    pass-mode stream and a circulation list the whole chain; a block
    layer's gather stream, split, shift and combine list the layer's ions;
    a 1-D transition lists the operands of its ops."""
    policy, flags = CONFIGS[config]
    m = make_machine(k, shortcuts=shortcuts)
    transitions = []   # (plan, path, the events it emitted)

    class Engine(schedulers._Engine):
        def transit(self, plan, path):
            n = len(self.trace.events)
            super().transit(plan, path)
            transitions.append((plan, path, self.trace.events[n:]))

    with patch.object(schedulers, "_Engine", Engine):
        tr = schedule(c, m, policy, flags)
    chain = tuple(range(c.width))
    moves = set()
    for plan, path, emitted in transitions:
        moves.update(map(id, emitted))
        if path is not None:
            (e,) = emitted
            assert (e.kind, e.qubits, e.duration) == (EventKind.CIRCULATE, chain, plan.charge(m.lap(path)))
        elif plan.ops:
            (e,) = emitted
            operands = tuple(sorted({q for op in plan.ops for q in op.operands}))
            assert (e.kind, e.qubits, e.duration) == (EventKind.REORDER, operands, plan.time_1d)
        else:
            assert emitted == []
    in_place = config in ("plutarch", "plutarch-nopipe")
    layers = iter(extract_inplace_blocks(c, k).layers) if in_place else None
    ions = chain
    for e in tr.events:
        if e.kind is EventKind.COOL:
            assert e.qubits == ()
        elif "gate_qubits" in e.payload:
            assert e.qubits == tuple(sorted(q for qs in e.payload["gate_qubits"].values() for q in qs))
        elif e.kind in (EventKind.SHUTTLE, EventKind.REORDER) and id(e) not in moves:
            if in_place and e.payload.get("pass_stream"):
                ions = tuple(sorted(q for b in next(layers) for q in b.qubits))
            assert e.qubits == ions
        elif e.kind in (EventKind.INIT, EventKind.MEASURE):
            assert e.qubits
