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

from oracle import early_edges, replay_starts
from racetrack import schedulers, translate
from racetrack.blocks import extract_inplace_blocks
from racetrack.circuit import build_dag
from racetrack.gates import Gate, GateType
from racetrack.machine import TimingParams, make_machine
from racetrack.metrics import fidelity_report, runtime_breakdown, zone_utilization
from racetrack.planner import PlanMode, plan_reorder, split_all_plan
from racetrack.schedulers import INPLACE_GATHER_FACTOR, PolicyFlags, schedule
from racetrack.trace import EventKind, TraceEvent
from racetrack.translate import extract_2q_layers, one_qubit_phases, translate_to_native
from racetrack.workloads import GraphKind, GraphSpec, VqeAnsatz, gen_qaoa, gen_vqe
from reference_metrics import of_kind
from test_blocks import native_circuits
from test_circuit_ir import UNITARY_KINDS, circuits, pair_heavy_gates

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
    gates = of_kind(tr, EventKind.GATE_2Q)
    assert [e.payload["gate_ids"] for e in gates] == [[0]]
    assert not of_kind(tr, EventKind.REORDER, EventKind.CIRCULATE)


def test_tilt_span_literal():
    assert SPANS["tilt"] == 36_623.0


def test_unknown_policy():
    with pytest.raises(ValueError):
        schedule(one_zz(), M, "teleport")


@pytest.mark.parametrize("c, m, message", [
    ("x", M, "schedule needs a Circuit, got 'x'"),
    (None, None, "schedule needs a Circuit, got None"),
    ([Gate(0, GateType.ZZ, (0, 1))], M, "schedule needs a Circuit, got [Gate(0: ZZ q0 q1)]"),
    (one_zz(), None, "schedule needs a Machine, got None"),
    (one_zz(), {"gate_zones": 1}, "schedule needs a Machine, got {'gate_zones': 1}"),
])
def test_a_record_of_the_wrong_type_is_named(c, m, message):
    with pytest.raises(ValueError) as err:
        schedule(c, m, "rolodex")
    assert str(err.value) == message


def test_a_circuit_that_is_not_native_is_rejected():
    with pytest.raises(ValueError) as err:
        schedule(build_dag([Gate(0, GateType.CX, (0, 1))], 2), M, "rolodex")
    assert str(err.value) == "scheduler requires a native-translated circuit"


def test_a_circuit_wider_than_the_machine_is_rejected():
    with pytest.raises(ValueError) as err:
        schedule(build_dag([Gate(0, GateType.ZZ, (0, 1))], M.capacity + 1), M, "plutarch")
    assert str(err.value) == f"circuit width {M.capacity + 1} exceeds machine capacity {M.capacity}"


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
        assert [len(e.payload["gate_ids"]) for e in of_kind(tr, EventKind.GATE_1Q)] == sizes


def test_lap_after_a_pass_without_cooling_is_charged():
    """The 1Q pass between the two ZZ layers only measures, so it cools
    nothing; the lap after it still waits for that pass's readout to end."""
    gates = [Gate(0, GateType.ZZ, (0, 2)), Gate(1, GateType.MEASURE, (0,)),
             Gate(2, GateType.MEASURE, (2,)), Gate(3, GateType.ZZ, (1, 3)),
             Gate(4, GateType.ZZ, (0, 1))]
    tr = schedule(build_dag(gates, 4), make_machine(4), "plutarch", PolicyFlags(inplace_blocks=False))
    laps = [e.t_start for e in of_kind(tr, EventKind.CIRCULATE)]
    readout = next(e for e in of_kind(tr, EventKind.MEASURE) if e.qubits == (0,))
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
    for e in of_kind(tr, EventKind.GATE_1Q):
        ids = e.payload["gate_ids"]
        qubits = [q for gid in ids for q in e.payload["gate_qubits"][gid]]
        assert len(ids) <= m.gate_zones
        assert len(qubits) == len(set(qubits))
        assert e.duration == t.one_q_gate
    assert all(e.duration == t.two_q_gate for e in of_kind(tr, EventKind.GATE_2Q))
    streams = [e.duration for e in of_kind(tr, EventKind.SHUTTLE) if e.payload.get("pass_stream")]
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
    """The events of `schedule` and how often it called `plan_reorder` and
    `split_all_plan`."""
    with patch.object(schedulers, "plan_reorder", wraps=plan_reorder) as counted, \
            patch.object(schedulers, "split_all_plan", wraps=split_all_plan) as splits:
        tr = schedule(c, m, policy, flags)
    return events(tr), counted.call_count, splits.call_count


def check_reuse_changes_nothing(c, m, policy, flags):
    """Plan reuse gives the events of planning every transition, and plans
    no more often; returns the plan calls with and without reuse."""
    reused, calls, splits = events_and_plan_calls(c, m, policy, flags)
    with patch.object(schedulers, "_Engine", _PlanEveryTransition):
        planned, reference_calls, reference_splits = events_and_plan_calls(c, m, policy, flags)
    assert reused == planned
    assert calls <= reference_calls
    assert splits <= reference_splits
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


@pytest.mark.parametrize("config", ["rolodex", "tilt", "plutarch-noblocks"])
def test_a_reused_plan_brings_back_its_split_all_plan(config):
    # in pass mode the 1Q pass after a reused 2Q plan starts from that
    # plan's final, so the split-all plan made from it is reused too
    policy, flags = CONFIGS[config]
    c = translate_to_native(gen_vqe(VqeAnsatz.CIRCULAR_SU2, 8, 4))
    _, _, splits = events_and_plan_calls(c, make_machine(4, shortcuts=(0.5,)), policy, flags)
    with patch.object(schedulers, "_Engine", _PlanEveryTransition):
        _, _, reference_splits = events_and_plan_calls(c, make_machine(4, shortcuts=(0.5,)), policy, flags)
    assert 0 < splits < reference_splits


def check_every_plan_is_fresh(m, width, mode, target_sets):
    """Each plan `_Engine.plans` yields equals the one made afresh from the
    state at that moment; `transit` then moves the state on.  Returns the
    plans."""
    eng = schedulers._Engine(build_dag([], width), m, pipelining=True)
    plans = []
    for targets, plan in zip(target_sets, eng.plans(mode, target_sets)):
        fresh = (split_all_plan(eng.state, m) if targets is None
                 else plan_reorder(eng.state, targets, m, mode))
        assert plan == fresh
        eng.transit(plan, None)
        plans.append(plan)
    return plans


@st.composite
def transition_sequences(draw):
    """A width, and a sequence of target sets and None drawn from a pool of
    at most three sets, so that a set recurs from another state and Nones
    open the sequence or follow each other."""
    width = draw(st.integers(2, 8))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        qubits = draw(st.permutations(range(width)))
        n = draw(st.integers(1, width // 2))
        pool.append(tuple(tuple(qubits[2 * i : 2 * i + 2]) for i in range(n)))
    return width, draw(st.lists(st.sampled_from([None, *pool]), min_size=1, max_size=10))


@settings(max_examples=200, deadline=None)
@given(transition_sequences(), st.sampled_from(["k1", "k4", "k8sc"]), st.sampled_from(list(PlanMode)))
def test_plans_equal_fresh_plans_in_any_pass_order(sequence, machine, mode):
    width, target_sets = sequence
    check_every_plan_is_fresh(MACHINES[machine], width, mode, target_sets)


def test_a_second_1q_pass_in_a_row_is_planned_from_its_own_state():
    # the second None starts with every ion single, so its split-all plan
    # has no op, where the first one's split both pairs
    target_sets = [((0, 2),), None, None, ((0, 2),), None]
    plans = check_every_plan_is_fresh(make_machine(4), 4, PlanMode.CIRCULATION_ALLOWED, target_sets)
    assert [plan.op_counts for plan in plans] == [
        (("exchange", 1),), (("split", 2),), (), (("combine", 1),), (("split", 1),)]


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


def check_starts_replay(c, m, config):
    """Every start of the config's schedule is, bit for bit, the start the
    timing rule gives with each ion's end kept per ion."""
    policy, flags = CONFIGS[config]
    tr = schedule(c, m, policy, flags)
    pipelining = schedulers._policy(policy, flags)[1]
    assert [e.t_start.hex() for e in tr.events] == [t.hex() for t in replay_starts(tr, pipelining)]


@settings(max_examples=150, deadline=None)
@given(native_circuits, st.integers(1, 8), st.sampled_from(SHORTCUT_SETS),
       st.sampled_from(sorted(CONFIGS)))
def test_every_start_is_the_replayed_start(c, k, shortcuts, config):
    check_starts_replay(c, make_machine(k, shortcuts=shortcuts), config)


RING = translate_to_native(gen_vqe(VqeAnsatz.CIRCULAR_SU2, 56, 8))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("machine", ["k4", "k8sc"])
def test_every_start_of_the_ring_cases_is_the_replayed_start(machine, config):
    m = make_machine(4) if machine == "k4" else make_machine(8, shortcuts=(0.5,))
    check_starts_replay(RING, m, config)


RULE_2 = "rule 2 (no gate starts before a DAG predecessor ends) broken by "


def check_rule_2_after_a_move(c, k, config, pick, offset, share=0.0):
    """Schedule `c`, shift every event one span later, so that no start
    can go below 0, and move the `pick`-th event that runs gates (modulo
    their count) earlier: to `offset` plus `share` of the span before the
    latest end of a gate before one of its gates on a shared qubit.
    `Trace.validate` reports a rule-2 fault iff the reduced DAG has an
    early edge, and then counts those edges and names the least."""
    policy, flags = CONFIGS[config]
    tr = schedule(c, make_machine(k), policy, flags)
    span = tr.span
    tr.events = [e._replace(t_start=e.t_start + span) for e in tr.events]
    runs = [i for i, e in enumerate(tr.events) if e.payload.get("gate_ids")]
    moved = tr.events[runs[pick % len(runs)]]
    end = {gid: e.t_end for e in tr.events for gid in e.payload.get("gate_ids", ())}
    last_on, before = {}, []
    for g in c.gates:
        if g.id in moved.payload["gate_ids"]:
            before += [end[last_on[q]] for q in g.qubits if q in last_on]
        last_on.update(dict.fromkeys(g.qubits, g.id))
    delta = moved.t_start - max(before, default=moved.t_start) + offset + share * span
    tr.events[tr.events.index(moved)] = moved._replace(t_start=moved.t_start - delta)
    try:
        tr.validate(c)
        message = ""
    except ValueError as err:
        message = str(err)
    early = early_edges(c.edges, tr)
    if early:
        a, b = early[0]
        assert message.startswith(f"{RULE_2}{len(early)} edge(s), first: gate {b} starts at ")
        assert f"before its predecessor gate {a} ends at " in message
    else:
        assert not message.startswith(RULE_2)
    return early


@settings(max_examples=200, deadline=None)
@given(native_circuits | pair_heavy_gates(max_gates=16).map(lambda drawn: translate_to_native(build_dag(*drawn))),
       st.integers(1, 8), st.sampled_from(sorted(CONFIGS)), st.integers(0, 10**6),
       st.sampled_from([-1.0, 0.5e-6, 2e-6]), st.just(0.0) | st.floats(0.0, 1.0))
def test_rule_2_reports_what_the_reduced_dag_reports(c, k, config, pick, offset, share):
    check_rule_2_after_a_move(c, k, config, pick, offset, share)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_rule_2_on_a_repeated_pair(config):
    """ZZ(0,1) twice: the second gate's qubits share one predecessor.  With
    Rz(0) between them, the first ZZ precedes the second on qubit 1, but
    that pair is no edge of the reduced DAG: moving the second far enough
    breaks both pairs, and the edge from the Rz is the one named."""
    zz, rz = (GateType.ZZ, (0, 1), ()), (GateType.RZ, (0,), (0.3,))
    for kinds in ((zz, zz), (zz, rz, zz)):
        n = len(kinds)
        c = build_dag([Gate(i, *kind) for i, kind in enumerate(kinds)], 2)
        runs = [e.payload["gate_ids"] for e in schedule(c, make_machine(1), *CONFIGS[config]).events
                if e.payload.get("gate_ids")]
        for offset, share, broken in ((0.5e-6, 0.0, []), (2e-6, 0.0, [(n - 2, n - 1)]),
                                      (0.0, 0.9, [(n - 2, n - 1)])):
            assert check_rule_2_after_a_move(c, 1, config, runs.index([n - 1]), offset, share) == broken
        assert c.edges == frozenset((i, i + 1) for i in range(n - 1))


@settings(max_examples=40, deadline=None)
@given(circuits(max_width=6, max_gates=24, kinds=UNITARY_KINDS + (GateType.MEASURE,)), st.booleans(),
       st.sampled_from(sorted(CONFIGS)))
def test_the_pipeline_never_builds_the_dag(c, expand_rzz, config):
    native = translate_to_native(c, expand_rzz)
    m = make_machine(4)
    tr = schedule(native, m, *CONFIGS[config])
    runtime_breakdown(tr), zone_utilization(tr), fidelity_report(tr, m.fidelity)
    assert "edges" not in native.__dict__ and "edges" not in c.__dict__


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
    ran = {gid: e for e in of_kind(tr, EventKind.GATE_1Q) for gid in e.payload["gate_ids"]}
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
    (lap,) = of_kind(tr, EventKind.CIRCULATE)
    assert not of_kind(tr, EventKind.REORDER)
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
    transitions = []   # (plan, the events it emitted)

    class Engine(schedulers._Engine):
        def transit(self, plan, lap):
            n = len(self.trace.events)
            super().transit(plan, lap)
            transitions.append((plan, self.trace.events[n:]))

    with patch.object(schedulers, "_Engine", Engine):
        tr = schedule(c, m, policy, flags)
    chain = tuple(range(c.width))
    moves = set()
    for plan, emitted in transitions:
        moves.update(map(id, emitted))
        if emitted and emitted[0].kind is EventKind.CIRCULATE:
            (e,) = emitted
            assert (e.qubits, e.duration) == (chain, plan.charge(m.lap(e.payload["path"])))
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


# -- the pass list -------------------------------------------------------------

BUILDERS = {   # config: (pass builder, its keywords, pipelining)
    "tilt": (schedulers._layer_passes, {"sweep": True}, False),
    "rolodex": (schedulers._layer_passes, {"sweep": False}, False),
    "plutarch": (schedulers._block_passes, {}, True),
    "plutarch-nopipe": (schedulers._block_passes, {}, False),
    "plutarch-noblocks": (schedulers._layer_passes, {"sweep": False}, True),
}


def build_passes(c, m, config):
    build, _ = schedulers._policy(*CONFIGS[config])
    return build(c, m)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_each_config_is_a_builder_and_a_pipelining(config):
    build, pipelining = schedulers._policy(*CONFIGS[config])
    func, keywords, expected = BUILDERS[config]
    assert (getattr(build, "func", build), getattr(build, "keywords", {})) == (func, keywords)
    assert pipelining is expected


@settings(max_examples=40, deadline=None)
@given(native_circuits, st.sampled_from(sorted(MACHINES)))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_the_passes_run_every_gate_once_after_its_predecessors(config, c, machine):
    """Every gate is in the residual or in one pass, and no pass is empty.
    The residual runs first, then the passes in order, so a gate's DAG
    predecessors are in the residual or an earlier pass, or earlier in its
    own pass."""
    _, residual, passes = build_passes(c, MACHINES[machine], config)
    where = {}   # gate id: (pass index, -1 for the residual; position in it)
    for i, gates in [(-1, residual), *enumerate(p.gates for p in passes)]:
        for position, g in enumerate(gates):
            assert g.id not in where
            where[g.id] = (i, position)
    assert sorted(where) == [g.id for g in c.gates]
    assert all(p.gates for p in passes)
    for a, b in c.edges:
        assert where[a] < where[b]


@settings(max_examples=40, deadline=None)
@given(native_circuits, st.sampled_from(sorted(MACHINES)))
@pytest.mark.parametrize("config", ["rolodex", "tilt", "plutarch-noblocks"])
def test_pass_mode_alternates_1q_phases_and_2q_layers(config, c, machine):
    """Pass mode has no residual.  A 2Q pass is one 2Q layer and targets
    its gates' pairs; a 1Q pass splits every pair, and no two 1Q passes are
    adjacent.  Every pass streams the whole chain.  TILT plans
    one-dimensionally and never laps; under Rolodex laps every pass after
    the first laps, when its plan is 1-D, along the shortest path whose
    span hosts the chain's pairs."""
    m = MACHINES[machine]
    mode, residual, passes = build_passes(c, m, config)
    assert residual == []
    assert [p.gates for p in passes if p.targets is not None] == extract_2q_layers(c)
    for p, after in zip(passes, passes[1:] + [None]):
        assert p.layer is None and p.ions == tuple(range(c.width))
        if p.targets is None:
            assert all(len(g.qubits) == 1 for g in p.gates)
            assert after is None or after.targets is not None
        else:
            assert p.targets == tuple(g.qubits for g in p.gates)
    if config == "tilt":
        assert mode is PlanMode.ONE_DIMENSIONAL
        assert [p.lap for p in passes] == [None] * len(passes)
        return
    assert mode is PlanMode.CIRCULATION_ALLOWED
    share = min(math.ceil(c.width / 2) / m.gate_zones, 1.0)
    fraction = dict(m.circulation_paths)
    lap = min((pid for pid, f in m.circulation_paths if f >= share - 1e-12), key=fraction.get)
    assert [p.lap for p in passes] == [None, *[lap] * (len(passes) - 1)][:len(passes)]


@settings(max_examples=40, deadline=None)
@given(native_circuits)
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_block_mode_runs_one_pass_per_block_layer(machine, c):
    """The residual is the block schedule's, and each pass is one in-place
    block layer: it targets its blocks' pairs, runs their gates block by
    block, gathers only their ions and never laps.  Realignment circulates
    only on a track with shortcuts."""
    m = MACHINES[machine]
    blocks = extract_inplace_blocks(c, m.gate_zones)
    mode, residual, passes = schedulers._block_passes(c, m)
    assert mode is (PlanMode.CIRCULATION_ALLOWED if m.shortcuts else PlanMode.ONE_DIMENSIONAL)
    assert residual == blocks.residual
    assert [p.layer for p in passes] == blocks.layers
    for p in passes:
        assert p.targets == tuple(b.core_2q.qubits for b in p.layer)
        assert p.gates == [g for b in p.layer for g in (*b.pre_1q, b.core_2q, *b.post_1q)]
        assert p.ions == tuple(sorted(q for b in p.layer for q in b.core_2q.qubits))
        assert p.lap is None


@settings(max_examples=30, deadline=None)
@given(native_circuits, st.sampled_from(sorted(MACHINES)))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_the_loop_makes_one_transition_and_one_stream_per_pass(config, c, machine):
    """`schedule` initializes the qubits of the passes' gates, then of the
    residual, then the rest, in order of use and in batches of at most k.
    Then each pass makes one transition, along the plan's path or, for a
    1-D plan, the pass's lap, and one stream of the pass's ions."""
    m = MACHINES[machine]
    policy, flags = CONFIGS[config]
    _, residual, passes = build_passes(c, m, config)
    paths = []   # (the plan's path, the path of the transition's CIRCULATE or None)

    class Engine(schedulers._Engine):
        def transit(self, plan, lap):
            n = len(self.trace.events)
            super().transit(plan, lap)
            circulations = [e.payload["path"] for e in self.trace.events[n:] if e.kind is EventKind.CIRCULATE]
            paths.append((plan.path_id, circulations[0] if circulations else None))

    with patch.object(schedulers, "_Engine", Engine):
        tr = schedule(c, m, policy, flags)
    assert len(paths) == len(passes)
    for (planned, path), p in zip(paths, passes):
        assert path == (p.lap if planned is None else planned)
    streams = [(e.qubits, e.duration) for e in of_kind(tr, EventKind.SHUTTLE) if e.payload.get("pass_stream")]
    assert streams == [(p.ions, p.stream) for p in passes]
    inits = [e.qubits for e in of_kind(tr, EventKind.INIT) if "gate_ids" not in e.payload]
    used = [q for gates in [*(p.gates for p in passes), residual] for g in gates for q in g.qubits]
    assert [q for qs in inits for q in qs] == list(dict.fromkeys([*used, *range(c.width)]))
    assert all(len(qs) <= m.gate_zones for qs in inits)


# -- zone batches ----------------------------------------------------------------

@pytest.mark.parametrize("kind, params, event", [
    (GateType.INIT, (), (0.0, 17000.0, EventKind.INIT, 0)),
    (GateType.MEASURE, (), (0.0, 120.0, EventKind.MEASURE, 0)),
    (GateType.RZ, (0.5,), (0.0, 5.0, EventKind.GATE_1Q, 3)),
])
def test_a_1q_batch_emits_its_literal_event(kind, params, event):
    eng = schedulers._Engine(build_dag([], 6), make_machine(4), pipelining=True)
    eng._run_batch([Gate(5, kind, (4,), params), Gate(2, kind, (0,), params), Gate(9, kind, (3,), params)])
    payload = {"gate_ids": [5, 2, 9], "gate_qubits": {5: (4,), 2: (0,), 9: (3,)}, "kind": kind.value}
    expected = [TraceEvent(*event, (0, 3, 4), payload)]
    if event[2] is EventKind.GATE_1Q:
        expected.append(TraceEvent(5.0, 2055.0, EventKind.COOL, 3, (), {}))
    assert eng.trace.events == expected
    assert list(eng.trace.events[0].payload["gate_qubits"]) == [5, 2, 9]
    assert eng.measured == ({0, 3, 4} if kind is GateType.MEASURE else set())


def test_a_2q_batch_emits_its_literal_event_and_cooling():
    eng = schedulers._Engine(build_dag([], 6), make_machine(4), pipelining=True)
    eng._run_batch([Gate(7, GateType.ZZ, (4, 1)), Gate(3, GateType.ZZ, (0, 5))])
    assert eng.trace.events == [
        TraceEvent(0.0, 25.0, EventKind.GATE_2Q, 2, (0, 1, 4, 5),
                   {"gate_ids": [7, 3], "gate_qubits": {7: (4, 1), 3: (0, 5)}, "kind": "ZZ"}),
        TraceEvent(25.0, 2075.0, EventKind.COOL, 2, (), {})]
    assert eng.measured == set()


@settings(max_examples=40, deadline=None)
@given(native_circuits, st.sampled_from(sorted(MACHINES)))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_one_gate_per_crystal_binds_only_on_the_residual(config, c, machine):
    """After the residual, every zone batch list is the same without the
    one-gate-per-crystal rule: a 2Q pass's crystals hold its pairs, a 1Q
    pass follows a split of every pair, and a block layer's 1Q wave runs
    the left and the right ions of its crystals apart.
    `test_one_gate_per_slot` is the residual case."""
    m = MACHINES[machine]
    policy, flags = CONFIGS[config]
    list_layers = translate.list_layers
    calls = []   # (gates, key, cap, its layers) of each call with slots

    def recorded(gates, key, cap=None, slot_of=None):
        layers = list_layers(gates, key, cap, slot_of)
        if slot_of is not None:
            calls.append((gates, key, cap, layers))
        return layers

    with patch.object(translate, "list_layers", recorded):
        schedule(c, m, policy, flags)
    assert calls[0][0] == build_passes(c, m, config)[1]
    for gates, key, cap, layers in calls[1:]:
        assert list_layers(gates, key, cap) == layers
