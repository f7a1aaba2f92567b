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

The qubits start paired, so no config reorders.  With pipelining the
stream overlaps the second init batch and drops out of the span.
"""
import math
from dataclasses import fields, replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racetrack import schedulers
from racetrack.blocks import extract_inplace_blocks
from racetrack.circuit import build_dag
from racetrack.gates import Gate, GateType
from racetrack.machine import TimingParams, make_machine
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
    "plutarch": PREP + GATE,
    "plutarch-nopipe": PREP + (INPLACE_GATHER_FACTOR * 1 + 1) * T.inter_zone_shift + GATE,
    "plutarch-noblocks": PREP + GATE,
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

    def plan(self, targets):
        return schedulers.plan_reorder(self.state, targets, self.m, self.mode)


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

    class KeepEngines(schedulers._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with patch.object(schedulers, "_Engine", KeepEngines):
        schedule(c, make_machine(4, shortcuts=(0.5,)), policy, flags)
    (eng,) = made
    assert eng.kept == {} and eng.uses_left == {}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_no_two_events_share_a_payload(config):
    policy, flags = CONFIGS[config]
    c = translate_to_native(gen_vqe(VqeAnsatz.CIRCULAR_SU2, 8, 4))
    tr = schedule(c, make_machine(4, shortcuts=(0.5,)), policy, flags)
    assert len({id(e.payload) for e in tr.events}) == len(tr.events)
