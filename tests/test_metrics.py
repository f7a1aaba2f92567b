"""Runtime breakdown, zone utilization, the fidelity ledger, trace
validation and the trace event's value semantics.

The one-walk metrics and `Trace.validate` are held to the multi-walk
reference bodies in `reference_metrics.py` on drawn traces and on
scheduled ones.
"""
import copy
import math
import pickle
import re
from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_metrics as ref
from racetrack.circuit import build_dag
from racetrack.gates import Gate, GateType
from racetrack.machine import FidelityParams, make_machine
from racetrack.metrics import (
    _union_length,
    fidelity_report,
    runtime_breakdown,
    zone_utilization,
)
from racetrack.schedulers import PolicyFlags, schedule
from racetrack.trace import EventKind, Trace, TraceEvent
from racetrack.translate import translate_to_native
from racetrack.workloads import GraphKind, GraphSpec, VqeAnsatz, gen_qaoa, gen_vqe
from test_blocks import native_circuits

interval = st.tuples(st.integers(0, 20), st.integers(-2, 8)).map(lambda p: (p[0], p[0] + p[1]))


def as_events(intervals):
    """Each (start, end) as the event that starts at `start` and lasts
    `end - start`, the form `_union_length` takes."""
    return [TraceEvent(a, b - a, EventKind.GATE_1Q, 1, (), {}) for a, b in intervals]


def brute_union(intervals):
    """Unit cells that some interval covers (integer endpoints)."""
    return sum(1 for x in range(0, 28) if any(s <= x and x + 1 <= e for s, e in intervals))


@settings(max_examples=400, deadline=None)
@given(st.lists(interval, max_size=8))
@example([(2, 10), (4, 6)])                          # nested
@example([(2, 5), (5, 9)])                           # touching
@example([(4, 4), (7, 7), (3, 6)])                   # zero-length
@example([(1, 2), (5, 6), (9, 12)])                  # disjoint
@example([(1, 3), (4, 2), (6, 5)])                   # ending before the start
def test_union_length_matches_brute_force(intervals):
    floats = [(float(s), float(e)) for s, e in intervals]
    assert _union_length(as_events(floats)) == brute_union(intervals)
    assert ref.union_length(floats) == brute_union(intervals)


END = st.sampled_from([0.0, 1.0, 2.0, 2.5, 4.0, -math.inf, math.inf, math.nan])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(END, END), max_size=8))
@example([(0.0, math.nan)])                                     # a NaN end
@example([(math.nan, 4.0), (1.0, 2.0)])                         # a NaN start
@example([(5.0, 6.0), (math.nan, 1.0), (0.0, 10.0)])            # a NaN that would misorder the sort
@example([(1.0, 2.0), (1.0, 2.0), (2.0, 4.0), (2.0, 2.0)])      # equal, touching and empty
def test_union_length_matches_the_reference_with_nan_and_shared_ends(intervals):
    """An interval with a NaN covers nothing, as in the reference, over
    the ends the events give: `start + (end - start)`, which is NaN for an
    infinite start and end of one sign."""
    events = as_events(intervals)
    ends = [(e.t_start, e.t_start + e.duration) for e in events]
    assert repr(_union_length(events)) == repr(float(ref.union_length(ends)))


def hand_trace():
    def ev(kind, start, end, zones=0, qubits=()):
        return TraceEvent(float(start), float(end - start), kind, zones, qubits, {})

    tr = Trace(width=2, gate_zones=2)
    for e in (
        ev(EventKind.INIT, 0, 100, qubits=(0, 1)),
        ev(EventKind.GATE_2Q, 100, 125, zones=2, qubits=(0, 1)),
        ev(EventKind.COOL, 125, 225, zones=2),
        ev(EventKind.CIRCULATE, 150, 450),
        ev(EventKind.REORDER, 400, 500),
        ev(EventKind.MEASURE, 480, 600, qubits=(1,)),
        ev(EventKind.GATE_1Q, 600, 605, zones=1, qubits=(0,)),
        ev(EventKind.COOL, 605, 705, zones=1),
    ):
        tr.add(e)
    return tr


def test_breakdown_by_hand():
    b = runtime_breakdown(hand_trace())
    # the events cover [0, 705) with no gap; the lap [150, 450) overlaps
    # gate/cool [100, 225) for 75 us and the reorder [400, 500) for 50 us,
    # and the measure [480, 600) overlaps the reorder for 20 us
    assert asdict(b) == {
        "init": 100.0,
        "gate_cooling": 25.0 + 100.0 + 5.0 + 100.0,
        "shift_swap_split": 100.0,
        "circulation": 300.0,
        "measure": 120.0,
        "hidden": 75.0 + 50.0 + 20.0,
        "idle": 0.0,
        "total_span": 705.0,
    }


def test_breakdown_counts_a_gap_as_idle():
    tr = Trace(width=1, gate_zones=1)
    tr.add(TraceEvent(10.0, 5.0, EventKind.GATE_1Q, 1, (0,), {}))
    tr.add(TraceEvent(12.0, 20.0, EventKind.COOL, 1, (), {}))
    tr.add(TraceEvent(40.0, 8.0, EventKind.MEASURE, 0, (0,), {}))
    b = runtime_breakdown(tr)
    # [0, 10) and [32, 40) hold no event; the cooling overlaps the gate for 3 us
    assert (b.gate_cooling, b.measure, b.hidden, b.idle, b.total_span) == (25.0, 8.0, 3.0, 18.0, 48.0)
    assert asdict(runtime_breakdown(Trace(width=1, gate_zones=1))) == dict.fromkeys(asdict(b), 0.0)


def test_zone_utilization_by_hand():
    tr = hand_trace()
    # busy window: [100, 225) and [600, 705) = 230 us; zone-us: 2*125 + 1*105
    assert zone_utilization(tr) == pytest.approx(100.0 * 355.0 / (2 * 230.0))
    assert zone_utilization(replace(tr, gate_zones=1)) == pytest.approx(100.0 * 230.0 / 230.0)
    assert zone_utilization(Trace(width=1, gate_zones=2)) == 0.0
    with pytest.raises(ValueError):
        zone_utilization(replace(tr, gate_zones=0))


# Times on a half-unit grid make events overlap, touch and have zero
# length; the offsets straddle validate's 1e-6 slack on both sides, and a
# few durations are negative.
_offsets = st.sampled_from([0.0, 0.0, 0.0, 5e-7, -5e-7, 2e-6, -2e-6])
_starts = st.builds(lambda units, offset: units / 2 + offset, st.integers(0, 24), _offsets)
_durations = st.builds(lambda units, offset: units / 2 + offset, st.integers(-1, 16), _offsets)
_payloads = st.fixed_dictionaries({}, optional={
    "gate_ids": st.lists(st.integers(0, 40), max_size=4),
    "transports": st.integers(0, 12),
})


@st.composite
def traces(draw, max_events=12):
    """A trace of up to `max_events` events of every kind, over k in 1..8
    gate zones; a start or duration may be negative, which only
    `validate` rejects."""
    k = draw(st.integers(1, 8))
    width = draw(st.integers(1, 6))
    tr = Trace(width=width, gate_zones=k)
    for _ in range(draw(st.integers(0, max_events))):
        tr.add(TraceEvent(
            draw(_starts),
            draw(_durations),
            draw(st.sampled_from(list(EventKind))),
            draw(st.integers(0, k + 2)),
            tuple(draw(st.lists(st.integers(0, width - 1), unique=True, max_size=3))),
            draw(_payloads),
        ))
    return tr


def _raised(check, tr):
    """The message `check(tr)` raises, or None."""
    try:
        check(tr)
    except ValueError as exc:
        return str(exc)
    return None


def assert_metrics_match_the_reference(tr, f=FidelityParams()):
    """The reference sums the union run by run and the package piece by
    piece, so `hidden`, `idle` and zone utilization may differ in rounding."""
    b, want = runtime_breakdown(tr), ref.runtime_breakdown(tr)
    assert replace(b, hidden=0.0, idle=0.0) == replace(want, hidden=0.0, idle=0.0)
    assert b.hidden == pytest.approx(want.hidden, rel=1e-12, abs=1e-9)
    assert b.idle == pytest.approx(want.idle, rel=1e-12, abs=1e-9)
    assert zone_utilization(tr) == pytest.approx(ref.zone_utilization(tr), rel=1e-9)
    assert fidelity_report(tr, f) == ref.fidelity_report(tr, f)


@settings(max_examples=400, deadline=None)
@given(traces())
def test_metrics_match_the_multi_walk_reference(tr):
    assert_metrics_match_the_reference(tr)


@settings(max_examples=400, deadline=None)
@given(traces())
def test_breakdown_splits_the_span_exactly(tr):
    b = runtime_breakdown(tr)
    categories = b.init + b.gate_cooling + b.shift_swap_split + b.circulation + b.measure
    assert abs(categories - b.hidden + b.idle - b.total_span) <= 1e-9


@settings(max_examples=400, deadline=None)
@given(traces())
def test_validate_matches_the_multi_walk_reference(tr):
    assert _raised(Trace.validate, tr) == _raised(ref.validate, tr)


CONFIGS = [
    ("rolodex", None), ("tilt", None), ("plutarch", None),
    ("plutarch", PolicyFlags(pipelining=False)), ("plutarch", PolicyFlags(inplace_blocks=False)),
]


@settings(max_examples=60, deadline=None)
@given(native_circuits, st.integers(1, 8), st.sampled_from([(), (0.5,)]),
       st.sampled_from(CONFIGS))
def test_scheduled_metrics_match_the_multi_walk_reference(c, k, shortcuts, config):
    m = make_machine(k, shortcuts=shortcuts)
    assert_metrics_match_the_reference(schedule(c, m, *config), m.fidelity)


def _one_event_trace(start, duration):
    tr = Trace(width=1, gate_zones=1)
    tr.add(TraceEvent(start, duration, EventKind.GATE_1Q, 1, (0,), {}))
    return tr


@pytest.mark.parametrize("start, duration", [
    (0.0, -1.0),
    (-1e-3, 1.0),
    (math.nan, 1.0),
    (0.0, math.nan),
    (math.inf, 1.0),
    (-math.inf, 1.0),
    (0.0, math.inf),
])
def test_validate_rejects_bad_times(start, duration):
    with pytest.raises(ValueError, match="bad event time"):
        _one_event_trace(start, duration).validate()


def test_validate_accepts_a_start_within_the_slack():
    _one_event_trace(-1e-6, 0.0).validate()


def test_validate_rejects_overlapping_zone_events():
    tr = Trace(width=2, gate_zones=2)
    tr.add(TraceEvent(0.0, 10.0, EventKind.GATE_1Q, 1, (0,), {}))
    tr.add(TraceEvent(5.0, 10.0, EventKind.COOL, 1, (), {}))
    with pytest.raises(ValueError, match="zone events overlap"):
        tr.validate()


def test_validate_rejects_a_qubit_in_two_overlapping_events():
    tr = Trace(width=2, gate_zones=2)
    tr.add(TraceEvent(0.0, 10.0, EventKind.INIT, 0, (0, 1), {}))
    tr.add(TraceEvent(5.0, 10.0, EventKind.MEASURE, 0, (1,), {}))
    with pytest.raises(ValueError, match="qubit overlap"):
        tr.validate()


def test_rule_4_sees_an_older_longer_event_after_a_newer_short_one():
    """The newer event has ended, the older one has not: the latest end
    among the active events, not the last one's, decides the walk."""
    older = TraceEvent(0.0, 100.0, EventKind.SHUTTLE, 0, (0,), {})
    newer = TraceEvent(10.0, 5.0, EventKind.INIT, 0, (1,), {})
    late = TraceEvent(50.0, 10.0, EventKind.MEASURE, 0, (0,), {})
    tr = Trace(width=2, gate_zones=1, events=[older, newer, late])
    with pytest.raises(ValueError) as err:
        tr.validate()
    assert str(err.value) == f"qubit overlap between {older} and {late}"
    assert _raised(ref.validate, tr) == str(err.value)


@pytest.mark.parametrize("offset, overlaps", [
    (-2e-6, True), (-5e-7, False), (0.0, False), (5e-7, False), (2e-6, False)])
def test_rule_4_lets_events_touch_within_the_slack(offset, overlaps):
    first = TraceEvent(0.0, 10.0, EventKind.SHUTTLE, 0, (0, 1), {})
    second = TraceEvent(10.0 + offset, 10.0, EventKind.REORDER, 0, (1,), {})
    tr = Trace(width=2, gate_zones=1, events=[first, second])
    message = f"qubit overlap between {first} and {second}"
    assert _raised(Trace.validate, tr) == (message if overlaps else None)
    assert _raised(ref.validate, tr) == _raised(Trace.validate, tr)


def test_rule_4_names_both_events_of_the_first_overlap_in_start_order():
    # the second event ends before the third starts; the first is still
    # active when the third and the fourth start
    events = [TraceEvent(0.0, 30.0, EventKind.SHUTTLE, 0, (0, 1), {}),
              TraceEvent(5.0, 5.0, EventKind.INIT, 0, (2,), {}),
              TraceEvent(20.0, 5.0, EventKind.MEASURE, 0, (2,), {}),
              TraceEvent(25.0, 5.0, EventKind.MEASURE, 0, (1, 2), {})]
    tr = Trace(width=3, gate_zones=1, events=events[::-1])
    assert _raised(Trace.validate, tr) == f"qubit overlap between {events[0]} and {events[3]}"
    assert _raised(ref.validate, tr) == _raised(Trace.validate, tr)


# -- malformed input is named, not met deep in the code


def test_breakdown_names_an_event_of_unknown_kind():
    e = TraceEvent(0.0, 1.0, "Gate1Q", 1, (0,), {})
    with pytest.raises(ValueError) as err:
        runtime_breakdown(Trace(2, 4, [e]))
    assert str(err.value) == f"event of unknown kind: {e}"


def test_metrics_read_plain_rows_as_events():
    events = [TraceEvent(0.0, 5.0, EventKind.INIT, 0, (0,), {}),
              TraceEvent(5.0, 2.0, EventKind.GATE_1Q, 1, (0,), {"gate_ids": [0]}),
              TraceEvent(7.0, 3.0, EventKind.COOL, 1, (), {})]
    rows = Trace(1, 1, [tuple(e) for e in events])
    tr = Trace(1, 1, events)
    assert runtime_breakdown(rows) == runtime_breakdown(tr)
    assert zone_utilization(rows) == zone_utilization(tr)
    assert fidelity_report(rows) == fidelity_report(tr)


def test_validate_names_an_event_of_unknown_kind():
    e = TraceEvent(0.0, 1.0, "Gate1Q", 1, (0,), {})
    with pytest.raises(ValueError) as err:
        Trace(2, 4, [e]).validate()
    assert str(err.value) == f"bad event kind: {e}"


def test_validate_names_an_event_whose_payload_is_no_dict():
    e = TraceEvent(0.0, 10.0, EventKind.GATE_1Q, 1, (0,), None)
    tr = Trace(1, 1, [e])
    tr.validate()   # only the gate check reads payloads
    with pytest.raises(ValueError) as err:
        tr.validate(TWO_GATES)
    assert str(err.value) == f"bad event payload: {e}"


@pytest.mark.parametrize("overlaps", [False, True])
def test_validate_names_an_event_whose_qubits_are_no_sequence(overlaps):
    # an overlap sent the int down rule 4's slow path, into set(5)
    bad = TraceEvent(0.0, 10.0, EventKind.SHUTTLE, 0, 5, {})
    other = TraceEvent(5.0 if overlaps else 20.0, 10.0, EventKind.INIT, 0, (0,), {})
    with pytest.raises(ValueError) as err:
        Trace(6, 1, [other, bad]).validate()
    assert str(err.value) == f"bad event qubits: {bad}"


def test_transport_events_count_a_none_payload_as_none():
    events = [TraceEvent(0.0, 1.0, EventKind.CIRCULATE, 0, (0,), {"transports": 4}),
              TraceEvent(1.0, 1.0, EventKind.SHUTTLE, 0, (0,), None),
              TraceEvent(2.0, 1.0, EventKind.REORDER, 0, (0,), {})]
    tr = Trace(1, 1, events)
    assert tr.transport_events() == 4 == fidelity_report(tr).n_transport


def test_span_and_transports_read_plain_tuples():
    # both read an event by index, as the metrics do, so a 6-tuple reads as one
    events = [TraceEvent(0.0, 3.0, EventKind.CIRCULATE, 0, (0,), {"transports": 4}),
              TraceEvent(1.0, 5.0, EventKind.SHUTTLE, 0, (1,), None),
              TraceEvent(2.0, 1.0, EventKind.REORDER, 0, (0,), {"transports": 2})]
    named, plain = Trace(2, 1, events), Trace(2, 1, [tuple(e) for e in events])
    assert (plain.span, plain.transport_events()) == (named.span, named.transport_events()) == (6.0, 6)
    assert runtime_breakdown(plain).total_span == 6.0 and fidelity_report(plain).n_transport == 6


@pytest.mark.parametrize("config", CONFIGS)
def test_span_and_transports_agree_with_the_metrics(config):
    m = make_machine(4, shortcuts=(0.5,))
    circuit = translate_to_native(gen_qaoa(GraphSpec(GraphKind.SK, 8)))
    tr = schedule(circuit, m, *config)
    assert tr.span == runtime_breakdown(tr).total_span > 0
    assert tr.transport_events() == fidelity_report(tr, m.fidelity).n_transport > 0


@pytest.mark.parametrize("width, gate_zones, name", [
    (2, "4", "gate_zones"), (2, 4.0, "gate_zones"), (2, True, "gate_zones"), (2, -1, "gate_zones"),
    ("2", 4, "width"), (False, 4, "width"), (-1, 4, "width"), (None, 4, "width")])
def test_trace_rejects_a_width_or_zone_count_that_is_no_count(width, gate_zones, name):
    with pytest.raises(ValueError) as err:
        Trace(width, gate_zones)
    value = width if name == "width" else gate_zones
    assert str(err.value) == f"trace {name} must be an int >= 0, got {value!r}"


def test_trace_takes_zero_counts_and_zone_utilization_keeps_its_error():
    tr = Trace(0, 0)
    with pytest.raises(ValueError, match="need at least one gate zone"):
        zone_utilization(tr)


def _gate_trace(*runs):
    """A trace of 1Q gate events on qubit 0, one per (start, gate ids)."""
    tr = Trace(width=1, gate_zones=1)
    for start, ids in runs:
        tr.add(TraceEvent(start, 10.0, EventKind.GATE_1Q, 1, (0,), {"gate_ids": list(ids)}))
    return tr


# gate 0 precedes gate 1 on qubit 0
TWO_GATES = build_dag([Gate(0, GateType.RZ, (0,), (0.1,)), Gate(1, GateType.RZ, (0,), (0.2,))], 1)


def test_validate_accepts_a_trace_that_runs_the_circuit():
    _gate_trace((0.0, [0]), (10.0 - 1e-7, [1])).validate(TWO_GATES)


@pytest.mark.parametrize("runs, names", [
    ([(0.0, [0])], "never run: [1]"),
    ([(0.0, [0]), (10.0, [1]), (20.0, [1])], "run more than once: [1]"),
    ([(0.0, [0]), (10.0, [1, 7])], "not in the circuit: [7]"),
])
def test_validate_rejects_a_gate_not_run_exactly_once(runs, names):
    tr = _gate_trace(*runs)
    tr.validate()
    with pytest.raises(ValueError, match=r"rule 1 .* " + re.escape(names)):
        tr.validate(TWO_GATES)


def test_validate_rejects_a_gate_that_starts_before_its_predecessor_ends():
    tr = _gate_trace((10.0, [0]), (0.0, [1]))
    tr.validate()
    with pytest.raises(ValueError, match=r"rule 2 .* gate 1 starts at 0.0 us, before its "
                                         r"predecessor gate 0 ends at 20.0 us"):
        tr.validate(TWO_GATES)


def test_validate_sizes_no_list_by_a_huge_width():
    # rule 2's per-qubit list is sized by the qubits the gates use
    c = build_dag(TWO_GATES.gates, 10**30)
    _gate_trace((0.0, [0]), (10.0, [1])).validate(c)
    with pytest.raises(ValueError, match="rule 2 .* gate 1 starts at 0.0 us"):
        _gate_trace((10.0, [0]), (0.0, [1])).validate(c)


def test_validate_names_a_circuit_that_is_no_circuit():
    with pytest.raises(ValueError) as err:
        _gate_trace((0.0, [0])).validate(circuit="x")
    assert str(err.value) == "circuit must be a Circuit, got 'x'"


def test_fidelity_report_names_params_that_are_no_fidelity_params():
    with pytest.raises(ValueError) as err:
        fidelity_report(_gate_trace((0.0, [0])), f="x")
    assert str(err.value) == "f must be a FidelityParams, got 'x'"


class TestTraceEvent:
    """A named tuple of six fields, compared as a tuple, payload included."""

    def test_events_that_differ_only_in_payload_are_unequal(self):
        a = TraceEvent(1.0, 2.0, EventKind.GATE_1Q, 1, (0,), {"gate_ids": [3]})
        b = TraceEvent(1.0, 2.0, EventKind.GATE_1Q, 1, (0,), {"gate_ids": [4]})
        assert a != b and not a == b
        assert a == TraceEvent(1.0, 2.0, EventKind.GATE_1Q, 1, (0,), {"gate_ids": [3]})

    @pytest.mark.parametrize("field", ["t_start", "duration", "kind", "zones_busy", "qubits", "payload",
                                       "t_end", "lane", "other"])
    def test_assignment_raises_attribute_error(self, field):
        with pytest.raises(AttributeError):
            setattr(TraceEvent(0.0, 1.0, EventKind.INIT, 0, (0,), {}), field, 2.0)

    def test_pickle_copy_and_deepcopy_keep_it(self):
        e = TraceEvent(1.0, 2.0, EventKind.GATE_2Q, 2, (0, 1), {"gate_ids": [5, 6]})
        twins = [pickle.loads(pickle.dumps(e, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins + [copy.copy(e), copy.deepcopy(e)]:
            assert type(twin) is TraceEvent and twin == e
            assert tuple(twin) == tuple(e) and twin.payload == {"gate_ids": [5, 6]}
        assert copy.deepcopy(e).payload is not e.payload

    def test_keyword_construction_and_fields(self):
        e = TraceEvent(t_start=1.5, duration=2.0, kind=EventKind.REORDER, zones_busy=0, qubits=(2, 3),
                       payload={"ops": {"split": 1}})
        assert (e.t_start, e.duration, e.kind, e.zones_busy, e.qubits, e.payload) == (
            1.5, 2.0, EventKind.REORDER, 0, (2, 3), {"ops": {"split": 1}})
        assert (e.t_end, e.lane) == (3.5, "transport")
        assert repr(e) == ("TraceEvent(t_start=1.5, duration=2.0, kind=<EventKind.REORDER: 'Reorder'>, "
                           "zones_busy=0, qubits=(2, 3), payload={'ops': {'split': 1}})")

    @pytest.mark.parametrize("policy", ["rolodex", "plutarch"])
    def test_scheduled_events_are_those_the_constructor_builds(self, policy):
        tr = schedule(translate_to_native(gen_vqe(VqeAnsatz.CIRCULAR_SU2, 6, 2)), make_machine(4), policy)
        assert tr.events and all(type(e) is TraceEvent for e in tr.events)
        assert [tuple(TraceEvent(*e)) for e in tr.events] == [tuple(e) for e in tr.events]
