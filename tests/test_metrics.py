"""Runtime breakdown, zone utilization, the fidelity ledger, trace
validation and the scalar helpers in metrics.

The one-walk metrics and `Trace.validate` are held to the multi-walk
reference bodies in `reference_metrics.py` on drawn traces and on
scheduled ones.
"""
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_metrics as ref
from racetrack.machine import make_machine
from racetrack.metrics import (
    _Coverage,
    fidelity_report,
    geometric_mean,
    project_training_time,
    runtime_breakdown,
    zone_utilization,
)
from racetrack.schedulers import PolicyFlags, schedule
from racetrack.trace import EventKind, Trace, TraceEvent
from test_blocks import native_circuits

interval = st.tuples(st.integers(0, 20), st.integers(0, 8)).map(lambda p: (p[0], p[0] + p[1]))


def brute_overlap(intervals, a, b):
    """Unit cells of [a, b] that some interval covers (integer endpoints)."""
    return sum(
        1 for x in range(a, b) if any(s <= x and x + 1 <= e for s, e in intervals)
    )


@settings(max_examples=400, deadline=None)
@given(st.lists(interval, max_size=8), st.integers(-5, 30), st.integers(0, 30))
@example([(2, 10), (4, 6)], 0, 12)                   # nested
@example([(2, 5), (5, 9)], 3, 8)                     # touching
@example([(4, 4), (7, 7), (3, 6)], 4, 7)             # zero-length
@example([(1, 2), (5, 6), (9, 12)], 0, 15)           # disjoint
@example([(1, 2), (5, 6)], 20, 5)                    # query past every interval
@example([(5, 9)], 7, 0)                             # zero-length query
def test_overlap_matches_brute_force(intervals, a, length):
    floats = [(float(s), float(e)) for s, e in intervals]
    assert _Coverage(floats).overlap(float(a), float(a + length)) == brute_overlap(
        intervals, a, a + length
    )


def hand_trace():
    def ev(kind, start, end, zones=0, qubits=()):
        return TraceEvent(float(start), float(end - start), kind, zones, qubits)

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
    # the lap [150, 450) overlaps gate/cool [100, 225) for 75 us and the
    # reorder [400, 500) for 50 us; the measure [480, 600) overlaps the
    # zone-busy union (which includes the lap) for 20 us
    assert b.as_dict() == {
        "init_us": 100.0,
        "gate_cooling_us": 25.0 + 100.0 + 5.0 + 100.0,
        "shift_swap_split_us": 100.0,
        "circulation_us": 300.0 - 125.0,
        "measure_us": 120.0,
        "hidden_us": 125.0 + 20.0,
        "total_us": 705.0,
    }


def test_zone_utilization_by_hand():
    tr = hand_trace()
    # busy window: [100, 225) and [600, 705) = 230 us; zone-us: 2*125 + 1*105
    assert zone_utilization(tr) == pytest.approx(100.0 * 355.0 / (2 * 230.0))
    assert zone_utilization(replace(tr, gate_zones=1)) == pytest.approx(100.0 * 230.0 / 230.0)
    assert zone_utilization(Trace(width=1, gate_zones=2)) == 0.0
    with pytest.raises(ValueError):
        zone_utilization(replace(tr, gate_zones=0))


def test_project_training_time():
    assert project_training_time(1e6, 3600, 2) == 2.0
    assert project_training_time(1e6, 1800, 1, classical_overhead_us=1.8e9) == 1.0
    assert project_training_time(5.0, 0, 10) == 0.0
    for bad in ((-1.0, 1, 1), (1.0, -1, 1), (1.0, 1, -1), (1.0, 1, 1, -1.0)):
        with pytest.raises(ValueError):
            project_training_time(*bad)


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    assert geometric_mean([math.e]) == pytest.approx(math.e)
    for bad in ([], [1.0, 0.0], [2.0, -1.0]):
        with pytest.raises(ValueError):
            geometric_mean(bad)


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


@settings(max_examples=400, deadline=None)
@given(traces())
def test_metrics_match_the_multi_walk_reference(tr):
    assert runtime_breakdown(tr) == ref.runtime_breakdown(tr)
    assert zone_utilization(tr) == ref.zone_utilization(tr)
    assert fidelity_report(tr) == ref.fidelity_report(tr)


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
    tr = schedule(c, m, *config)
    assert runtime_breakdown(tr) == ref.runtime_breakdown(tr)
    assert zone_utilization(tr) == ref.zone_utilization(tr)
    assert fidelity_report(tr, m.fidelity) == ref.fidelity_report(tr, m.fidelity)


def _one_event_trace(start, duration):
    tr = Trace(width=1, gate_zones=1)
    tr.add(TraceEvent(start, duration, EventKind.GATE_1Q, 1, (0,)))
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
    tr.add(TraceEvent(0.0, 10.0, EventKind.GATE_1Q, 1, (0,)))
    tr.add(TraceEvent(5.0, 10.0, EventKind.COOL, 1))
    with pytest.raises(ValueError, match="zone events overlap"):
        tr.validate()


def test_validate_rejects_a_qubit_in_two_overlapping_events():
    tr = Trace(width=2, gate_zones=2)
    tr.add(TraceEvent(0.0, 10.0, EventKind.INIT, 0, (0, 1)))
    tr.add(TraceEvent(5.0, 10.0, EventKind.MEASURE, 0, (1,)))
    with pytest.raises(ValueError, match="qubit overlap"):
        tr.validate()
