"""Runtime breakdown, zone utilization and the scalar helpers in metrics."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racetrack.metrics import (
    _Coverage,
    geometric_mean,
    project_training_time,
    runtime_breakdown,
    zone_utilization,
)
from racetrack.trace import EventKind, Trace, TraceEvent

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
    assert zone_utilization(tr, 1) == pytest.approx(100.0 * 230.0 / 230.0)
    assert zone_utilization(Trace(width=1, gate_zones=2)) == 0.0
    with pytest.raises(ValueError):
        zone_utilization(tr, 0)


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
