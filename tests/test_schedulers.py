"""Closed-form spans of the five policy configs on one ZZ at one gate zone.

Each expected span is the sum of the TimingParams fields the scheduler
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
import pytest

from racetrack.circuit import build_dag
from racetrack.gates import Gate, GateType
from racetrack.machine import make_machine
from racetrack.schedulers import INPLACE_GATHER_FACTOR, PolicyFlags, schedule
from racetrack.trace import EventKind

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
