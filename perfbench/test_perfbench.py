"""Tests of the benchmark itself: one small case end to end, the validity
oracle on hand-built traces, the traced run and the digest comparison."""
from __future__ import annotations

import json
from pathlib import Path

from compare import changed_cases
from pipeline import Case, build_cases, describe, import_racetrack, run_case
from run import (END_TO_END, PER_LAYER, Calibration, closed_loop, end_to_end, pass_seconds,
                 per_layer)
from spans import Tracer, patch_points
from validity import check_schedule, trace_digest

rt = import_racetrack()


def _small_cases() -> list[Case]:
    circuit = rt.workloads.gen_qaoa(rt.workloads.GraphSpec(rt.workloads.GraphKind.PATH, 6))
    machine = rt.machine.make_machine(4)
    return [
        Case("path6/k4/rolodex", "path6", circuit, machine, "rolodex", None),
        Case("path6/k4/plutarch", "path6", circuit, machine, "plutarch",
             rt.schedulers.PolicyFlags()),
    ]


def test_smoke_one_case_end_to_end():
    case = _small_cases()[0]
    out = run_case(rt, case)
    record = describe(case, out)
    assert out.seconds > 0
    assert record["gates"] == out.native.n_gates > 0
    assert record["span_us"] > 0 and 0 < record["f_total"] < 1
    assert len(record["digest"]) == 64
    assert record["ledger_consistent"]
    assert describe(case, run_case(rt, case))["digest"] == record["digest"]


def _two_gate_trace(first_id: int):
    """Rz then U1q on qubit 0 (a DAG edge 0 -> 1), run with `first_id` first."""
    Gate, GateType = rt.gates.Gate, rt.gates.GateType
    circuit = rt.circuit.build_dag(
        [Gate(0, GateType.RZ, (0,), (0.1,)), Gate(1, GateType.U1Q, (0,), (0.2, 0.3))], 1)
    trace = rt.trace.Trace(width=1, gate_zones=1)
    for start, gid in ((0.0, first_id), (2060.0, 1 - first_id)):
        trace.add(rt.trace.TraceEvent(start, 5.0, rt.trace.EventKind.GATE_1Q, 1, (0,),
                                      {"gate_ids": [gid]}))
    return circuit, trace


def test_oracle_rejects_dependent_gates_in_wrong_order():
    verdict = check_schedule(*_two_gate_trace(first_id=1))
    assert not verdict.ok
    assert verdict.violated_edges == 1
    assert verdict.first_example.startswith("edge 0->1")


def test_oracle_accepts_dependent_gates_in_right_order():
    verdict = check_schedule(*_two_gate_trace(first_id=0))
    assert verdict.ok and verdict.first_example == ""


def test_oracle_counts_missing_and_overlapping_gates():
    circuit, trace = _two_gate_trace(first_id=0)
    moved = trace.events[1]
    trace.events[1] = rt.trace.TraceEvent(2.0, 5.0, moved.kind, 1, (0,), {"gate_ids": [1, 1]})
    verdict = check_schedule(circuit, trace)
    assert (verdict.repeated, verdict.violated_edges) == (1, 1)
    assert (verdict.zone_overlaps, verdict.qubit_overlaps) == (1, 1)


def test_digest_ignores_emission_order():
    circuit, trace = _two_gate_trace(first_id=0)
    before = trace_digest(trace)
    trace.events.reverse()
    assert trace_digest(trace) == before


def test_untraced_and_traced_loops_report_every_metric():
    cases = _small_cases()
    calibration = Calibration()
    stats, passes = closed_loop(rt, cases, 0.0, calibration)
    assert passes == 1 and all(len(st.samples) == 1 for st in stats.values())
    assert calibration.samples and calibration.scale > 0
    metrics = end_to_end(stats, 0.1, calibration.scale)
    assert list(metrics) == list(END_TO_END) and metrics["gates_per_s"] > 0

    originals = [owner.__dict__[attr] for owner, attr, _, _ in patch_points(rt)]
    tracer = Tracer()
    with tracer.installed(rt):
        traced, passes = closed_loop(rt, cases, 0.0, calibration, tracer=tracer)
    assert [owner.__dict__[attr] for owner, attr, _, _ in patch_points(rt)] == originals
    layers = per_layer(cases, traced, passes, tracer.counts, 1.0, pass_seconds(stats))
    assert list(layers) == list(PER_LAYER)
    assert layers["planner.calls"] > 0 and layers["schedulers.self_s"] > 0
    native = run_case(rt, cases[0]).native
    assert layers["circuit.edges"] == len(cases) * len(native.edges)


def test_seed_changes_only_the_seeded_inputs():
    a, b = build_cases(rt, "grid", 1), build_cases(rt, "grid", 2)
    assert len(a) == len(b) == 150
    gates = lambda cases, name: [c.circuit for c in cases if c.name == name][0].n_gates
    assert gates(a, "msd7to1/k4/tilt") == gates(b, "msd7to1/k4/tilt")
    assert [c.name for c in build_cases(rt, "grid", 1)] == [c.name for c in a]


def test_compare_lists_changed_digests():
    old = {"case_records": [{"case": "x", "digest": "a" * 64}, {"case": "y", "digest": "b" * 64}]}
    new = {"case_records": [{"case": "x", "digest": "a" * 64}, {"case": "y", "digest": "c" * 64}]}
    lines = changed_cases(old, new)
    assert len(lines) == 1 and lines[0].startswith("y: digest")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
