"""Workloads and the per-case pipeline of the racetrack host-time benchmark.

One case is one circuit x one machine x one policy config, run through the
public pipeline: `translate.translate_to_native`, `schedulers.schedule`,
then `metrics.runtime_breakdown`, `zone_utilization` and `fidelity_report`.
Every call goes through the module attribute, so the traced run can rebind
it (see spans.py).
"""
from __future__ import annotations

import importlib
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from validity import check_schedule, trace_digest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("gates", "circuit", "translate", "ions", "planner", "blocks", "trace",
           "schedulers", "metrics", "machine", "workloads")

# (config name, policy, PolicyFlags keyword arguments or None for no flags)
CONFIGS = (
    ("rolodex", "rolodex", None),
    ("tilt", "tilt", None),
    ("plutarch", "plutarch", {}),
    ("plutarch-nopipe", "plutarch", {"pipelining": False}),
    ("plutarch-noblocks", "plutarch", {"inplace_blocks": False}),
)


def import_racetrack(fresh: bool = False) -> SimpleNamespace:
    """Import the racetrack modules from this checkout's `src`.

    `fresh` drops them from `sys.modules` first, so the import is timed in
    full; objects made by an earlier import then no longer match the new
    classes, so only a benchmark process, never a test, asks for it.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "racetrack" or n.startswith("racetrack.")]:
            del sys.modules[name]
    rt = SimpleNamespace(**{m: importlib.import_module(f"racetrack.{m}") for m in MODULES})
    where = Path(rt.circuit.__file__).resolve().parent
    if where != SRC / "racetrack":
        raise ImportError(f"racetrack imported from {where}, not from {SRC / 'racetrack'}")
    return rt


@dataclass(frozen=True)
class Case:
    name: str          # "<circuit>/<machine>/<config>"
    circuit_name: str
    circuit: object    # abstract racetrack Circuit, translated inside the timed pipeline
    machine: object
    policy: str
    flags: object


def _grid_circuits(w, seed: int) -> list[tuple[str, object]]:
    spec, kind = w.GraphSpec, w.GraphKind
    return [
        ("msd7to1", w.gen_msd_7to1()),
        ("ghz_logical8", w.gen_ghz_logical(8)),
        ("steane8", w.gen_steane_encode(8)),
        ("qaoa_path20", w.gen_qaoa(spec(kind.PATH, 20))),
        ("qaoa_reg2_24", w.gen_qaoa(spec(kind.REGULAR2, 24))),
        ("qaoa_powerlaw24", w.gen_qaoa(spec(kind.POWERLAW, 24, seed=seed))),
        ("qaoa_sk16", w.gen_qaoa(spec(kind.SK, 16))),
        ("vqe_hwea24", w.gen_vqe(w.VqeAnsatz.TWO_LOCAL_HWEA, 24, 4)),
        ("gadget32", w.gen_phase_gadget(32, 0.3, w.GadgetVariant.PARALLEL_RZZ)),
        ("qrm16x", w.gen_qrm_encode(16, w.QrmBasis.X)),
    ]


def _deep_circuits(w, seed: int) -> list[tuple[str, object]]:
    sk56 = w.GraphSpec(w.GraphKind.SK, 56)
    return [("qaoa_sk56_p1", w.gen_qaoa(sk56, 1)), ("qaoa_sk56_p4", w.gen_qaoa(sk56, 4))]


def _ring_circuits(w, seed: int) -> list[tuple[str, object]]:
    return [("vqe_su2_56", w.gen_vqe(w.VqeAnsatz.CIRCULAR_SU2, 56, 8))]


_MACHINES = {"k4": (4, ()), "k8": (8, ()), "k8sc": (8, (0.5,))}

# workload -> (circuit generator, machine names).  Why each exists is in README.md.
WORKLOADS = {
    "grid": (_grid_circuits, ("k4", "k8", "k8sc")),
    "deep": (_deep_circuits, ("k8sc",)),
    "ring": (_ring_circuits, ("k4", "k8sc")),
}


def build_cases(rt: SimpleNamespace, workload: str, seed: int) -> list[Case]:
    """All cases of `workload`, in the order the closed loop issues them.

    The seed feeds the seeded generators (the power-law graph in `grid`)
    and shuffles the issue order; the same seed gives the same cases.
    """
    gen, machine_names = WORKLOADS[workload]
    circuits = gen(rt.workloads, seed)
    cases = []
    for mname in machine_names:
        zones, shortcuts = _MACHINES[mname]
        machine = rt.machine.make_machine(zones, shortcuts=shortcuts)
        for cname, circuit in circuits:
            for config, policy, flags in CONFIGS:
                cases.append(Case(
                    name=f"{cname}/{mname}/{config}",
                    circuit_name=cname,
                    circuit=circuit,
                    machine=machine,
                    policy=policy,
                    flags=None if flags is None else rt.schedulers.PolicyFlags(**flags),
                ))
    random.Random(seed).shuffle(cases)
    return cases


@dataclass
class Outcome:
    seconds: float     # host time of the whole pipeline
    native: object
    trace: object
    breakdown: object
    zone_util: float
    ledger: object


def run_case(rt: SimpleNamespace, case: Case) -> Outcome:
    """Run one case through the pipeline; only this is timed."""
    t0 = time.perf_counter()
    native = rt.translate.translate_to_native(case.circuit)
    trace = rt.schedulers.schedule(native, case.machine, case.policy, case.flags)
    breakdown = rt.metrics.runtime_breakdown(trace)
    zone_util = rt.metrics.zone_utilization(trace)
    ledger = rt.metrics.fidelity_report(trace, case.machine.fidelity)
    return Outcome(time.perf_counter() - t0, native, trace, breakdown, zone_util, ledger)


def breakdown_residual_us(breakdown) -> float:
    """Categories minus `hidden` minus the span; 0 when the breakdown
    splits the span exactly."""
    b = breakdown
    categories = b.init + b.gate_cooling + b.shift_swap_split + b.circulation + b.measure
    return categories - b.hidden - b.total_span


def describe(case: Case, out: Outcome) -> dict:
    """Simulated behaviour of one case, with the oracle's verdict."""
    verdict = check_schedule(out.native, out.trace)
    ledger = out.ledger
    ran_1q_2q = sum(1 for g in out.native.gates if g.kind.value not in ("Init", "Measure"))
    return {
        "case": case.name,
        "gates": out.native.n_gates,
        "span_us": out.trace.span,
        "f_total": ledger.f_total,
        "zone_util_pct": out.zone_util,
        "events": dict(sorted(Counter(e.kind.value for e in out.trace.events).items())),
        "transports": out.trace.transport_events(),
        "breakdown_residual_us": breakdown_residual_us(out.breakdown),
        "digest": trace_digest(out.trace),
        "valid": verdict.ok,
        "violated_edges": verdict.violated_edges,
        "first_violation": verdict.first_example,
        # the fidelity ledger counts every 1Q and 2Q gate of the circuit once
        "ledger_consistent": ledger.n_1q + ledger.n_2q == ran_1q_2q,
    }
