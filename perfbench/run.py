"""Host-time benchmark of the racetrack pipeline.

    python3 perfbench/run.py --workload grid|deep|ring --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One process and one thread issue the cases of a workload in a closed loop,
each case after the previous one finishes, in whole passes over the case
list until the pass end nearest `--seconds`; every case runs at least once.  It measures
how long the emulator takes on the host, not simulated hardware time, and
scales host times to a reference host speed (see REFERENCE_LOOP_S).

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` the run measures untraced for half the time and
traced for the other half, and the JSON holds the per-layer metrics.
`--out` writes every case's simulated behaviour and trace digest (compare
two such files with compare.py).  `--workload all` runs every workload,
untraced and traced, each in its own process, and prints all metrics.
README.md explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from pipeline import WORKLOADS, build_cases, describe, import_racetrack, run_case
from spans import Tracer

SETUP_REPEATS = 9

# A shared host's speed drifts by up to 2x over minutes as other tenants come
# and go.  A fixed reference loop, timed between cases, tracks that drift:
# every reported time is the host time scaled to a host on which the
# reference loop takes REFERENCE_LOOP_S.
REFERENCE_LOOP_S = 0.005
CALIBRATE_EVERY_S = 0.25

END_TO_END = {
    "gates_per_s": "gates/s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "valid_frac": "ratio",
}

PER_LAYER = {
    "translate.translate_s": "s",
    "circuit.build_dag_s": "s",
    "circuit.edges": "count",
    "translate.layering_s": "s",
    "translate.layers_2q": "count",
    "planner.plan_s": "s",
    "planner.calls": "count",
    "planner.ops": "count",
    "planner.circulation_share": "ratio",
    "ions.apply_reorder_calls": "count",
    "blocks.extract_s": "s",
    "blocks.layers": "count",
    "blocks.residual_gates": "count",
    "schedulers.self_s": "s",
    "schedulers.precedence_violations": "count",
    "trace.validate_s": "s",
    "trace.events": "count",
    "trace.events_per_gate": "events/gate",
    "metrics.breakdown_s": "s",
    "metrics.zone_util_s": "s",
    "metrics.fidelity_s": "s",
    "metrics.breakdown_residual_us": "us",
    "blocks.per_gate_growth": "ratio",
    "planner.per_gate_growth": "ratio",
    "schedulers.per_gate_growth": "ratio",
    "metrics.per_gate_growth": "ratio",
    "trace_overhead_frac": "ratio",
}

# per-layer time metric -> the spans whose self time it sums
LAYER_SPANS = {
    "translate.translate_s": ("translate.translate",),
    "circuit.build_dag_s": ("circuit.build_dag",),
    "translate.layering_s": ("translate.layering",),
    "planner.plan_s": ("planner.plan",),
    "blocks.extract_s": ("blocks.extract",),
    "schedulers.self_s": ("schedulers.schedule",),
    "trace.validate_s": ("trace.validate",),
    "metrics.breakdown_s": ("metrics.breakdown",),
    "metrics.zone_util_s": ("metrics.zone_util",),
    "metrics.fidelity_s": ("metrics.fidelity",),
}
GROWTH_SPANS = {
    "blocks": ("blocks.extract",),
    "planner": ("planner.plan",),
    "schedulers": ("schedulers.schedule",),
    "metrics": ("metrics.breakdown", "metrics.zone_util", "metrics.fidelity"),
}


@dataclass
class CaseStats:
    attempts: int = 0
    failed: int = 0                       # attempts that raised or broke the oracle
    samples: list = field(default_factory=list)   # host seconds per completed attempt
    record: dict | None = None            # simulated behaviour of the first completed attempt
    error: str = ""                       # last exception, if an attempt raised
    outcomes: set = field(default_factory=set)    # trace digest or exception of each attempt
    self_s: Counter = field(default_factory=Counter)  # traced: self seconds summed over attempts


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def reference_loop_s() -> float:
    """Host seconds of a fixed pure-Python loop that, like the emulator,
    allocates small objects, sorts them and groups them in dicts and sets.
    The garbage collector is off while it runs: a collection would scan the
    heap the last case left behind, and the loop is to time the host alone."""
    gc.disable()
    t0 = time.perf_counter()
    items = [_Item(i % 97, (i * 7919) % 1000) for i in range(4000)]
    items.sort(key=lambda it: (it.value, it.key))
    groups: dict[int, list] = {}
    for it in items:
        groups.setdefault(it.key, []).append(it)
    pairs = [frozenset((it.key, it.value)) for it in items[:2000]]
    seconds = time.perf_counter() - t0
    del items, groups, pairs
    gc.enable()
    return seconds


class Calibration:
    """Reference-loop samples, taken at most every CALIBRATE_EVERY_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.samples.append(reference_loop_s())
            self._last = time.perf_counter()

    @property
    def scale(self) -> float:
        """Factor from host seconds to seconds at the reference speed."""
        return REFERENCE_LOOP_S / statistics.median(self.samples)


def set_up(workload: str, seed: int):
    """Import, input generation and make_machine, repeated; returns the
    median seconds at the reference speed and the last set-up's modules
    and cases."""
    times = []
    calibration = Calibration()
    for _ in range(SETUP_REPEATS):
        calibration.samples.append(reference_loop_s())
        t0 = time.perf_counter()
        rt = import_racetrack(fresh=True)
        cases = build_cases(rt, workload, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * calibration.scale, rt, cases


def _attempt(rt, case, st: CaseStats, tracer: Tracer | None) -> None:
    st.attempts += 1
    try:
        out = run_case(rt, case)
    except Exception as exc:  # a case that raises is a failed operation; the loop goes on
        st.failed += 1
        st.error = f"{type(exc).__name__}: {exc}"
        st.outcomes.add(st.error)
        return
    finally:
        if tracer is not None:
            st.self_s.update(tracer.take_self_times())
    st.samples.append(out.seconds)
    record = describe(case, out)
    st.outcomes.add(record["digest"])
    st.record = st.record or record
    st.failed += not record["valid"]


def closed_loop(rt, cases, seconds: float, calibration: Calibration, *,
                tracer: Tracer | None = None):
    """Issue the cases in whole passes, sampling the reference loop between
    cases, and stop after the pass that ends nearest `seconds`; at least
    one pass.  Whole passes keep the failed share of a run that of one
    pass, however fast the host is.  Returns per-case stats and the passes."""
    stats = {case.name: CaseStats() for case in cases}
    gc.collect()
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        started = time.perf_counter()
        for case in cases:
            calibration.sample()
            _attempt(rt, case, stats[case.name], tracer)
        passes += 1
        ended = time.perf_counter()
        if deadline - ended < (ended - started) / 2:
            return stats, passes


def _completed(stats):
    return [st for st in stats.values() if st.samples]


def pass_seconds(stats) -> float:
    """Host seconds of one pass, from each case's median."""
    return sum(statistics.median(st.samples) for st in _completed(stats))


def end_to_end(stats, setup_s: float, scale: float) -> dict[str, float]:
    done = _completed(stats)
    medians = sorted(scale * statistics.median(st.samples) for st in done)
    valid = [st for st in done if st.record["valid"] and not st.error]
    return {
        "gates_per_s": sum(st.record["gates"] for st in done) / sum(medians),
        "case_ms_p50": 1e3 * statistics.median(medians),
        "case_ms_p90": 1e3 * statistics.quantiles(medians, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "valid_frac": len(valid) / len(stats),
    }


def _growth(cases, stats, spans) -> float:
    """Per-gate self time of the workload's largest circuit over that of its
    smallest (on `deep`: SK-QAOA p=4 over p=1; 1.0 means linear)."""
    per_circuit: dict[str, list[float]] = {}
    for case in cases:
        st = stats[case.name]
        if not st.samples:
            continue
        seconds = sum(st.self_s[s] for s in spans) / len(st.samples)
        acc = per_circuit.setdefault(case.circuit_name, [0.0, 0.0])
        acc[0] += seconds
        acc[1] += st.record["gates"]
    by_size = sorted(per_circuit.values(), key=lambda acc: acc[1])
    small, large = by_size[0], by_size[-1]
    return (large[0] / large[1]) / (small[0] / small[1])


def per_layer(cases, stats, passes: int, counts: Counter, scale: float,
              untraced_pass_s: float) -> dict[str, float]:
    self_s: Counter = Counter()
    for st in stats.values():
        self_s.update(st.self_s)
    done = _completed(stats)
    gates = sum(st.record["gates"] for st in done)
    events = sum(sum(st.record["events"].values()) for st in done)
    m = {name: scale * sum(self_s[s] for s in spans) / passes
         for name, spans in LAYER_SPANS.items()}
    for name in ("circuit.edges", "translate.layers_2q", "planner.calls", "planner.ops",
                 "ions.apply_reorder_calls", "blocks.layers", "blocks.residual_gates"):
        m[name] = counts[name] / passes
    m["planner.circulation_share"] = counts["planner.circulating"] / counts["planner.calls"]
    m["schedulers.precedence_violations"] = sum(st.record["violated_edges"] for st in done)
    m["trace.events"] = events
    m["trace.events_per_gate"] = events / gates
    m["metrics.breakdown_residual_us"] = sum(abs(st.record["breakdown_residual_us"]) for st in done)
    for layer, spans in GROWTH_SPANS.items():
        m[f"{layer}.per_gate_growth"] = _growth(cases, stats, spans)
    m["trace_overhead_frac"] = scale * pass_seconds(stats) / untraced_pass_s - 1.0
    return {name: m[name] for name in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, rt, cases = set_up(workload, seed)
    phases = []
    calibration = Calibration()
    if not trace:
        stats, passes = closed_loop(rt, cases, seconds, calibration)
        metrics, units = end_to_end(stats, setup_s, calibration.scale), END_TO_END
    else:
        base_calibration = Calibration()
        base, _ = closed_loop(rt, cases, seconds / 2, base_calibration)
        tracer = Tracer()
        with tracer.installed(rt):
            stats, passes = closed_loop(rt, cases, seconds / 2, calibration,
                                        tracer=tracer)
        metrics = per_layer(cases, stats, passes, tracer.counts, calibration.scale,
                            base_calibration.scale * pass_seconds(base))
        units = PER_LAYER
        phases.append(base)
    phases.append(stats)
    everything = [st for phase in phases for st in phase.values()]
    # every case gives one trace (or one exception) on every attempt, traced
    # or not, and the fidelity ledger of each valid case counts its gates
    correct = all(
        len(set().union(*(phase[c.name].outcomes for phase in phases))) == 1 for c in cases
    ) and all(st.record["ledger_consistent"] for st in everything if st.record and st.record["valid"])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": passes,
        "cases": len(cases),
        "latency_samples": sum(len(st.samples) for st in stats.values()),
        "reference_loop_ms": 1e3 * statistics.median(calibration.samples),
        "correct": correct,
        "attempted": sum(st.attempts for st in everything),
        "failed": sum(st.failed for st in everything),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "case_records": [
            dict(stats[c.name].record or {"case": c.name}, attempts=stats[c.name].attempts,
                 failed=stats[c.name].failed, error=stats[c.name].error,
                 host_ms_median=1e3 * statistics.median(stats[c.name].samples)
                 if stats[c.name].samples else None)
            for c in sorted(cases, key=lambda c: c.name)
        ],
    }


def report(result: dict) -> None:
    recs = result["case_records"]
    broken = [r for r in recs if r["failed"]]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"{result['cases']} cases  {result['passes']} passes  "
          f"{result['attempted']} attempts  {result['failed']} failed")
    print(f"  latencies: median per case over {result['latency_samples']} samples, "
          f"percentiles over the {result['cases']} case medians")
    print(f"  reference loop: {result['reference_loop_ms']:.3f} ms on this host; times are "
          f"scaled to a host where it takes {1e3 * REFERENCE_LOOP_S:g} ms")
    print(f"  {len(broken)}/{len(recs)} cases failed (raised or broke the validity oracle)")
    for r in broken[:3]:
        print(f"    {r['case']}: {r['error'] or r['first_violation']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:16.6f} {m['unit']}")


def run_all(seed: int, seconds: float) -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write per-case results as JSON to this file")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ModuleNotFoundError as exc:
        print(f"perfbench: racetrack sources not found: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
