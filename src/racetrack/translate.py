"""Translation of abstract gates to the machine's native set, and
extraction of same-kind parallel 2Q layers.

Wall-clock decompositions (verified against a dense statevector oracle;
the gate order below is the one that reproduces the target unitaries):
    H           -> U1q(pi/2, -pi/2); Rz(pi)
    X           -> U1q(pi, 0)
    RX(theta)   -> U1q(theta, 0)
    CX(c, t)    -> U1q(-pi/2, pi/2) t; ZZ(); Rz(-pi/2) c; U1q(pi/2, pi) t; Rz(-pi/2) t
    RZZ(theta)  -> passthrough, or CX(a,b); Rz(theta) b; CX(a,b) in `expand_rzz`
                   mode, which emulates a conventional compiler that lowers
                   ZZ-interactions through CX (11 native ops instead of 1).
"""
from __future__ import annotations

import math

from .circuit import Circuit, build_dag
from .gates import Gate, GateType

PI = math.pi


def _emit(out: list[Gate], kind: GateType, qubits: tuple[int, ...], params=(), source: int = -1):
    out.append(Gate(id=len(out), kind=kind, qubits=qubits, params=tuple(params), source=source))


def _emit_cx(out: list[Gate], c: int, t: int, source: int) -> None:
    _emit(out, GateType.U1Q, (t,), (-PI / 2, PI / 2), source)
    _emit(out, GateType.ZZ, (c, t), (), source)
    _emit(out, GateType.RZ, (c,), (-PI / 2,), source)
    _emit(out, GateType.U1Q, (t,), (PI / 2, PI), source)
    _emit(out, GateType.RZ, (t,), (-PI / 2,), source)


def translate_to_native(c: Circuit, expand_rzz: bool = False) -> Circuit:
    """Rewrite every abstract gate into native operations.

    With expand_rzz=True, RZZ is additionally lowered through 2 CX + Rz,
    reproducing the gate stream a topology-oriented compiler would emit.
    Native gates inherit the depth layer of their source gate so batching
    never merges ops coming from different pre-translation layers.
    """
    from .circuit import topological_layers

    source_layer: dict[int, int] = {}
    for j, layer in enumerate(topological_layers(c)):
        for g in layer:
            source_layer[g.id] = j
    out: list[Gate] = []
    for g in c.gates:
        src = source_layer[g.id]
        if g.kind is GateType.H:
            _emit(out, GateType.U1Q, g.qubits, (PI / 2, -PI / 2), src)
            _emit(out, GateType.RZ, g.qubits, (PI,), src)
        elif g.kind is GateType.X:
            _emit(out, GateType.U1Q, g.qubits, (PI, 0.0), src)
        elif g.kind is GateType.RX:
            _emit(out, GateType.U1Q, g.qubits, (g.params[0], 0.0), src)
        elif g.kind is GateType.CX:
            _emit_cx(out, g.qubits[0], g.qubits[1], src)
        elif g.kind is GateType.RZZ and expand_rzz:
            a, b = g.qubits
            _emit_cx(out, a, b, src)
            _emit(out, GateType.RZ, (b,), (g.params[0],), src)
            _emit_cx(out, a, b, src)
        elif g.kind.is_native or g.kind in (GateType.MEASURE, GateType.INIT):
            _emit(out, g.kind, g.qubits, g.params, src)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown gate kind {g.kind}")
    return build_dag(out, c.width)


def extract_2q_layers(c: Circuit, cap: int | None = None) -> list[list[Gate]]:
    """Partition the 2Q gates into same-kind qubit-disjoint layers.

    A gate enters a layer once all of its 2Q predecessors (via shared
    qubits, 1Q gates transparent) are in earlier layers.  Within the ready
    set, the layer takes the kind of the earliest ready gate in program
    order, sorts the ready gates of that kind by lowest qubit index and
    keeps the first `cap` of them (all without a cap); the rest stay ready.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1")
    two_q = [g for g in c.gates if g.is_2q]
    # Per-qubit sequences of 2Q gates give the 2Q-projected precedence.
    pred_count: dict[int, int] = {g.id: 0 for g in two_q}
    succs: dict[int, list[int]] = {g.id: [] for g in two_q}
    last_on: dict[int, int] = {}
    for g in two_q:
        for q in g.qubits:
            if q in last_on:
                succs[last_on[q]].append(g.id)
                pred_count[g.id] += 1
            last_on[q] = g.id
    by_id = {g.id: g for g in two_q}
    order = {g.id: i for i, g in enumerate(two_q)}
    ready = sorted((gid for gid, n in pred_count.items() if n == 0), key=order.get)
    layers: list[list[Gate]] = []
    while ready:
        kind = by_id[ready[0]].kind
        layer = sorted((by_id[gid] for gid in ready if by_id[gid].kind is kind),
                       key=lambda g: min(g.qubits))[:cap]
        taken = {g.id for g in layer}
        ready = [gid for gid in ready if gid not in taken]
        for g in layer:
            for s in succs[g.id]:
                pred_count[s] -= 1
                if pred_count[s] == 0:
                    ready.append(s)
        ready.sort(key=order.get)
        layers.append(layer)
    return layers


def one_qubit_phases(c: Circuit, layers: list[list[Gate]]) -> list[list[Gate]]:
    """Group 1Q gates into phases between consecutive 2Q layers.

    Returns len(layers)+1 lists: phase[j] holds the 1Q gates executed just
    before 2Q layer j (as late as their next 2Q gate allows); gates with no
    2Q successor on their qubit trail in phase[len(layers)].
    """
    layer_of: dict[int, int] = {}
    for j, layer in enumerate(layers):
        for g in layer:
            layer_of[g.id] = j
    # next 2Q gate per qubit, scanning program order backwards
    next_2q_layer: dict[int, int] = {}
    phase_of: dict[int, int] = {}
    for g in reversed(c.gates):
        if g.is_2q:
            for q in g.qubits:
                next_2q_layer[q] = layer_of[g.id]
        else:
            phase_of[g.id] = next_2q_layer.get(g.qubits[0], len(layers))
    phases: list[list[Gate]] = [[] for _ in range(len(layers) + 1)]
    for g in c.gates:
        if g.is_1q:
            phases[phase_of[g.id]].append(g)
    return phases
