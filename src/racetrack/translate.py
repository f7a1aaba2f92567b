"""Translation of abstract gates to the machine's native set, and
`list_layers`, the one list scheduler behind every 2Q layer and zone batch.

Wall-clock decompositions (verified against a dense statevector oracle;
the gate order below is the one that reproduces the target unitaries):
    H           -> U1q(pi/2, -pi/2); Rz(pi)
    X           -> U1q(pi, 0)
    RX(theta)   -> U1q(theta, 0)
    CX(c, t)    -> U1q(-pi/2, pi/2) t; ZZ(); Rz(-pi/2) c; U1q(pi/2, pi) t; Rz(-pi/2) t
    RZZ(theta)  -> passthrough, or CX(a,b); Rz(theta) b; CX(a,b) in `expand_rzz`
                   mode, which emulates a conventional compiler that lowers
                   ZZ-interactions through CX (11 native ops instead of 1).
Every other kind passes through.  `_NATIVE` writes this list as a table:
each kind's value maps to rows (native kind, which qubits, whether the
params start with the input's params, constant params).
"""
from __future__ import annotations

import math
from heapq import heappop, heappush

from .circuit import Circuit, build_dag
from .gates import Gate, GateType
from .machine import _check_count, _check_type

PI = math.pi

# which qubits a row acts on: the input's first, its last, or all of them
_FIRST, _LAST, _ALL = 0, -1, None
_CX = ((GateType.U1Q, _LAST, False, (-PI / 2, PI / 2)),
       (GateType.ZZ, _ALL, False, ()),
       (GateType.RZ, _FIRST, False, (-PI / 2,)),
       (GateType.U1Q, _LAST, False, (PI / 2, PI)),
       (GateType.RZ, _LAST, False, (-PI / 2,)))
_NATIVE = {
    **{kind.value: ((kind, _ALL, True, ()),) for kind in GateType if not kind.is_abstract},
    "H": ((GateType.U1Q, _ALL, False, (PI / 2, -PI / 2)), (GateType.RZ, _ALL, False, (PI,))),
    "X": ((GateType.U1Q, _ALL, False, (PI, 0.0)),),
    "RX": ((GateType.U1Q, _ALL, True, (0.0,)),),
    "CX": _CX}
_NATIVE_EXPANDED = {**_NATIVE, "RZZ": _CX + ((GateType.RZ, _LAST, True, ()),) + _CX}


def translate_to_native(c: Circuit, expand_rzz: bool = False) -> Circuit:
    """Rewrite every abstract gate into native operations.

    With expand_rzz=True, RZZ is additionally lowered through 2 CX + Rz,
    reproducing the gate stream a topology-oriented compiler would emit.
    Native gates inherit the ASAP depth layer of their source gate, so
    batching never merges ops coming from different pre-translation layers.
    The walk that emits them computes it: `depth[q]` is one past the layer
    of the last gate on q, and a gate's layer is the max over its qubits.
    That is the longest-path layering of `Circuit.edges`, since the edges a
    transitive reduction drops never lengthen a path.  The same walk reads
    each gate's rows from the table and builds one gate per row.
    """
    if not isinstance(c, Circuit):
        raise ValueError(f"translate_to_native needs a Circuit, got {c!r}")
    _check_type("expand_rzz", expand_rzz, bool)
    table = _NATIVE_EXPANDED if expand_rzz else _NATIVE
    depth = [0] * c.used_width
    out: list[Gate] = []
    for g in c.gates:
        qubits, params = g.qubits, g.params
        a, b = qubits[0], qubits[-1]
        src = depth[a] if depth[a] > depth[b] else depth[b]
        depth[a] = depth[b] = src + 1
        for kind, which, takes_params, consts in table[g.kind._value_]:
            out.append(Gate(len(out), kind, qubits if which is None else (qubits[which],),
                            params + consts if takes_params else consts, src))
    return build_dag(out, c.width)


def list_layers(gates, key, cap: int | None = None, slot_of=None) -> list[list[Gate]]:
    """List-schedule `gates`, in program order, into layers.

    A gate is ready once every earlier gate of the list on its qubits is in
    an earlier layer.  Each layer takes the key of the earliest ready gate
    in list order, collects the ready gates with that key lowest qubit
    first, and keeps at most `cap` of them, one per `slot_of[q]` of their
    lowest qubit q when slots are given; the rest stay ready.  Ready gates
    share no qubit, so neither does a layer.  A cap is None or an integer
    >= 1: a float would never equal a layer's size, and True would cap at 1.

    The earliest unplaced gate is always ready, so it names the key.  Each
    key keeps a heap of its ready gates as (lowest qubit, position); a gate
    joins it when its last predecessor on the list is placed.
    """
    if cap is not None:
        _check_count("cap", cap)
    n = len(gates)
    if n < 2:
        return [list(gates)] if n else []
    keys = list(map(key, gates))
    waiting = [0] * n            # unplaced predecessors; -1 once placed
    succs = [()] * n
    last_on: dict[int, int] = {}
    ready: dict = {}             # key -> heap of (lowest qubit, position)
    for i, g in enumerate(gates):
        qs = g.qubits
        for q in qs:
            j = last_on.get(q)
            if j is not None:
                succs[j] += (i,)
                waiting[i] += 1
            last_on[q] = i
        if not waiting[i]:
            heappush(ready.setdefault(keys[i], []), (min(qs), i))
    first = 0
    layers: list[list[Gate]] = []
    while first < n:
        heap = ready[keys[first]]
        q, i = heappop(heap)
        taken = [i]
        if heap and cap != 1:
            skipped = []
            used = {slot_of[q]} if slot_of is not None else None
            while heap and len(taken) != cap:
                entry = heappop(heap)
                if used is not None:
                    slot = slot_of[entry[0]]
                    if slot in used:
                        skipped.append(entry)
                        continue
                    used.add(slot)
                taken.append(entry[1])
            for entry in skipped:
                heappush(heap, entry)
        for i in taken:
            waiting[i] = -1
            for j in succs[i]:
                waiting[j] -= 1
                if not waiting[j]:
                    heappush(ready.setdefault(keys[j], []), (min(gates[j].qubits), j))
        layers.append([gates[i] for i in taken])
        while first < n and waiting[first] < 0:
            first += 1
    return layers


def extract_2q_layers(c: Circuit, cap: int | None = None) -> list[list[Gate]]:
    """Same-kind qubit-disjoint layers of at most `cap` 2Q gates, 1Q gates
    transparent: `list_layers` keyed by the kind's value (the member's hash
    is Python-level)."""
    _check_type("c", c, Circuit)
    return list_layers([g for g in c.gates if g.is_2q], lambda g: g.kind._value_, cap)


def one_qubit_phases(c: Circuit, layers: list[list[Gate]]) -> list[list[Gate]]:
    """Group 1Q gates into phases between consecutive 2Q layers.

    Returns len(layers)+1 lists: phase[j] holds the 1Q gates executed just
    before 2Q layer j (as late as their next 2Q gate allows); gates with no
    2Q successor on their qubit trail in phase[len(layers)].
    """
    _check_type("c", c, Circuit)
    layer_of = {g.id: j for j, layer in enumerate(layers) for g in layer}
    # next 2Q layer per qubit, scanning program order backwards
    next_2q_layer: dict[int, int] = {}
    phases: list[list[Gate]] = [[] for _ in range(len(layers) + 1)]
    for g in reversed(c.gates):
        if g.is_2q:
            for q in g.qubits:
                next_2q_layer[q] = layer_of[g.id]
        else:
            phases[next_2q_layer.get(g.qubits[0], len(layers))].append(g)
    return [phase[::-1] for phase in phases]
