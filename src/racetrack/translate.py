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
from collections.abc import Sequence
from heapq import heapify, heappop, heappush

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
    """List-schedule `gates`, a sequence in program order, into layers.

    A gate is ready once every earlier gate of the list on its qubits is in
    an earlier layer.  Each layer takes the key of the earliest ready gate
    in list order, collects the ready gates with that key lowest qubit
    first, and keeps at most `cap` of them, one per `slot_of[q]` of their
    lowest qubit q when slots are given; the rest stay ready.  Ready gates
    share no qubit, so neither does a layer.  A cap is None or an integer
    >= 1: a float would never equal a layer's size, and True would cap at 1.

    When no two gates share a key, every layer is one gate, in list order:
    each layer takes the key of the earliest unplaced gate, which is always
    ready; no other gate has that key, so the layer is that gate alone; and
    a one-gate layer keeps any cap >= 1 and the one-per-slot rule.  So such
    a call (an empty or one-gate list among them) returns at once.

    Otherwise each gate links to the next gate on its first qubit and the
    next on its second, two lists of positions, and each key keeps a heap
    of its ready gates as (lowest qubit, position).  A gate joins its key's
    heap when its last predecessor is placed; the gates ready from the
    start are collected and each heap is built with `heapify`.  No two
    entries are equal, so a heap pops in one order however it was built.

    A `gates` that is not a sequence (an iterator or a set, say: one with
    no order or no index), or a `slot_of` without the lowest qubit of a
    gate it is asked for, is named in a `ValueError`.  A list or a tuple
    is told by its type first, so the common call skips the `Sequence`
    check.
    """
    if cap is not None:
        _check_count("cap", cap)
    if type(gates) not in (list, tuple) and not isinstance(gates, Sequence):
        raise ValueError(f"gates must be a sequence, got {gates!r}")
    n = len(gates)
    keys = list(map(key, gates))
    if len(set(keys)) == n:
        return [[g] for g in gates]
    waiting = [0] * n            # unplaced predecessors; -1 once placed
    succ1 = [-1] * n             # the next gate on each gate's first qubit, or -1
    succ2 = [-1] * n             # the next gate on its second qubit, or -1
    low = [0] * n                # each gate's lowest qubit
    # qubit -> the latest gate on it: i when it is gate i's first qubit, ~i
    # when it is its second.  Each link below is written out per qubit, as
    # a loop over the two costs a tuple per gate.
    last_on: dict[int, int] = {}
    ready: dict = {}             # key -> heap of (lowest qubit, position)
    get = last_on.get
    for i, g in enumerate(gates):
        qs = g.qubits
        q = qs[0]
        j = get(q)
        last_on[q] = i
        w = 0
        if j is not None:
            if j >= 0:
                succ1[j] = i
            else:
                succ2[~j] = i
            w = 1
        if len(qs) == 2:
            r = qs[1]
            j = get(r)
            last_on[r] = ~i
            if j is not None:
                if j >= 0:
                    succ1[j] = i
                else:
                    succ2[~j] = i
                w += 1
            if r < q:
                q = r
        low[i] = q
        if w:
            waiting[i] = w
        else:
            ready.setdefault(keys[i], []).append((q, i))
    for heap in ready.values():
        heapify(heap)
    first = 0
    layers: list[list[Gate]] = []
    while first < n:
        heap = ready[keys[first]]
        q, i = heappop(heap)
        taken = [i]
        if heap and cap != 1:
            skipped = []
            try:
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
            except KeyError as missing:
                raise ValueError(f"slot_of has no slot for qubit {missing.args[0]!r}") from None
            for entry in skipped:
                heappush(heap, entry)
        for i in taken:
            waiting[i] = -1
            j = succ1[i]
            if j >= 0:
                waiting[j] -= 1
                if not waiting[j]:
                    heappush(ready.setdefault(keys[j], []), (low[j], j))
            j = succ2[i]
            if j >= 0:
                waiting[j] -= 1
                if not waiting[j]:
                    heappush(ready.setdefault(keys[j], []), (low[j], j))
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
    2Q successor on their qubit trail in phase[len(layers)].  Layers are
    matched to `c` by gate id.  A `layers` that is not a sequence of gate
    lists, or that leaves a 2Q gate of `c` in no layer (the first such
    gate is named), raises `ValueError`.
    """
    _check_type("c", c, Circuit)
    try:
        layer_of = {g.id: j for j, layer in enumerate(layers) for g in layer}
        phases: list[list[Gate]] = [[] for _ in range(len(layers) + 1)]
    except (TypeError, AttributeError):
        raise ValueError(f"layers must be a sequence of gate lists, got {layers!r}") from None
    missing = next((g for g in c.gates if g.is_2q and g.id not in layer_of), None)
    if missing is not None:
        raise ValueError(f"2Q gate {missing!r} of the circuit is in no layer")
    # next 2Q layer per qubit, scanning program order backwards
    next_2q_layer: dict[int, int] = {}
    for g in reversed(c.gates):
        if g.is_2q:
            for q in g.qubits:
                next_2q_layer[q] = layer_of[g.id]
        else:
            phases[next_2q_layer.get(g.qubits[0], len(layers))].append(g)
    return [phase[::-1] for phase in phases]
