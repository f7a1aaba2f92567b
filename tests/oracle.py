"""Oracles used only by the test suite.

An independent dense-matrix statevector oracle: gate matrices are written
out from their defining exponentials, not taken from the package (which
contains no unitaries at all), so equivalence checks are meaningful.

A reorder replay: `apply_plan` runs a plan's ops one at a time through the
immutable primitive `ions.apply_reorder`, and `reorder_time` totals op
counts through the package's one duration table.

Planner references: `bubble_left_in_place` is the bubble primitive the
planner used before it built each fallback plan in one walk, and
`plan_reorder_reference` the ops and final state it planned then: every
member looked up by a scan of the crystals, the bubble applied by that
primitive, and every target checked again after the bubbles.  Its first
try, `boundary_exchanges_reference`, applies each exchange through
`ions.apply_reorder` and keeps the general checks the planner proves
needless: no exchange breaks a wanted pair, and every target is combined
at the end.  Only the target check, `planner._checked_targets`, is shared.

Front-end references: `build_dag_reference` is the id-keyed DAG build that
`Circuit.edges` replaced (chain edges collected first, each redundant one
found by a window DFS afterwards); a `Circuit` holds no edge set, so it
returns its edges beside the circuit.  `topological_layers` is the
layering by predecessor edges, and `translate_reference` the translation
that took each gate's `source` from those layers.
`extract_2q_layers_reference` is the dict-keyed ready-set layering that
`translate.extract_2q_layers` replaced with a call to the one list
scheduler, `translate.list_layers`.  `list_layers_reference` is that
scheduler's rule rescanned for every layer, with no heap and no successor
lists.  `early_edges` is rule 2 of `Trace.validate` as it was checked over
every edge of the reduced DAG.

A start-time replay: `replay_starts` recomputes every event's start from
the schedulers' timing rule alone, keeping each ion's end per ion with no
shortcut for a step that holds the whole chain.
"""
from __future__ import annotations

import math

import numpy as np

from racetrack.circuit import Circuit
from racetrack.gates import Gate, GateType
from racetrack.ions import (
    COMBINE, PAIR_EXCHANGE, SPLIT, SWAP, Crystal, IonState, ReorderOp, apply_reorder, reorder_durations,
)
from racetrack.machine import TimingParams
from racetrack.planner import _checked_targets
from racetrack.trace import EventKind, Trace

_SQ2 = 1.0 / np.sqrt(2.0)


def u1q(theta: float, phi: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [[c, -1j * np.exp(-1j * phi) * s], [-1j * np.exp(1j * phi) * s, c]],
        dtype=complex,
    )


def rz(lam: float) -> np.ndarray:
    return np.array([[np.exp(-1j * lam / 2), 0], [0, np.exp(1j * lam / 2)]], dtype=complex)


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rzz(theta: float) -> np.ndarray:
    e_m, e_p = np.exp(-1j * theta / 2), np.exp(1j * theta / 2)
    return np.diag([e_m, e_p, e_p, e_m]).astype(complex)


def rxxyyzz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    H2 = alpha * np.kron(X, X) + beta * np.kron(Y, Y) + gamma * np.kron(Z, Z)
    vals, vecs = np.linalg.eigh(H2)
    return (vecs * np.exp(-0.5j * vals)) @ vecs.conj().T


H_MAT = _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
CX_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def gate_matrix(g: Gate) -> np.ndarray:
    k = g.kind
    if k is GateType.U1Q:
        return u1q(*g.params)
    if k is GateType.RZ:
        return rz(g.params[0])
    if k is GateType.ZZ:
        return rzz(np.pi / 2)
    if k is GateType.RZZ:
        return rzz(g.params[0])
    if k is GateType.RXXYYZZ:
        return rxxyyzz(*g.params)
    if k is GateType.H:
        return H_MAT
    if k is GateType.X:
        return X_MAT
    if k is GateType.RX:
        return rx(g.params[0])
    if k is GateType.CX:
        return CX_MAT
    raise ValueError(f"no unitary for {k}")


def _apply(state: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    state = state.reshape([2] * n)
    k = len(qubits)
    mat = mat.reshape([2] * (2 * k))
    state = np.tensordot(mat, state, axes=(list(range(k, 2 * k)), list(qubits)))
    rest = [q for q in range(n) if q not in qubits]
    perm = [0] * n
    for i, q in enumerate(qubits):
        perm[q] = i
    for i, q in enumerate(rest):
        perm[q] = k + i
    return np.transpose(state, perm).reshape(-1)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full unitary; skips Measure/Init (treated as identity for checks)."""
    n = c.width
    dim = 2**n
    U = np.eye(dim, dtype=complex)
    for g in c.gates:
        if g.kind in (GateType.MEASURE, GateType.INIT):
            continue
        mat = gate_matrix(g)
        for col in range(dim):
            U[:, col] = _apply(U[:, col].copy(), mat, g.qubits, n)
    return U


def statevector(c: Circuit) -> np.ndarray:
    n = c.width
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for g in c.gates:
        if g.kind in (GateType.MEASURE, GateType.INIT):
            continue
        state = _apply(state, gate_matrix(g), g.qubits, n)
    return state


def phase_aligned_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Max entrywise deviation after aligning global phase."""
    tr = np.trace(U.conj().T @ V)
    if abs(tr) < 1e-12:
        return float(np.abs(U - V).max())
    phase = tr / abs(tr)
    return float(np.abs(U - V / phase).max())


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    return abs(abs(np.vdot(a, b)) - 1.0) < tol


def pauli_expectation(state: np.ndarray, pauli: str) -> float:
    """<state| P |state> for a Pauli string over all qubits, e.g. 'XIXZ'."""
    n = int(np.log2(state.size))
    assert len(pauli) == n
    mats = {
        "I": np.eye(2, dtype=complex),
        "X": X_MAT,
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    psi = state.copy()
    for q, p in enumerate(pauli):
        if p != "I":
            psi = _apply(psi, mats[p], (q,), n)
    return float(np.real(np.vdot(state, psi)))


def apply_plan(s: IonState, plan: list[ReorderOp], t: TimingParams = TimingParams()) -> tuple[IonState, float]:
    """Replay `plan` from `s`; returns the final arrangement and the ops' summed cost."""
    total = 0.0
    for op in plan:
        s, dt = apply_reorder(s, op, t)
        total += dt
    return s, total


def reorder_time(counts: dict[str, int], t: TimingParams = TimingParams()) -> float:
    """Total reordering time for op counts keyed by ReorderTag values."""
    cost = reorder_durations(t)
    total = 0.0
    for name, n in counts.items():
        if name not in cost:
            raise ValueError(f"unknown reorder op {name!r}")
        if n < 0:
            raise ValueError("op counts must be non-negative")
        total += n * cost[name]
    return total


def bubble_left_in_place(cs: list[Crystal], left: int, mover: int) -> list[ReorderOp]:
    """Bubble the single at `mover` leftward until it sits at `left + 1`,
    in place; returns the ops that does, one SPLIT or PAIR_EXCHANGE each.

    A single in the way costs one exchange.  A pair (a, b) in the way is
    split and its ions are crossed one at a time, so it stays behind the
    mover as the singles ->a, <-b.  The crossed segment is rewritten with
    one slice.
    """
    if not 0 <= left < mover < len(cs):
        raise ValueError("bubble needs 0 <= left < mover < len(crystals)")
    moving = cs[mover]
    if moving.is_pair:
        raise ValueError("bubble needs a single to move")
    mq = moving.qubits
    ops: list[ReorderOp] = []
    crossed: list[Crystal] = []  # right to left
    for j in range(mover - 1, left, -1):
        c = cs[j]
        qs = c.qubits
        if len(qs) == 2:
            a, b = qs
            ops.append(ReorderOp(SPLIT, qs, j))
            ops.append(ReorderOp(PAIR_EXCHANGE, (b,) + mq, j + 1))
            ops.append(ReorderOp(PAIR_EXCHANGE, (a,) + mq, j))
            crossed.append(Crystal((b,), False))
            crossed.append(Crystal((a,), True))
        else:
            ops.append(ReorderOp(PAIR_EXCHANGE, qs + mq, j))
            crossed.append(c)
    crossed.append(moving)
    crossed.reverse()
    cs[left + 1 : mover + 1] = crossed
    return ops


def _crystal_of(cs, q: int) -> int:
    """The index of the crystal holding `q`, found by a scan of `cs`."""
    return next(i for i, c in enumerate(cs) if q in c.qubits)


def _paired(cs, a: int, b: int) -> bool:
    c = cs[_crystal_of(cs, a)]
    return c.is_pair and set(c.qubits) == {a, b}


def boundary_exchanges_reference(
    s: IonState, targets: list[tuple[int, int]]
) -> tuple[list[ReorderOp], IonState] | None:
    """The planner's first try: at most one boundary exchange per target,
    in target order, or None if that cannot combine every target without
    breaking a pair another target wants."""
    wanted = {frozenset(p) for p in targets}

    def wanted_pairs(s: IonState) -> set[frozenset[int]]:
        return {frozenset(c.qubits) for c in s.crystals if c.is_pair} & wanted

    ops: list[ReorderOp] = []
    for a, b in targets:
        if _paired(s.crystals, a, b):
            continue
        ia, ib = _crystal_of(s.crystals, a), _crystal_of(s.crystals, b)
        if abs(ia - ib) != 1:
            return None
        left = min(ia, ib)
        op = ReorderOp(PAIR_EXCHANGE, s.crystals[left].qubits + s.crystals[left + 1].qubits, left)
        before = wanted_pairs(s)
        s, _ = apply_reorder(s, op)
        ops.append(op)
        if not _paired(s.crystals, a, b) or not before <= wanted_pairs(s):
            return None
    if not all(_paired(s.crystals, a, b) for a, b in targets):
        return None
    return ops, s


def plan_reorder_reference(s: IonState, target_pairs) -> tuple[list[ReorderOp], IonState]:
    """The ops and final state of `planner.plan_reorder` for `target_pairs`.

    `boundary_exchanges_reference` is tried first; the fallback splits the
    members out of their pairs, bubbles the right member leftward next to
    its partner, orients and combines, and then combines again every
    target a later bubble split.
    """
    targets = _checked_targets(s, target_pairs)
    exchanged = boundary_exchanges_reference(s, targets)
    if exchanged is not None:
        return exchanged
    ops: list[ReorderOp] = []
    cs = list(s.crystals)

    def split(i: int):
        qs = cs[i].qubits
        ops.append(ReorderOp(SPLIT, qs, i))
        cs[i : i + 1] = [Crystal((qs[0],), True), Crystal((qs[1],), False)]

    def combine(left: int):
        a, b = cs[left].qubits, cs[left + 1].qubits
        if not cs[left].facing_right:
            ops.append(ReorderOp(SWAP, a, left))
        if cs[left + 1].facing_right:
            ops.append(ReorderOp(SWAP, b, left + 1))
        ops.append(ReorderOp(COMBINE, a + b, left))
        cs[left : left + 2] = [Crystal(a + b)]

    for a, b in targets:
        ia, ib = _crystal_of(cs, a), _crystal_of(cs, b)
        if ia == ib:
            continue
        if cs[ia].is_pair:
            split(ia)
            if ib > ia:
                ib += 1
            if cs[ia].qubits[0] != a:
                ia += 1
        if cs[ib].is_pair:
            split(ib)
            if ia > ib:
                ia += 1
            if cs[ib].qubits[0] != b:
                ib += 1
        left = min(ia, ib)
        ops += bubble_left_in_place(cs, left, max(ia, ib))
        combine(left)
    for a, b in targets:
        if _paired(cs, a, b):
            continue
        ia, ib = _crystal_of(cs, a), _crystal_of(cs, b)
        assert abs(ia - ib) == 1, "split target pair drifted apart"
        combine(min(ia, ib))
    return ops, IonState(tuple(cs))


def build_dag_reference(gates: list[Gate], width: int) -> tuple[Circuit, frozenset[tuple[int, int]]]:
    """The circuit and the transitive reduction of its shared-qubit
    precedence order, built with id-keyed predecessor and successor sets."""
    seen_ids: set[int] = set()
    for g in gates:
        if g.id in seen_ids:
            raise ValueError(f"duplicate gate id {g.id}")
        seen_ids.add(g.id)
        for q in g.qubits:
            if q >= width:
                raise ValueError(
                    f"qubit index {q} out of range for width {width} (gate {g.id})"
                )

    order = {g.id: i for i, g in enumerate(gates)}
    # Chain consecutive gates per qubit; this overcounts only when a gate
    # pair shares two qubits with a 1Q gate in between on one of them.
    last_on: dict[int, int] = {}
    chain: set[tuple[int, int]] = set()
    preds: dict[int, set[int]] = {g.id: set() for g in gates}
    succs: dict[int, set[int]] = {g.id: set() for g in gates}
    for g in gates:
        for q in g.qubits:
            if q in last_on:
                u = last_on[q]
                if (u, g.id) not in chain:
                    chain.add((u, g.id))
                    preds[g.id].add(u)
                    succs[u].add(g.id)
            last_on[q] = g.id

    def reachable(src: int, dst: int) -> bool:
        # DFS bounded to the program-order window (src, dst].
        lo, hi = order[src], order[dst]
        stack = [src]
        seen = {src}
        while stack:
            u = stack.pop()
            for v in succs[u]:
                if v == dst:
                    return True
                if v not in seen and lo < order[v] < hi:
                    seen.add(v)
                    stack.append(v)
        return False

    # A chain edge (u, v) is redundant iff u reaches v's other predecessor.
    # Gates have at most two qubits, hence at most two chain predecessors.
    redundant: set[tuple[int, int]] = set()
    for g in gates:
        ps = sorted(preds[g.id], key=lambda x: order[x])
        if len(ps) == 2:
            early, late = ps
            if reachable(early, late):
                redundant.add((early, g.id))
    return Circuit(width=width, gates=tuple(gates)), frozenset(chain - redundant)


def early_edges(edges, trace, eps: float = 1e-6) -> list[tuple[int, int]]:
    """Rule 2 of `Trace.validate` over an edge set: the sorted edges (a, b)
    whose gate b starts, by the `gate_ids` payloads of `trace`, more than
    `eps` before gate a ends."""
    start: dict[int, float] = {}
    end: dict[int, float] = {}
    for e in trace.events:
        for gid in e.payload.get("gate_ids", ()):
            start[gid], end[gid] = e.t_start, e.t_start + e.duration
    return sorted((a, b) for a, b in edges if start[b] < end[a] - eps)


def topological_layers(c: Circuit) -> list[list[Gate]]:
    """ASAP layering over all gates (layer = 1 + max layer of predecessors)."""
    layer: dict[int, int] = {}
    preds: dict[int, list[int]] = {g.id: [] for g in c.gates}
    for a, b in c.edges:
        preds[b].append(a)
    out: list[list[Gate]] = []
    for g in c.gates:  # program order is a valid topological order
        l = 0
        for p in preds[g.id]:
            l = max(l, layer[p] + 1)
        layer[g.id] = l
        while len(out) <= l:
            out.append([])
        out[l].append(g)
    return out


def validate_topology(c: Circuit) -> None:
    """Raise if program order is not a topological order of the edge set."""
    order = {g.id: i for i, g in enumerate(c.gates)}
    for a, b in c.edges:
        if order[a] >= order[b]:
            raise ValueError(f"edge ({a}->{b}) violates program order")


def translate_reference(c: Circuit, expand_rzz: bool = False) -> tuple[Circuit, frozenset[tuple[int, int]]]:
    """Native translation with each gate's `source` read from
    `topological_layers(c)`, and its DAG built by `build_dag_reference`."""
    pi = math.pi
    out: list[Gate] = []

    def emit(kind, qubits, params, source):
        out.append(Gate(id=len(out), kind=kind, qubits=qubits, params=tuple(params), source=source))

    def emit_cx(c, t, source):
        emit(GateType.U1Q, (t,), (-pi / 2, pi / 2), source)
        emit(GateType.ZZ, (c, t), (), source)
        emit(GateType.RZ, (c,), (-pi / 2,), source)
        emit(GateType.U1Q, (t,), (pi / 2, pi), source)
        emit(GateType.RZ, (t,), (-pi / 2,), source)

    source_layer = {g.id: j for j, layer in enumerate(topological_layers(c)) for g in layer}
    for g in c.gates:
        src = source_layer[g.id]
        if g.kind is GateType.H:
            emit(GateType.U1Q, g.qubits, (pi / 2, -pi / 2), src)
            emit(GateType.RZ, g.qubits, (pi,), src)
        elif g.kind is GateType.X:
            emit(GateType.U1Q, g.qubits, (pi, 0.0), src)
        elif g.kind is GateType.RX:
            emit(GateType.U1Q, g.qubits, (g.params[0], 0.0), src)
        elif g.kind is GateType.CX:
            emit_cx(g.qubits[0], g.qubits[1], src)
        elif g.kind is GateType.RZZ and expand_rzz:
            a, b = g.qubits
            emit_cx(a, b, src)
            emit(GateType.RZ, (b,), (g.params[0],), src)
            emit_cx(a, b, src)
        else:
            emit(g.kind, g.qubits, g.params, src)
    return build_dag_reference(out, c.width)


def extract_2q_layers_reference(c: Circuit, cap: int | None = None) -> list[list[Gate]]:
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


def list_layers_reference(gates, key, cap: int | None = None, slot_of=None) -> list[list[Gate]]:
    """The layers of `translate.list_layers` by rescanning: each layer
    recomputes the ready gates from scratch (a gate is ready once no
    earlier unplaced gate of the list shares a qubit), takes the key of
    the earliest, and walks the ready gates with that key lowest qubit
    first, taking a gate unless its slot is taken, until `cap` are taken.
    Positions, not gates, are compared, so equal gates stay apart."""
    remaining = list(range(len(gates)))
    layers: list[list[Gate]] = []
    while remaining:
        ready = [i for n, i in enumerate(remaining)
                 if all(set(gates[i].qubits).isdisjoint(gates[j].qubits) for j in remaining[:n])]
        want = key(gates[ready[0]])
        taken: list[int] = []
        used = set()
        for i in sorted((i for i in ready if key(gates[i]) == want), key=lambda i: min(gates[i].qubits)):
            if len(taken) == cap:
                break
            if slot_of is not None:
                slot = slot_of[min(gates[i].qubits)]
                if slot in used:
                    continue
                used.add(slot)
            taken.append(i)
        layers.append([gates[i] for i in taken])
        remaining = [i for i in remaining if i not in taken]
    return layers


def replay_starts(trace: Trace, pipelining: bool) -> list[float]:
    """Every event's start, recomputed in emission order.  A step is an
    event, with the COOL event right after a gate batch as its tail.  It
    starts at the latest end of the earlier steps on its lane (of every
    earlier step, without pipelining) and of each earlier step that lists
    one of its ions, and its COOL starts where it ends."""
    events = trace.events
    lane_end: dict[str, float] = {}
    ion_end: dict[int, float] = {}
    last_end = 0.0
    starts: list[float] = []
    i = 0
    while i < len(events):
        _, duration, kind, _, qubits, _ = events[i]
        assert kind is not EventKind.COOL, f"event {i}: a COOL event after no gate batch"
        start = lane_end.get(kind.lane, 0.0) if pipelining else last_end
        for q in qubits:
            start = max(start, ion_end.get(q, 0.0))
        starts.append(start)
        end = start + duration
        if i + 1 < len(events) and events[i + 1].kind is EventKind.COOL:
            assert kind in (EventKind.GATE_1Q, EventKind.GATE_2Q), f"event {i + 1}: a COOL after a {kind}"
            i += 1
            starts.append(end)
            end += events[i].duration
        lane_end[kind.lane] = end
        for q in qubits:
            ion_end[q] = end
        last_end = max(last_end, end)
        i += 1
    return starts
