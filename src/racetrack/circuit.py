"""Circuit container and dependency-DAG construction.

A circuit is a gate list in program order plus the transitive reduction of
the shared-qubit precedence relation.  The DAG is immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .gates import Gate


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...]
    edges: frozenset[tuple[int, int]]

    _by_id: dict = field(repr=False, hash=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {g.id: g for g in self.gates})

    def gate(self, gate_id: int) -> Gate:
        return self._by_id[gate_id]

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    def is_native(self) -> bool:
        return not any(g.kind.is_abstract for g in self.gates)


def build_dag(gates: list[Gate], width: int) -> Circuit:
    """Build a Circuit whose edge set is the transitive reduction of the
    shared-qubit precedence order of `gates` (taken in program order)."""
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
    edges = frozenset(chain - redundant)
    return Circuit(width=width, gates=tuple(gates), edges=edges)


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
