"""Circuit container and dependency-DAG construction.

A circuit is a gate list in program order plus the transitive reduction of
the shared-qubit precedence relation.  The DAG is immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

from .gates import Gate


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...]
    edges: frozenset[tuple[int, int]]

    def gate(self, gate_id: int) -> Gate:
        """The gate with id `gate_id`, found by a scan; KeyError if none."""
        for g in self.gates:
            if g.id == gate_id:
                return g
        raise KeyError(gate_id)

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    def is_native(self) -> bool:
        return not any(g.kind.is_abstract for g in self.gates)


def build_dag(gates: list[Gate], width: int) -> Circuit:
    """Build a Circuit whose edge set is the transitive reduction of the
    shared-qubit precedence order of `gates` (taken in program order).

    One walk over positions chains each gate to the last gate on each of
    its qubits.  When those are two distinct gates, the edge from the
    earlier is redundant iff it reaches the later; a DFS bounded to the
    window (early, late] decides that at once, since every edge into that
    window is already in `succs`.  Redundant edges are never recorded.
    """
    if width < 0:
        raise ValueError(f"circuit width must be >= 0, got {width}")
    ids = [g.id for g in gates]
    if len(set(ids)) != len(ids):
        _raise_first_fault(gates, width)
    last_on = [-1] * width
    succs: list[list[int]] = [[] for _ in ids]
    try:
        for i, g in enumerate(gates):
            qs = g.qubits
            a, b = qs[0], qs[-1]
            early, late = last_on[a], last_on[b]
            last_on[a] = last_on[b] = i
            if early > late:
                early, late = late, early
            if late >= 0:
                succs[late].append(i)
                if 0 <= early < late and not _reaches(succs, early, late):
                    succs[early].append(i)
    except IndexError:  # a qubit at or past `width`
        _raise_first_fault(gates, width)
    edges = frozenset((ids[u], ids[v]) for u, vs in enumerate(succs) for v in vs)
    return Circuit(width=width, gates=tuple(gates), edges=edges)


def _reaches(succs: list[list[int]], src: int, dst: int) -> bool:
    """True iff position `src` reaches `dst` through positions in (src, dst]."""
    stack = [src]
    seen = {src}
    while stack:
        for v in succs[stack.pop()]:
            if v == dst:
                return True
            if v < dst and v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def _raise_first_fault(gates: list[Gate], width: int) -> None:
    """Raise for the first gate, in program order, with a repeated id or a
    qubit out of range."""
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
