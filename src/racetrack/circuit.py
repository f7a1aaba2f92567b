"""Circuit container and dependency-DAG construction.

A circuit is a gate list in program order, checked when it is built: its
width is an int >= 0 (a bool is none), its gates are a sequence of
`Gate`s, no two gates share an id, and every qubit is below the width.
The first fault in program order raises a ValueError.  The check finds
`used_width`, one past the highest qubit a gate uses; a list kept per
qubit is that long, not as long as the width, which need not fit in
memory.  Its DAG, `Circuit.edges`, the transitive reduction of the
shared-qubit precedence relation, is derived from the gates on first
read, which no pipeline stage makes, and is immutable.  Python 3.11's
`cached_property` builds it under a lock shared by all circuits; from
3.12 it takes none, so two threads that read it first at once may each
build it, and build equal sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .gates import Gate, is_qubit


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...]   # stored as a tuple, so the circuit hashes
    # one past the highest qubit the gates use, 0 without gates
    used_width: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        width, gates = self.width, self.gates
        # a width is an integer and not a bool, as a qubit is
        if not is_qubit(width):
            raise ValueError(f"circuit width must be an int, got {width!r}")
        if width < 0:
            raise ValueError(f"circuit width must be >= 0, got {width}")
        if type(gates) is not tuple:
            try:
                gates = tuple(gates)
            except TypeError:
                raise ValueError(f"circuit gates must be a sequence of Gates, got {gates!r}") from None
            object.__setattr__(self, "gates", gates)
        # one C-level pass over the gates' types; the scan names the first fault
        if {*map(type, gates)} - {Gate}:
            for i, g in enumerate(gates):
                if not isinstance(g, Gate):
                    raise ValueError(f"circuit gates must be Gates, got {g!r} at position {i}")
        ids = [g.id for g in gates]
        used = max(q for g in gates for q in g.qubits) + 1 if gates else 0
        if len(set(ids)) != len(ids) or used > width:
            _raise_first_fault(gates, width)
        object.__setattr__(self, "used_width", used)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The transitive reduction of the shared-qubit precedence order of
        `gates`, as (predecessor id, gate id) pairs.  One walk over positions
        chains each gate to the last gate on each of its qubits.  When those
        are two distinct gates, the edge from the earlier is redundant iff it
        reaches the later; a DFS bounded to the window (early, late] decides
        that at once, since every edge into that window is in `succs`."""
        gates = self.gates
        last_on = [-1] * self.used_width
        succs: list[list[int]] = [[] for _ in gates]
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
        return frozenset((gates[u].id, gates[v].id) for u, vs in enumerate(succs) for v in vs)

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
    """The checked Circuit of `gates` in program order; `Circuit.edges` is
    its DAG.  `perfbench/spans.py` times the translation's builds, made
    through `translate.build_dag`, and not the generators'."""
    return Circuit(width, gates)


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


def _raise_first_fault(gates: tuple[Gate, ...], width: int) -> None:
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
