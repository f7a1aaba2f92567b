"""In-place executable blocks: a 2Q gate fused with its adjacent 1Q
predecessors and successors, grouped into zone-capped parallel layers.

Following the block-aware scheduling loop: repeatedly take the maximal
same-kind parallel 2Q layer (at most `zone_count` gates) and attach to
each gate the 1Q runs next to it on its two qubits.  Each qubit's 1Q gates
are cut into runs at its 2Q gates, so every 1Q gate on a qubit that some
2Q gate touches lands in exactly one block; the 1Q gates of the other
qubits form the residual set.

A `Block` is a named tuple, built with `tuple.__new__` as crystals, ops
and trace events are: a deep circuit makes thousands of them per
schedule.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .circuit import Circuit
from .gates import Gate
from .machine import _check_count, _check_type
from .translate import extract_2q_layers


class Block(NamedTuple):
    """One in-place block, backed by the tuple `(pre_1q, core_2q,
    post_1q)`: it compares and hashes as that tuple, and its repr names
    the class and each field."""

    pre_1q: tuple[Gate, ...]
    core_2q: Gate
    post_1q: tuple[Gate, ...]

    @property
    def qubits(self) -> tuple[int, int]:
        return self.core_2q.qubits  # type: ignore[return-value]

    @property
    def gates(self) -> tuple[Gate, ...]:
        return self.pre_1q + (self.core_2q,) + self.post_1q


@dataclass
class BlockSchedule:
    layers: list[list[Block]] = field(default_factory=list)
    residual: list[Gate] = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def extract_inplace_blocks(c: Circuit, zone_count: int) -> BlockSchedule:
    """Build the block schedule in one walk over the gates.

    The cores are the 2Q layers of `extract_2q_layers` capped at
    `zone_count`.  The walk cuts each qubit's 1Q gates into runs at its 2Q
    gates: the run after a 2Q gate is its block's post, the run before a
    qubit's first 2Q gate is that gate's block's pre, and the 1Q gates of
    a qubit no 2Q gate touches are the residual, in program order.  A
    block takes its core's runs in the order of the core's qubits.
    """
    _check_type("c", c, Circuit)
    _check_count("zone_count", zone_count)
    # each qubit's 1Q gates until its first 2Q gate takes them, so the
    # qubits left in `lead` are those no 2Q gate touches
    lead: dict[int, list[Gate]] = {}
    tail: dict[int, list[Gate]] = {}    # each qubit's run after its latest 2Q gate
    pre: dict[int, tuple[Gate, ...]] = {}
    post: dict[int, tuple[list[Gate], list[Gate]]] = {}
    for g in c.gates:
        if g.is_1q:
            q = g.qubits[0]
            (tail[q] if q in tail else lead.setdefault(q, [])).append(g)
        else:
            a, b = g.qubits
            pre[g.id] = (*lead.pop(a, ()), *lead.pop(b, ()))
            tail[a], tail[b] = post[g.id] = [], []
    new = tuple.__new__
    layers = [[new(Block, (pre[g.id], g, (*post[g.id][0], *post[g.id][1]))) for g in cores]
              for cores in extract_2q_layers(c, zone_count)]
    return BlockSchedule(layers, [g for g in c.gates if g.is_1q and g.qubits[0] in lead])
