"""In-place executable blocks: a 2Q gate fused with its adjacent 1Q
predecessors and successors, grouped into zone-capped parallel layers.

Following the block-aware scheduling loop: repeatedly take the maximal
same-kind parallel 2Q layer (at most `zone_count` gates), attach each
gate's neighboring 1Q chains, and record everything unclaimed in the
residual set.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import Circuit
from .gates import Gate
from .translate import extract_2q_layers


@dataclass(frozen=True)
class Block:
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
    """Build the block schedule in time linear in the gate count.

    The cores are the 2Q layers of `extract_2q_layers` capped at
    `zone_count`.  1Q runs between two 2Q gates on a qubit attach to the
    earlier gate's block (post); leading runs attach as the first block's
    pre; 1Q gates on qubits that never see a 2Q gate fall into the
    residual.  Each gate records its position in every qubit's gate
    sequence, so a block's chains are found by walking outward from its
    core: each walk costs the length of the run it returns plus one.
    """
    if zone_count < 1:
        raise ValueError("zone_count must be >= 1")
    # per-qubit gate sequences and each gate's positions in them
    seq: dict[int, list[Gate]] = {}
    at: dict[int, tuple[int, ...]] = {}
    for g in c.gates:
        where = []
        for q in g.qubits:
            run = seq.setdefault(q, [])
            where.append(len(run))
            run.append(g)
        at[g.id] = tuple(where)

    # neighbor 1Q chains around each 2Q gate, claimed earlier-block-first
    claimed: set[int] = set()

    def chain_before(gates: list[Gate], i: int) -> list[Gate]:
        """The unclaimed 1Q gates directly before position i."""
        j = i
        while j > 0 and gates[j - 1].is_1q and gates[j - 1].id not in claimed:
            j -= 1
        return gates[j:i]

    def chain_after(gates: list[Gate], i: int) -> list[Gate]:
        """The 1Q gates after position i, up to the next 2Q gate."""
        j = i + 1
        while j < len(gates) and gates[j].is_1q:
            j += 1
        return gates[i + 1 : j]

    schedule = BlockSchedule()
    for cores in extract_2q_layers(c, zone_count):
        layer: list[Block] = []
        for core in cores:
            pre: list[Gate] = []
            post: list[Gate] = []
            for q, i in zip(core.qubits, at[core.id]):
                pre.extend(chain_before(seq[q], i))
                post.extend(chain_after(seq[q], i))
            claimed.update(g.id for g in pre + post)
            layer.append(Block(tuple(pre), core, tuple(post)))
        schedule.layers.append(layer)
    schedule.residual = [
        g for g in c.gates if g.is_1q and g.id not in claimed
    ]
    return schedule
