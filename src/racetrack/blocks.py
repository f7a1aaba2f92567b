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


@dataclass(frozen=True)
class Block:
    pre_1q: tuple[Gate, ...]
    core_2q: Gate
    post_1q: tuple[Gate, ...]

    @property
    def qubits(self) -> tuple[int, int]:
        return self.core_2q.qubits  # type: ignore[return-value]

    @property
    def n_gates(self) -> int:
        return 1 + len(self.pre_1q) + len(self.post_1q)


@dataclass
class BlockSchedule:
    layers: list[list[Block]] = field(default_factory=list)
    residual: list[Gate] = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def max_parallel(self) -> int:
        return max((len(l) for l in self.layers), default=0)

    def all_gates(self) -> list[Gate]:
        out: list[Gate] = []
        for layer in self.layers:
            for b in layer:
                out.extend(b.pre_1q)
                out.append(b.core_2q)
                out.extend(b.post_1q)
        out.extend(self.residual)
        return out


def extract_inplace_blocks(c: Circuit, zone_count: int) -> BlockSchedule:
    """Build the block schedule in time linear in the gate count.

    1Q runs between two 2Q gates on a qubit attach to the earlier gate's
    block (post); leading runs attach as the first block's pre; 1Q gates
    on qubits that never see a 2Q gate fall into the residual.  Each gate
    records its position in every qubit's gate sequence, so a block's
    chains are found by walking outward from its core: each walk costs
    the length of the run it returns plus one.
    """
    if zone_count < 1:
        raise ValueError("zone_count must be >= 1")
    # per-qubit gate sequences, each gate's positions in them, and
    # 2Q-projected readiness
    seq: dict[int, list[Gate]] = {}
    at: dict[int, tuple[int, ...]] = {}
    for g in c.gates:
        where = []
        for q in g.qubits:
            run = seq.setdefault(q, [])
            where.append(len(run))
            run.append(g)
        at[g.id] = tuple(where)

    two_q = [g for g in c.gates if g.is_2q]
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

    ready = sorted((gid for gid, n in pred_count.items() if n == 0), key=order.get)
    schedule = BlockSchedule()
    while ready:
        kind = by_id[ready[0]].kind
        same = [gid for gid in ready if by_id[gid].kind is kind]
        taken = sorted(same, key=lambda gid: min(by_id[gid].qubits))[:zone_count]
        taken_set = set(taken)
        ready = [gid for gid in ready if gid not in taken_set]
        layer: list[Block] = []
        for gid in sorted(taken, key=lambda gid: min(by_id[gid].qubits)):
            core = by_id[gid]
            pre: list[Gate] = []
            post: list[Gate] = []
            for q, i in zip(core.qubits, at[gid]):
                pre.extend(chain_before(seq[q], i))
                post.extend(chain_after(seq[q], i))
            for g in pre + post:
                claimed.add(g.id)
            layer.append(Block(tuple(pre), core, tuple(post)))
            for s in succs[gid]:
                pred_count[s] -= 1
                if pred_count[s] == 0:
                    ready.append(s)
        ready.sort(key=order.get)
        schedule.layers.append(layer)
    schedule.residual = [
        g for g in c.gates if g.is_1q and g.id not in claimed
    ]
    return schedule
