"""Reorder planning: turn an ion arrangement into one where requested
qubit pairs sit adjacent in combined (gate-ready) form.

The planner is greedy and deterministic.  It first tries single boundary
exchanges (the cheap move the hardware offers between adjacent crystals);
if those cannot satisfy all targets it falls back to splitting stray
pairs and bubble-sorting singles into a computed final order.  In
circulation mode the positional moves can ride a track circulation (they
cost a lap instead of per-exchange time), and the planner returns
whichever candidate is cheapest.

Both strategies edit one mutable working arrangement (`_Arrangement`)
with the in-place primitives of `ions`, so a step costs O(1) except that
a split or combine shifts the crystals to its right, in the list and
(lazily) in the qubit index.  The final `IonState` is frozen once per
plan, which runs its duplicate check once; the ops are not replayed.
`apply_plan(s, plan.ops)` gives the same final state, and the tests hold
the planner to that.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

# apply_reorder stays importable from here: perfbench/spans.py counts calls
# through planner.apply_reorder
from .ions import Crystal, IonState, ReorderOp, ReorderTag, apply_reorder, reorder_in_place  # noqa: F401
from .machine import TimingParams, TrackLayout, lap_time


class PlanMode(Enum):
    CIRCULATION_ALLOWED = "circulation"
    ONE_DIMENSIONAL = "one_dimensional"


@dataclass(frozen=True)
class ReorderPlan:
    ops: tuple[ReorderOp, ...]
    path_id: int | None          # circulation path carrying the moves, or None
    time: float                  # charged wall-clock time of the plan
    hidden_time: float           # positional-move time hidden under the lap
    final: IonState

    @property
    def n_ops(self) -> int:
        return len(self.ops)


class _Arrangement:
    """Mutable working copy of an arrangement's crystals for one plan.

    `_index` maps each qubit to its crystal index.  A split or combine
    shifts every crystal to its right, so it marks the map stale from its
    index and the next lookup reindexes only from there; swaps and
    exchanges keep crystal positions and update the map in place.
    """

    __slots__ = ("crystals", "_index", "_stale_from")

    def __init__(self, s: IonState):
        self.crystals: list[Crystal] = list(s.crystals)
        self._index: dict[int, int] = {}
        self._stale_from = 0

    def crystal_of(self, qubit: int) -> int:
        cs = self.crystals
        if self._stale_from < len(cs):
            index = self._index
            for i in range(self._stale_from, len(cs)):
                for q in cs[i].qubits:
                    index[q] = i
            self._stale_from = len(cs)
        return self._index[qubit]

    def paired(self, a: int, b: int) -> bool:
        c = self.crystals[self.crystal_of(a)]
        return c.is_pair and set(c.qubits) == {a, b}

    def op(self, tag: ReorderTag, index: int) -> ReorderOp:
        """The op `tag` at `index`, naming the qubits it touches."""
        cs = self.crystals
        qubits: tuple[int, ...] = cs[index].qubits if index < len(cs) else ()
        if tag in (ReorderTag.PAIR_EXCHANGE, ReorderTag.COMBINE) and index + 1 < len(cs):
            qubits = qubits + cs[index + 1].qubits
        return ReorderOp(tag=tag, operands=qubits, index=index)

    def apply(self, op: ReorderOp) -> None:
        reorder_in_place(self.crystals, op)
        i = op.index
        if op.tag is ReorderTag.SPLIT or op.tag is ReorderTag.COMBINE:
            self._stale_from = min(self._stale_from, i)
        elif op.tag is ReorderTag.PAIR_EXCHANGE and i < self._stale_from:
            for j in (i, i + 1):
                for q in self.crystals[j].qubits:
                    self._index[q] = j


@lru_cache(maxsize=16)
def _durations(t: TimingParams) -> dict[ReorderTag, float]:
    return {
        ReorderTag.SPLIT: t.split_or_combine,
        ReorderTag.COMBINE: t.split_or_combine,
        ReorderTag.SWAP: t.swap,
        ReorderTag.INTRA_SHIFT: t.intra_zone_shift,
        ReorderTag.INTER_SHIFT: t.inter_zone_shift,
        ReorderTag.PAIR_EXCHANGE: t.pair_exchange,
    }


def staged_time(
    ops: list[ReorderOp], zones: int, t: TimingParams = TimingParams()
) -> float:
    """Serialize ops into stages: ops touching disjoint crystal slots run
    in parallel, at most `zones` per stage; a stage costs its longest op."""
    durations = _durations(t)
    cap = max(1, zones)
    total = 0.0
    busy: set[int] = set()
    stage_max = 0.0
    stage_n = 0
    for op in ops:
        i = op.index
        if stage_n >= cap or i in busy or i + 1 in busy:
            total += stage_max
            busy.clear()
            stage_max, stage_n = 0.0, 0
        busy.add(i)
        busy.add(i + 1)
        stage_max = max(stage_max, durations[op.tag])
        stage_n += 1
    return total + stage_max


def _pair_sets(crystals) -> set[frozenset[int]]:
    return {frozenset(c.qubits) for c in crystals if c.is_pair}


def _try_boundary_exchanges(
    work: _Arrangement, targets: list[tuple[int, int]]
) -> list[ReorderOp] | None:
    """Satisfy every target with at most one boundary exchange each, never
    disturbing a pair another target needs.  Returns None if impossible,
    leaving `work` part-edited."""
    ops: list[ReorderOp] = []
    wanted = {frozenset(p) for p in targets}
    cs = work.crystals
    for a, b in targets:
        if work.paired(a, b):
            continue
        ia, ib = work.crystal_of(a), work.crystal_of(b)
        if abs(ia - ib) != 1:
            return None
        left = min(ia, ib)
        candidate = work.op(ReorderTag.PAIR_EXCHANGE, left)
        # an exchange only regroups the two crystals it acts on, so only
        # their wanted pairs can break
        before = _pair_sets(cs[left : left + 2]) & wanted
        work.apply(candidate)
        if not work.paired(a, b):
            return None
        if not before <= _pair_sets(cs[left : left + 2]):
            return None
        ops.append(candidate)
    # verify everything held up
    for a, b in targets:
        if not work.paired(a, b):
            return None
    return ops


def _fallback_plan(work: _Arrangement, targets: list[tuple[int, int]]) -> list[ReorderOp]:
    """Per-target bubble routing: free the members, bubble the cheaper one
    next to its partner (splitting any pair in the way), orient, combine."""
    wanted = {frozenset(p) for p in targets}
    ops: list[ReorderOp] = []
    cs = work.crystals

    def do(tag: ReorderTag, index: int):
        op = work.op(tag, index)
        work.apply(op)
        ops.append(op)

    def free(q: int):
        """Split q out of a crystal pair that is not a wanted target pair."""
        i = work.crystal_of(q)
        c = cs[i]
        if c.is_pair and frozenset(c.qubits) not in wanted:
            do(ReorderTag.SPLIT, i)

    for a, b in sorted(targets, key=lambda p: min(p)):
        if work.paired(a, b):
            continue
        free(a)
        free(b)
        if work.crystal_of(a) > work.crystal_of(b):
            a, b = b, a
        mover, dest = b, a  # bubble the right member leftward (deterministic)
        while True:
            im, id_ = work.crystal_of(mover), work.crystal_of(dest)
            if abs(im - id_) == 1:
                break
            step = im - 1 if im > id_ else im + 1
            blocker = cs[step]
            if blocker.is_pair:
                do(ReorderTag.SPLIT, step)
                continue
            do(ReorderTag.PAIR_EXCHANGE, min(im, step))
        # orient (left ->, right <-) and combine
        left = min(work.crystal_of(a), work.crystal_of(b))
        if not cs[left].facing_right:
            do(ReorderTag.SWAP, left)
        if cs[left + 1].facing_right:
            do(ReorderTag.SWAP, left + 1)
        do(ReorderTag.COMBINE, left)
    # restore any wanted pair broken while being crossed
    for a, b in sorted(targets, key=lambda p: min(p)):
        if work.paired(a, b):
            continue
        ia, ib = work.crystal_of(a), work.crystal_of(b)
        if abs(ia - ib) != 1:  # pragma: no cover - crossings keep them adjacent
            raise AssertionError("split target pair drifted apart")
        left = min(ia, ib)
        if not cs[left].facing_right:
            do(ReorderTag.SWAP, left)
        if cs[left + 1].facing_right:
            do(ReorderTag.SWAP, left + 1)
        do(ReorderTag.COMBINE, left)
    return ops


def plan_reorder(
    s: IonState,
    target_pairs: list[tuple[int, int]],
    layout: TrackLayout,
    mode: PlanMode = PlanMode.CIRCULATION_ALLOWED,
    t: TimingParams = TimingParams(),
) -> ReorderPlan:
    """Plan primitives making every target pair adjacent and combined.

    In circulation mode, candidates are evaluated per circulation path
    (positional exchanges ride the lap; only regrouping is charged beyond
    it) as well as purely one-dimensionally; the cheapest wins, ties going
    to fewer ops then lower first qubit id.
    """
    flat: list[int] = [q for p in target_pairs for q in p]
    if len(set(flat)) != len(flat):
        raise ValueError("target pairs must be disjoint")
    known = s.qubits()
    for q in flat:
        if q not in known:
            raise KeyError(f"qubit {q} not present in arrangement")

    targets = sorted((tuple(p) for p in target_pairs), key=lambda p: min(p))
    work = _Arrangement(s)
    ops = _try_boundary_exchanges(work, targets)
    if ops is None:
        work = _Arrangement(s)
        ops = _fallback_plan(work, targets)
    # plans emit no shifts, so the position carries over
    final = IonState(tuple(work.crystals), s.position)

    positional = [o for o in ops if o.tag is ReorderTag.PAIR_EXCHANGE]
    regroup = [o for o in ops if o.tag is not ReorderTag.PAIR_EXCHANGE]
    time_1d = staged_time(ops, layout.gate_zones, t) if ops else 0.0

    candidates: list[tuple[float, int, int, int | None, float]] = [
        (time_1d, len(ops), min(flat, default=0), None, 0.0)
    ]
    if mode is PlanMode.CIRCULATION_ALLOWED:
        regroup_time = staged_time(regroup, layout.reorder_zones, t) if regroup else 0.0
        hidden = staged_time(positional, layout.reorder_zones, t) if positional else 0.0
        for pid, _length in layout.circulation_paths:
            lap = lap_time(layout, pid, t)
            charged = max(lap, regroup_time)
            candidates.append((charged, len(ops), min(flat, default=0), pid, hidden))
    candidates.sort(key=lambda c: (c[0], c[1], c[2], -1 if c[3] is None else c[3]))
    best = candidates[0]
    return ReorderPlan(
        ops=tuple(ops), path_id=best[3], time=best[0], hidden_time=best[4], final=final
    )
