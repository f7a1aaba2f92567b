"""Reorder planning: turn an ion arrangement into one where requested
qubit pairs sit adjacent in combined (gate-ready) form.

The planner is greedy and deterministic.  It first tries single boundary
exchanges (the cheap move the hardware offers between adjacent crystals);
if those cannot satisfy all targets it falls back to splitting stray
pairs and bubble-sorting singles into a computed final order.  In
circulation mode the ops can ride a track circulation instead, in the
reorder zones while the chain goes round; such a candidate is charged
`ReorderPlan.charge`, the one circulation charge, and the planner returns
whichever candidate is cheapest.

Both strategies edit one mutable working arrangement (`_Arrangement`)
with the in-place primitives of `ions`.  The fallback looks each target's
members up once and carries their crystal indices by arithmetic from
there.  It moves a member with one primitive, `ions.bubble_left_in_place`,
which emits every SPLIT and PAIR_EXCHANGE of the walk and rewrites the
crossed crystals with one slice.  It splits, swaps and combines members
by editing the crystal list directly, emitting the ops `ions.reorder_in_place`
would apply; the walk itself guarantees each of that function's checks.

The qubit index starts as a copy of the state's own `crystal_index`.  No
qubit below the crystal where a target combines has moved, so the index
is marked stale from there.  A lookup trusts a stored index whose crystal
still holds the qubit; otherwise it reindexes the stale tail up to the
qubit's crystal.  The final `IonState` is frozen once per plan, which
builds its index and runs its duplicate check once; the ops are not
replayed.  Replaying them one at a time through `ions.apply_reorder` gives
the same final state, and the tests hold the planner to that.

This module is the only place a plan is costed, and `_costed` is the
staging rule.  Each cost is computed once per plan, in one walk over its
ops, and carried on the `ReorderPlan`; the schedulers read those fields
instead of staging the ops again.

`plan_reorder` must stay a pure function of (arrangement, targets,
machine, mode): it keeps no state between calls and returns an immutable
plan.  The schedulers rely on that, reusing a plan whenever a target set
recurs from an equal arrangement within one schedule.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .gates import is_qubit
# apply_reorder stays importable from here: perfbench/spans.py counts calls
# through planner.apply_reorder
from .ions import (  # noqa: F401
    COMBINE, PAIR_EXCHANGE, SPLIT, SWAP, Crystal, IonState, ReorderOp,
    apply_reorder, bubble_left_in_place, reorder_durations, reorder_in_place,
)
from .machine import Machine


class PlanMode(Enum):
    CIRCULATION_ALLOWED = "circulation"
    ONE_DIMENSIONAL = "one_dimensional"


@dataclass(frozen=True)
class ReorderPlan:
    ops: tuple[ReorderOp, ...]
    path_id: int | None          # circulation path carrying the moves, or None
    time: float                  # time_1d, or the charge of the path's lap
    final: IonState
    time_1d: float               # staged time of all ops over the gate zones
    regroup_time: float          # staged time of the non-exchange ops over the reorder zones
    exchange_time: float         # staged time of the exchanges over the reorder zones
    op_counts: tuple[tuple[str, int], ...]  # (tag value, count), in order of first appearance

    def charge(self, lap: float) -> float:
        """The time of these ops riding a circulation that takes `lap`: the
        reorder zones regroup and exchange ions while the chain circulates,
        so whichever of the three takes longest sets the time."""
        return max(lap, self.regroup_time, self.exchange_time)


class _Arrangement:
    """Mutable working copy of an arrangement's crystals for one plan.

    `_index` maps each qubit to its crystal index; it starts as a copy of
    the state's own index.  A split or combine shifts every crystal to its
    right, so whoever applies one marks the map stale from there; a
    boundary exchange keeps crystal positions and updates the map in place.
    A lookup trusts a stored index whose crystal still holds the qubit.
    Otherwise the qubit sits at or above the stale mark, since every crystal
    below it is indexed, and the lookup reindexes the tail up to its crystal.
    """

    __slots__ = ("crystals", "_index", "_stale_from")

    def __init__(self, s: IonState):
        self.crystals: list[Crystal] = list(s.crystals)
        self._index: dict[int, int] = dict(s.crystal_index)
        self._stale_from = len(self.crystals)

    def crystal_of(self, qubit: int) -> int:
        cs = self.crystals
        index = self._index
        i = index[qubit]
        if i < len(cs) and qubit in cs[i].qubits:
            return i
        # the qubit sits in the stale tail: reindex the tail up to its crystal
        i = self._stale_from
        while True:
            qubits = cs[i].qubits
            for q in qubits:
                index[q] = i
            i += 1
            if qubit in qubits:
                self._stale_from = i
                return i - 1

    def paired(self, a: int, b: int) -> bool:
        c = self.crystals[self.crystal_of(a)]
        return c.is_pair and set(c.qubits) == {a, b}

    def exchange(self, left: int) -> ReorderOp:
        """Apply a boundary exchange at `left`; the two crystals keep their
        positions, so the index is updated in place."""
        cs = self.crystals
        op = ReorderOp(PAIR_EXCHANGE, cs[left].qubits + cs[left + 1].qubits, left)
        reorder_in_place(cs, op)
        if left < self._stale_from:
            for j in (left, left + 1):
                for q in cs[j].qubits:
                    self._index[q] = j
        return op

    def mark_stale(self, index: int) -> None:
        """Crystals from `index` on may have moved since the last lookup."""
        if index < self._stale_from:
            self._stale_from = index


def _costed(ops: list[ReorderOp], final: IonState, m: Machine) -> ReorderPlan:
    """The one-dimensional plan of `ops`, with every cost a plan carries.

    This is the staging rule.  Ops are taken in order into stages; an op
    at index i occupies crystal slots i and i + 1 (bits of a busy mask),
    and it closes the open stage when it shares a slot with it or the
    stage already holds one op per zone.  A sequence's staged time is the
    sum over its stages of each stage's longest op.

    One walk counts the ops and stages three sequences: all ops over the
    gate zones, the non-exchange ops over the reorder zones, and the
    exchanges over the reorder zones.  A stager holds its closed stages'
    total, the slots its open stage occupies, that stage's longest op and
    its op count.  The three are written out rather than shared, because
    a call per op per stager costs about half again as much.
    """
    durations = reorder_durations(m.timing)
    gate_cap = m.gate_zones
    reorder_cap = m.reorder_zones
    counts: dict[str, int] = {}
    all_total, all_busy, all_max, all_n = 0.0, 0, 0.0, 0
    reg_total, reg_busy, reg_max, reg_n = 0.0, 0, 0.0, 0
    ex_total, ex_busy, ex_max, ex_n = 0.0, 0, 0.0, 0
    for op in ops:
        tag = op.tag
        value = tag._value_
        counts[value] = counts.get(value, 0) + 1
        d = durations[value]
        slots = 3 << op.index
        if all_n >= gate_cap or all_busy & slots:
            all_total += all_max
            all_busy, all_max, all_n = 0, 0.0, 0
        all_busy |= slots
        if d > all_max:
            all_max = d
        all_n += 1
        if tag is PAIR_EXCHANGE:
            if ex_n >= reorder_cap or ex_busy & slots:
                ex_total += ex_max
                ex_busy, ex_max, ex_n = 0, 0.0, 0
            ex_busy |= slots
            if d > ex_max:
                ex_max = d
            ex_n += 1
        else:
            if reg_n >= reorder_cap or reg_busy & slots:
                reg_total += reg_max
                reg_busy, reg_max, reg_n = 0, 0.0, 0
            reg_busy |= slots
            if d > reg_max:
                reg_max = d
            reg_n += 1
    time_1d = all_total + all_max
    return ReorderPlan(
        ops=tuple(ops), path_id=None, time=time_1d, final=final, time_1d=time_1d,
        regroup_time=reg_total + reg_max, exchange_time=ex_total + ex_max,
        op_counts=tuple(counts.items()),
    )


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
        # an exchange only regroups the two crystals it acts on, so only
        # their wanted pairs can break
        before = _pair_sets(cs[left : left + 2]) & wanted
        op = work.exchange(left)
        if not work.paired(a, b):
            return None
        if not before <= _pair_sets(cs[left : left + 2]):
            return None
        ops.append(op)
    # verify everything held up
    for a, b in targets:
        if not work.paired(a, b):
            return None
    return ops


def _fallback_plan(work: _Arrangement, targets: list[tuple[int, int]]) -> list[ReorderOp]:
    """Per-target bubble routing: split the members out of their pairs,
    bubble the right member leftward next to its partner (splitting any
    pair in the way), orient, combine.

    `targets` come sorted by their lower qubit.  Each target looks its
    members up once and carries their indices from there: a split at `p`
    moves every crystal above `p` up by one, and the bubble leaves the
    mover beside its partner.  A split member that was a pair's right qubit
    moves up too, while the qubit it leaves behind stays put; so no qubit
    below the combine's index has moved, and the index is marked stale
    from there.
    """
    ops: list[ReorderOp] = []
    cs = work.crystals

    def split(i: int):
        """Split the pair at i into ->a, <-b."""
        qs = cs[i].qubits
        ops.append(ReorderOp(SPLIT, qs, i))
        cs[i : i + 1] = [Crystal((qs[0],), True), Crystal((qs[1],), False)]

    def combine(left: int):
        """Orient the singles at left, left + 1 as (->, <-) and combine them.
        A swapped single is combined at once, so it is never stored."""
        a, b = cs[left].qubits, cs[left + 1].qubits
        if not cs[left].facing_right:
            ops.append(ReorderOp(SWAP, a, left))
        if cs[left + 1].facing_right:
            ops.append(ReorderOp(SWAP, b, left + 1))
        ops.append(ReorderOp(COMBINE, a + b, left))
        cs[left : left + 2] = [Crystal(a + b)]
        work.mark_stale(left)

    for a, b in targets:
        ia, ib = work.crystal_of(a), work.crystal_of(b)
        if ia == ib:  # the crystal holding both members is their pair
            continue
        # split each member out of its pair; no such pair is another
        # target's, because targets are disjoint
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
        # bubble the right member (the mover) leftward to its partner
        left = min(ia, ib)
        ops += bubble_left_in_place(cs, left, max(ia, ib))
        combine(left)
    # restore any target pair split while being crossed
    for a, b in targets:
        if work.paired(a, b):
            continue
        ia, ib = work.crystal_of(a), work.crystal_of(b)
        if abs(ia - ib) != 1:  # pragma: no cover - crossings keep them adjacent
            raise AssertionError("split target pair drifted apart")
        combine(min(ia, ib))
    return ops


def _checked_targets(s: IonState, target_pairs) -> list[tuple[int, int]]:
    """The targets as qubit pairs sorted by their lower qubit; ValueError
    unless each is two distinct integer qubits of `s` and no qubit is in
    two."""
    known = s.crystal_index
    seen: set[int] = set()
    targets = []
    for pair in target_pairs:
        try:
            pair = tuple(pair)
        except TypeError:
            raise ValueError(f"target {pair!r} is not two distinct qubits") from None
        if len(pair) != 2 or not (is_qubit(pair[0]) and is_qubit(pair[1])) or pair[0] == pair[1]:
            raise ValueError(f"target {pair!r} is not two distinct qubits")
        for q in pair:
            if q not in known:
                raise ValueError(f"target {pair!r} names qubit {q}, which is not in the arrangement")
            if q in seen:
                raise ValueError("target pairs must be disjoint")
            seen.add(q)
        targets.append(pair)
    return sorted(targets, key=min)


def plan_reorder(
    s: IonState,
    target_pairs: list[tuple[int, int]],
    m: Machine,
    mode: PlanMode = PlanMode.CIRCULATION_ALLOWED,
) -> ReorderPlan:
    """Plan primitives making every target pair adjacent and combined.

    Every candidate carries the same ops.  The one-dimensional candidate
    pays their staged time over the gate zones; in circulation mode each
    circulation path is a candidate too, charged `ReorderPlan.charge` of
    its lap.  The cheapest wins, ties going to the one-dimensional plan,
    then to the lower path.
    """
    if not isinstance(mode, PlanMode):
        raise ValueError(f"mode must be a PlanMode, got {mode!r}")
    targets = _checked_targets(s, target_pairs)
    work = _Arrangement(s)
    ops = _try_boundary_exchanges(work, targets)
    if ops is None:
        work = _Arrangement(s)
        ops = _fallback_plan(work, targets)
    plan = _costed(ops, IonState(tuple(work.crystals)), m)
    if mode is PlanMode.ONE_DIMENSIONAL:
        return plan
    candidates = [(plan.time, -1)] + [
        (plan.charge(m.lap(pid)), pid) for pid, _fraction in m.circulation_paths
    ]
    charged, path = min(candidates)
    if path == -1:
        return plan
    return replace(plan, path_id=path, time=charged)


def split_all_plan(s: IonState, m: Machine) -> ReorderPlan:
    """Split every pair, left to right, in one walk; each SPLIT's index
    counts the singles the earlier splits made."""
    ops = []
    crystals: list[Crystal] = []
    for c in s.crystals:
        qs = c.qubits
        if len(qs) == 2:
            ops.append(ReorderOp(SPLIT, qs, len(crystals)))
            crystals.append(Crystal((qs[0],), True))
            crystals.append(Crystal((qs[1],), False))
        else:
            crystals.append(c)
    return _costed(ops, IonState(tuple(crystals)), m)
