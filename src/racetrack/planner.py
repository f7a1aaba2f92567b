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

Both strategies edit one mutable working arrangement (`_Arrangement`),
whose qubit index is exact at all times: a rewrite of the crystals from
index `i` reindexes from `i` to the end, and an exchange reindexes its two
crystals.  The final `IonState` is frozen from that index, and the ops are
not replayed.  Replaying them one at a time through `ions.apply_reorder`
gives the same final state, and the tests hold the planner to that and to
the index of a freshly built state.

The fallback makes its plan in one walk per target: it reads the target's
members from the index once, carries their crystal indices by arithmetic
from there, and splits, bubbles, orients and combines them by editing the
crystal list directly.  It emits the ops `ions.reorder_in_place` would
apply one at a time, and the walk itself guarantees each of that
function's checks; ops and crystals are built with `tuple.__new__`,
skipping their Python-level constructors.

Two invariants, both from the targets being disjoint, leave the planner
nothing to check again:
- A boundary exchange rewrites only the two crystals holding one target's
  members, so it breaks no other target, and no later exchange touches a
  target once it is combined.
- A bubble splits every pair it crosses, so a target combined earlier can
  come apart, but only into the adjacent singles ->x, <-y, which later
  bubbles cross together with their order and facing kept.  One COMBINE
  restores it, and only the target pairs a bubble split are visited.

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

from collections.abc import Iterable
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

from .gates import is_qubit
# apply_reorder stays importable from here: perfbench/spans.py counts calls
# through planner.apply_reorder
from .ions import (  # noqa: F401
    COMBINE, PAIR_EXCHANGE, SPLIT, SWAP, Crystal, IonState, ReorderOp,
    apply_reorder, reorder_durations, reorder_in_place,
)
from .machine import Machine, _check_type


class PlanMode(Enum):
    CIRCULATION_ALLOWED = "circulation"
    ONE_DIMENSIONAL = "one_dimensional"


@dataclass(frozen=True)
class ReorderPlan:
    ops: tuple[ReorderOp, ...]
    path_id: int | None          # circulation path carrying the moves, or None
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

    @cached_property
    def operands(self) -> tuple[int, ...]:
        """Every qubit the ops act on, sorted: the ions a one-dimensional
        transition moves.  Computed once per plan, on first use."""
        return tuple(sorted({q for op in self.ops for q in op.operands}))


class _Arrangement:
    """Mutable working copy of an arrangement's crystals for one plan.

    `index` maps each qubit to its crystal index and is exact at all times.
    A split or combine shifts every crystal to its right, so whoever rewrites
    the crystals from `i` on reindexes from `i` to the end; a boundary
    exchange keeps crystal positions and reindexes its two crystals.
    """

    __slots__ = ("crystals", "index")

    def __init__(self, s: IonState):
        self.crystals: list[Crystal] = list(s.crystals)
        self.index: dict[int, int] = dict(s.crystal_index)

    def reindex(self, start: int) -> None:
        """Index every crystal from `start` to the end again."""
        cs = self.crystals
        index = self.index
        for i in range(start, len(cs)):
            for q in cs[i][0]:
                index[q] = i

    def exchange(self, left: int) -> ReorderOp:
        """Apply a boundary exchange at `left`; the two crystals keep their
        positions, so only their qubits are reindexed."""
        cs = self.crystals
        op = ReorderOp(PAIR_EXCHANGE, cs[left].qubits + cs[left + 1].qubits, left)
        reorder_in_place(cs, op)
        for j in (left, left + 1):
            for q in cs[j].qubits:
                self.index[q] = j
        return op

    def frozen(self) -> IonState:
        """The arrangement as an `IonState` whose index is this map."""
        return IonState._indexed(tuple(self.crystals), self.index)


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
    reorder_cap = m.reorder_zones or m.gate_zones
    counts: dict[str, int] = {}
    all_total, all_busy, all_max, all_n = 0.0, 0, 0.0, 0
    reg_total, reg_busy, reg_max, reg_n = 0.0, 0, 0.0, 0
    ex_total, ex_busy, ex_max, ex_n = 0.0, 0, 0.0, 0
    for tag, _, index in ops:
        value = tag._value_
        counts[value] = counts.get(value, 0) + 1
        d = durations[value]
        slots = 3 << index
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
        ops=tuple(ops), path_id=None, final=final, time_1d=time_1d,
        regroup_time=reg_total + reg_max, exchange_time=ex_total + ex_max,
        op_counts=tuple(counts.items()),
    )


def _try_boundary_exchanges(
    work: _Arrangement, targets: list[tuple[int, int]], ops: list[ReorderOp]
) -> bool:
    """Satisfy every target with at most one boundary exchange each,
    appending each exchange to `ops` as it is applied.  Returns False if
    impossible; `work` is then edited only if `ops` is not empty.

    No exchange can break another target, so none is checked again.
    Targets are disjoint, and an exchange rewrites only the two crystals
    that hold the current target's members.  Any other pair in those two
    crystals holds a member with a non-partner, so it is no target.  Each
    target is checked right after its exchange, and later exchanges never
    touch its crystal.
    """
    index = work.index
    for a, b in targets:
        ia, ib = index[a], index[b]
        if ia == ib:  # the crystal holding both members is their pair
            continue
        if abs(ia - ib) != 1:
            return False
        ops.append(work.exchange(min(ia, ib)))
        if index[a] != index[b]:
            return False
    return True


def _fallback_plan(work: _Arrangement, targets: list[tuple[int, int]]) -> list[ReorderOp]:
    """Per-target bubble routing: split the members out of their pairs,
    bubble the right member (the mover) leftward next to its partner,
    splitting every pair in the way, then orient and combine.

    `targets` come sorted by their lower qubit.  Each target reads its
    members' indices from the exact index once and carries them by
    arithmetic from there: a split at `p` moves every crystal above `p` up
    by one.  A split member that was a pair's right qubit moves up too,
    while the qubit it leaves behind stays put; so no qubit below the
    combine's index has moved, and the index is rebuilt from there.

    The bubble, the orientation and the combine are one rewrite of the
    segment from the partner to the mover: a single in the way costs one
    exchange, and a pair (x, y) in the way is split and its ions are
    crossed one at a time, so it stays behind the mover as ->x, <-y.  A
    pair a bubble splits may be a target's; `_restore` combines each such
    target that is still split.  No other target needs it, because member
    splits break no target's pair.
    """
    ops: list[ReorderOp] = []
    cs = work.crystals
    index = work.index
    new = tuple.__new__
    broken: list[tuple[int, int]] = []   # qubits of every pair a bubble split
    for a, b in targets:
        ia, ib = index[a], index[b]
        if ia == ib:  # the crystal holding both members is their pair
            continue
        # split each member out of its pair; no such pair is another
        # target's, because targets are disjoint
        qs, _, is_pair = cs[ia]
        if is_pair:
            ops.append(new(ReorderOp, (SPLIT, qs, ia)))
            cs[ia : ia + 1] = (new(Crystal, ((qs[0],), True, False)), new(Crystal, ((qs[1],), False, False)))
            if ib > ia:
                ib += 1
            if qs[0] != a:
                ia += 1
        qs, _, is_pair = cs[ib]
        if is_pair:
            ops.append(new(ReorderOp, (SPLIT, qs, ib)))
            cs[ib : ib + 1] = (new(Crystal, ((qs[0],), True, False)), new(Crystal, ((qs[1],), False, False)))
            if ia > ib:
                ia += 1
            if qs[0] != b:
                ib += 1
        left, mover = (ia, ib) if ia < ib else (ib, ia)
        mq, mover_right, _ = cs[mover]
        segment: list[Crystal] = []   # right to left
        for j in range(mover - 1, left, -1):
            c = cs[j]
            qs = c[0]
            if c[2]:
                x, y = qs
                broken.append(qs)
                ops += (new(ReorderOp, (SPLIT, qs, j)),
                        new(ReorderOp, (PAIR_EXCHANGE, (y,) + mq, j + 1)),
                        new(ReorderOp, (PAIR_EXCHANGE, (x,) + mq, j)))
                segment += (new(Crystal, ((y,), False, False)), new(Crystal, ((x,), True, False)))
            else:
                ops.append(new(ReorderOp, (PAIR_EXCHANGE, qs + mq, j)))
                segment.append(c)
        # orient the partner and the mover as (->, <-) and combine them; a
        # swapped single is combined at once, so it is never stored
        lq, left_right, _ = cs[left]
        if not left_right:
            ops.append(new(ReorderOp, (SWAP, lq, left)))
        if mover_right:
            ops.append(new(ReorderOp, (SWAP, mq, left + 1)))
        ops.append(new(ReorderOp, (COMBINE, lq + mq, left)))
        segment.append(new(Crystal, (lq + mq, True, True)))
        segment.reverse()
        cs[left : mover + 1] = segment
        work.reindex(left)
    if broken:
        _restore(work, targets, broken, ops)
    return ops


def _restore(work: _Arrangement, targets: list[tuple[int, int]],
             broken: list[tuple[int, int]], ops: list[ReorderOp]) -> None:
    """Combine again each target pair in `broken` that is still split, in
    order of its lower qubit, with one COMBINE at its left ion's crystal.

    No swap is needed.  A crossing leaves the pair (x, y) as the adjacent
    singles ->x, <-y.  A later bubble crosses both or neither, since
    neither ion belongs to another target, and crossing a single keeps its
    order and facing.  So y sits right of x, which the one check asserts.
    """
    partner = {}
    for a, b in targets:
        partner[a] = b
        partner[b] = a
    split = {min(x, y): (x, y) for x, y in broken if partner.get(x) == y}
    cs = work.crystals
    index = work.index
    for low in sorted(split):
        x, y = split[low]
        ix, iy = index[x], index[y]
        if ix == iy:   # its own turn combined it after the split
            continue
        if iy != ix + 1:  # pragma: no cover - crossings keep them adjacent
            raise AssertionError("split target pair drifted apart")
        ops.append(ReorderOp(COMBINE, (x, y), ix))
        cs[ix : ix + 2] = [Crystal((x, y))]
        work.reindex(ix)


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
    _check_type("s", s, IonState)
    _check_type("target_pairs", target_pairs, Iterable)
    _check_type("m", m, Machine)
    _check_type("mode", mode, PlanMode)
    targets = _checked_targets(s, target_pairs)
    work = _Arrangement(s)
    ops: list[ReorderOp] = []
    if not _try_boundary_exchanges(work, targets, ops):
        if ops:   # the attempt applied an exchange: start again from `s`
            work = _Arrangement(s)
        ops = _fallback_plan(work, targets)
    plan = _costed(ops, work.frozen(), m)
    paths = m.circulation_paths if mode is PlanMode.CIRCULATION_ALLOWED else ()
    _, path = min([(plan.time_1d, -1), *((plan.charge(m.lap(pid)), pid) for pid, _ in paths)])
    return plan if path == -1 else replace(plan, path_id=path)


def split_all_plan(s: IonState, m: Machine) -> ReorderPlan:
    """Split every pair, left to right, in one walk; each SPLIT's index
    counts the singles the earlier splits made.  The walk that builds the
    crystals builds the final state's index too."""
    _check_type("s", s, IonState)
    _check_type("m", m, Machine)
    ops = []
    crystals: list[Crystal] = []
    index: dict[int, int] = {}
    new = tuple.__new__
    for c in s.crystals:
        qs = c[0]
        i = len(crystals)
        if c[2]:
            a, b = qs
            ops.append(new(ReorderOp, (SPLIT, qs, i)))
            crystals += (new(Crystal, ((a,), True, False)), new(Crystal, ((b,), False, False)))
            index[a] = i
            index[b] = i + 1
        else:
            crystals.append(c)
            index[qs[0]] = i
    return _costed(ops, IonState._indexed(tuple(crystals), index), m)
