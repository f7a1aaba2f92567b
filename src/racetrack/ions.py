"""Ion arrangement state and the reorder primitives.

A qubit is one Yb-Ba crystal; it faces right (Yb-Ba) or left (Ba-Yb).
Two adjacent crystals facing (right, left) can combine into the
Yb-Ba-Ba-Yb form required by 2Q gates.  The arrangement is an ordered
cyclic sequence of crystals; reorder primitives mutate it at fixed
hardware time costs.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .machine import TimingParams

# Fidelity accounting: ions crossing a crystal boundary during an exchange.
TRANSPORTS_PER_EXCHANGE = 2
# Fidelity accounting: ion transports of one pair riding a circulation.
TRANSPORTS_PER_CIRCULATING_PAIR = 2


class ReorderTag(Enum):
    SPLIT = "split"
    COMBINE = "combine"
    SWAP = "swap"
    INTRA_SHIFT = "intrazone"
    INTER_SHIFT = "interzone"
    PAIR_EXCHANGE = "exchange"


# Reading a member off the Enum class is slow next to a module global, and
# the primitives below run once per planned op.
SPLIT = ReorderTag.SPLIT
COMBINE = ReorderTag.COMBINE
SWAP = ReorderTag.SWAP
PAIR_EXCHANGE = ReorderTag.PAIR_EXCHANGE


@dataclass(frozen=True)
class Crystal:
    """One or two qubits; pairs read (left, right) = (Yb-Ba, Ba-Yb)."""

    qubits: tuple[int, ...]
    facing_right: bool = True  # orientation of a single; pairs are fixed

    @property
    def is_pair(self) -> bool:
        return len(self.qubits) == 2

    def __repr__(self):
        if self.is_pair:
            return f"(->{self.qubits[0]},<-{self.qubits[1]})"
        return f"{'->' if self.facing_right else '<-'}{self.qubits[0]}"


class ReorderOp(NamedTuple):
    # a named tuple, not a frozen dataclass: plans hold ~10^5 of them per
    # deep circuit, and a tuple is built at about half the cost
    tag: ReorderTag
    operands: tuple[int, ...] = ()  # affected qubit ids (informational)
    index: int = 0                  # crystal index the op acts at
    zone: int | None = None


@dataclass(frozen=True)
class IonState:
    crystals: tuple[Crystal, ...]
    position: float = 0.0  # arc offset of the sequence head, um
    # qubit -> index of its crystal, built once when the state is frozen
    crystal_index: Mapping[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index: dict[int, int] = {}
        for i, c in enumerate(self.crystals):
            for q in c.qubits:
                if q in index:
                    raise ValueError(f"qubit {q} appears twice in arrangement")
                index[q] = i
        object.__setattr__(self, "crystal_index", MappingProxyType(index))

    def __reduce__(self):
        # a mapping proxy cannot be pickled or deep-copied; rebuild the index
        return IonState, (self.crystals, self.position)

    @staticmethod
    def initial_pairs(n: int) -> "IonState":
        """(->0,<-1)(->2,<-3)... with an odd trailing single facing left."""
        crystals = [Crystal((i, i + 1)) for i in range(0, n - 1, 2)]
        if n % 2:
            crystals.append(Crystal((n - 1,), facing_right=False))
        return IonState(tuple(crystals))

    def qubit_order(self) -> list[int]:
        return [q for c in self.crystals for q in c.qubits]

    def qubits(self) -> set[int]:
        return set(self.crystal_index)

    def crystal_of(self, qubit: int) -> int:
        try:
            return self.crystal_index[qubit]
        except KeyError:
            raise KeyError(f"qubit {qubit} not in arrangement") from None

    def paired(self, a: int, b: int) -> bool:
        i = self.crystal_of(a)
        c = self.crystals[i]
        return c.is_pair and set(c.qubits) == {a, b}

    def pairs(self) -> list[tuple[int, int]]:
        return [c.qubits for c in self.crystals if c.is_pair]


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def reorder_in_place(cs: list[Crystal], op: ReorderOp, t: TimingParams = TimingParams()) -> float:
    """Apply one crystal-changing primitive (split, combine, swap, exchange)
    to the crystal list `cs` in place; returns its cost.  Every check runs
    before `cs` is touched, so a rejected op leaves it unchanged."""
    i = op.index
    tag = op.tag
    if tag is SPLIT:
        _require(0 <= i < len(cs) and cs[i].is_pair, "split needs a pair")
        a, b = cs[i].qubits
        cs[i : i + 1] = [Crystal((a,), True), Crystal((b,), False)]
        return t.split_or_combine
    if tag is COMBINE:
        _require(i + 1 < len(cs), "combine needs two crystals")
        left, right = cs[i], cs[i + 1]
        _require(not left.is_pair and not right.is_pair, "combine needs singles")
        _require(
            left.facing_right and not right.facing_right,
            "combine needs (->, <-) orientations for the Yb-Ba-Ba-Yb form",
        )
        cs[i : i + 2] = [Crystal((left.qubits[0], right.qubits[0]))]
        return t.split_or_combine
    if tag is SWAP:
        _require(0 <= i < len(cs), "swap index out of range")
        c = cs[i]
        if c.is_pair:
            cs[i] = Crystal((c.qubits[1], c.qubits[0]))
        else:
            cs[i] = Crystal(c.qubits, not c.facing_right)
        return t.swap
    if tag is PAIR_EXCHANGE:
        _require(i + 1 < len(cs), "exchange needs two adjacent crystals")
        a, b = cs[i], cs[i + 1]
        if a.is_pair:
            if b.is_pair:
                # inner-ion exchange: (->a0,<-a1)(->b0,<-b1) -> (->a0,<-b0)(->a1,<-b1)
                cs[i] = Crystal((a.qubits[0], b.qubits[0]))
                cs[i + 1] = Crystal((a.qubits[1], b.qubits[1]))
            else:
                # the pair's right ion trades places with the neighbor single
                cs[i] = Crystal((a.qubits[0], b.qubits[0]))
                cs[i + 1] = Crystal((a.qubits[1],), facing_right=b.facing_right)
        elif b.is_pair:
            cs[i] = Crystal((b.qubits[0],), facing_right=a.facing_right)
            cs[i + 1] = Crystal((a.qubits[0], b.qubits[1]))
        else:
            cs[i], cs[i + 1] = b, a
        return t.pair_exchange
    raise ValueError(f"reorder op {tag} does not change crystals")


def bubble_left_in_place(cs: list[Crystal], left: int, mover: int) -> list[ReorderOp]:
    """Bubble the single at `mover` leftward until it sits at `left + 1`,
    in place; returns the ops that does, one SPLIT or PAIR_EXCHANGE each.

    A single in the way costs one exchange.  A pair (a, b) in the way is
    split and its ions are crossed one at a time, so it stays behind the
    mover as the singles ->a, <-b.  The ops are those `reorder_in_place`
    would apply one by one, and under the bounds checked here each of its
    checks holds; the crossed segment is rewritten with one slice instead.
    """
    _require(0 <= left < mover < len(cs), "bubble needs 0 <= left < mover < len(crystals)")
    moving = cs[mover]
    _require(not moving.is_pair, "bubble needs a single to move")
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


def apply_reorder(s: IonState, op: ReorderOp, t: TimingParams = TimingParams()) -> tuple[IonState, float]:
    """Apply one primitive; returns the mutated arrangement and its cost."""
    if op.tag is ReorderTag.INTRA_SHIFT:
        return replace(s, position=s.position + t.zone_gap / 2), t.intra_zone_shift
    if op.tag is ReorderTag.INTER_SHIFT:
        return replace(s, position=s.position + t.zone_gap), t.inter_zone_shift
    cs = list(s.crystals)
    dt = reorder_in_place(cs, op, t)
    return replace(s, crystals=tuple(cs)), dt


@lru_cache(maxsize=16)
def reorder_durations(t: TimingParams) -> Mapping[str, float]:
    """The duration of every reorder primitive under `t`, keyed by tag
    value: the one duration table.  Keys are values, not members, because
    hashing a member runs the Python-level `Enum.__hash__`."""
    return MappingProxyType({
        SPLIT.value: t.split_or_combine,
        COMBINE.value: t.split_or_combine,
        SWAP.value: t.swap,
        ReorderTag.INTRA_SHIFT.value: t.intra_zone_shift,
        ReorderTag.INTER_SHIFT.value: t.inter_zone_shift,
        PAIR_EXCHANGE.value: t.pair_exchange,
    })
