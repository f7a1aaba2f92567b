"""Ion arrangement state and the reorder primitives.

A qubit is one Yb-Ba crystal; it faces right (Yb-Ba) or left (Ba-Yb).
Two adjacent crystals facing (right, left) can combine into the
Yb-Ba-Ba-Yb form required by 2Q gates.  The arrangement is an ordered
cyclic sequence of crystals; reorder primitives mutate it at fixed
hardware time costs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .machine import TimingParams

# Fidelity accounting: ions crossing a crystal boundary during an exchange.
TRANSPORTS_PER_EXCHANGE = 2


class ReorderTag(Enum):
    SPLIT = "split"
    COMBINE = "combine"
    SWAP = "swap"
    INTRA_SHIFT = "intrazone"
    INTER_SHIFT = "interzone"
    PAIR_EXCHANGE = "exchange"


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


@dataclass(frozen=True)
class ReorderOp:
    tag: ReorderTag
    operands: tuple[int, ...] = ()  # affected qubit ids (informational)
    index: int = 0                  # crystal index the op acts at
    zone: int | None = None


@dataclass(frozen=True)
class IonState:
    crystals: tuple[Crystal, ...]
    position: float = 0.0  # arc offset of the sequence head, um

    def __post_init__(self):
        seen: set[int] = set()
        for c in self.crystals:
            for q in c.qubits:
                if q in seen:
                    raise ValueError(f"qubit {q} appears twice in arrangement")
                seen.add(q)

    @staticmethod
    def initial_pairs(n: int) -> "IonState":
        """(->0,<-1)(->2,<-3)... with an odd trailing single facing left."""
        crystals = [Crystal((i, i + 1)) for i in range(0, n - 1, 2)]
        if n % 2:
            crystals.append(Crystal((n - 1,), facing_right=False))
        return IonState(tuple(crystals))

    @staticmethod
    def initial_singles(n: int) -> "IonState":
        """Alternating orientations so neighbors can combine without flips."""
        return IonState(tuple(Crystal((q,), facing_right=(q % 2 == 0)) for q in range(n)))

    def qubit_order(self) -> list[int]:
        return [q for c in self.crystals for q in c.qubits]

    def qubits(self) -> set[int]:
        return set(self.qubit_order())

    def crystal_of(self, qubit: int) -> int:
        for i, c in enumerate(self.crystals):
            if qubit in c.qubits:
                return i
        raise KeyError(f"qubit {qubit} not in arrangement")

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
    if tag is ReorderTag.SPLIT:
        _require(0 <= i < len(cs) and cs[i].is_pair, "split needs a pair")
        a, b = cs[i].qubits
        cs[i : i + 1] = [Crystal((a,), True), Crystal((b,), False)]
        return t.split_or_combine
    if tag is ReorderTag.COMBINE:
        _require(i + 1 < len(cs), "combine needs two crystals")
        left, right = cs[i], cs[i + 1]
        _require(not left.is_pair and not right.is_pair, "combine needs singles")
        _require(
            left.facing_right and not right.facing_right,
            "combine needs (->, <-) orientations for the Yb-Ba-Ba-Yb form",
        )
        cs[i : i + 2] = [Crystal((left.qubits[0], right.qubits[0]))]
        return t.split_or_combine
    if tag is ReorderTag.SWAP:
        _require(0 <= i < len(cs), "swap index out of range")
        c = cs[i]
        if c.is_pair:
            cs[i] = Crystal((c.qubits[1], c.qubits[0]))
        else:
            cs[i] = Crystal(c.qubits, not c.facing_right)
        return t.swap
    if tag is ReorderTag.PAIR_EXCHANGE:
        _require(i + 1 < len(cs), "exchange needs two adjacent crystals")
        a, b = cs[i], cs[i + 1]
        if a.is_pair and b.is_pair:
            # inner-ion exchange: (->a0,<-a1)(->b0,<-b1) -> (->a0,<-b0)(->a1,<-b1)
            cs[i] = Crystal((a.qubits[0], b.qubits[0]))
            cs[i + 1] = Crystal((a.qubits[1], b.qubits[1]))
        elif a.is_pair and not b.is_pair:
            # the pair's right ion trades places with the neighbor single
            cs[i] = Crystal((a.qubits[0], b.qubits[0]))
            cs[i + 1] = Crystal((a.qubits[1],), facing_right=b.facing_right)
        elif not a.is_pair and b.is_pair:
            cs[i] = Crystal((b.qubits[0],), facing_right=a.facing_right)
            cs[i + 1] = Crystal((a.qubits[0], b.qubits[1]))
        else:
            cs[i], cs[i + 1] = b, a
        return t.pair_exchange
    raise ValueError(f"reorder op {tag} does not change crystals")


def apply_reorder(s: IonState, op: ReorderOp, t: TimingParams = TimingParams()) -> tuple[IonState, float]:
    """Apply one primitive; returns the mutated arrangement and its cost."""
    if op.tag is ReorderTag.INTRA_SHIFT:
        return replace(s, position=s.position + t.zone_gap / 2), t.intra_zone_shift
    if op.tag is ReorderTag.INTER_SHIFT:
        return replace(s, position=s.position + t.zone_gap), t.inter_zone_shift
    cs = list(s.crystals)
    dt = reorder_in_place(cs, op, t)
    return replace(s, crystals=tuple(cs)), dt


def apply_plan(s: IonState, plan: list[ReorderOp], t: TimingParams = TimingParams()) -> tuple[IonState, float]:
    total = 0.0
    for op in plan:
        s, dt = apply_reorder(s, op, t)
        total += dt
    return s, total


def reorder_time(counts: dict[str, int], t: TimingParams = TimingParams()) -> float:
    """Total reordering time for op counts keyed by ReorderTag values."""
    cost = {
        ReorderTag.SPLIT.value: t.split_or_combine,
        ReorderTag.COMBINE.value: t.split_or_combine,
        ReorderTag.SWAP.value: t.swap,
        ReorderTag.INTRA_SHIFT.value: t.intra_zone_shift,
        ReorderTag.INTER_SHIFT.value: t.inter_zone_shift,
        ReorderTag.PAIR_EXCHANGE.value: t.pair_exchange,
    }
    total = 0.0
    for name, n in counts.items():
        if name not in cost:
            raise ValueError(f"unknown reorder op {name!r}")
        if n < 0:
            raise ValueError("op counts must be non-negative")
        total += n * cost[name]
    return total
