"""Gate-level IR: gate kinds, single gates, and angle canonicalization.

The native set of the racetrack machine is U1q/Rz/ZZ/RZZ/Rxxyyzz.  H, X, RX
and CX are accepted as abstract input kinds and are removed by translation.
Measure and Init are representable as 1Q gates so they can be scheduled and
pipelined like any other operation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from numbers import Integral

TWO_PI = 2.0 * math.pi


class GateType(Enum):
    # native
    U1Q = "U1q"
    RZ = "Rz"
    ZZ = "ZZ"
    RZZ = "RZZ"
    RXXYYZZ = "Rxxyyzz"
    # abstract (must be absent after translation)
    H = "H"
    X = "X"
    RX = "RX"
    CX = "CX"
    # state prep / readout
    MEASURE = "Measure"
    INIT = "Init"

    # Plain member attributes, set once per kind: a frozenset or dict
    # keyed by the member would run the Python-level Enum.__hash__ per read.
    def __init__(self, value: str):
        self.n_qubits: int = 2 if value in ("ZZ", "RZZ", "Rxxyyzz", "CX") else 1
        self.n_params: int = {"U1q": 2, "Rz": 1, "RZZ": 1, "Rxxyyzz": 3, "RX": 1}.get(value, 0)
        self.is_abstract: bool = value in ("H", "X", "RX", "CX")


def is_qubit(q) -> bool:
    """An integer and not a bool, which hashes like qubit 0 or 1.  The
    test of the type comes first: the abstract `Integral` check costs
    about 40 times as much."""
    return type(q) is int or (isinstance(q, Integral) and not isinstance(q, bool))


def canonical_angle(theta: float) -> float:
    """Reduce an angle into (-2*pi, 2*pi], the canonical range for rotations.

    Rotation gates have a 4*pi period up to global phase, so reduction is
    modulo 4*pi.  The boundary -2*pi maps to +2*pi.  A float already in
    range is returned as it is: `math.remainder` would return it exactly.
    """
    if theta.__class__ is float and -TWO_PI < theta <= TWO_PI:
        return theta
    if not math.isfinite(theta):
        raise ValueError(f"gate angle must be finite, got {theta!r}")
    r = math.remainder(theta, 2.0 * TWO_PI)
    if r <= -TWO_PI:
        r += 2.0 * TWO_PI
    return r


@dataclass(frozen=True, init=False, slots=True)
class Gate:
    """One gate instance: unique id, kind, qubits, canonicalized params.

    `source` tracks the depth layer of the pre-translation gate this one
    came from; batch formation keeps ops from different source layers in
    different zone batches.  It is bookkeeping, not circuit semantics.

    Every workload and translation builds gates, so `__init__` is written
    by hand and the instance is slotted (no `__dict__`): it runs the checks
    (arity, integer qubits, duplicate qubit, negative qubit, param count,
    in that order) and sets each slot once, through the slot descriptors.
    """

    id: int
    kind: GateType
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    source: int = field(default=-1, compare=False, repr=False)
    # arity flags, derived from `kind` once: the pipeline reads them per gate
    is_2q: bool = field(init=False, compare=False, repr=False)
    is_1q: bool = field(init=False, compare=False, repr=False)

    def __init__(self, id: int, kind: GateType, qubits: tuple[int, ...],
                 params: tuple[float, ...] = (), source: int = -1):
        qubits = tuple(qubits)
        n = len(qubits)
        if n != kind.n_qubits:
            raise ValueError(
                f"{kind.value} takes {kind.n_qubits} qubit(s), got {qubits}"
            )
        # every kind acts on one or two qubits, and n is that count here;
        # the test of the type is the fast path of `is_qubit`
        if ((type(qubits[0]) is not int or type(qubits[-1]) is not int)
                and not (is_qubit(qubits[0]) and is_qubit(qubits[-1]))):
            raise ValueError(f"{kind.value} gate {id} takes integer qubits, got {qubits}")
        if n == 2 and qubits[0] == qubits[1]:
            raise ValueError(f"duplicate qubit in {kind.value} gate: {qubits}")
        if qubits[0] < 0 or qubits[-1] < 0:
            raise ValueError(f"negative qubit index: {qubits}")
        if len(params) != kind.n_params:
            raise ValueError(
                f"{kind.value} takes {kind.n_params} param(s), got {params}"
            )
        _set_id(self, id)
        _set_kind(self, kind)
        _set_qubits(self, qubits)
        _set_params(self, tuple(map(canonical_angle, params)) if kind.n_params else ())
        _set_source(self, source)
        _set_is_2q(self, n == 2)
        _set_is_1q(self, n == 1)

    def __repr__(self):
        qs = " ".join(f"q{q}" for q in self.qubits)
        if self.params:
            ps = ",".join(repr(p) for p in self.params)
            return f"Gate({self.id}: {self.kind.value} {qs} {ps})"
        return f"Gate({self.id}: {self.kind.value} {qs})"


# The frozen class's `__setattr__` raises: `__init__` sets each slot by its
# descriptor's `__set__`, about half the cost of `object.__setattr__`.
_set_id, _set_kind, _set_qubits, _set_params, _set_source, _set_is_2q, _set_is_1q = (
    Gate.__dict__[f.name].__set__ for f in fields(Gate))
