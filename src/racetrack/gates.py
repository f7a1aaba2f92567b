"""Gate-level IR: gate kinds, single gates, and angle canonicalization.

The native set of the racetrack machine is U1q/Rz/ZZ/RZZ/Rxxyyzz.  H, X, RX
and CX are accepted as abstract input kinds and are removed by translation.
Measure and Init are representable as 1Q gates so they can be scheduled and
pipelined like any other operation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-12


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
        self.is_native: bool = value in ("U1q", "Rz", "ZZ", "RZZ", "Rxxyyzz")
        self.is_abstract: bool = value in ("H", "X", "RX", "CX")


def canonical_angle(theta: float) -> float:
    """Reduce an angle into (-2*pi, 2*pi], the canonical range for rotations.

    Rotation gates have a 4*pi period up to global phase, so reduction is
    modulo 4*pi.  The boundary -2*pi maps to +2*pi.
    """
    if not math.isfinite(theta):
        raise ValueError(f"gate angle must be finite, got {theta!r}")
    r = math.remainder(theta, 2.0 * TWO_PI)
    if r <= -TWO_PI:
        r += 2.0 * TWO_PI
    return r


def angles_close(a: float, b: float, tol: float = ANGLE_TOL) -> bool:
    """Equality on canonical angles, treating the +/-2*pi seam as equal."""
    d = abs(canonical_angle(a) - canonical_angle(b))
    return d <= tol or abs(d - 2.0 * TWO_PI) <= tol


@dataclass(frozen=True)
class Gate:
    """One gate instance: unique id, kind, qubits, canonicalized params.

    `source` tracks the depth layer of the pre-translation gate this one
    came from; batch formation keeps ops from different source layers in
    different zone batches.  It is bookkeeping, not circuit semantics.
    """

    id: int
    kind: GateType
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default=())
    source: int = field(default=-1, compare=False, repr=False)
    # arity flags, derived from `kind` once: the pipeline reads them per gate
    is_2q: bool = field(init=False, compare=False, repr=False)
    is_1q: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kind = self.kind
        qubits = tuple(self.qubits)
        n = len(qubits)
        if n != kind.n_qubits:
            raise ValueError(
                f"{kind.value} takes {kind.n_qubits} qubit(s), got {qubits}"
            )
        # every kind acts on one or two qubits, and n is that count here
        if n == 2 and qubits[0] == qubits[1]:
            raise ValueError(f"duplicate qubit in {kind.value} gate: {qubits}")
        if qubits[0] < 0 or qubits[-1] < 0:
            raise ValueError(f"negative qubit index: {qubits}")
        if len(self.params) != kind.n_params:
            raise ValueError(
                f"{kind.value} takes {kind.n_params} param(s), got {self.params}"
            )
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "is_2q", n == 2)
        object.__setattr__(self, "is_1q", n == 1)
        object.__setattr__(
            self, "params", tuple(canonical_angle(p) for p in self.params)
        )

    def __repr__(self):
        qs = " ".join(f"q{q}" for q in self.qubits)
        if self.params:
            ps = ",".join(repr(p) for p in self.params)
            return f"Gate({self.id}: {self.kind.value} {qs} {ps})"
        return f"Gate({self.id}: {self.kind.value} {qs})"
