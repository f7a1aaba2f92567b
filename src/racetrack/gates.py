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

    @property
    def n_qubits(self) -> int:
        return 2 if self in _TWO_QUBIT else 1

    @property
    def n_params(self) -> int:
        return _N_PARAMS.get(self, 0)

    @property
    def is_native(self) -> bool:
        return self in _NATIVE

    @property
    def is_abstract(self) -> bool:
        return self in _ABSTRACT


_TWO_QUBIT = frozenset({GateType.ZZ, GateType.RZZ, GateType.RXXYYZZ, GateType.CX})
_NATIVE = frozenset({GateType.U1Q, GateType.RZ, GateType.ZZ, GateType.RZZ, GateType.RXXYYZZ})
_ABSTRACT = frozenset({GateType.H, GateType.X, GateType.RX, GateType.CX})
_N_PARAMS = {
    GateType.U1Q: 2,
    GateType.RZ: 1,
    GateType.RZZ: 1,
    GateType.RXXYYZZ: 3,
    GateType.RX: 1,
}


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
        qubits = tuple(self.qubits)
        if len(qubits) != self.kind.n_qubits:
            raise ValueError(
                f"{self.kind.value} takes {self.kind.n_qubits} qubit(s), got {qubits}"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit in {self.kind.value} gate: {qubits}")
        if any(q < 0 for q in qubits):
            raise ValueError(f"negative qubit index: {qubits}")
        if len(self.params) != self.kind.n_params:
            raise ValueError(
                f"{self.kind.value} takes {self.kind.n_params} param(s), got {self.params}"
            )
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "is_2q", len(qubits) == 2)
        object.__setattr__(self, "is_1q", len(qubits) == 1)
        object.__setattr__(
            self, "params", tuple(canonical_angle(p) for p in self.params)
        )

    @property
    def is_rotation_1q(self) -> bool:
        """True for gates the machine fires as a single-qubit laser pulse."""
        return self.is_1q and self.kind not in (GateType.MEASURE, GateType.INIT)

    def same_kind(self, other: "Gate") -> bool:
        """Batching equivalence: same tag, parameters are per-pair settings."""
        return self.kind is other.kind

    def __repr__(self):
        qs = " ".join(f"q{q}" for q in self.qubits)
        if self.params:
            ps = ",".join(repr(p) for p in self.params)
            return f"Gate({self.id}: {self.kind.value} {qs} {ps})"
        return f"Gate({self.id}: {self.kind.value} {qs})"
