"""Oracles used only by the test suite.

An independent dense-matrix statevector oracle: gate matrices are written
out from their defining exponentials, not taken from the package (which
contains no unitaries at all), so equivalence checks are meaningful.

A reorder replay: `apply_plan` runs a plan's ops one at a time through the
immutable primitive `ions.apply_reorder`, and `reorder_time` totals op
counts through the package's one duration table.
"""
from __future__ import annotations

import numpy as np

from racetrack.circuit import Circuit
from racetrack.gates import Gate, GateType
from racetrack.ions import IonState, ReorderOp, apply_reorder, reorder_durations
from racetrack.machine import TimingParams

_SQ2 = 1.0 / np.sqrt(2.0)


def u1q(theta: float, phi: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [[c, -1j * np.exp(-1j * phi) * s], [-1j * np.exp(1j * phi) * s, c]],
        dtype=complex,
    )


def rz(lam: float) -> np.ndarray:
    return np.array([[np.exp(-1j * lam / 2), 0], [0, np.exp(1j * lam / 2)]], dtype=complex)


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rzz(theta: float) -> np.ndarray:
    e_m, e_p = np.exp(-1j * theta / 2), np.exp(1j * theta / 2)
    return np.diag([e_m, e_p, e_p, e_m]).astype(complex)


def rxxyyzz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    H2 = alpha * np.kron(X, X) + beta * np.kron(Y, Y) + gamma * np.kron(Z, Z)
    vals, vecs = np.linalg.eigh(H2)
    return (vecs * np.exp(-0.5j * vals)) @ vecs.conj().T


H_MAT = _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
CX_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def gate_matrix(g: Gate) -> np.ndarray:
    k = g.kind
    if k is GateType.U1Q:
        return u1q(*g.params)
    if k is GateType.RZ:
        return rz(g.params[0])
    if k is GateType.ZZ:
        return rzz(np.pi / 2)
    if k is GateType.RZZ:
        return rzz(g.params[0])
    if k is GateType.RXXYYZZ:
        return rxxyyzz(*g.params)
    if k is GateType.H:
        return H_MAT
    if k is GateType.X:
        return X_MAT
    if k is GateType.RX:
        return rx(g.params[0])
    if k is GateType.CX:
        return CX_MAT
    raise ValueError(f"no unitary for {k}")


def _apply(state: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    state = state.reshape([2] * n)
    k = len(qubits)
    mat = mat.reshape([2] * (2 * k))
    state = np.tensordot(mat, state, axes=(list(range(k, 2 * k)), list(qubits)))
    rest = [q for q in range(n) if q not in qubits]
    perm = [0] * n
    for i, q in enumerate(qubits):
        perm[q] = i
    for i, q in enumerate(rest):
        perm[q] = k + i
    return np.transpose(state, perm).reshape(-1)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full unitary; skips Measure/Init (treated as identity for checks)."""
    n = c.width
    dim = 2**n
    U = np.eye(dim, dtype=complex)
    for g in c.gates:
        if g.kind in (GateType.MEASURE, GateType.INIT):
            continue
        mat = gate_matrix(g)
        for col in range(dim):
            U[:, col] = _apply(U[:, col].copy(), mat, g.qubits, n)
    return U


def statevector(c: Circuit) -> np.ndarray:
    n = c.width
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for g in c.gates:
        if g.kind in (GateType.MEASURE, GateType.INIT):
            continue
        state = _apply(state, gate_matrix(g), g.qubits, n)
    return state


def phase_aligned_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Max entrywise deviation after aligning global phase."""
    tr = np.trace(U.conj().T @ V)
    if abs(tr) < 1e-12:
        return float(np.abs(U - V).max())
    phase = tr / abs(tr)
    return float(np.abs(U - V / phase).max())


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    return abs(abs(np.vdot(a, b)) - 1.0) < tol


def pauli_expectation(state: np.ndarray, pauli: str) -> float:
    """<state| P |state> for a Pauli string over all qubits, e.g. 'XIXZ'."""
    n = int(np.log2(state.size))
    assert len(pauli) == n
    mats = {
        "I": np.eye(2, dtype=complex),
        "X": X_MAT,
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    psi = state.copy()
    for q, p in enumerate(pauli):
        if p != "I":
            psi = _apply(psi, mats[p], (q,), n)
    return float(np.real(np.vdot(state, psi)))


def apply_plan(s: IonState, plan: list[ReorderOp], t: TimingParams = TimingParams()) -> tuple[IonState, float]:
    """Replay `plan` from `s`; returns the final arrangement and the ops' summed cost."""
    total = 0.0
    for op in plan:
        s, dt = apply_reorder(s, op, t)
        total += dt
    return s, total


def reorder_time(counts: dict[str, int], t: TimingParams = TimingParams()) -> float:
    """Total reordering time for op counts keyed by ReorderTag values."""
    cost = reorder_durations(t)
    total = 0.0
    for name, n in counts.items():
        if name not in cost:
            raise ValueError(f"unknown reorder op {name!r}")
        if n < 0:
            raise ValueError("op counts must be non-negative")
        total += n * cost[name]
    return total
