"""Benchmark circuit generators.

Families: balanced-tree Z-phase gadgets (Ladder / Fountain / Parallel /
Parallel+RZZ), QAOA over path / 2-regular / power-law / Sherrington-
Kirkpatrick graphs, hardware-efficient VQE ansaetze, GHZ fan-out trees,
Steane-code block encoders, 7-to-1 magic-state distillation, and
quantum Reed-Muller ([[n, n-2, 2]]) encoders.

Every generator is a pure function of its arguments; the power-law graph
uses a seeded 64-bit linear congruential generator (Knuth's MMIX
constants) so outputs are platform-independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .circuit import Circuit, build_dag
from .gates import Gate, GateType

PI = math.pi


# ---------------------------------------------------------------------------
# deterministic PRNG for graph construction

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator, top-bits output."""

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _LCG_MASK

    def next_u64(self) -> int:
        self.state = (_LCG_A * self.state + _LCG_C) & _LCG_MASK
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)


# ---------------------------------------------------------------------------
# graphs

class GraphKind(Enum):
    PATH = "path"
    REGULAR2 = "regular2"
    POWERLAW = "powerlaw"
    SK = "sk"


@dataclass(frozen=True)
class GraphSpec:
    kind: GraphKind
    n: int
    exponent: float = 1.0
    seed: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("graph needs at least 2 nodes")

    def edges(self) -> list[tuple[int, int]]:
        """Edge list in the family's natural emission order."""
        n = self.n
        if self.kind is GraphKind.PATH:
            return [(i, i + 1) for i in range(n - 1)]
        if self.kind is GraphKind.REGULAR2:
            # the n-cycle, presented as its matching decomposition
            evens = [(i, i + 1) for i in range(0, n - 1, 2)]
            odds = [(i, i + 1) for i in range(1, n - 1, 2)]
            closure = [(n - 1, 0)] if n > 2 else []
            return evens + odds + closure
        if self.kind is GraphKind.POWERLAW:
            return self._powerlaw_edges()
        if self.kind is GraphKind.SK:
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        raise ValueError(self.kind)

    def _powerlaw_edges(self) -> list[tuple[int, int]]:
        # Preferential attachment, one edge per new node; attachment
        # probability proportional to (degree + 1) ** exponent.
        rng = Lcg(self.seed)
        deg = [0] * self.n
        edges: list[tuple[int, int]] = []
        for v in range(1, self.n):
            weights = [(deg[u] + 1.0) ** self.exponent for u in range(v)]
            total = sum(weights)
            r = rng.uniform() * total
            acc = 0.0
            target = v - 1
            for u, w in enumerate(weights):
                acc += w
                if r < acc:
                    target = u
                    break
            edges.append((target, v))
            deg[target] += 1
            deg[v] += 1
        return edges


def swap_network_rounds(n: int) -> list[list[tuple[int, int]]]:
    """Odd-even transposition network: per round, the logical pairs meeting
    at adjacent positions.  Every unordered pair appears exactly once over
    the n rounds; interacting pairs swap positions after each round."""
    pos = list(range(n))
    rounds: list[list[tuple[int, int]]] = []
    seen: set[tuple[int, int]] = set()
    r = 0
    while len(seen) < n * (n - 1) // 2:
        start = r % 2
        round_pairs: list[tuple[int, int]] = []
        for i in range(start, n - 1, 2):
            a, b = pos[i], pos[i + 1]
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                round_pairs.append((a, b))
                pos[i], pos[i + 1] = pos[i + 1], pos[i]
        rounds.append(round_pairs)
        r += 1
    return [rp for rp in rounds if rp]


# ---------------------------------------------------------------------------
# phase gadgets

class GadgetVariant(Enum):
    LADDER = "ladder"
    FOUNTAIN = "fountain"
    PARALLEL = "parallel"
    PARALLEL_RZZ = "parallel_rzz"


def _parallel_tree_layers(n: int) -> tuple[list[list[tuple[int, int]]], int]:
    """CX layers of the balanced tree as (control, target) pairs, plus the
    final active qubit.  Direction alternates on a k-mod-4 rhythm; the next
    active set is the targets of the current step (odd leftovers carry)."""
    active = list(range(n))
    layers: list[list[tuple[int, int]]] = []
    k = 0
    while len(active) > 1:
        layer: list[tuple[int, int]] = []
        nxt: list[int] = []
        for j in range(len(active) // 2):
            a, b = active[2 * j], active[2 * j + 1]
            if k % 4 <= 1:
                layer.append((b, a))  # control at odd position, target even
                nxt.append(a)
            else:
                layer.append((a, b))
                nxt.append(b)
        if len(active) % 2 == 1:
            nxt.append(active[-1])
        layers.append(layer)
        active = nxt
        k += 1
    return layers, active[0]


def gen_phase_gadget(n: int, alpha: float, variant: GadgetVariant) -> Circuit:
    """exp(-i alpha/2 Z x ... x Z) over n qubits in the requested shape."""
    gates: list[Gate] = []
    emit = lambda kind, qs, ps=(): gates.append(Gate(len(gates), kind, qs, ps))
    if n < 2:
        raise ValueError("phase gadget needs n >= 2")

    if variant is GadgetVariant.LADDER:
        chain = [(i, i + 1) for i in range(n - 1)]
        for c, t in chain:
            emit(GateType.CX, (c, t))
        emit(GateType.RZ, (n - 1,), (alpha,))
        for c, t in reversed(chain):
            emit(GateType.CX, (c, t))
    elif variant is GadgetVariant.FOUNTAIN:
        hub = n - 1
        for i in range(n - 1):
            emit(GateType.CX, (i, hub))
        emit(GateType.RZ, (hub,), (alpha,))
        for i in reversed(range(n - 1)):
            emit(GateType.CX, (i, hub))
    else:
        layers, final = _parallel_tree_layers(n)
        fuse = variant is GadgetVariant.PARALLEL_RZZ and layers[-1]
        body = layers[:-1] if fuse else layers
        for layer in body:
            for c, t in layer:
                emit(GateType.CX, (c, t))
        if fuse:
            c, t = layers[-1][0]
            emit(GateType.RZZ, (t, c), (alpha,))
        else:
            emit(GateType.RZ, (final,), (alpha,))
        for layer in reversed(body):
            for c, t in reversed(layer):
                emit(GateType.CX, (c, t))
    return build_dag(gates, n)


# ---------------------------------------------------------------------------
# QAOA / VQE

def gen_qaoa(graph: GraphSpec, layers: int = 1) -> Circuit:
    """H wall, then per layer: RZZ(gamma_p) per edge and RX(beta_p) per
    qubit.  SK graphs route through the fermionic swap network so every
    interaction lands on position-adjacent qubits.  Angles are fixed
    placeholders 0.1*p; timing and fidelity do not depend on them."""
    if layers < 1:
        raise ValueError("need at least one QAOA layer")
    n = graph.n
    gates: list[Gate] = []
    emit = lambda kind, qs, ps=(): gates.append(Gate(len(gates), kind, qs, ps))
    for q in range(n):
        emit(GateType.H, (q,))
    for p in range(1, layers + 1):
        gamma, beta = 0.1 * p, 0.1 * p
        if graph.kind is GraphKind.SK:
            for round_pairs in swap_network_rounds(n):
                for a, b in round_pairs:
                    emit(GateType.RZZ, (a, b), (gamma,))
        else:
            for a, b in graph.edges():
                emit(GateType.RZZ, (a, b), (gamma,))
        for q in range(n):
            emit(GateType.RX, (q,), (beta,))
    return build_dag(gates, n)


class VqeAnsatz(Enum):
    PHASE_GADGET_CHAIN = "phase_gadget_chain"
    TWO_LOCAL_HWEA = "two_local_hwea"
    CIRCULAR_SU2 = "circular_su2"
    UCCSD_LIKE = "uccsd_like"


def gen_vqe(
    ansatz: VqeAnsatz,
    n: int,
    depth: int = 1,
    variant: GadgetVariant = GadgetVariant.PARALLEL_RZZ,
) -> Circuit:
    """Hardware-efficient and gadget-chain ansaetze.

    `depth` counts Pauli strings for the gadget-chain families and
    repetitions for the brick/ring families.
    """
    if n < 2:
        raise ValueError("ansatz needs n >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if ansatz in (VqeAnsatz.PHASE_GADGET_CHAIN, VqeAnsatz.UCCSD_LIKE):
        gates: list[Gate] = []
        for s in range(depth):
            part = gen_phase_gadget(n, 0.1 * (s + 1), variant)
            for g in part.gates:
                gates.append(Gate(len(gates), g.kind, g.qubits, g.params))
        return build_dag(gates, n)

    gates = []
    emit = lambda kind, qs, ps=(): gates.append(Gate(len(gates), kind, qs, ps))
    if ansatz is VqeAnsatz.TWO_LOCAL_HWEA:
        for rep in range(depth):
            theta = 0.1 * (rep + 1)
            for q in range(n):
                emit(GateType.U1Q, (q,), (theta, PI / 2))  # RY
            for i in range(0, n - 1, 2):
                emit(GateType.CX, (i, i + 1))
            for i in range(1, n - 1, 2):
                emit(GateType.CX, (i, i + 1))
    elif ansatz is VqeAnsatz.CIRCULAR_SU2:
        for rep in range(depth):
            theta = 0.1 * (rep + 1)
            for q in range(n):
                emit(GateType.U1Q, (q,), (theta, PI / 2))  # RY
            for q in range(n):
                emit(GateType.RZ, (q,), (theta / 2,))
            emit(GateType.CX, (n - 1, 0))
            for i in range(n - 1):
                emit(GateType.CX, (i, i + 1))
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown ansatz {ansatz}")
    return build_dag(gates, n)


# ---------------------------------------------------------------------------
# GHZ

def gen_ghz(n: int) -> Circuit:
    """H on q0 plus a balanced fan-out CX tree of depth ceil(log2 n)."""
    if n < 2:
        raise ValueError("GHZ needs n >= 2")
    gates: list[Gate] = [Gate(0, GateType.H, (0,))]
    depth = math.ceil(math.log2(n))
    for s in range(depth):
        offset = 1 << (depth - 1 - s)
        for i in range(0, n, 2 * offset):
            if i + offset < n:
                gates.append(Gate(len(gates), GateType.CX, (i, i + offset)))
    return build_dag(gates, n)


# ---------------------------------------------------------------------------
# Steane code blocks

# Hamming(7,4) pivots carry the H gates; each pivot controls the CXs that
# complete its X-type stabilizer.  Layered so the three CX depths are
# mutually qubit-disjoint (block-local indices, (control, target)).
STEANE_H_QUBITS = (0, 1, 3)
STEANE_CX_LAYERS = (
    ((0, 6), (1, 2), (3, 4)),
    ((0, 2), (1, 6), (3, 5)),
    ((0, 4), (1, 5), (3, 6)),
)
STEANE_BLOCK = 7


def gen_steane_encode(num_logical: int) -> Circuit:
    """Per 7-qubit block: H on q0,q1,q3 then three depths of three parallel
    CXs.  Blocks are independent; 2Q depth stays 3 for any block count."""
    if num_logical < 1:
        raise ValueError("need at least one logical qubit")
    n = STEANE_BLOCK * num_logical
    gates: list[Gate] = []
    for b in range(num_logical):
        base = STEANE_BLOCK * b
        for q in STEANE_H_QUBITS:
            gates.append(Gate(len(gates), GateType.H, (base + q,)))
    for layer in STEANE_CX_LAYERS:
        for b in range(num_logical):
            base = STEANE_BLOCK * b
            for c, t in layer:
                gates.append(Gate(len(gates), GateType.CX, (base + c, base + t)))
    return build_dag(gates, n)


def steane_cycles(num_logical: int, gate_zones: int) -> int:
    """Native operation cycles to prepare `num_logical` blocks on a machine
    with `gate_zones` zones: 13 * ceil(3n / k)."""
    return 13 * math.ceil(3 * num_logical / gate_zones)


# ---------------------------------------------------------------------------
# transversal expansion over Steane blocks

def expand_transversal(logical: Circuit, prelude: Circuit | None = None) -> Circuit:
    """Expand a logical circuit to physical qubits, 7 per logical qubit.

    Logical 1Q gates become 7 parallel physical 1Q gates; logical CX
    becomes 7 parallel physical CXs between matching block positions.
    `prelude` (typically the block encoder) is emitted first.
    """
    width = STEANE_BLOCK * logical.width
    gates: list[Gate] = []
    if prelude is not None:
        if prelude.width != width:
            raise ValueError("prelude width does not match expanded width")
        for g in prelude.gates:
            gates.append(Gate(len(gates), g.kind, g.qubits, g.params))
    for g in logical.gates:
        for i in range(STEANE_BLOCK):
            phys = tuple(STEANE_BLOCK * q + i for q in g.qubits)
            gates.append(Gate(len(gates), g.kind, phys, g.params))
    return build_dag(gates, width)


def gen_msd_7to1() -> Circuit:
    """7-to-1 magic-state distillation on 8 logical qubits (56 physical).

    Logical level: the output qubit L0 is entangled into the block
    L1..L7, seven T inputs (Rz(pi/4)) are consumed transversally, and the
    block is decoded and measured.  Expanded transversally after the
    8-block Steane encoder.
    """
    lg: list[Gate] = []
    emit = lambda kind, qs, ps=(): lg.append(Gate(len(lg), kind, qs, ps))
    emit(GateType.H, (0,))
    emit(GateType.CX, (0, 1))
    for q in range(1, 8):
        emit(GateType.RZ, (q,), (PI / 4,))  # the seven T-state inputs
    # inverse block encoder on L1..L7 (CX depths reversed, then H on pivots)
    for layer in reversed(STEANE_CX_LAYERS):
        for c, t in reversed(layer):
            emit(GateType.CX, (1 + c, 1 + t))
    for q in STEANE_H_QUBITS:
        emit(GateType.H, (1 + q,))
    for q in range(1, 8):
        emit(GateType.MEASURE, (q,))
    logical = build_dag(lg, 8)
    return expand_transversal(logical, prelude=gen_steane_encode(8))


def gen_ghz_logical(num_logical: int = 8) -> Circuit:
    """GHZ state over Steane-encoded logical qubits (transversal tree)."""
    return expand_transversal(gen_ghz(num_logical), prelude=gen_steane_encode(num_logical))


# ---------------------------------------------------------------------------
# quantum Reed-Muller [[n, n-2, 2]] encoders

class QrmBasis(Enum):
    X = "x"
    Z = "z"


def gen_qrm_encode(n: int, basis: QrmBasis) -> Circuit:
    """Codeword preparation for the [[n, n-2, 2]] family (n even, >= 4).

    Z basis: GHZ-like balanced CX fan-out.  X basis: H wall on the first
    n-1 qubits followed by parity CXs into the last qubit, including the
    maximum-distance CX (q0 -> q_{n-1}).
    """
    if n < 4 or n % 2:
        raise ValueError("QRM encoder needs even n >= 4")
    if basis is QrmBasis.Z:
        return gen_ghz(n)
    gates: list[Gate] = []
    for q in range(n - 1):
        gates.append(Gate(len(gates), GateType.H, (q,)))
    for q in range(n - 1):
        gates.append(Gate(len(gates), GateType.CX, (q, n - 1)))
    return build_dag(gates, n)


# ---------------------------------------------------------------------------
# edge re-coloring (compile-side parallelization of commuting RZZ terms)

def color_edges(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Greedy partition of an edge list into qubit-disjoint rounds,
    preserving relative order inside each round."""
    rounds: list[tuple[list[tuple[int, int]], set[int]]] = []
    for a, b in edges:
        for round_edges, used in rounds:
            if a not in used and b not in used:
                round_edges.append((a, b))
                used.update((a, b))
                break
        else:
            rounds.append(([(a, b)], {a, b}))
    return [e for round_edges, _ in rounds for e in round_edges]


def gen_qaoa_parallel(graph: GraphSpec, layers: int = 1) -> Circuit:
    """gen_qaoa with the cost-layer edges re-colored into disjoint rounds
    (the compile-side rewrite used by the optimized pipelines)."""
    if graph.kind is GraphKind.SK:
        return gen_qaoa(graph, layers)
    n = graph.n
    gates: list[Gate] = []
    emit = lambda kind, qs, ps=(): gates.append(Gate(len(gates), kind, qs, ps))
    for q in range(n):
        emit(GateType.H, (q,))
    colored = color_edges(graph.edges())
    for p in range(1, layers + 1):
        for a, b in colored:
            emit(GateType.RZZ, (a, b), (0.1 * p,))
        for q in range(n):
            emit(GateType.RX, (q,), (0.1 * p,))
    return build_dag(gates, n)
