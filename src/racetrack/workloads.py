"""Benchmark circuit generators.

Families: balanced-tree Z-phase gadgets (Ladder / Fountain / Parallel /
Parallel+RZZ), QAOA over path / 2-regular / power-law / Sherrington-
Kirkpatrick graphs, hardware-efficient VQE ansaetze, GHZ fan-out trees,
Steane-code block encoders, 7-to-1 magic-state distillation, and
quantum Reed-Muller ([[n, n-2, 2]]) encoders.

Every generator is a pure function of its arguments; the power-law graph
uses a seeded 64-bit linear congruential generator (Knuth's MMIX
constants) so outputs are platform-independent.  A generator lists its
gates as rows, `(kind, qubits)` or `(kind, qubits, params)`, in program
order, and one builder, `_circuit`, numbers the rows in that order and
checks the circuit through `build_dag`; so no generator numbers or copies
gates, and composite circuits concatenate rows.  Each size (a qubit,
block, layer or repetition count) goes through `machine._check_count`
before its generator's own lower bound, so a float or bool size, like a
graph kind that is no `GraphKind`, a seed that is no integer or a graph
that is no `GraphSpec`, raises a `ValueError` naming it.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

from .circuit import Circuit, build_dag
from .gates import Gate, GateType
from .machine import _check_count

PI = math.pi


# ---------------------------------------------------------------------------
# gate rows and the deterministic PRNG

def _circuit(width: int, rows: list[tuple]) -> Circuit:
    """The checked circuit of `rows`, each (kind, qubits) or (kind, qubits,
    params), with the gates numbered in row order."""
    return build_dag([Gate(i, *row) for i, row in enumerate(rows)], width)


def _lcg_uniform(seed: int) -> Iterator[float]:
    """Floats in [0, 1): the top 53 bits of each state of a 64-bit linear
    congruential generator with Knuth's MMIX constants."""
    mask = (1 << 64) - 1
    state = (seed ^ 0x9E3779B97F4A7C15) & mask
    while True:
        state = (6364136223846793005 * state + 1442695040888963407) & mask
        yield (state >> 11) / float(1 << 53)


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
    seed: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, GraphKind):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        _check_count("n", self.n)
        if self.n < 2:
            raise ValueError("graph needs at least 2 nodes")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

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
        return [(i, j) for i in range(n) for j in range(i + 1, n)]   # SK

    def _powerlaw_edges(self) -> list[tuple[int, int]]:
        # Preferential attachment, one edge per new node; attachment
        # probability proportional to degree + 1.
        uniform = _lcg_uniform(self.seed)
        deg = [0] * self.n
        edges: list[tuple[int, int]] = []
        for v in range(1, self.n):
            weights = [deg[u] + 1.0 for u in range(v)]
            total = sum(weights)
            r = next(uniform) * total
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
    at adjacent positions, which then swap positions.  Rounds start at even
    and odd positions in turn; n such rounds reverse the order and so meet
    every unordered pair exactly once (Knuth, TAOCP vol. 3, 5.3.4).  Empty
    rounds are dropped: n rounds for n >= 3, one for n = 2, none for n = 1."""
    _check_count("n", n)
    pos = list(range(n))
    rounds: list[list[tuple[int, int]]] = []
    for r in range(n):
        starts = range(r % 2, n - 1, 2)
        rounds.append([(pos[i], pos[i + 1]) for i in starts])
        for i in starts:
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
    return [pairs for pairs in rounds if pairs]


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


def _gadget_rows(n: int, alpha: float, variant: GadgetVariant) -> list[tuple]:
    """The CXs that gather the parity of n qubits, the phase, and the same
    CXs in reverse.  Parallel+RZZ fuses the tree's last CX, which has a
    layer of its own, into the phase."""
    phase = (GateType.RZ, (n - 1,), (alpha,))
    if variant is GadgetVariant.LADDER:
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif variant is GadgetVariant.FOUNTAIN:
        pairs = [(i, n - 1) for i in range(n - 1)]
    else:
        layers, final = _parallel_tree_layers(n)
        if variant is GadgetVariant.PARALLEL_RZZ:
            [(c, t)] = layers.pop()
            phase = (GateType.RZZ, (t, c), (alpha,))
        else:
            phase = (GateType.RZ, (final,), (alpha,))
        pairs = [pair for layer in layers for pair in layer]
    cxs = [(GateType.CX, pair) for pair in pairs]
    return [*cxs, phase, *reversed(cxs)]


def gen_phase_gadget(n: int, alpha: float, variant: GadgetVariant) -> Circuit:
    """exp(-i alpha/2 Z x ... x Z) over n qubits in the requested shape."""
    _check_count("n", n)
    if n < 2:
        raise ValueError("phase gadget needs n >= 2")
    if not isinstance(variant, GadgetVariant):
        raise ValueError(f"unknown gadget variant {variant!r}")
    return _circuit(n, _gadget_rows(n, alpha, variant))


# ---------------------------------------------------------------------------
# QAOA / VQE

def gen_qaoa(graph: GraphSpec, layers: int = 1) -> Circuit:
    """H wall, then per layer: RZZ(gamma_p) per edge and RX(beta_p) per
    qubit.  SK graphs route through the fermionic swap network so every
    interaction lands on position-adjacent qubits.  Angles are fixed
    placeholders 0.1*p; timing and fidelity do not depend on them."""
    if not isinstance(graph, GraphSpec):
        raise ValueError(f"graph must be a GraphSpec, got {graph!r}")
    _check_count("layers", layers)
    n = graph.n
    if graph.kind is GraphKind.SK:
        edges = [pair for pairs in swap_network_rounds(n) for pair in pairs]
    else:
        edges = graph.edges()
    rows = [(GateType.H, (q,)) for q in range(n)]
    for p in range(1, layers + 1):
        gamma, beta = 0.1 * p, 0.1 * p
        rows += [(GateType.RZZ, edge, (gamma,)) for edge in edges]
        rows += [(GateType.RX, (q,), (beta,)) for q in range(n)]
    return _circuit(n, rows)


class VqeAnsatz(Enum):
    PHASE_GADGET_CHAIN = "phase_gadget_chain"
    TWO_LOCAL_HWEA = "two_local_hwea"
    CIRCULAR_SU2 = "circular_su2"


def gen_vqe(ansatz: VqeAnsatz, n: int, depth: int = 1) -> Circuit:
    """Hardware-efficient and gadget-chain ansaetze.

    `depth` counts Pauli strings for the gadget-chain families and
    repetitions for the brick/ring families.  Each repetition of a
    brick/ring family opens with an RY wall.
    """
    _check_count("n", n)
    if n < 2:
        raise ValueError("ansatz needs n >= 2")
    _check_count("depth", depth)
    if not isinstance(ansatz, VqeAnsatz):
        raise ValueError(f"unknown ansatz {ansatz!r}")
    if ansatz is VqeAnsatz.PHASE_GADGET_CHAIN:
        return _circuit(n, [row for s in range(depth)
                            for row in _gadget_rows(n, 0.1 * (s + 1), GadgetVariant.PARALLEL_RZZ)])
    rows: list[tuple] = []
    for rep in range(depth):
        theta = 0.1 * (rep + 1)
        rows += [(GateType.U1Q, (q,), (theta, PI / 2)) for q in range(n)]  # RY
        if ansatz is VqeAnsatz.TWO_LOCAL_HWEA:
            rows += [(GateType.CX, (i, i + 1)) for i in (*range(0, n - 1, 2), *range(1, n - 1, 2))]
        else:   # the ring, from its closing CX (n-1, 0) on
            rows += [(GateType.RZ, (q,), (theta / 2,)) for q in range(n)]
            rows += [(GateType.CX, ((i - 1) % n, i)) for i in range(n)]
    return _circuit(n, rows)


# ---------------------------------------------------------------------------
# GHZ

def gen_ghz(n: int) -> Circuit:
    """H on q0 plus a balanced fan-out CX tree of depth ceil(log2 n)."""
    _check_count("n", n)
    if n < 2:
        raise ValueError("GHZ needs n >= 2")
    offsets = [1 << s for s in reversed(range(math.ceil(math.log2(n))))]
    fan_out = [(GateType.CX, (i, i + offset))
               for offset in offsets for i in range(0, n - offset, 2 * offset)]
    return _circuit(n, [(GateType.H, (0,)), *fan_out])


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
    _check_count("num_logical", num_logical)
    n = STEANE_BLOCK * num_logical
    bases = range(0, n, STEANE_BLOCK)
    rows = [(GateType.H, (base + q,)) for base in bases for q in STEANE_H_QUBITS]
    rows += [(GateType.CX, (base + c, base + t))
             for layer in STEANE_CX_LAYERS for base in bases for c, t in layer]
    return _circuit(n, rows)


# ---------------------------------------------------------------------------
# transversal expansion over Steane blocks

def expand_transversal(logical: Circuit, prelude: Circuit) -> Circuit:
    """Expand a logical circuit to physical qubits, 7 per logical qubit.

    Logical 1Q gates become 7 parallel physical 1Q gates; logical CX
    becomes 7 parallel physical CXs between matching block positions.
    `prelude` (the block encoder) is emitted first.
    """
    width = STEANE_BLOCK * logical.width
    if prelude.width != width:
        raise ValueError("prelude width does not match expanded width")
    rows = [(g.kind, g.qubits, g.params) for g in prelude.gates]
    rows += [(g.kind, tuple(STEANE_BLOCK * q + i for q in g.qubits), g.params)
             for g in logical.gates for i in range(STEANE_BLOCK)]
    return _circuit(width, rows)


def gen_msd_7to1() -> Circuit:
    """7-to-1 magic-state distillation on 8 logical qubits (56 physical).

    Logical level: the output qubit L0 is entangled into the block
    L1..L7, seven T inputs (Rz(pi/4)) are consumed transversally, and the
    block is decoded and measured.  Expanded transversally after the
    8-block Steane encoder.
    """
    rows = [(GateType.H, (0,)), (GateType.CX, (0, 1))]
    rows += [(GateType.RZ, (q,), (PI / 4,)) for q in range(1, 8)]  # the seven T-state inputs
    # inverse block encoder on L1..L7 (CX depths reversed, then H on pivots)
    rows += [(GateType.CX, (1 + c, 1 + t))
             for layer in reversed(STEANE_CX_LAYERS) for c, t in reversed(layer)]
    rows += [(GateType.H, (1 + q,)) for q in STEANE_H_QUBITS]
    rows += [(GateType.MEASURE, (q,)) for q in range(1, 8)]
    return expand_transversal(_circuit(8, rows), prelude=gen_steane_encode(8))


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
    _check_count("n", n)
    if n < 4 or n % 2:
        raise ValueError("QRM encoder needs even n >= 4")
    if not isinstance(basis, QrmBasis):
        raise ValueError(f"unknown QRM basis {basis!r}")
    if basis is QrmBasis.Z:
        return gen_ghz(n)
    return _circuit(n, [(GateType.H, (q,)) for q in range(n - 1)]
                    + [(GateType.CX, (q, n - 1)) for q in range(n - 1)])
