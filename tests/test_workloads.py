"""Workload generators: structure counts, active-set recursion, and
statevector/stabilizer oracles on small instances."""
import math

import numpy as np
import pytest

from oracle import (
    circuit_unitary,
    pauli_expectation,
    phase_aligned_distance,
    statevector,
    states_equal_up_to_phase,
)
from racetrack.gates import GateType
from racetrack.translate import extract_2q_layers, translate_to_native
from racetrack.workloads import (
    GadgetVariant,
    GraphKind,
    GraphSpec,
    QrmBasis,
    VqeAnsatz,
    expand_transversal,
    gen_ghz,
    gen_ghz_logical,
    gen_msd_7to1,
    gen_phase_gadget,
    gen_qaoa,
    gen_qrm_encode,
    gen_steane_encode,
    gen_vqe,
    swap_network_rounds,
    _parallel_tree_layers,
)

PI = math.pi


def kind_count(c, kind):
    return sum(1 for g in c.gates if g.kind is kind)


class TestPhaseGadget:
    def test_parallel_n4_structure(self):
        c = gen_phase_gadget(4, 0.5, GadgetVariant.PARALLEL)
        cx = [g for g in c.gates if g.kind is GateType.CX]
        assert [g.qubits for g in cx[:3]] == [(1, 0), (3, 2), (2, 0)]
        assert kind_count(c, GateType.CX) == 6
        assert kind_count(c, GateType.RZ) == 1
        rz = next(g for g in c.gates if g.kind is GateType.RZ)
        assert rz.qubits == (0,)

    def test_parallel_rzz_n4(self):
        c = gen_phase_gadget(4, 0.5, GadgetVariant.PARALLEL_RZZ)
        assert kind_count(c, GateType.CX) == 4
        rzz = [g for g in c.gates if g.kind is GateType.RZZ]
        assert len(rzz) == 1 and set(rzz[0].qubits) == {0, 2}

    def test_n2_base_cases(self):
        c = gen_phase_gadget(2, 0.3, GadgetVariant.PARALLEL_RZZ)
        assert c.n_gates == 1 and c.gates[0].kind is GateType.RZZ
        assert set(c.gates[0].qubits) == {0, 1}
        c2 = gen_phase_gadget(2, 0.3, GadgetVariant.PARALLEL)
        assert [g.kind for g in c2.gates] == [GateType.CX, GateType.RZ, GateType.CX]

    def test_unknown_variant_rejected(self):
        # the variant's value is not the variant: it must not fall through
        # to the parallel tree
        with pytest.raises(ValueError, match="unknown gadget variant 'ladder'"):
            gen_phase_gadget(4, 0.1, "ladder")

    def test_n8_parallel_layers(self):
        c = gen_phase_gadget(8, 0.2, GadgetVariant.PARALLEL)
        assert kind_count(c, GateType.CX) == 14
        layers, final = _parallel_tree_layers(8)
        assert layers[0] == [(1, 0), (3, 2), (5, 4), (7, 6)]
        assert [len(l) for l in layers] == [4, 2, 1]
        # center forming: the surviving qubit sits strictly inside the chain
        assert 0 < final < 7

    @pytest.mark.parametrize("n", range(2, 65))
    def test_gate_counts(self, n):
        c = gen_phase_gadget(n, 0.7, GadgetVariant.PARALLEL)
        assert kind_count(c, GateType.CX) == 2 * (n - 1)
        assert kind_count(c, GateType.RZ) == 1
        if n >= 3:
            cr = gen_phase_gadget(n, 0.7, GadgetVariant.PARALLEL_RZZ)
            assert kind_count(cr, GateType.CX) == 2 * (n - 2)
            assert kind_count(cr, GateType.RZZ) == 1

    @pytest.mark.parametrize("n", range(2, 33))
    def test_2q_half_depth(self, n):
        layers, _ = _parallel_tree_layers(n)
        assert len(layers) == math.ceil(math.log2(n))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_active_set_recursion(self, n):
        # Replay the recursion from the emitted layers: the next active set
        # is exactly the CX targets plus the odd leftover, halving (ceil)
        # each step and always a subset of the previous set.
        layers, final = _parallel_tree_layers(n)
        active = list(range(n))
        for layer in layers:
            targets = [t for (_, t) in layer]
            controls = [c for (c, _) in layer]
            assert set(targets + controls) <= set(active)
            leftover = [active[-1]] if len(active) % 2 else []
            nxt = targets + leftover
            assert len(nxt) == math.ceil(len(active) / 2)
            assert set(nxt) <= set(active)
            active = nxt
        assert active == [final]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_variants_unitary_equivalent(self, n):
        rng = np.random.default_rng(42)
        for alpha in rng.uniform(-PI, PI, size=5):
            mats = []
            for v in GadgetVariant:
                c = gen_phase_gadget(n, float(alpha), v)
                mats.append(circuit_unitary(c))
            for m in mats[1:]:
                assert phase_aligned_distance(mats[0], m) < 1e-9
            # and against the defining exponential
            zz = np.ones(2**n)
            for b in range(2**n):
                if bin(b).count("1") % 2:
                    zz[b] = -1.0
            target = np.diag(np.exp(-0.5j * float(alpha) * zz))
            assert phase_aligned_distance(target, mats[0]) < 1e-9

    def test_native_translation_unitary(self):
        c = gen_phase_gadget(4, 0.9, GadgetVariant.PARALLEL_RZZ)
        n = translate_to_native(c)
        assert phase_aligned_distance(circuit_unitary(c), circuit_unitary(n)) < 1e-9


class TestGraphs:
    def test_path(self):
        assert GraphSpec(GraphKind.PATH, 4).edges() == [(0, 1), (1, 2), (2, 3)]

    def test_regular2_two_layers(self):
        g = GraphSpec(GraphKind.REGULAR2, 4)
        assert sorted(tuple(sorted(e)) for e in g.edges()) == [
            (0, 1), (0, 3), (1, 2), (2, 3),
        ]
        c = gen_qaoa(g, 1)
        layers = extract_2q_layers(c)
        assert [len(l) for l in layers] == [2, 2]

    def test_powerlaw_deterministic_connected(self):
        g1 = GraphSpec(GraphKind.POWERLAW, 16, seed=7).edges()
        g2 = GraphSpec(GraphKind.POWERLAW, 16, seed=7).edges()
        g3 = GraphSpec(GraphKind.POWERLAW, 16, seed=8).edges()
        assert g1 == g2
        assert g1 != g3
        assert len(g1) == 15
        # connectivity: union-find over the tree
        parent = list(range(16))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in g1:
            parent[find(a)] = find(b)
        assert len({find(v) for v in range(16)}) == 1

    def test_swap_network_all_pairs_once(self):
        for n in (1, 2, 3, 4, 5, 6, 7, 16, 33):
            rounds = swap_network_rounds(n)
            # n rounds of odd-even transposition, less the empty ones
            assert len(rounds) == {1: 0, 2: 1}.get(n, n)
            pairs = [
                tuple(sorted(p)) for r in rounds for p in r
            ]
            assert sorted(pairs) == sorted(
                (i, j) for i in range(n) for j in range(i + 1, n)
            )
            assert len(pairs) == len(set(pairs))
            for r in rounds:   # no qubit meets two others in one round
                qubits = [q for p in r for q in p]
                assert r and len(qubits) == len(set(qubits))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
    def test_sk_edges_are_the_swap_network_pairs_once_each(self, n):
        pairs = [frozenset(e) for e in GraphSpec(GraphKind.SK, n).edges()]
        assert all(len(p) == 2 for p in pairs)
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == {frozenset(p) for r in swap_network_rounds(n) for p in r}

    def test_swap_network_adjacency(self):
        # every interaction happens between position-adjacent qubits, and
        # replaying the rounds as position swaps reverses the order
        for n in (2, 3, 6, 7, 16):
            pos = list(range(n))
            for round_pairs in swap_network_rounds(n):
                for a, b in round_pairs:
                    ia, ib = pos.index(a), pos.index(b)
                    assert abs(ia - ib) == 1
                    pos[ia], pos[ib] = pos[ib], pos[ia]
            assert pos == list(range(n))[::-1]


class TestQaoa:
    def test_path4_counts(self):
        c = gen_qaoa(GraphSpec(GraphKind.PATH, 4), 1)
        assert kind_count(c, GateType.H) == 4
        assert kind_count(c, GateType.RZZ) == 3
        assert kind_count(c, GateType.RX) == 4

    def test_sk4_network(self):
        c = gen_qaoa(GraphSpec(GraphKind.SK, 4), 1)
        assert kind_count(c, GateType.RZZ) == 6

    def test_layer_count_scales(self):
        c = gen_qaoa(GraphSpec(GraphKind.PATH, 4), 3)
        assert kind_count(c, GateType.RZZ) == 9
        assert kind_count(c, GateType.RX) == 12


class TestVqe:
    def test_hwea_4_1(self):
        c = gen_vqe(VqeAnsatz.TWO_LOCAL_HWEA, 4, 1)
        assert kind_count(c, GateType.U1Q) == 4  # RY layer
        cx = [g.qubits for g in c.gates if g.kind is GateType.CX]
        assert cx == [(0, 1), (2, 3), (1, 2)]

    def test_circular_su2_4_1(self):
        c = gen_vqe(VqeAnsatz.CIRCULAR_SU2, 4, 1)
        rot = kind_count(c, GateType.U1Q) + kind_count(c, GateType.RZ)
        assert rot == 8
        cx = [g.qubits for g in c.gates if g.kind is GateType.CX]
        assert len(cx) == 4 and (3, 0) in cx
        # the ring opens with its closing CX, after the RY and RZ walls
        assert cx == [(3, 0), (0, 1), (1, 2), (2, 3)]
        assert [g.kind for g in c.gates[:8]] == [GateType.U1Q] * 4 + [GateType.RZ] * 4

    def test_uccsd_like_concatenation(self):
        # the UCCSD-like ansatz is the chain of Parallel+RZZ phase gadgets
        c = gen_vqe(VqeAnsatz.PHASE_GADGET_CHAIN, 8, 4)
        assert kind_count(c, GateType.RZZ) == 4
        assert kind_count(c, GateType.CX) == 4 * 2 * (8 - 2)


class TestGhz:
    def test_n2(self):
        c = gen_ghz(2)
        assert [(g.kind, g.qubits) for g in c.gates] == [
            (GateType.H, (0,)), (GateType.CX, (0, 1)),
        ]

    def test_n8_tree(self):
        c = gen_ghz(8)
        cx = [g.qubits for g in c.gates if g.kind is GateType.CX]
        assert cx == [(0, 4), (0, 2), (4, 6), (0, 1), (2, 3), (4, 5), (6, 7)]
        layers = extract_2q_layers(c)
        assert [len(l) for l in layers] == [1, 2, 4]

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_state_oracle(self, n):
        state = statevector(gen_ghz(n))
        expected = np.zeros(2**n, dtype=complex)
        expected[0] = expected[-1] = 1 / math.sqrt(2)
        assert states_equal_up_to_phase(state, expected)

    def test_n5_depth(self):
        layers = extract_2q_layers(gen_ghz(5))
        assert len(layers) == 3


STEANE_STABILIZERS = [
    "XIXIXIX"[::1],  # X on {0,2,4,6}
    "IXXIIXX",       # X on {1,2,5,6}
    "IIIXXXX",       # X on {3,4,5,6}
    "ZIZIZIZ",
    "IZZIIZZ",
    "IIIZZZZ",
]


class TestSteane:
    def test_counts_and_depth(self):
        c1 = gen_steane_encode(1)
        assert kind_count(c1, GateType.H) == 3
        assert kind_count(c1, GateType.CX) == 9
        assert len(extract_2q_layers(c1)) == 3
        c8 = gen_steane_encode(8)
        assert kind_count(c8, GateType.H) == 24
        assert kind_count(c8, GateType.CX) == 72
        assert len(extract_2q_layers(c8)) == 3
        assert c8.width == 56

    def test_precondition(self):
        with pytest.raises(ValueError):
            gen_steane_encode(0)

    def test_stabilizers(self):
        state = statevector(gen_steane_encode(1))
        for pauli in STEANE_STABILIZERS:
            assert pauli_expectation(state, pauli) == pytest.approx(1.0, abs=1e-9)
        # logical |0>: +1 eigenstate of transversal Z
        assert pauli_expectation(state, "ZZZZZZZ") == pytest.approx(1.0, abs=1e-9)


class TestMsd:
    def test_width_56(self):
        c = gen_msd_7to1()
        assert c.width == 56

    def test_t_count(self):
        c = gen_msd_7to1()
        # seven logical T inputs -> 7 blocks x 7 physical Rz(pi/4)
        t_like = [
            g for g in c.gates
            if g.kind is GateType.RZ and abs(g.params[0] - PI / 4) < 1e-12
        ]
        assert len(t_like) == 49
        assert len(t_like) // 7 == 7

    def test_transversal_cx_expansion(self):
        c = gen_msd_7to1()
        # logical CX(L0,L1) appears as 7 physical CXs (block0[i], block1[i])
        expected = {(i, 7 + i) for i in range(7)}
        cx_pairs = {g.qubits for g in c.gates if g.kind is GateType.CX}
        assert expected <= cx_pairs

    def test_measures(self):
        c = gen_msd_7to1()
        assert kind_count(c, GateType.MEASURE) == 49


class TestQrm:
    def test_preconditions(self):
        for bad in (3, 5, 2):
            with pytest.raises(ValueError):
                gen_qrm_encode(bad, QrmBasis.Z)
        # the basis's value is not the basis: it must not fall through to X
        with pytest.raises(ValueError, match="unknown QRM basis 'z'"):
            gen_qrm_encode(8, "z")

    def test_n4_z_matches_ghz(self):
        z = gen_qrm_encode(4, QrmBasis.Z)
        g = gen_ghz(4)
        assert [(x.kind, x.qubits) for x in z.gates] == [
            (y.kind, y.qubits) for y in g.gates
        ]

    def test_n4_x_structure(self):
        c = gen_qrm_encode(4, QrmBasis.X)
        assert kind_count(c, GateType.H) == 3
        cx = [g.qubits for g in c.gates if g.kind is GateType.CX]
        assert cx == [(0, 3), (1, 3), (2, 3)]

    def test_n8_x_long_range(self):
        c = gen_qrm_encode(8, QrmBasis.X)
        assert (0, 7) in {g.qubits for g in c.gates if g.kind is GateType.CX}

    @pytest.mark.parametrize("basis", [QrmBasis.Z, QrmBasis.X])
    def test_n4_codeword_stabilized(self, basis):
        state = statevector(gen_qrm_encode(4, basis))
        assert pauli_expectation(state, "XXXX") == pytest.approx(1.0, abs=1e-9)
        assert pauli_expectation(state, "ZZZZ") == pytest.approx(1.0, abs=1e-9)


def test_ghz_logical_width():
    c = gen_ghz_logical(8)
    assert c.width == 56
    assert kind_count(c, GateType.CX) == 72 + 7 * 7


@pytest.mark.parametrize("build, message", [
    (lambda: gen_ghz(4.0), "n must be an integer >= 1, got 4.0"),
    (lambda: gen_ghz(True), "n must be an integer >= 1, got True"),
    (lambda: gen_ghz(1), "GHZ needs n >= 2"),
    (lambda: gen_steane_encode(2.0), "num_logical must be an integer >= 1, got 2.0"),
    (lambda: gen_steane_encode(True), "num_logical must be an integer >= 1, got True"),
    (lambda: gen_steane_encode(0), "num_logical must be an integer >= 1, got 0"),
    (lambda: gen_vqe(VqeAnsatz.TWO_LOCAL_HWEA, 4, depth=1.5), "depth must be an integer >= 1, got 1.5"),
    (lambda: gen_vqe(VqeAnsatz.TWO_LOCAL_HWEA, 4.0), "n must be an integer >= 1, got 4.0"),
    (lambda: gen_vqe(VqeAnsatz.CIRCULAR_SU2, 1), "ansatz needs n >= 2"),
    (lambda: gen_vqe("circular_su2", 4), "unknown ansatz 'circular_su2'"),
    (lambda: gen_vqe(None, 4, 2), "unknown ansatz None"),
    (lambda: GraphSpec(GraphKind.PATH, 4.0), "n must be an integer >= 1, got 4.0"),
    (lambda: GraphSpec(GraphKind.PATH, 1), "graph needs at least 2 nodes"),
    (lambda: GraphSpec("sk", 4), "unknown graph kind 'sk'"),
    (lambda: gen_qaoa(GraphSpec(GraphKind.PATH, 4), 2.5), "layers must be an integer >= 1, got 2.5"),
    (lambda: gen_qaoa(GraphSpec(GraphKind.PATH, 4), True), "layers must be an integer >= 1, got True"),
    (lambda: gen_qaoa(GraphSpec(GraphKind.PATH, 4), 0), "layers must be an integer >= 1, got 0"),
    (lambda: gen_phase_gadget(3.0, 0.1, GadgetVariant.LADDER), "n must be an integer >= 1, got 3.0"),
    (lambda: gen_phase_gadget(1, 0.1, GadgetVariant.LADDER), "phase gadget needs n >= 2"),
    (lambda: gen_qrm_encode(4.0, QrmBasis.Z), "n must be an integer >= 1, got 4.0"),
    (lambda: gen_qrm_encode(5, QrmBasis.X), "QRM encoder needs even n >= 4"),
    (lambda: gen_qaoa((GraphKind.PATH, 4)), "graph must be a GraphSpec, got (<GraphKind.PATH: 'path'>, 4)"),
    (lambda: GraphSpec(GraphKind.POWERLAW, 16, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: GraphSpec(GraphKind.POWERLAW, 16, seed=True), "seed must be an integer, got True"),
    (lambda: swap_network_rounds(-1), "n must be an integer >= 1, got -1"),
    (lambda: swap_network_rounds(4.0), "n must be an integer >= 1, got 4.0"),
    (lambda: swap_network_rounds(0), "n must be an integer >= 1, got 0"),
    (lambda: expand_transversal(None, gen_steane_encode(1)), "logical must be a Circuit, got None"),
    (lambda: expand_transversal(gen_ghz(2), None), "prelude must be a Circuit, got None"),
    (lambda: expand_transversal(gen_ghz(2), gen_steane_encode(1)), "prelude width does not match expanded width"),
])
def test_a_bad_size_or_kind_raises_a_value_error_naming_it(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
