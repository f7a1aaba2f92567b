"""Gate IR, DAG construction, translation, layering, and text round-trips."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import circuit_unitary, phase_aligned_distance
from racetrack.circuit import build_dag, serialize, topological_layers, validate_topology
from racetrack.gates import Gate, GateType, angles_close, canonical_angle
from racetrack.textio import circuit_from_qasm, circuit_from_text, circuit_to_text
from racetrack.translate import extract_2q_layers, one_qubit_phases, translate_to_native

PI = math.pi


def g(i, kind, *qubits, params=()):
    return Gate(i, kind, tuple(qubits), tuple(params))


UNITARY_KINDS = (GateType.H, GateType.X, GateType.RX, GateType.CX, GateType.RZ,
                 GateType.RZZ, GateType.U1Q)


@st.composite
def circuits(draw, max_width: int, max_gates: int, kinds=UNITARY_KINDS):
    """Random abstract circuits of 2..max_width qubits and 1..max_gates gates."""
    width = draw(st.integers(2, max_width))
    n_gates = draw(st.integers(1, max_gates))
    gates = []
    for i in range(n_gates):
        kind = draw(st.sampled_from(kinds))
        qs = draw(st.permutations(range(width)))[: kind.n_qubits]
        params = tuple(draw(st.floats(-2 * PI, 2 * PI)) for _ in range(kind.n_params))
        gates.append(Gate(i, kind, tuple(qs), params))
    return build_dag(gates, width)


class TestGate:
    def test_arity_checks(self):
        with pytest.raises(ValueError):
            g(0, GateType.CX, 1)
        with pytest.raises(ValueError):
            g(0, GateType.H, 1, 2)
        with pytest.raises(ValueError):
            g(0, GateType.CX, 1, 1)

    def test_param_counts(self):
        with pytest.raises(ValueError):
            g(0, GateType.RZ, 0)
        with pytest.raises(ValueError):
            g(0, GateType.U1Q, 0, params=(0.1,))
        g(0, GateType.U1Q, 0, params=(0.1, 0.2))

    @pytest.mark.parametrize("kind, qubits, params, message", [
        (GateType.CX, (1,), (), "CX takes 2 qubit(s), got (1,)"),
        (GateType.H, (1, 2), (), "H takes 1 qubit(s), got (1, 2)"),
        (GateType.CX, (1, 1), (), "duplicate qubit in CX gate: (1, 1)"),
        (GateType.H, (-1,), (), "negative qubit index: (-1,)"),
        (GateType.ZZ, (0, -2), (), "negative qubit index: (0, -2)"),
        (GateType.ZZ, (-3, 0), (), "negative qubit index: (-3, 0)"),
        (GateType.RZ, (0,), (), "Rz takes 1 param(s), got ()"),
    ])
    def test_checks_name_the_fault(self, kind, qubits, params, message):
        with pytest.raises(ValueError) as err:
            Gate(0, kind, qubits, params)
        assert str(err.value) == message

    def test_kind_attributes(self):
        two_qubit = {GateType.ZZ, GateType.RZZ, GateType.RXXYYZZ, GateType.CX}
        native = {GateType.U1Q, GateType.RZ, GateType.ZZ, GateType.RZZ, GateType.RXXYYZZ}
        abstract = {GateType.H, GateType.X, GateType.RX, GateType.CX}
        n_params = {GateType.U1Q: 2, GateType.RZ: 1, GateType.RZZ: 1, GateType.RXXYYZZ: 3,
                    GateType.RX: 1}
        for kind in GateType:
            assert kind.n_qubits == (2 if kind in two_qubit else 1)
            assert kind.n_params == n_params.get(kind, 0)
            assert kind.is_native is (kind in native)
            assert kind.is_abstract is (kind in abstract)

    def test_angle_canonicalization(self):
        assert canonical_angle(5 * PI) == pytest.approx(PI)
        assert canonical_angle(-2 * PI) == pytest.approx(2 * PI)
        assert canonical_angle(2 * PI) == pytest.approx(2 * PI)
        assert canonical_angle(0.0) == 0.0
        with pytest.raises(ValueError):
            canonical_angle(float("nan"))

    @given(st.floats(-50, 50), st.integers(-3, 3))
    def test_angle_period(self, a, k):
        assert angles_close(a, a + 4 * PI * k)

    @given(st.floats(-100, 100, allow_nan=False))
    def test_angle_range(self, a):
        r = canonical_angle(a)
        assert -2 * PI < r <= 2 * PI


class TestBuildDag:
    def test_single_gate(self):
        c = build_dag([g(0, GateType.H, 0)], 1)
        assert c.n_gates == 1 and not c.edges

    def test_shared_qubit_chain(self):
        c = build_dag(
            [g(0, GateType.H, 0), g(1, GateType.CX, 0, 1), g(2, GateType.H, 1)], 2
        )
        assert c.edges == {(0, 1), (1, 2)}

    def test_disjoint_qubits(self):
        c = build_dag([g(0, GateType.H, 0), g(1, GateType.H, 1)], 2)
        assert not c.edges

    def test_transitive_reduction(self):
        # CX, Rz on one of its qubits, CX again: the double-shared chain edge
        # is implied through the Rz and must be removed.
        c = build_dag(
            [g(0, GateType.CX, 0, 1), g(1, GateType.RZ, 1, params=(0.3,)),
             g(2, GateType.CX, 0, 1)], 2
        )
        assert c.edges == {(0, 1), (1, 2)}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_dag([g(0, GateType.H, 3)], 2)

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            build_dag([g(0, GateType.H, 0), g(0, GateType.H, 1)], 2)

    def test_rebuild_idempotent(self):
        gates = [
            g(0, GateType.H, 0), g(1, GateType.CX, 0, 1), g(2, GateType.RZZ, 1, 2, params=(0.4,)),
            g(3, GateType.RZ, 1, params=(0.2,)), g(4, GateType.RZZ, 1, 2, params=(0.4,)),
            g(5, GateType.CX, 2, 3),
        ]
        c1 = build_dag(gates, 4)
        c2 = build_dag(serialize(c1), 4)
        assert c1.edges == c2.edges
        validate_topology(c1)


class TestTranslate:
    def test_h_expansion(self):
        c = build_dag([g(0, GateType.H, 0)], 1)
        n = translate_to_native(c)
        assert [x.kind for x in n.gates] == [GateType.U1Q, GateType.RZ]
        assert n.gates[0].params == (PI / 2, -PI / 2)
        assert n.gates[1].params == (PI,)

    def test_cx_expansion_structure(self):
        c = build_dag([g(0, GateType.CX, 0, 1)], 2)
        n = translate_to_native(c)
        kinds = [x.kind for x in n.gates]
        assert kinds == [GateType.U1Q, GateType.ZZ, GateType.RZ, GateType.U1Q, GateType.RZ]
        assert sum(1 for x in n.gates if x.is_2q) == 1
        # 4 one-qubit rotations + 1 ZZ; target path is 3 serial 1Q slots.
        t_ops = [x for x in n.gates if x.is_1q and x.qubits == (1,)]
        assert len(t_ops) == 3

    def test_native_passthrough(self):
        c = build_dag([g(0, GateType.RZZ, 2, 3, params=(0.3,))], 4)
        n = translate_to_native(c)
        assert n.n_gates == 1 and n.gates[0].kind is GateType.RZZ
        assert n.gates[0].params == (0.3,)

    def test_rzz_expansion_op_count(self):
        # Lowering through CX costs 11 native ops where native RZZ costs 1.
        c = build_dag([g(0, GateType.RZZ, 0, 1, params=(0.7,))], 2)
        assert translate_to_native(c, expand_rzz=True).n_gates == 11
        assert translate_to_native(c, expand_rzz=False).n_gates == 1

    @pytest.mark.parametrize(
        "gates,width",
        [
            ([g(0, GateType.H, 0)], 1),
            ([g(0, GateType.X, 0)], 1),
            ([g(0, GateType.RX, 0, params=(0.37,))], 1),
            ([g(0, GateType.CX, 0, 1)], 2),
            ([g(0, GateType.CX, 1, 0)], 2),
            ([g(0, GateType.RZZ, 0, 1, params=(0.9,))], 2),
            (
                [g(0, GateType.H, 0), g(1, GateType.CX, 0, 1), g(2, GateType.RZZ, 1, 2, params=(1.1,)),
                 g(3, GateType.RX, 0, params=(0.5,)), g(4, GateType.CX, 2, 0)],
                3,
            ),
        ],
    )
    def test_unitary_preserved(self, gates, width):
        c = build_dag(gates, width)
        for expand in (False, True):
            n = translate_to_native(c, expand_rzz=expand)
            assert n.is_native()
            dist = phase_aligned_distance(circuit_unitary(c), circuit_unitary(n))
            assert dist < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(circuits(max_width=5, max_gates=12))
    def test_unitary_preserved_random(self, c):
        n = translate_to_native(c)
        assert phase_aligned_distance(circuit_unitary(c), circuit_unitary(n)) < 1e-9


class TestLayers:
    def test_fully_parallel(self):
        gates = [g(i, GateType.RZZ, 2 * i, 2 * i + 1, params=(0.1,)) for i in range(4)]
        layers = extract_2q_layers(build_dag(gates, 8))
        assert len(layers) == 1 and len(layers[0]) == 4

    def test_dependency_chain(self):
        gates = [g(0, GateType.CX, 0, 1), g(1, GateType.CX, 1, 2)]
        layers = extract_2q_layers(build_dag(gates, 3))
        assert [len(l) for l in layers] == [1, 1]

    def test_qaoa_ring(self):
        gates = [
            g(0, GateType.RZZ, 0, 1, params=(0.1,)), g(1, GateType.RZZ, 2, 3, params=(0.1,)),
            g(2, GateType.RZZ, 1, 2, params=(0.1,)), g(3, GateType.RZZ, 3, 0, params=(0.1,)),
        ]
        layers = extract_2q_layers(build_dag(gates, 4))
        assert [len(l) for l in layers] == [2, 2]

    def test_no_kind_mixing(self):
        gates = [
            g(0, GateType.ZZ, 0, 1), g(1, GateType.RZZ, 2, 3, params=(0.1,)),
        ]
        layers = extract_2q_layers(build_dag(gates, 4))
        assert len(layers) == 2
        for layer in layers:
            assert len({x.kind for x in layer}) == 1

    def test_partition_property(self):
        gates = [g(0, GateType.H, 0)]
        for i in range(1, 9):
            gates.append(g(i, GateType.CX, (i - 1) % 4, 4 + (i % 4)))
        c = build_dag(gates, 8)
        layers = extract_2q_layers(c)
        ids = [x.id for layer in layers for x in layer]
        assert sorted(ids) == sorted(x.id for x in c.gates if x.is_2q)
        for layer in layers:
            seen = set()
            for x in layer:
                assert not seen & set(x.qubits)
                seen |= set(x.qubits)

    def test_empty(self):
        assert extract_2q_layers(build_dag([g(0, GateType.H, 0)], 1)) == []

    def test_phases(self):
        gates = [
            g(0, GateType.H, 0), g(1, GateType.H, 1),
            g(2, GateType.RZZ, 0, 1, params=(0.1,)),
            g(3, GateType.RX, 0, params=(0.2,)),
        ]
        c = build_dag(gates, 2)
        layers = extract_2q_layers(c)
        phases = one_qubit_phases(c, layers)
        assert [x.id for x in phases[0]] == [0, 1]
        assert [x.id for x in phases[1]] == [3]


class TestTextIO:
    def test_round_trip_bit_exact(self):
        gates = [
            g(0, GateType.H, 0), g(1, GateType.CX, 0, 1),
            g(2, GateType.RZZ, 1, 2, params=(0.30000000000000004,)),
            g(3, GateType.U1Q, 2, params=(PI / 2, -PI / 2)),
            g(4, GateType.MEASURE, 0), g(5, GateType.INIT, 1),
        ]
        c = build_dag(gates, 3)
        text = circuit_to_text(c)
        c2 = circuit_from_text(text)
        assert circuit_to_text(c2) == text
        assert [(x.kind, x.qubits, x.params) for x in c2.gates] == [
            (x.kind, x.qubits, x.params) for x in c.gates
        ]
        assert c2.edges == c.edges

    def test_width_comment(self):
        c = circuit_from_text("# width 5\nH q0\n")
        assert c.width == 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            circuit_from_text("BOGUS q0\n")

    def test_qasm_subset(self):
        qasm = """
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[3];
        creg c[3];
        h q[0];
        x q[1];
        rx(pi/2) q[2];
        rz(0.25) q[0];
        cx q[0], q[1];
        rzz(pi/4) q[1], q[2];
        measure q[0] -> c[0];
        """
        c = circuit_from_qasm(qasm)
        kinds = [x.kind for x in c.gates]
        assert kinds == [
            GateType.H, GateType.X, GateType.RX, GateType.RZ, GateType.CX,
            GateType.RZZ, GateType.MEASURE,
        ]
        assert c.width == 3
        assert c.gates[2].params == (PI / 2,)

    def test_qasm_rejects_unknown(self):
        with pytest.raises(ValueError):
            circuit_from_qasm("qreg q[1];\nt q[0];\n")

    @pytest.mark.parametrize("expr", ["1/0", "2*pi+", "2**3", "abs(1)", "pi.real", "1j", "True"])
    def test_qasm_bad_parameter_names_line(self, expr):
        with pytest.raises(ValueError, match=r"^line 3: "):
            circuit_from_qasm(f"qreg q[1];\nh q[0];\nrz({expr}) q[0];\n")

    def test_qasm_parameter_arithmetic(self):
        c = circuit_from_qasm("qreg q[1];\nrz(-pi/4 + 2*0.5 - +1) q[0];\nrx(3/2) q[0];\n")
        assert c.gates[0].params == (-PI / 4 + 2 * 0.5 - +1,)
        assert c.gates[1].params == (1.5,)

    def test_qasm_bad_gate_names_line(self):
        with pytest.raises(ValueError, match=r"^line 2: "):
            circuit_from_qasm("qreg q[2];\ncx q[0];\n")

    def test_text_bad_parameter_names_line(self):
        with pytest.raises(ValueError, match=r"^line 2: .*'abc'"):
            circuit_from_text("H q0\nRz q0 abc\n")
        with pytest.raises(ValueError, match=r"^line 1: "):
            circuit_from_text("Rz q0 nan\n")


def test_topological_layers_match_program_order():
    gates = [
        g(0, GateType.H, 0), g(1, GateType.CX, 0, 1), g(2, GateType.H, 1),
        g(3, GateType.CX, 1, 2),
    ]
    layers = topological_layers(build_dag(gates, 3))
    assert [[x.id for x in l] for l in layers] == [[0], [1], [2], [3]]
