"""Gate IR, DAG construction, translation and layering."""
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    build_dag_reference,
    circuit_unitary,
    extract_2q_layers_reference,
    phase_aligned_distance,
    topological_layers,
    translate_reference,
    validate_topology,
)
from racetrack.circuit import Circuit, build_dag
from racetrack.gates import Gate, GateType, canonical_angle
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


# a width no list of that length could hold: a per-qubit list sized by it
# raises OverflowError
HUGE_WIDTH = 10**30


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
        # a float or a bool would reach the DAG: a float fails there, and
        # True would schedule as qubit 1
        (GateType.RZ, (1.5,), (0.1,), "Rz gate 0 takes integer qubits, got (1.5,)"),
        (GateType.H, (True,), (), "H gate 0 takes integer qubits, got (True,)"),
        (GateType.ZZ, (0, 1.0), (), "ZZ gate 0 takes integer qubits, got (0, 1.0)"),
        (GateType.ZZ, ("0", 1), (), "ZZ gate 0 takes integer qubits, got ('0', 1)"),
        (GateType.CX, (1.5, 1.5), (), "CX gate 0 takes integer qubits, got (1.5, 1.5)"),
    ])
    def test_checks_name_the_fault(self, kind, qubits, params, message):
        with pytest.raises(ValueError) as err:
            Gate(0, kind, qubits, params)
        assert str(err.value) == message

    @pytest.mark.parametrize("args, message", [
        ((0, "U1q", (0,), (0.1, 0.2)), "gate 0 kind must be a GateType, got 'U1q'"),
        ((0, GateType.RZ, 5, (0.1,)), "Rz gate 0 qubits must be a sequence, got 5"),
        ((0, GateType.RZ, (0,), 0.5), "Rz gate 0 params must be a sequence, got 0.5"),
        ((0, GateType.RZ, (0,), ("a",)), "Rz gate 0 params must be real numbers, got ('a',)"),
        ((0, GateType.U1Q, (0,), (0.5, None)), "U1q gate 0 params must be real numbers, got (0.5, None)"),
        ((0, GateType.RZ, (0,), (True,)), "Rz gate 0 params must be real numbers, got (True,)"),
        ((True, GateType.H, (0,)), "gate id must be an int, got True"),
        (("x", GateType.H, (0,)), "gate id must be an int, got 'x'"),
        ((1.0, GateType.H, (0,)), "gate id must be an int, got 1.0"),
    ])
    def test_bad_input_is_a_value_error_that_names_the_field(self, args, message):
        with pytest.raises(ValueError) as err:
            Gate(*args)
        assert str(err.value) == message

    def test_an_integral_id_is_kept(self):
        assert Gate(np.int64(3), GateType.H, (0,)).id == 3

    @pytest.mark.parametrize("params", [
        (2 * PI,), (-2 * PI,), (-0.0,), (3,), (np.float64(7.0),), (np.float64(0.25),),
        (math.nan,), (math.inf,), (-math.inf,), (4 * PI + 1.0,),
    ])
    def test_params_are_canonical_angles_fast_path_or_not(self, params):
        """An in-range float skips `canonical_angle`, which returns it as it
        is; every other param goes through it, with its ValueError."""
        try:
            expected = repr(tuple(map(canonical_angle, params)))
        except ValueError as fault:
            with pytest.raises(ValueError) as err:
                Gate(0, GateType.RZ, (0,), params)
            assert str(err.value) == str(fault)
            return
        assert repr(Gate(0, GateType.RZ, (0,), params).params) == expected
        # a fast param beside a slow one, in either order
        for pair in ((0.5, params[0]), (params[0], 0.5)):
            assert repr(Gate(0, GateType.U1Q, (0,), pair).params) == repr(tuple(map(canonical_angle, pair)))

    def test_params_from_a_list_are_a_tuple(self):
        assert Gate(0, GateType.U1Q, (0,), [0.5, 0.25]).params == (0.5, 0.25)

    def test_kind_attributes(self):
        two_qubit = {GateType.ZZ, GateType.RZZ, GateType.RXXYYZZ, GateType.CX}
        abstract = {GateType.H, GateType.X, GateType.RX, GateType.CX}
        n_params = {GateType.U1Q: 2, GateType.RZ: 1, GateType.RZZ: 1, GateType.RXXYYZZ: 3,
                    GateType.RX: 1}
        for kind in GateType:
            assert kind.n_qubits == (2 if kind in two_qubit else 1)
            assert kind.n_params == n_params.get(kind, 0)
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
        # a and a + 4*pi*k reduce to one value, the +/-2*pi seam counting as equal
        d = abs(canonical_angle(a) - canonical_angle(a + 4 * PI * k))
        assert d <= 1e-12 or abs(d - 4 * PI) <= 1e-12

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

    def test_negative_width(self):
        with pytest.raises(ValueError, match=r"^circuit width must be >= 0, got -2$"):
            build_dag([], -2)
        assert build_dag([], 0).edges == frozenset()

    def test_first_fault_in_program_order(self):
        # the range fault comes first in program order, the duplicate id later
        gates = [g(0, GateType.ZZ, 0, 5), g(1, GateType.H, 0), g(1, GateType.H, 1)]
        with pytest.raises(ValueError, match=r"^qubit index 5 out of range for width 2 \(gate 0\)$"):
            build_dag(gates, 2)
        with pytest.raises(ValueError, match=r"^duplicate gate id 1$"):
            build_dag(gates[1:] + gates[:1], 2)

    def test_a_directly_built_circuit_is_checked(self):
        # the constructor runs the checks build_dag reports, with the same
        # messages, and stores the gates as a tuple so the circuit hashes
        with pytest.raises(ValueError, match=r"^qubit index 5 out of range for width 2 \(gate 0\)$"):
            Circuit(2, (g(0, GateType.H, 5), g(0, GateType.H, 1)))
        with pytest.raises(ValueError, match=r"^circuit width must be >= 0, got -3$"):
            Circuit(-3, ())
        for width in (True, 2.0, "2", None):
            with pytest.raises(ValueError, match=r"^circuit width must be an int, got "):
                Circuit(width, ())
        gate = g(0, GateType.H, 1)
        c = Circuit(2, [gate])
        assert c.gates == (gate,) and type(c.gates) is tuple
        assert hash(c) == hash(Circuit(2, (gate,))) and c == build_dag([gate], 2)

    @pytest.mark.parametrize("gates, message", [
        ([1, 2], "circuit gates must be Gates, got 1 at position 0"),
        ([Gate(0, GateType.H, (0,)), "H"], "circuit gates must be Gates, got 'H' at position 1"),
        (5, "circuit gates must be a sequence of Gates, got 5"),
    ])
    def test_gates_that_are_no_gates_are_named(self, gates, message):
        with pytest.raises(ValueError) as err:
            Circuit(2, gates)
        assert str(err.value) == message

    def test_a_huge_width_sizes_no_list(self):
        # one past the highest qubit used sizes the per-qubit list
        c = build_dag([g(0, GateType.ZZ, 0, 1), g(1, GateType.ZZ, 1, 2)], HUGE_WIDTH)
        assert c.edges == {(0, 1)}
        assert c.used_width == 3

    def test_gate_lookup(self):
        c = build_dag([g(7, GateType.H, 0), g(3, GateType.CX, 0, 1)], 2)
        assert c.gate(3) is c.gates[1] and c.gate(7) is c.gates[0]
        with pytest.raises(KeyError):
            c.gate(0)

    def test_rebuild_idempotent(self):
        gates = [
            g(0, GateType.H, 0), g(1, GateType.CX, 0, 1), g(2, GateType.RZZ, 1, 2, params=(0.4,)),
            g(3, GateType.RZ, 1, params=(0.2,)), g(4, GateType.RZZ, 1, 2, params=(0.4,)),
            g(5, GateType.CX, 2, 3),
        ]
        c1 = build_dag(gates, 4)
        c2 = build_dag(list(c1.gates), 4)
        assert c1.edges == c2.edges
        validate_topology(c1)


class TestTranslate:
    def test_a_huge_width_sizes_no_list(self):
        c = translate_to_native(build_dag([g(0, GateType.H, 3)], HUGE_WIDTH))
        assert c.width == HUGE_WIDTH and c.used_width == 4
        assert [(gate.kind, gate.qubits, gate.source) for gate in c.gates] == [
            (GateType.U1Q, (3,), 0), (GateType.RZ, (3,), 0)]

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

    @pytest.mark.parametrize("c", ["x", None, [Gate(0, GateType.H, (0,))]])
    def test_a_record_that_is_no_circuit_is_named(self, c):
        with pytest.raises(ValueError) as err:
            translate_to_native(c)
        assert str(err.value) == f"translate_to_native needs a Circuit, got {c!r}"

    @pytest.mark.parametrize("value", ["no", 0, 1.0, None])
    def test_expand_rzz_must_be_a_bool(self, value):
        # "no" is truthy, so it would otherwise expand
        c = build_dag([g(0, GateType.RZZ, 0, 1, params=(0.7,))], 2)
        with pytest.raises(ValueError) as err:
            translate_to_native(c, expand_rzz=value)
        assert str(err.value) == f"expand_rzz must be a bool, got {value!r}"

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


TWO_Q_KINDS = (GateType.CX, GateType.ZZ, GateType.RZZ)
ONE_Q_KINDS = (GateType.H, GateType.RZ, GateType.X, GateType.MEASURE)


def _random_gate(draw, gid: int, kind: GateType, qubits: tuple[int, ...]) -> Gate:
    params = tuple(draw(st.floats(-3 * PI, 3 * PI)) for _ in range(kind.n_params))
    return Gate(gid, kind, qubits, params)


@st.composite
def pair_heavy_gates(draw, max_width: int = 6, max_gates: int = 40):
    """(gates, width) whose 2Q gates reuse a few qubit pairs, often with a 1Q
    gate on one of the pair's qubits between two gates on that pair; ids
    are distinct but not in program order."""
    width = draw(st.integers(2, max_width))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, width - 1), st.integers(0, width - 1)).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=3))
    n = draw(st.integers(1, max_gates))
    ids = draw(st.permutations(range(0, 3 * n, 3)))
    gates: list[Gate] = []
    while len(gates) < n:
        step = draw(st.integers(0, 3))
        a, b = draw(st.sampled_from(pairs))
        if step == 0:  # pair, 1Q gate on one of its qubits, the pair again
            for kind, qs in ((draw(st.sampled_from(TWO_Q_KINDS)), (a, b)),
                             (draw(st.sampled_from(ONE_Q_KINDS)), (draw(st.sampled_from((a, b))),)),
                             (draw(st.sampled_from(TWO_Q_KINDS)), draw(st.sampled_from(((a, b), (b, a)))))):
                gates.append(_random_gate(draw, len(gates), kind, qs))
        elif step == 3:
            q = draw(st.integers(0, width - 1))
            gates.append(_random_gate(draw, len(gates), draw(st.sampled_from(ONE_Q_KINDS)), (q,)))
        else:
            gates.append(_random_gate(draw, len(gates), draw(st.sampled_from(TWO_Q_KINDS)), (a, b)))
    gates = gates[:n]
    return [dataclasses.replace(x, id=ids[i]) for i, x in enumerate(gates)], width


def _native_rows(c):
    return [(x.id, x.kind, x.qubits, tuple(p.hex() for p in x.params), x.source) for x in c.gates]


def _assert_edges_derived_on_first_read(c, expected):
    """`c.edges` is absent until read, then cached; a pickle carries it
    once read and derives it again when it was not."""
    assert "edges" not in c.__dict__
    unread = pickle.loads(pickle.dumps(c))
    assert c.edges == expected and c.__dict__["edges"] is c.edges
    read = pickle.loads(pickle.dumps(c))
    assert read == c and read.__dict__["edges"] == expected
    assert "edges" not in unread.__dict__ and unread.edges == expected


class TestFrontEndReferences:
    """`build_dag`, `translate_to_native`, `extract_2q_layers` and
    `canonical_angle` against the id-keyed reference build, the translation
    that read `source` from `topological_layers`, the ready-set layering
    and the plain `math.remainder` reduction."""

    @settings(max_examples=150, deadline=None)
    @given(circuits(max_width=6, max_gates=40, kinds=UNITARY_KINDS + (GateType.MEASURE, GateType.ZZ)))
    def test_build_dag_matches_reference_on_random_circuits(self, c):
        gates = list(c.gates)
        assert build_dag(gates, c.width).edges == build_dag_reference(gates, c.width)[1]

    @settings(max_examples=200, deadline=None)
    @given(pair_heavy_gates())
    def test_build_dag_matches_reference_on_repeated_pairs(self, drawn):
        gates, width = drawn
        assert build_dag(gates, width).edges == build_dag_reference(gates, width)[1]

    @settings(max_examples=100, deadline=None)
    @given(pair_heavy_gates(max_gates=12), st.integers(0, 6), st.booleans())
    def test_build_dag_faults_match_reference(self, drawn, width, duplicate):
        gates, _ = drawn
        if duplicate:
            gates = gates + [gates[0]]
        try:
            _, expected = build_dag_reference(gates, width)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                build_dag(gates, width)
            assert str(got.value) == str(err)
        else:
            assert build_dag(gates, width).edges == expected

    @settings(max_examples=100, deadline=None)
    @given(circuits(max_width=6, max_gates=30,
                    kinds=UNITARY_KINDS + (GateType.MEASURE, GateType.INIT, GateType.ZZ)),
           st.booleans())
    def test_translate_matches_reference(self, c, expand_rzz):
        got = translate_to_native(c, expand_rzz)
        ref, ref_edges = translate_reference(c, expand_rzz)
        assert _native_rows(got) == _native_rows(ref) and got.width == ref.width
        _assert_edges_derived_on_first_read(got, ref_edges)

    @settings(max_examples=100, deadline=None)
    @given(pair_heavy_gates(), st.booleans())
    def test_translate_matches_reference_on_repeated_pairs(self, drawn, expand_rzz):
        c = build_dag(*drawn)
        got = translate_to_native(c, expand_rzz)
        ref, ref_edges = translate_reference(c, expand_rzz)
        assert _native_rows(got) == _native_rows(ref)
        _assert_edges_derived_on_first_read(got, ref_edges)

    @settings(max_examples=150, deadline=None)
    @given(circuits(max_width=6, max_gates=40,
                    kinds=UNITARY_KINDS + (GateType.MEASURE, GateType.ZZ, GateType.RXXYYZZ)),
           st.booleans(), st.sampled_from([None, 1, 2, 3, 4, 5, 6, 7, 8]))
    def test_2q_layers_match_reference(self, c, expand_rzz, cap):
        native = translate_to_native(c, expand_rzz)
        for circuit in (c, native):
            assert extract_2q_layers(circuit, cap) == extract_2q_layers_reference(circuit, cap)

    @settings(max_examples=100, deadline=None)
    @given(pair_heavy_gates(), st.sampled_from([None, 1, 2, 3, 4, 5, 6, 7, 8]))
    def test_2q_layers_match_reference_on_repeated_pairs(self, drawn, cap):
        c = build_dag(*drawn)
        assert extract_2q_layers(c, cap) == extract_2q_layers_reference(c, cap)

    @staticmethod
    def _remainder_path(theta: float) -> float:
        r = math.remainder(theta, 4 * PI)
        if r <= -2 * PI:
            r += 4 * PI
        return r

    @pytest.mark.parametrize("theta", [
        2 * PI, -2 * PI, 0.0, -0.0,
        math.nextafter(2 * PI, math.inf), math.nextafter(2 * PI, 0.0),
        math.nextafter(-2 * PI, -math.inf), math.nextafter(-2 * PI, 0.0),
        4 * PI, -4 * PI, 6 * PI, 1e300, -5e-324,
    ])
    def test_canonical_angle_is_bit_equal_at_the_seams(self, theta):
        assert canonical_angle(theta).hex() == self._remainder_path(theta).hex()

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_canonical_angle_is_bit_equal_on_random_floats(self, theta):
        assert canonical_angle(theta).hex() == self._remainder_path(theta).hex()

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_canonical_angle_rejects_non_finite(self, theta):
        with pytest.raises(ValueError, match="gate angle must be finite"):
            canonical_angle(theta)

    @pytest.mark.parametrize("theta", [1, True, np.float64(0.25), np.float32(-0.5)])
    def test_canonical_angle_returns_a_float(self, theta):
        r = canonical_angle(theta)
        assert type(r) is float and r == float(theta)


class TestGateInstance:
    def test_replace_pickle_deepcopy_round_trip(self):
        x = Gate(7, GateType.U1Q, (3,), (0.5, 7.0), source=4)
        for y in (dataclasses.replace(x), pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert y == x
            assert (y.id, y.kind, y.qubits, y.params, y.source, y.is_1q, y.is_2q) == (
                x.id, x.kind, x.qubits, x.params, x.source, x.is_1q, x.is_2q)
        z = dataclasses.replace(x, qubits=[5], params=(9.0, 0.25), source=1)
        assert z.qubits == (5,) and z.params == (canonical_angle(9.0), 0.25) and z.source == 1
        pair = dataclasses.replace(Gate(0, GateType.ZZ, (0, 1)), id=2)
        assert pair.is_2q and not pair.is_1q
        with pytest.raises(ValueError, match="duplicate qubit"):
            dataclasses.replace(pair, qubits=(1, 1))

    def test_eq_and_hash_ignore_source(self):
        a = Gate(1, GateType.RZ, (0,), (0.3,), source=0)
        b = Gate(1, GateType.RZ, (0,), (0.3,), source=9)
        assert a == b and hash(a) == hash(b)
        assert a != Gate(2, GateType.RZ, (0,), (0.3,), source=0)

    def test_slotted_and_frozen(self):
        x = Gate(0, GateType.H, [2])
        assert not hasattr(x, "__dict__")
        assert x.qubits == (2,) and x.params == () and x.source == -1
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.source = 3
        assert [f.name for f in dataclasses.fields(Gate) if f.init] == [
            "id", "kind", "qubits", "params", "source"]


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


def test_topological_layers_match_program_order():
    gates = [
        g(0, GateType.H, 0), g(1, GateType.CX, 0, 1), g(2, GateType.H, 1),
        g(3, GateType.CX, 1, 2),
    ]
    layers = topological_layers(build_dag(gates, 3))
    assert [[x.id for x in l] for l in layers] == [[0], [1], [2], [3]]
