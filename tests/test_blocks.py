"""In-place block extraction: partition, layer shape and chain attachment."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racetrack.blocks import Block, extract_inplace_blocks
from racetrack.circuit import build_dag
from racetrack.gates import Gate, GateType
from racetrack.translate import extract_2q_layers, list_layers, translate_to_native
from test_circuit_ir import UNITARY_KINDS, circuits

native_circuits = circuits(
    max_width=6, max_gates=24, kinds=UNITARY_KINDS + (GateType.MEASURE,)
).map(translate_to_native)


def reference_chains(c, schedule):
    """Pre/post chains of every block by rescanning each qubit's gates from
    the start, claiming in the schedule's block order."""
    seq = {}
    for g in c.gates:
        for q in g.qubits:
            seq.setdefault(q, []).append(g)
    claimed = set()
    out = []
    for layer in schedule.layers:
        for block in layer:
            core = block.core_2q
            pre, post = [], []
            for q in core.qubits:
                run = []
                for g in seq[q]:
                    if g.id == core.id:
                        break
                    if g.is_2q or g.id in claimed:
                        run = []
                    else:
                        run.append(g)
                pre += run
                after = seq[q][seq[q].index(core) + 1:]
                for g in after:
                    if g.is_2q:
                        break
                    post.append(g)
            claimed.update(g.id for g in pre + post)
            out.append((tuple(pre), tuple(post)))
    return out


@settings(max_examples=150, deadline=None)
@given(native_circuits, st.integers(1, 8))
def test_block_schedule_properties(c, k):
    schedule = extract_inplace_blocks(c, k)
    blocks = [b for layer in schedule.layers for b in layer]

    ids = [g.id for b in blocks for g in b.pre_1q + (b.core_2q,) + b.post_1q]
    ids += [g.id for g in schedule.residual]
    assert sorted(ids) == [g.id for g in c.gates]

    for layer in schedule.layers:
        assert 1 <= len(layer) <= k
        assert len({b.core_2q.kind for b in layer}) == 1
        used = [q for b in layer for q in b.qubits]
        assert len(used) == len(set(used))
        for b in layer:
            assert b.core_2q.is_2q
            assert all(g.is_1q for g in b.pre_1q + b.post_1q)
    assert all(g.is_1q for g in schedule.residual)

    assert [(b.pre_1q, b.post_1q) for b in blocks] == reference_chains(c, schedule)


def test_chains_attach_to_neighbouring_cores():
    c = build_dag([
        Gate(0, GateType.RZ, (0,), (0.1,)),
        Gate(1, GateType.ZZ, (0, 1)),
        Gate(2, GateType.RZ, (1,), (0.2,)),
        Gate(3, GateType.RZ, (1,), (0.3,)),
        Gate(4, GateType.ZZ, (1, 2)),
        Gate(5, GateType.RZ, (2,), (0.4,)),
        Gate(6, GateType.RZ, (3,), (0.5,)),
    ], 4)
    schedule = extract_inplace_blocks(c, 2)
    assert [[b.core_2q.id for b in layer] for layer in schedule.layers] == [[1], [4]]
    first, second = schedule.layers[0][0], schedule.layers[1][0]
    assert [g.id for g in first.pre_1q] == [0]
    assert [g.id for g in first.post_1q] == [2, 3]
    assert second.pre_1q == ()
    assert [g.id for g in second.post_1q] == [5]
    assert [g.id for g in schedule.residual] == [6]


def test_a_block_is_the_tuple_of_its_fields():
    pre, core, post = (Gate(0, GateType.RZ, (0,), (0.1,)),), Gate(1, GateType.ZZ, (0, 1)), (
        Gate(2, GateType.RZ, (0,), (0.2,)), Gate(3, GateType.RZ, (1,), (0.3,)))
    block = Block(pre, core, post)
    assert block == (pre, core, post) and hash(block) == hash((pre, core, post))
    assert block != Block(pre, core, post[:1]) and block != Block((), core, post)
    assert repr(block) == f"Block(pre_1q={pre!r}, core_2q={core!r}, post_1q={post!r})"
    assert (block.pre_1q, block.core_2q, block.post_1q) == (pre, core, post)
    assert block.qubits == (0, 1) and block.gates == (*pre, core, *post)
    built, = extract_inplace_blocks(build_dag([*pre, core, *post], 2), 1).layers[0]
    assert type(built) is Block and built == block and hash(built) == hash(block)


def test_zone_count_must_be_positive():
    c = build_dag([Gate(0, GateType.ZZ, (0, 1))], 2)
    with pytest.raises(ValueError, match="zone_count must be an integer >= 1, got 0"):
        extract_inplace_blocks(c, 0)


def reference_layers(c, cap):
    """2Q layers by rescanning: each layer recomputes the ready set from
    scratch (a 2Q gate is ready once no earlier unplaced 2Q gate shares a
    qubit), takes the kind of the earliest ready gate in program order,
    and keeps the `cap` ready gates of that kind with the lowest qubits."""
    remaining = [g for g in c.gates if g.is_2q]
    layers = []
    while remaining:
        ready = [g for i, g in enumerate(remaining)
                 if not any(set(g.qubits) & set(h.qubits) for h in remaining[:i])]
        same = [g for g in ready if g.kind is ready[0].kind]
        layer = sorted(same, key=lambda g: min(g.qubits))[:cap]
        layers.append([g.id for g in layer])
        placed = set(layers[-1])
        remaining = [g for g in remaining if g.id not in placed]
    return layers


@settings(max_examples=150, deadline=None)
@given(native_circuits, st.sampled_from([None, 1, 2, 3, 4, 5, 6, 7, 8]))
def test_2q_layers_match_a_rescan(c, cap):
    layers = extract_2q_layers(c, cap)
    assert [[g.id for g in layer] for layer in layers] == reference_layers(c, cap)
    if cap is not None:
        cores = [[b.core_2q for b in layer] for layer in extract_inplace_blocks(c, cap).layers]
        assert cores == layers


def test_cap_must_be_positive():
    c = build_dag([Gate(0, GateType.ZZ, (0, 1))], 2)
    with pytest.raises(ValueError, match="cap must be an integer >= 1, got 0"):
        extract_2q_layers(c, 0)


@pytest.mark.parametrize("cap", [-1, 2.5, 2.0, True, False, "2"])
def test_a_cap_must_be_an_integer(cap):
    # 2.5 never equals a layer's size, so it left every layer uncapped,
    # and True capped at 1
    c = build_dag([Gate(0, GateType.ZZ, (0, 1)), Gate(1, GateType.ZZ, (2, 3))], 4)
    with pytest.raises(ValueError, match=re.escape(f"cap must be an integer >= 1, got {cap!r}")):
        list_layers(c.gates, lambda g: g.kind, cap)
    with pytest.raises(ValueError, match=re.escape(f"cap must be an integer >= 1, got {cap!r}")):
        extract_2q_layers(c, cap)
    with pytest.raises(ValueError, match=re.escape(f"zone_count must be an integer >= 1, got {cap!r}")):
        extract_inplace_blocks(c, cap)
