"""Machine parameters, track geometry, ion reorder primitives, planner."""
import copy
import json
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racetrack.blocks import extract_inplace_blocks
from racetrack.ions import Crystal, IonState, ReorderOp, ReorderTag, apply_reorder, reorder_in_place
from racetrack.machine import (
    FidelityParams,
    _check_count,
    Machine,
    TimingParams,
    machine_from_dict,
    make_machine,
)
from racetrack.metrics import fidelity_report, runtime_breakdown, zone_utilization
from racetrack.planner import PlanMode, _costed, plan_reorder, split_all_plan
from racetrack.translate import extract_2q_layers, one_qubit_phases

from oracle import apply_plan, bubble_left_in_place, plan_reorder_reference, reorder_time


def _ion_order(s):
    return [q for c in s.crystals for q in c.qubits]


def _combined(s, a, b):
    c = s.crystals[s.crystal_index[a]]
    return c.is_pair and set(c.qubits) == {a, b}


def _charged(plan, m):
    """What a plan's transition lasts on `m`: its staged 1-D time, or the
    charge of its path's lap."""
    return plan.time_1d if plan.path_id is None else plan.charge(m.lap(plan.path_id))


# every fault of a machine description, with the message it gives
DESCRIPTION_FAULTS = [
    ({"timing": {"inter_zone_shift": 0}}, "inter_zone_shift must be finite and > 0, got 0"),
    # the lap time is lap_4zone * k / 4 alone: a track length and speed are not parameters
    ({"timing": {"straight_speed": 2.65}}, "unknown machine parameter(s): ['straight_speed']"),
    ({"timing": {"zone_gap": 750.0}}, "unknown machine parameter(s): ['zone_gap']"),
    ({"timing": {"lap_4zone": math.inf}}, "lap_4zone must be finite and > 0, got inf"),
    ({"timing": {"swap": math.nan}}, "swap must be finite and >= 0, got nan"),
    ({"timing": {"swap": -200.0}}, "swap must be finite and >= 0, got -200.0"),
    ({"fidelity": {"t1": math.nan}}, "t1 must be positive, got nan"),
    ({"reorder_zones": 0}, "reorder_zones must be an integer >= 1, got 0"),
    ({"reorder_zones": -2}, "reorder_zones must be an integer >= 1, got -2"),
    ({"reorder_zones": True}, "reorder_zones must be an integer >= 1, got True"),
    ({"gate_zones": 2.5}, "gate_zones must be an integer >= 1, got 2.5"),
    ({"capacity": 0}, "capacity must be an integer >= 1, got 0"),
    ({"capacity": 8.0}, "capacity must be an integer >= 1, got 8.0"),
    ({"timing": {"inter_zone_shift": -5.0}}, "inter_zone_shift must be finite and > 0, got -5.0"),
    ({"gate_zones": 0}, "gate_zones must be an integer >= 1, got 0"),
    ({"shortcuts": [1.5]}, "shortcut fractions must lie strictly in (0, 1)"),
]
@pytest.mark.parametrize("value", [True, 1.0, 0, -1, "2", 2.5, None])
def test_a_bad_count_keeps_its_message(value):
    with pytest.raises(ValueError) as err:
        _check_count("gate_zones", value)
    assert str(err.value) == f"gate_zones must be an integer >= 1, got {value!r}"


@pytest.mark.parametrize("name, value, kind", [("timing", {}, "TimingParams"), ("timing", 0, "TimingParams"),
                                               ("fidelity", [], "FidelityParams"),
                                               ("fidelity", "", "FidelityParams")])
def test_make_machine_takes_only_none_as_the_default(name, value, kind):
    # a falsy value is no default: Machine rejects it by name
    with pytest.raises(ValueError) as err:
        make_machine(4, **{name: value})
    assert str(err.value) == f"{name} must be a {kind}, got {value!r}"


def test_an_integral_count_is_accepted():
    for value in (1, 3, np.int64(3), 2**70):
        _check_count("gate_zones", value)


S4, M4 = IonState.initial_pairs(4), make_machine(4)


@pytest.mark.parametrize("call, message", [
    (lambda: plan_reorder(None, [(0, 2)], M4), "s must be an IonState, got None"),
    (lambda: plan_reorder(S4, [(0, 2)], None), "m must be a Machine, got None"),
    (lambda: plan_reorder(S4, None, M4), "target_pairs must be an Iterable, got None"),
    (lambda: split_all_plan(None, M4), "s must be an IonState, got None"),
    (lambda: split_all_plan(S4, None), "m must be a Machine, got None"),
    (lambda: extract_2q_layers(None), "c must be a Circuit, got None"),
    (lambda: one_qubit_phases(None, []), "c must be a Circuit, got None"),
    (lambda: extract_inplace_blocks(None, 2), "c must be a Circuit, got None"),
    (lambda: runtime_breakdown(None), "tr must be a Trace, got None"),
    (lambda: zone_utilization(None), "tr must be a Trace, got None"),
    (lambda: fidelity_report(None), "tr must be a Trace, got None"),
], ids=["plan_reorder-s", "plan_reorder-m", "plan_reorder-targets", "split_all_plan-s",
        "split_all_plan-m", "extract_2q_layers", "one_qubit_phases", "extract_inplace_blocks",
        "runtime_breakdown", "zone_utilization", "fidelity_report"])
def test_a_record_of_the_wrong_type_is_named(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# the bad values among them: an unknown parameter has no route to a
# machine but a description
BAD_VALUES = [(desc, message) for desc, message in DESCRIPTION_FAULTS
              if not message.startswith("unknown")]


class TestTimingParams:
    def test_defaults_consistent(self):
        TimingParams()

    def test_cooling_sums(self):
        t = TimingParams()
        assert t.cool_1q_batch == 550 + 850 + 650 + t.one_q_gate == 2055
        assert t.cool_2q_batch == 550 + 850 + 650 + t.two_q_gate == 2075
        # cooling follows the gate time
        t = TimingParams(one_q_gate=6.0, two_q_gate=30.0)
        assert (t.cool_1q_batch, t.cool_2q_batch) == (2056.0, 2080.0)

    def test_inconsistent_rejected(self):
        # a cooling time apart from the gate time cannot be set at all
        with pytest.raises(TypeError):
            TimingParams(cool_1q_batch=99.0)
        for key in ("cool_1q_batch", "cool_2q_batch"):
            with pytest.raises(ValueError, match=re.escape(f"unknown machine parameter(s): ['{key}']")):
                machine_from_dict({"timing": {key: 2055.0}})

    def test_fidelity_ranges(self):
        FidelityParams()
        with pytest.raises(ValueError):
            FidelityParams(inf_spam=1.5)
        with pytest.raises(ValueError):
            FidelityParams(t1=0.0)


class TestTrack:
    def test_lap_default(self):
        assert make_machine(4).lap(0) == 6200.0
        with pytest.raises(ValueError, match="unknown circulation path 1"):
            make_machine(4).lap(1)

    def test_lap_8zone(self):
        assert make_machine(8).lap(0) == 12400.0
        assert make_machine(8).lap() == 12400.0

    def test_lap_monotone_additive(self):
        for k in (1, 2, 4, 16, 64):
            assert make_machine(k).lap(0) == 1550.0 * k

    def test_half_shortcut_on_8zone(self):
        m = make_machine(8, shortcuts=[0.5])
        assert m.lap(1) == 6200.0
        with pytest.raises(ValueError, match="unknown circulation path 2"):
            m.lap(2)

    @pytest.mark.parametrize("path_id", [2, -1, True, 1.0, "1", None])
    def test_a_path_id_the_machine_lacks_is_named(self, path_id):
        # a bool or a float must not read as path 1, nor -1 as the last path
        with pytest.raises(ValueError) as err:
            make_machine(8, shortcuts=(0.5,)).lap(path_id)
        assert str(err.value) == f"unknown circulation path {path_id!r}"

    def test_three_paths_decreasing(self):
        m = make_machine(64, 64, [0.5, 0.25])
        assert m.circulation_paths == ((0, 1.0), (1, 0.5), (2, 0.25))
        laps = [m.lap(pid) for pid, _ in m.circulation_paths]
        assert laps == [99200.0, 49600.0, 24800.0]

    def test_shortest_path_absorbs_the_rounding_of_one_minus_f(self):
        # 1 - 0.9 falls one ulp short of 0.1; the rounded fraction does not
        m = make_machine(10, shortcuts=[0.9])
        assert m.circulation_paths[1][1] == 0.1
        assert m.shortest_path(min_fraction=0.1) == 1
        assert m.shortest_path(min_fraction=0.2) == 0

    @pytest.mark.parametrize("shortcuts, k", [((0.1, 0.9), 8), ((0.11, 0.89), 8), ((0.25, 0.75), 4)])
    def test_chords_at_f_and_one_minus_f_tie_to_the_lower_id(self, shortcuts, k):
        # reversing 8 ions with 100 us primitives: 2,100 us one-dimensionally,
        # 1,000 us of regrouping or exchanges, so each sub-loop's lap sets its
        # charge; the two sub-loops are one length, so path 1 wins over path 2
        m = make_machine(k, shortcuts=shortcuts,
                         timing=TimingParams(split_or_combine=100.0, swap=100.0, pair_exchange=100.0))
        (_, f1), (_, f2) = m.circulation_paths[1:]
        assert f1 == f2 == shortcuts[0] and m.lap(1) == m.lap(2)
        assert m.shortest_path() == m.shortest_path(min_fraction=f1) == 1
        plan = plan_reorder(IonState.initial_pairs(8), [(0, 7), (1, 6), (2, 5), (3, 4)], m)
        assert (plan.path_id, _charged(plan, m), plan.time_1d) == (1, m.lap(1), 2100.0)

    def test_shortcut_validation(self):
        with pytest.raises(ValueError):
            make_machine(4, shortcuts=[0.5, 0.5])
        with pytest.raises(ValueError):
            make_machine(4, shortcuts=[1.2])
        with pytest.raises(ValueError):
            make_machine(0)

    def test_machine_from_dict(self):
        m = machine_from_dict(
            {"gate_zones": 8, "shortcuts": [0.5], "timing": {"one_q_gate": 6.0}}
        )
        assert m.gate_zones == 8
        assert m.timing.one_q_gate == 6.0
        assert m.timing.cool_1q_batch == 2056.0
        with pytest.raises(ValueError):
            machine_from_dict({"bogus": 1})
        with pytest.raises(ValueError):
            machine_from_dict({"timing": {"nope": 1}})

    @pytest.mark.parametrize("desc, message", DESCRIPTION_FAULTS)
    def test_bad_description_names_the_field(self, desc, message):
        with pytest.raises(ValueError) as err:
            machine_from_dict(desc)
        assert str(err.value) == message

    @pytest.mark.parametrize("desc, message", BAD_VALUES)
    @pytest.mark.parametrize("route", ["make_machine", "Machine", "replace", "machine_from_dict"])
    def test_every_route_to_a_bad_machine_names_the_field(self, route, desc, message):
        """A record checks itself however it is built, so no bad machine
        reaches `schedule`."""
        (key, value), = desc.items()
        with pytest.raises(ValueError) as err:
            if route == "machine_from_dict":
                machine_from_dict(desc)
            elif route == "replace":
                if key in ("timing", "fidelity"):
                    replace(getattr(make_machine(), key), **value)
                else:
                    replace(make_machine(), **{key: value})
            else:
                build = make_machine if route == "make_machine" else Machine
                if key in ("timing", "fidelity"):
                    record = TimingParams if key == "timing" else FidelityParams
                    build(**{key: record(**value)})
                else:
                    build(**{key: value})
        assert str(err.value) == message

    def test_parameter_records_must_be_records(self):
        for key in ("timing", "fidelity"):
            with pytest.raises(ValueError, match=f"^{key} must be a "):
                Machine(**{key: None})

    def test_a_machine_derives_its_paths_when_built(self):
        m = make_machine(8)
        assert Machine() == make_machine() and m.reorder_zones is None
        assert m.circulation_paths == ((0, 1.0),)
        half = replace(m, shortcuts=[0.5])
        assert half.shortcuts == (0.5,) and half.circulation_paths == ((0, 1.0), (1, 0.5))
        assert half.lap(1) == 6200.0

    @pytest.mark.parametrize("text, name", [
        ('{"shortcuts": 0.5}', "shortcuts"),
        ('{"shortcuts": [null]}', "shortcuts"),
        ('{"shortcuts": "0.5"}', "shortcuts"),
        ('{"timing": {"swap": "200"}}', "swap"),
        ('{"timing": {"swap": null}}', "swap"),
        ('{"timing": {"swap": true}}', "swap"),
        ('{"fidelity": {"t1": "100"}}', "t1"),
        ('{"fidelity": {"inf_spam": null}}', "inf_spam"),
        ('{"timing": 5}', "timing"),
        ('{"timing": ["swap"]}', "timing"),
        ('[]', "machine description"),
    ])
    def test_wrong_json_types_name_the_field(self, text, name):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
            machine_from_dict(json.loads(text))

    def test_zero_valued_timing_is_allowed_off_the_divisors(self):
        m = machine_from_dict({"timing": {"swap": 0.0, "intra_zone_shift": 0}})
        assert m.timing.swap == 0.0
        assert machine_from_dict({"fidelity": {"t1": math.inf}}).fidelity.t1 == math.inf


class TestReorderPrimitives:
    def test_split_combine(self):
        s = IonState((Crystal((0, 2)),))
        s2, dt = apply_reorder(s, ReorderOp(ReorderTag.SPLIT, index=0))
        assert dt == 128.0
        assert [c.qubits for c in s2.crystals] == [(0,), (2,)]
        assert s2.crystals[0].facing_right and not s2.crystals[1].facing_right
        s3, dt2 = apply_reorder(s2, ReorderOp(ReorderTag.COMBINE, index=0))
        assert dt2 == 128.0
        assert s3.crystals[0].qubits == (0, 2)

    def test_combine_orientation_guard(self):
        s = IonState((Crystal((0,), False), Crystal((1,), False)))
        with pytest.raises(ValueError):
            apply_reorder(s, ReorderOp(ReorderTag.COMBINE, index=0))

    def test_swap_pair(self):
        s = IonState((Crystal((0, 2)),))
        s2, dt = apply_reorder(s, ReorderOp(ReorderTag.SWAP, index=0))
        assert dt == 200.0
        assert s2.crystals[0].qubits == (2, 0)

    def test_swap_flips_single(self):
        s = IonState((Crystal((5,), True),))
        s2, _ = apply_reorder(s, ReorderOp(ReorderTag.SWAP, index=0))
        assert not s2.crystals[0].facing_right

    def test_pair_exchange_between_pairs(self):
        s = IonState((Crystal((6, 0)), Crystal((1, 2))))
        s2, dt = apply_reorder(s, ReorderOp(ReorderTag.PAIR_EXCHANGE, index=0))
        assert dt == 1053.0
        assert [c.qubits for c in s2.crystals] == [(6, 1), (0, 2)]

    def test_pair_exchange_pair_single(self):
        s = IonState((Crystal((3, 4)), Crystal((5,), False)))
        s2, _ = apply_reorder(s, ReorderOp(ReorderTag.PAIR_EXCHANGE, index=0))
        assert [c.qubits for c in s2.crystals] == [(3, 5), (4,)]

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_qubit_multiset_preserved(self, n, data):
        s = IonState.initial_pairs(n)
        for _ in range(6):
            tag = data.draw(st.sampled_from(list(ReorderTag)))
            idx = data.draw(st.integers(0, max(0, len(s.crystals) - 2)))
            try:
                s, _ = apply_reorder(s, ReorderOp(tag, index=idx))
            except ValueError:
                continue
            assert sorted(_ion_order(s)) == list(range(n))


    @pytest.mark.parametrize("crystals, tag, index, message", [
        ((Crystal((0,)), Crystal((1,), False)), ReorderTag.SPLIT, 0, "split needs a pair"),
        ((Crystal((0, 1)),), ReorderTag.SPLIT, 1, "split needs a pair"),
        ((Crystal((0,)),), ReorderTag.COMBINE, 0, "combine needs two crystals"),
        ((Crystal((0, 1)), Crystal((2,), False)), ReorderTag.COMBINE, 0, "combine needs singles"),
        ((Crystal((0,), False), Crystal((1,), False)), ReorderTag.COMBINE, 0,
         r"combine needs \(->, <-\) orientations"),
        ((Crystal((0, 1)),), ReorderTag.SWAP, 1, "swap index out of range"),
        ((Crystal((0, 1)),), ReorderTag.SWAP, -1, "swap index out of range"),
        ((Crystal((0, 1)),), ReorderTag.PAIR_EXCHANGE, 0, "exchange needs two adjacent crystals"),
    ])
    def test_illegal_op_raises(self, crystals, tag, index, message):
        s = IonState(crystals)
        with pytest.raises(ValueError, match=message):
            apply_reorder(s, ReorderOp(tag, index=index))
        assert s.crystals == crystals

    def test_an_unknown_tag_is_rejected(self):
        cs = [Crystal((0, 1))]
        with pytest.raises(ValueError) as err:
            reorder_in_place(cs, ReorderOp("split", (0, 1), 0))
        assert str(err.value) == "unknown reorder op 'split'"
        assert cs == [Crystal((0, 1))]

    def test_initial_pairs(self):
        assert IonState.initial_pairs(0).crystals == ()
        assert IonState.initial_pairs(3).crystals == (Crystal((0, 1)), Crystal((2,), False))

    @pytest.mark.parametrize("n", [-3, -1, True, 2.0, "4", None])
    def test_initial_pairs_names_a_bad_ion_count(self, n):
        with pytest.raises(ValueError) as err:
            IonState.initial_pairs(n)
        assert str(err.value) == f"ion count must be an integer >= 0, got {n!r}"


class TestReorderTime:
    def test_spec_sum(self):
        assert reorder_time({"split": 2, "swap": 1}) == 456.0

    def test_empty(self):
        assert reorder_time({}) == 0.0

    def test_unknown_op(self):
        # shifts are transport, not reorder primitives
        for name in ("teleport", "interzone", "intrazone"):
            with pytest.raises(ValueError):
                reorder_time({name: 1})
        with pytest.raises(ValueError):
            reorder_time({"split": -1})


def _draw_instance(n, data):
    """An arbitrary arrangement of n qubits and disjoint target pairs."""
    order = data.draw(st.permutations(range(n)))
    crystals = []
    i = 0
    while i < n:
        if i + 1 < n and data.draw(st.booleans()):
            crystals.append(Crystal((order[i], order[i + 1])))
            i += 2
        else:
            crystals.append(Crystal((order[i],), facing_right=data.draw(st.booleans())))
            i += 1
    pool = list(range(n))
    targets = []
    for _ in range(data.draw(st.integers(0, n // 2))):
        a = pool.pop(data.draw(st.integers(0, len(pool) - 1)))
        b = pool.pop(data.draw(st.integers(0, len(pool) - 1)))
        targets.append((a, b))
    return IonState(tuple(crystals)), targets


def _draw_targets_with_pairs(s, data):
    """Disjoint targets in any order: some of the arrangement's own pairs,
    either way round, and random pairs of the other qubits."""
    targets = []
    pool = []
    for c in s.crystals:
        if c.is_pair and data.draw(st.booleans()):
            a, b = c.qubits
            targets.append((b, a) if data.draw(st.booleans()) else (a, b))
        else:
            pool.extend(c.qubits)
    for _ in range(data.draw(st.integers(0, len(pool) // 2))):
        a = pool.pop(data.draw(st.integers(0, len(pool) - 1)))
        b = pool.pop(data.draw(st.integers(0, len(pool) - 1)))
        targets.append((a, b))
    return [targets[i] for i in data.draw(st.permutations(range(len(targets))))]


def _bubble_stepwise(cs, left, mover):
    """The bubble one SPLIT or PAIR_EXCHANGE at a time, through the checked
    primitive: a pair in the way is split, a single is crossed."""
    ops = []
    while mover - left > 1:
        j = mover - 1
        if cs[j].is_pair:
            op = ReorderOp(ReorderTag.SPLIT, cs[j].qubits, j)
            mover += 1
        else:
            op = ReorderOp(ReorderTag.PAIR_EXCHANGE, cs[j].qubits + cs[mover].qubits, j)
            mover -= 1
        reorder_in_place(cs, op)
        ops.append(op)
    return ops


def _staged_time_with_set(ops, zones, t=TimingParams()):
    """The staging rule over a set of busy slots: the reference for the
    busy bitmasks in planner._costed."""
    durations = {
        ReorderTag.SPLIT: t.split_or_combine,
        ReorderTag.COMBINE: t.split_or_combine,
        ReorderTag.SWAP: t.swap,
        ReorderTag.PAIR_EXCHANGE: t.pair_exchange,
    }
    cap = max(1, zones)
    total = 0.0
    busy = set()
    stage_max = 0.0
    stage_n = 0
    for op in ops:
        i = op.index
        if stage_n >= cap or i in busy or i + 1 in busy:
            total += stage_max
            busy.clear()
            stage_max, stage_n = 0.0, 0
        busy.add(i)
        busy.add(i + 1)
        stage_max = max(stage_max, durations[op.tag])
        stage_n += 1
    return total + stage_max


class TestBubble:
    @given(st.integers(2, 16), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_stepwise_primitives(self, n, data):
        s, _ = _draw_instance(n, data)
        singles = [i for i, c in enumerate(s.crystals) if not c.is_pair and i > 0]
        if not singles:
            s = IonState((Crystal((n,)),) + s.crystals + (Crystal((n + 1,)),))
            singles = [len(s.crystals) - 1]
        mover = data.draw(st.sampled_from(singles))
        left = data.draw(st.integers(0, mover - 1))
        expected = list(s.crystals)
        expected_ops = _bubble_stepwise(expected, left, mover)
        got = list(s.crystals)
        ops = bubble_left_in_place(got, left, mover)
        assert got == expected
        assert [type(o) for o in ops] == [ReorderOp] * len(expected_ops)
        assert [tuple(o) for o in ops] == [tuple(o) for o in expected_ops]

    @pytest.mark.parametrize("left, mover", [(2, 2), (3, 2), (-1, 2), (0, 4), (0, 9)])
    def test_bad_bounds_raise(self, left, mover):
        # (->0,<-1) ->2 <-3 ->4 at indices 0..3
        cs = [Crystal((0, 1)), Crystal((2,)), Crystal((3,), False), Crystal((4,))]
        before = list(cs)
        with pytest.raises(ValueError, match="bubble needs 0 <= left < mover"):
            bubble_left_in_place(cs, left, mover)
        assert cs == before

    def test_pair_at_mover_raises(self):
        cs = [Crystal((2,)), Crystal((3,), False), Crystal((0, 1))]
        before = list(cs)
        with pytest.raises(ValueError, match="bubble needs a single to move"):
            bubble_left_in_place(cs, 0, 2)
        assert cs == before


class TestStagedTime:
    ops = st.lists(
        st.builds(ReorderOp, st.sampled_from(list(ReorderTag)), st.just(()), st.integers(0, 200)),
        max_size=60,
    )
    timings = st.sampled_from(
        [TimingParams(), TimingParams(split_or_combine=77.0, swap=13.5, pair_exchange=999.0)]
    )

    @given(ops, st.integers(1, 8), st.integers(1, 8), timings)
    @settings(max_examples=300, deadline=None)
    def test_matches_set_reference(self, ops, gate_zones, reorder_zones, t):
        # _costed stages all ops over the gate zones and the non-exchange
        # and exchange ops apart over the reorder zones; indices up to 200
        # take each busy mask far past 64 bits
        exchanges = [o for o in ops if o.tag is ReorderTag.PAIR_EXCHANGE]
        regroup = [o for o in ops if o.tag is not ReorderTag.PAIR_EXCHANGE]
        m = make_machine(gate_zones, reorder_zones, timing=t)
        plan = _costed(ops, IonState(()), m)
        assert plan.time_1d == _staged_time_with_set(ops, gate_zones, t)
        assert plan.regroup_time == _staged_time_with_set(regroup, reorder_zones, t)
        assert plan.exchange_time == _staged_time_with_set(exchanges, reorder_zones, t)
        counts = {}
        for o in ops:
            counts[o.tag.value] = counts.get(o.tag.value, 0) + 1
        assert plan.op_counts == tuple(counts.items())


class TestCrystal:
    def test_value_semantics(self):
        pair, single = Crystal((0, 2)), Crystal((1,), False)
        assert pair.is_pair and not single.is_pair
        assert (pair.qubits, pair.facing_right, single.qubits, single.facing_right) == ((0, 2), True, (1,), False)
        assert pair == Crystal((0, 2)) and hash(pair) == hash(Crystal((0, 2)))
        assert single != Crystal((1,), True) and pair != Crystal((2, 0))
        assert (repr(pair), repr(single), repr(Crystal((3,)))) == ("(->0,<-2)", "<-1", "->3")

    @pytest.mark.parametrize("attr", ["qubits", "facing_right", "is_pair", "other"])
    def test_assignment_raises_attribute_error(self, attr):
        with pytest.raises(AttributeError):
            setattr(Crystal((0, 2)), attr, (1,))

    def test_pickle_and_deepcopy_keep_it(self):
        for c in (Crystal((0, 2)), Crystal((1,), False)):
            twins = [pickle.loads(pickle.dumps(c, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in twins + [copy.deepcopy(c), copy.copy(c)]:
                assert type(twin) is Crystal and twin == c
                assert (twin.qubits, twin.facing_right, twin.is_pair) == (c.qubits, c.facing_right, c.is_pair)


class TestCrystalIndex:
    @staticmethod
    def _scan(s):
        return {q: i for i, c in enumerate(s.crystals) for q in c.qubits}

    @given(st.integers(1, 16), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_a_scan(self, n, data):
        s, _ = _draw_instance(n, data)
        scan = self._scan(s)
        assert dict(s.crystal_index) == scan
        # replace() builds the state again, and with it the index
        flipped = replace(s, crystals=s.crystals[::-1])
        assert dict(flipped.crystal_index) == self._scan(flipped)

    @given(st.integers(1, 16), st.data())
    @settings(max_examples=50, deadline=None)
    def test_takes_no_part_in_eq_hash_repr(self, n, data):
        s, _ = _draw_instance(n, data)
        twin = IonState(s.crystals)
        assert s == twin and hash(s) == hash(twin)
        assert hash(s) == hash((s.crystals,))
        assert repr(s) == f"IonState(crystals={s.crystals!r})"

    def test_read_only(self):
        s = IonState.initial_pairs(4)
        with pytest.raises(TypeError):
            s.crystal_index[0] = 1
        with pytest.raises(ValueError):
            replace(s, crystal_index={})
        assert dict(s.crystal_index) == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_pickle_and_deepcopy_rebuild_it(self):
        s = IonState((Crystal((2,), False), Crystal((0, 1))))
        for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert twin == s
            assert dict(twin.crystal_index) == {2: 0, 0: 1, 1: 1}

    def test_duplicate_still_rejected(self):
        with pytest.raises(ValueError, match="qubit 1 appears twice in arrangement"):
            IonState((Crystal((0, 1)), Crystal((1,))))

    @pytest.mark.parametrize("crystals, message", [
        (((0, 1),), "crystals[0] must be a Crystal, got (0, 1)"),
        ((Crystal(()),), "crystals[0] must hold one or two qubits, got ()"),
        ((Crystal((0, 1, 2)),), "crystals[0] must hold one or two qubits, got (0, 1, 2)"),
    ], ids=["a-tuple", "no-qubit", "three-qubits"])
    def test_a_crystal_that_is_no_crystal_of_one_or_two_qubits_is_named(self, crystals, message):
        with pytest.raises(ValueError) as err:
            IonState(crystals)
        assert str(err.value) == message

    def test_a_state_built_from_a_list_equals_one_built_from_a_tuple(self):
        crystals = [Crystal((0, 1)), Crystal((2,), False)]
        s = IonState(crystals)
        assert type(s.crystals) is tuple
        assert s == IonState(tuple(crystals)) and hash(s) == hash(IonState(tuple(crystals)))


class TestReorderOp:
    def test_repr_and_defaults(self):
        op = ReorderOp(ReorderTag.SPLIT)
        assert (op.operands, op.index) == ((), 0)
        assert repr(op) == "ReorderOp(tag=<ReorderTag.SPLIT: 'split'>, operands=(), index=0)"

    def test_hash_and_immutability(self):
        a = ReorderOp(ReorderTag.PAIR_EXCHANGE, (1, 2), 3)
        b = ReorderOp(ReorderTag.PAIR_EXCHANGE, (1, 2), index=3)
        assert a == b and hash(a) == hash(b)
        # the hash the frozen dataclass had: that of the field tuple
        assert hash(a) == hash((a.tag, a.operands, a.index))
        assert a != ReorderOp(ReorderTag.PAIR_EXCHANGE, (1, 2), 4)
        with pytest.raises(AttributeError):
            a.index = 4


class TestPlanner:
    def test_fixed_point(self):
        s = IonState.initial_pairs(8)
        m = make_machine(4)
        plan = plan_reorder(s, [(0, 1), (2, 3)], m)
        assert plan.ops == () and _charged(plan, m) == 0.0

    def test_steane_layer_transition_two_ops(self):
        # (->6,<-0)(->1,<-2)(->3,<-4)<-5  to pairs {(6,1),(0,2),(3,5)}
        s = IonState(
            (Crystal((6, 0)), Crystal((1, 2)), Crystal((3, 4)), Crystal((5,), False))
        )
        plan = plan_reorder(s, [(6, 1), (0, 2), (3, 5)], make_machine(4))
        exchange_ops = [o for o in plan.ops if o.tag is ReorderTag.PAIR_EXCHANGE]
        assert len(exchange_ops) == 2 and len(plan.ops) == 2
        assert _combined(plan.final, 6, 1)
        assert _combined(plan.final, 0, 2)
        assert _combined(plan.final, 3, 5)

    def test_duplicate_target_rejected(self):
        s = IonState.initial_pairs(4)
        with pytest.raises(ValueError):
            plan_reorder(s, [(0, 1), (1, 2)], make_machine(4))

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=250, deadline=None)
    def test_random_instances_all_adjacent(self, n, data):
        # criterion-8 style property: arbitrary start, arbitrary disjoint
        # targets, every target pair ends adjacent and combined
        s, targets = _draw_instance(n, data)
        mode = data.draw(st.sampled_from(list(PlanMode)))
        plan = plan_reorder(s, targets, make_machine(4), mode)
        for a, b in targets:
            assert _combined(plan.final, a, b)
        assert sorted(_ion_order(plan.final)) == list(range(n))

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=250, deadline=None)
    @pytest.mark.parametrize("mode", list(PlanMode))
    def test_replay_reaches_final(self, mode, n, data):
        # the planner edits a working copy and never replays its ops; the
        # replay through the immutable primitives must land on plan.final
        s, targets = _draw_instance(n, data)
        plan = plan_reorder(s, targets, make_machine(8, shortcuts=[0.5]), mode)
        replayed, _ = apply_plan(s, list(plan.ops))
        assert replayed == plan.final
        assert sorted(_ion_order(plan.final)) == sorted(_ion_order(s))
        if mode is PlanMode.ONE_DIMENSIONAL:
            assert plan.path_id is None

    def test_one_dimensional_vs_circulation(self):
        # reversing an 8-ion order: the 1-D plan cannot beat the best
        # circulation-assisted candidate on a 2-path track
        s = IonState(tuple(Crystal((q,), facing_right=(q % 2 == 0)) for q in range(8)))
        targets = [(7, 6), (5, 4), (3, 2), (1, 0)]
        m = make_machine(8, shortcuts=[0.5])
        p_1d = plan_reorder(s, targets, m, PlanMode.ONE_DIMENSIONAL)
        p_c = plan_reorder(s, targets, m, PlanMode.CIRCULATION_ALLOWED)
        assert _charged(p_1d, m) >= _charged(p_c, m)
        assert p_1d.path_id is None

    def test_shortcut_lap_wins_a_long_reversal(self):
        # nesting every pair around the middle costs 14,076 us one-dimensionally;
        # on the half-loop sub-loop (a 6,200 us lap) its 12 exchanges, staged
        # over the 8 reorder zones, take 10 stages of 1,053 us and set the charge
        s = IonState.initial_pairs(8)
        targets = [(0, 7), (1, 6), (2, 5), (3, 4)]
        m = make_machine(8, shortcuts=[0.5])
        plan = plan_reorder(s, targets, m)
        assert (plan.path_id, _charged(plan, m), plan.time_1d) == (1, 10530.0, 14076.0)
        assert plan.exchange_time == 10 * 1053.0 and dict(plan.op_counts)["exchange"] == 12
        m = make_machine(8)
        plan = plan_reorder(s, targets, m)
        assert (plan.path_id, _charged(plan, m)) == (0, 12400.0)

    def test_staged_time_parallelism(self):
        ops = [
            ReorderOp(ReorderTag.SPLIT, index=0),
            ReorderOp(ReorderTag.SPLIT, index=4),
            ReorderOp(ReorderTag.SPLIT, index=8),
        ]
        assert _costed(ops, IonState(()), make_machine(4)).time_1d == 128.0
        assert _costed(ops, IonState(()), make_machine(1)).time_1d == 3 * 128.0

    def test_replacing_the_gate_zones_resizes_the_reorder_zones(self):
        # six splits and six exchanges on disjoint slots: one stage of each
        # over eight reorder zones, two over four
        ops = [ReorderOp(tag, index=i) for tag in (ReorderTag.SPLIT, ReorderTag.PAIR_EXCHANGE)
               for i in range(0, 12, 2)]
        replaced = replace(make_machine(4), gate_zones=8)
        costs = [(p.regroup_time, p.exchange_time) for p in (
            _costed(ops, IonState(()), m) for m in (replaced, make_machine(8), make_machine(4)))]
        assert costs == [(128.0, 1053.0), (128.0, 1053.0), (256.0, 2106.0)]

    @staticmethod
    def _assert_costs_carried(plan, m):
        # the costs the planner carries are the staged times of its own ops,
        # bitwise, and the counts are a first-appearance count of tag values
        ops = list(plan.ops)
        exchanges = [o for o in ops if o.tag is ReorderTag.PAIR_EXCHANGE]
        regroup = [o for o in ops if o.tag is not ReorderTag.PAIR_EXCHANGE]
        assert plan.time_1d == _staged_time_with_set(ops, m.gate_zones)
        reorder_zones = m.reorder_zones or m.gate_zones
        assert plan.regroup_time == _staged_time_with_set(regroup, reorder_zones)
        assert plan.exchange_time == _staged_time_with_set(exchanges, reorder_zones)
        if plan.path_id is None:
            assert _charged(plan, m) == plan.time_1d
        else:
            assert _charged(plan, m) == max(m.lap(plan.path_id), plan.regroup_time, plan.exchange_time)
        counts = {}
        for o in ops:
            counts[o.tag.value] = counts.get(o.tag.value, 0) + 1
        assert plan.op_counts == tuple(counts.items())

    # make_machine(k) with and without a shortcut; a reorder-zone count
    # apart from k tells the gate-zone costs from the reorder-zone ones
    machines = st.builds(
        lambda k, reorder, shortcuts: make_machine(k, reorder, shortcuts=list(shortcuts)),
        st.integers(1, 8), st.one_of(st.none(), st.integers(1, 8)), st.sampled_from([(), (0.5,)]),
    )

    @given(st.integers(2, 16), machines, st.data())
    @settings(max_examples=250, deadline=None)
    @pytest.mark.parametrize("mode", list(PlanMode))
    def test_plan_carries_its_costs(self, mode, n, m, data):
        s, targets = _draw_instance(n, data)
        self._assert_costs_carried(plan_reorder(s, targets, m, mode), m)

    @given(st.integers(2, 16), machines, st.data())
    @settings(max_examples=150, deadline=None)
    def test_split_all_plan_carries_its_costs(self, n, m, data):
        s, _ = _draw_instance(n, data)
        plan = split_all_plan(s, m)
        self._assert_costs_carried(plan, m)
        assert plan.path_id is None
        assert not any(c.is_pair for c in plan.final.crystals)
        replayed, _ = apply_plan(s, list(plan.ops))
        assert replayed == plan.final
        # the walk that split the pairs built the index
        assert plan.final.crystal_index == IonState(plan.final.crystals).crystal_index
        assert all(type(c) is Crystal for c in plan.final.crystals)

    @given(st.integers(2, 16), machines, st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference_planner(self, n, m, data):
        # the one-walk fallback, its restore rule and its frozen index
        # against the planner that bubbled through the primitive, looked
        # every qubit up by a scan and checked every target again
        s, _ = _draw_instance(n, data)
        targets = _draw_targets_with_pairs(s, data)
        mode = data.draw(st.sampled_from(list(PlanMode)))
        plan = plan_reorder(s, targets, m, mode)
        ops, final = plan_reorder_reference(s, targets)
        assert [type(op) for op in plan.ops] == [ReorderOp] * len(ops)
        assert list(plan.ops) == ops
        assert plan.final == final and all(type(c) is Crystal for c in plan.final.crystals)
        assert [c.is_pair for c in plan.final.crystals] == [c.is_pair for c in final.crystals]
        assert plan.final.crystal_index == final.crystal_index
        assert plan.final.crystal_index == IonState(plan.final.crystals).crystal_index
        assert plan.operands == tuple(sorted({q for op in ops for q in op.operands}))
        self._assert_costs_carried(plan, m)
        candidates = [(plan.time_1d, -1)]
        if mode is PlanMode.CIRCULATION_ALLOWED:
            candidates += [(max(m.lap(pid), plan.regroup_time, plan.exchange_time), pid)
                           for pid, _ in m.circulation_paths]
        charged, path = min(candidates)
        assert (_charged(plan, m), plan.path_id) == (charged, None if path == -1 else path)

    def test_a_crossed_target_pair_is_combined_again(self):
        # the bubble of 5 to 2 splits the target pair (0, 1), which was
        # already combined, and the restore pass combines it again
        s = IonState((Crystal((2,)), Crystal((0, 1)), Crystal((5,), False)))
        plan = plan_reorder(s, [(1, 0), (2, 5)], make_machine(4), PlanMode.ONE_DIMENSIONAL)
        ops, final = plan_reorder_reference(s, [(1, 0), (2, 5)])
        assert list(plan.ops) == ops and plan.final == final
        assert [tuple(op) for op in plan.ops] == [
            (ReorderTag.SPLIT, (0, 1), 1),
            (ReorderTag.PAIR_EXCHANGE, (1, 5), 2),
            (ReorderTag.PAIR_EXCHANGE, (0, 5), 1),
            (ReorderTag.COMBINE, (2, 5), 0),
            (ReorderTag.COMBINE, (0, 1), 1),
        ]
        assert plan.final.crystals == (Crystal((2, 5)), Crystal((0, 1)))
        assert dict(plan.final.crystal_index) == {2: 0, 5: 0, 0: 1, 1: 1}

    @given(st.integers(2, 16), machines, st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_dimensional_needs_no_second_plan(self, n, m, data):
        # both modes plan the same ops, so a plan of either mode carries
        # the 1-D plan: the same plan charged its time_1d without a path
        s, targets = _draw_instance(n, data)
        plan = plan_reorder(s, targets, m, PlanMode.CIRCULATION_ALLOWED)
        direct = plan_reorder(s, targets, m, PlanMode.ONE_DIMENSIONAL)
        assert replace(plan, path_id=None) == direct

    @pytest.mark.parametrize(
        "target, reason",
        [((0, 9), "qubit 9, which is not in the arrangement"),
         ((0, 2, 4), "not two distinct qubits"),
         ((0,), "not two distinct qubits"),
         ((3, 3), "not two distinct qubits"),
         # a bool or a float hashes like an integer qubit, but names none
         ((True, 2), "not two distinct qubits"),
         ((0, 2.0), "not two distinct qubits"),
         (5, "not two distinct qubits"),
         (None, "not two distinct qubits"),
         ((0, [2]), "not two distinct qubits")],
    )
    def test_bad_target_names_itself(self, target, reason):
        s = IonState.initial_pairs(8)
        with pytest.raises(ValueError, match=re.escape(f"target {target!r}") + ".*" + reason):
            plan_reorder(s, [(4, 5), target], make_machine(4))

    @pytest.mark.parametrize("mode", ["one_dimensional", "circulation", None, 0])
    def test_a_mode_that_is_no_plan_mode_names_itself(self, mode):
        # a string would otherwise plan with circulation, as it is not
        # PlanMode.ONE_DIMENSIONAL
        with pytest.raises(ValueError) as err:
            plan_reorder(IonState.initial_pairs(4), [(0, 2)], make_machine(4, shortcuts=[0.5]), mode)
        assert str(err.value) == f"mode must be a PlanMode, got {mode!r}"
