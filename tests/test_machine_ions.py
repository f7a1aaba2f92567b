"""Machine parameters, track geometry, ion reorder primitives, planner."""
import copy
import math
import pickle
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racetrack.ions import (
    Crystal, IonState, ReorderOp, ReorderTag, apply_reorder, bubble_left_in_place, reorder_in_place,
)
from racetrack.machine import (
    FidelityParams,
    TimingParams,
    build_track,
    lap_time,
    machine_from_dict,
    make_machine,
)
from racetrack.planner import PlanMode, plan_reorder, split_all_plan, staged_time

from oracle import apply_plan, reorder_time


class TestTimingParams:
    def test_defaults_consistent(self):
        TimingParams().validate()

    def test_speed_ratio(self):
        t = TimingParams()
        assert abs(t.zone_gap / t.inter_zone_shift - t.straight_speed) / t.straight_speed < 0.005

    def test_cooling_sums(self):
        t = TimingParams()
        assert t.cool_1q_batch == 550 + 850 + 650 + t.one_q_gate == 2055
        assert t.cool_2q_batch == 550 + 850 + 650 + t.two_q_gate == 2075

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            TimingParams(cool_1q_batch=99.0).validate()

    def test_fidelity_ranges(self):
        FidelityParams().validate()
        with pytest.raises(ValueError):
            FidelityParams(inf_spam=1.5).validate()
        with pytest.raises(ValueError):
            FidelityParams(t1=0.0).validate()


class TestTrack:
    def test_lap_default(self):
        track = build_track(4)
        assert lap_time(track, 0) == pytest.approx(6200.0)

    def test_lap_8zone(self):
        track = build_track(8)
        assert lap_time(track, 0) == pytest.approx(12400.0)

    def test_lap_monotone_additive(self):
        for k in (1, 2, 4, 16, 64):
            assert lap_time(build_track(k), 0) == pytest.approx(1550.0 * k)

    def test_half_shortcut_on_8zone(self):
        track = build_track(8, shortcuts=[0.5])
        assert lap_time(track, 1) == pytest.approx(6200.0)

    def test_three_paths_decreasing(self):
        track = build_track(64, 64, [0.5, 0.25])
        lengths = [l for _, l in track.circulation_paths]
        assert len(lengths) == 3
        assert lengths[0] > lengths[1] > lengths[2]

    def test_shortcut_validation(self):
        with pytest.raises(ValueError):
            build_track(4, shortcuts=[0.5, 0.5])
        with pytest.raises(ValueError):
            build_track(4, shortcuts=[1.2])
        with pytest.raises(ValueError):
            build_track(0)

    def test_machine_from_dict(self):
        m = machine_from_dict(
            {"gate_zones": 8, "shortcuts": [0.5], "timing": {"one_q_gate": 6.0, "cool_1q_batch": 2056.0}}
        )
        assert m.gate_zones == 8
        assert m.timing.one_q_gate == 6.0
        with pytest.raises(ValueError):
            machine_from_dict({"bogus": 1})
        with pytest.raises(ValueError):
            machine_from_dict({"timing": {"nope": 1}})

    @pytest.mark.parametrize("desc, message", [
        ({"timing": {"inter_zone_shift": 0}}, "inter_zone_shift must be finite and > 0, got 0"),
        ({"timing": {"straight_speed": 0}}, "straight_speed must be finite and > 0, got 0"),
        ({"timing": {"zone_gap": -750.0}}, "zone_gap must be finite and > 0, got -750.0"),
        ({"timing": {"lap_4zone": math.inf}}, "lap_4zone must be finite and > 0, got inf"),
        ({"timing": {"swap": math.nan}}, "swap must be finite and >= 0, got nan"),
        ({"timing": {"swap": -200.0}}, "swap must be finite and >= 0, got -200.0"),
        ({"fidelity": {"t1": math.nan}}, "t1 must be positive, got nan"),
        ({"reorder_zones": 0}, "reorder_zones must be an integer >= 1, got 0"),
        ({"reorder_zones": -2}, "reorder_zones must be an integer >= 1, got -2"),
        ({"gate_zones": 2.5}, "gate_zones must be an integer >= 1, got 2.5"),
        ({"capacity": 0}, "capacity must be an integer >= 1, got 0"),
        ({"capacity": 8.0}, "capacity must be an integer >= 1, got 8.0"),
    ])
    def test_bad_description_names_the_field(self, desc, message):
        with pytest.raises(ValueError) as err:
            machine_from_dict(desc)
        assert str(err.value) == message

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

    def test_shifts_keep_order(self):
        s = IonState.initial_pairs(4)
        s2, dt = apply_reorder(s, ReorderOp(ReorderTag.INTER_SHIFT, index=0))
        assert dt == 283.0
        assert s2.qubit_order() == s.qubit_order()
        s3, dt3 = apply_reorder(s, ReorderOp(ReorderTag.INTRA_SHIFT, index=0))
        assert dt3 == 58.0

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
            assert sorted(s.qubit_order()) == list(range(n))


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


class TestReorderTime:
    def test_spec_sum(self):
        assert reorder_time({"split": 2, "swap": 1}) == 456.0

    def test_empty(self):
        assert reorder_time({}) == 0.0

    def test_tilt_sweep(self):
        assert reorder_time({"interzone": 31}) == 8773.0

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            reorder_time({"teleport": 1})
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
    bitmask in staged_time."""
    durations = {
        ReorderTag.SPLIT: t.split_or_combine,
        ReorderTag.COMBINE: t.split_or_combine,
        ReorderTag.SWAP: t.swap,
        ReorderTag.INTRA_SHIFT: t.intra_zone_shift,
        ReorderTag.INTER_SHIFT: t.inter_zone_shift,
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

    @given(ops, st.integers(1, 8), timings)
    @settings(max_examples=300, deadline=None)
    def test_matches_set_reference(self, ops, zones, t):
        # indices up to 200 take the busy mask far past 64 bits
        assert staged_time(ops, zones, t) == _staged_time_with_set(ops, zones, t)


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
        assert s.qubits() == set(range(n))
        assert {q: s.crystal_of(q) for q in range(n)} == scan
        # replace() builds the state again, and with it the index
        flipped = replace(s, crystals=s.crystals[::-1])
        assert dict(flipped.crystal_index) == self._scan(flipped)

    @given(st.integers(1, 16), st.data())
    @settings(max_examples=50, deadline=None)
    def test_takes_no_part_in_eq_hash_repr(self, n, data):
        s, _ = _draw_instance(n, data)
        s = IonState(s.crystals, position=data.draw(st.sampled_from([0.0, 375.0])))
        twin = IonState(s.crystals, s.position)
        assert s == twin and hash(s) == hash(twin)
        assert hash(s) == hash((s.crystals, s.position))
        assert repr(s) == f"IonState(crystals={s.crystals!r}, position={s.position!r})"

    def test_read_only(self):
        s = IonState.initial_pairs(4)
        with pytest.raises(TypeError):
            s.crystal_index[0] = 1
        with pytest.raises(ValueError):
            replace(s, crystal_index={})
        assert dict(s.crystal_index) == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_pickle_and_deepcopy_rebuild_it(self):
        s = IonState((Crystal((2,), False), Crystal((0, 1))), position=375.0)
        for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert twin == s and twin.position == 375.0
            assert dict(twin.crystal_index) == {2: 0, 0: 1, 1: 1}

    def test_duplicate_still_rejected(self):
        with pytest.raises(ValueError, match="qubit 1 appears twice in arrangement"):
            IonState((Crystal((0, 1)), Crystal((1,))))

    def test_unknown_qubit(self):
        s = IonState.initial_pairs(4)
        with pytest.raises(KeyError, match="qubit 9 not in arrangement"):
            s.crystal_of(9)


class TestReorderOp:
    def test_repr_and_defaults(self):
        op = ReorderOp(ReorderTag.SPLIT)
        assert (op.operands, op.index, op.zone) == ((), 0, None)
        assert repr(op) == "ReorderOp(tag=<ReorderTag.SPLIT: 'split'>, operands=(), index=0, zone=None)"

    def test_hash_and_immutability(self):
        a = ReorderOp(ReorderTag.PAIR_EXCHANGE, (1, 2), 3)
        b = ReorderOp(ReorderTag.PAIR_EXCHANGE, (1, 2), index=3)
        assert a == b and hash(a) == hash(b)
        # the hash the frozen dataclass had: that of the field tuple
        assert hash(a) == hash((a.tag, a.operands, a.index, a.zone))
        assert a != ReorderOp(ReorderTag.PAIR_EXCHANGE, (1, 2), 4)
        with pytest.raises(AttributeError):
            a.index = 4


class TestPlanner:
    def test_fixed_point(self):
        s = IonState.initial_pairs(8)
        track = build_track(4)
        plan = plan_reorder(s, [(0, 1), (2, 3)], track)
        assert plan.n_ops == 0 and plan.time == 0.0

    def test_steane_layer_transition_two_ops(self):
        # (->6,<-0)(->1,<-2)(->3,<-4)<-5  to pairs {(6,1),(0,2),(3,5)}
        s = IonState(
            (Crystal((6, 0)), Crystal((1, 2)), Crystal((3, 4)), Crystal((5,), False))
        )
        track = build_track(4)
        plan = plan_reorder(s, [(6, 1), (0, 2), (3, 5)], track)
        exchange_ops = [o for o in plan.ops if o.tag is ReorderTag.PAIR_EXCHANGE]
        assert len(exchange_ops) == 2 and plan.n_ops == 2
        assert plan.final.paired(6, 1)
        assert plan.final.paired(0, 2)
        assert plan.final.paired(3, 5)

    def test_duplicate_target_rejected(self):
        s = IonState.initial_pairs(4)
        with pytest.raises(ValueError):
            plan_reorder(s, [(0, 1), (1, 2)], build_track(4))

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=250, deadline=None)
    def test_random_instances_all_adjacent(self, n, data):
        # criterion-8 style property: arbitrary start, arbitrary disjoint
        # targets, every target pair ends adjacent and combined
        s, targets = _draw_instance(n, data)
        mode = data.draw(st.sampled_from(list(PlanMode)))
        plan = plan_reorder(s, targets, build_track(4), mode)
        for a, b in targets:
            assert plan.final.paired(a, b)
        assert sorted(plan.final.qubit_order()) == list(range(n))

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=250, deadline=None)
    @pytest.mark.parametrize("mode", list(PlanMode))
    def test_replay_reaches_final(self, mode, n, data):
        # the planner edits a working copy and never replays its ops; the
        # replay through the immutable primitives must land on plan.final
        s, targets = _draw_instance(n, data)
        s = IonState(s.crystals, position=data.draw(st.sampled_from([0.0, 375.0])))
        plan = plan_reorder(s, targets, build_track(8, shortcuts=[0.5]), mode)
        replayed, _ = apply_plan(s, list(plan.ops))
        assert replayed == plan.final
        assert sorted(plan.final.qubit_order()) == sorted(s.qubit_order())
        if mode is PlanMode.ONE_DIMENSIONAL:
            assert plan.path_id is None

    def test_one_dimensional_vs_circulation(self):
        # reversing an 8-ion order: the 1-D plan cannot beat the best
        # circulation-assisted candidate on a 2-path track
        s = IonState(tuple(Crystal((q,), facing_right=(q % 2 == 0)) for q in range(8)))
        targets = [(7, 6), (5, 4), (3, 2), (1, 0)]
        track = build_track(8, shortcuts=[0.5])
        p_1d = plan_reorder(s, targets, track, PlanMode.ONE_DIMENSIONAL)
        p_c = plan_reorder(s, targets, track, PlanMode.CIRCULATION_ALLOWED)
        assert p_1d.time >= p_c.time
        assert p_1d.path_id is None

    def test_staged_time_parallelism(self):
        ops = [
            ReorderOp(ReorderTag.SPLIT, index=0),
            ReorderOp(ReorderTag.SPLIT, index=4),
            ReorderOp(ReorderTag.SPLIT, index=8),
        ]
        assert staged_time(ops, zones=4) == 128.0
        assert staged_time(ops, zones=1) == 3 * 128.0

    @staticmethod
    def _assert_costs_carried(plan, track):
        # the costs the planner carries are the staged times of its own ops,
        # bitwise, and the counts are a first-appearance count of tag values
        ops = list(plan.ops)
        exchanges = [o for o in ops if o.tag is ReorderTag.PAIR_EXCHANGE]
        regroup = [o for o in ops if o.tag is not ReorderTag.PAIR_EXCHANGE]
        assert plan.time_1d == staged_time(ops, track.gate_zones)
        assert plan.regroup_time == staged_time(regroup, track.reorder_zones)
        if plan.path_id is None:
            assert plan.time == plan.time_1d and plan.hidden_time == 0.0
        else:
            assert plan.hidden_time == staged_time(exchanges, track.reorder_zones)
            assert plan.time == max(lap_time(track, plan.path_id), plan.regroup_time)
        counts = {}
        for o in ops:
            counts[o.tag.value] = counts.get(o.tag.value, 0) + 1
        assert plan.op_counts == tuple(counts.items())

    # build_track(k) with and without a shortcut; a reorder-zone count
    # apart from k tells the gate-zone costs from the reorder-zone ones
    tracks = st.builds(
        lambda k, reorder, shortcuts: build_track(k, reorder, shortcuts=list(shortcuts)),
        st.integers(1, 8), st.one_of(st.none(), st.integers(1, 8)), st.sampled_from([(), (0.5,)]),
    )

    @given(st.integers(2, 16), tracks, st.data())
    @settings(max_examples=250, deadline=None)
    @pytest.mark.parametrize("mode", list(PlanMode))
    def test_plan_carries_its_costs(self, mode, n, track, data):
        s, targets = _draw_instance(n, data)
        self._assert_costs_carried(plan_reorder(s, targets, track, mode), track)

    @given(st.integers(2, 16), tracks, st.data())
    @settings(max_examples=150, deadline=None)
    def test_split_all_plan_carries_its_costs(self, n, track, data):
        s, _ = _draw_instance(n, data)
        s = IonState(s.crystals, position=data.draw(st.sampled_from([0.0, 375.0])))
        plan = split_all_plan(s, track)
        self._assert_costs_carried(plan, track)
        assert plan.path_id is None
        assert not plan.final.pairs()
        replayed, _ = apply_plan(s, list(plan.ops))
        assert replayed == plan.final

    @given(st.integers(2, 16), tracks, st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_dimensional_needs_no_second_plan(self, n, track, data):
        # block scheduling turns a full-lap plan into a 1-D one without
        # planning again; that must equal the plan of the 1-D mode
        s, targets = _draw_instance(n, data)
        plan = plan_reorder(s, targets, track, PlanMode.CIRCULATION_ALLOWED)
        direct = plan_reorder(s, targets, track, PlanMode.ONE_DIMENSIONAL)
        assert plan.one_dimensional() == direct

    @pytest.mark.parametrize(
        "target, reason",
        [((0, 9), "qubit 9, which is not in the arrangement"),
         ((0, 2, 4), "not two distinct qubits"),
         ((0,), "not two distinct qubits"),
         ((3, 3), "not two distinct qubits")],
    )
    def test_bad_target_names_itself(self, target, reason):
        s = IonState.initial_pairs(8)
        with pytest.raises(ValueError, match=re.escape(f"target {target!r}") + ".*" + reason):
            plan_reorder(s, [(4, 5), target], build_track(4))
