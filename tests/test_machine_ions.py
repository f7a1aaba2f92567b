"""Machine parameters, track geometry, ion reorder primitives, planner."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racetrack.ions import Crystal, IonState, ReorderOp, ReorderTag, apply_plan, apply_reorder, reorder_time
from racetrack.machine import (
    FidelityParams,
    TimingParams,
    build_track,
    lap_time,
    machine_from_dict,
    make_machine,
)
from racetrack.planner import PlanMode, plan_reorder, staged_time


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
