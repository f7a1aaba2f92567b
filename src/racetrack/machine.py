"""Machine model: hardware timing constants, infidelity budget, and the
racetrack geometry with optional shortcut chords.

All times are microseconds, distances micrometers.  Defaults follow the
published H2-class hardware table; every field can be overridden from a
JSON machine description.
"""
from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace

DEFAULT_CAPACITY = 56
MACHINE_FILE_ENV = "RACETRACK_MACHINE_FILE"
# timing fields that divide or scale lengths, so they must not be zero
_POSITIVE_TIMING = frozenset({"zone_gap", "straight_speed", "inter_zone_shift", "lap_4zone"})
COOLING_STAGES = 550.0 + 850.0 + 650.0   # us, the three stages after each gate batch


def _check_count(name: str, value) -> None:
    """Zone counts and capacity are integers >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class TimingParams:
    """Hardware times.  Cooling follows the gate time: a batch's cooling is
    `COOLING_STAGES` plus its gate time, so it is not a field of its own."""

    zone_gap: float = 750.0            # um between neighboring zones
    init_batch: float = 17000.0        # qubit initialization, per batch
    measure_batch: float = 120.0       # high-fidelity readout, per batch
    one_q_gate: float = 5.0
    two_q_gate: float = 25.0
    straight_speed: float = 2.65       # um/us on the straight
    inter_zone_shift: float = 283.0
    intra_zone_shift: float = 58.0
    split_or_combine: float = 128.0
    swap: float = 200.0
    pair_exchange: float = 1053.0      # ion exchange between adjacent pairs
    lap_4zone: float = 6200.0          # one lap of the 4-zone track

    @property
    def cool_1q_batch(self) -> float:
        return COOLING_STAGES + self.one_q_gate

    @property
    def cool_2q_batch(self) -> float:
        return COOLING_STAGES + self.two_q_gate

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            positive = f.name in _POSITIVE_TIMING
            if not (math.isfinite(v) and (v > 0 if positive else v >= 0)):
                raise ValueError(
                    f"{f.name} must be finite and {'>' if positive else '>='} 0, got {v!r}"
                )
        speed = self.zone_gap / self.inter_zone_shift
        if abs(speed - self.straight_speed) / self.straight_speed > 0.005:
            raise ValueError(
                f"zone_gap/inter_zone_shift = {speed:.4f} disagrees with "
                f"straight_speed {self.straight_speed} by more than 0.5%"
            )


@dataclass(frozen=True)
class FidelityParams:
    inf_1q_rb: float = 0.25e-4
    inf_1q_leak: float = 0.04e-4
    inf_2q_rb: float = 2.0e-4
    inf_2q_leak: float = 3.9e-4
    inf_transport: float = 2.2e-4
    inf_spam: float = 16e-4
    t1: float = 100.0                  # seconds

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "t1":
                if not v > 0:  # NaN fails this too
                    raise ValueError(f"t1 must be positive, got {v!r}")
            elif not (0.0 <= v < 1.0):
                raise ValueError(f"{f.name} must lie in [0, 1)")


@dataclass(frozen=True)
class TrackLayout:
    """Closed-loop electrode: gate zones on the bottom straight, reorder
    zones on top, plus shortcut chords at fractional positions.

    Lengths are *effective* arc lengths calibrated so the 4-zone main loop
    reproduces the published 6.2 ms lap (curved-end deceleration is folded
    into the per-zone allowance rather than modeled per segment).
    """

    gate_zones: int
    reorder_zones: int
    shortcuts: tuple[float, ...]
    loop_length: float

    @property
    def circulation_paths(self) -> list[tuple[int, float]]:
        """(path id, effective length); id 0 is the main loop, id i >= 1 the
        sub-loop closed by shortcut i (shorter side of the chord)."""
        paths = [(0, self.loop_length)]
        for i, f in enumerate(self.shortcuts, start=1):
            paths.append((i, min(f, 1.0 - f) * self.loop_length))
        return paths

    def path_length(self, path_id: int) -> float:
        for pid, length in self.circulation_paths:
            if pid == path_id:
                return length
        raise KeyError(f"unknown circulation path {path_id}")

    def shortest_path(self, min_fraction: float = 0.0) -> tuple[int, float]:
        """Shortest circulation path whose length fraction of the main loop
        is at least `min_fraction` (e.g. enough bottom span for the chain)."""
        best = (0, self.loop_length)
        for pid, length in self.circulation_paths:
            if length >= min_fraction * self.loop_length - 1e-9 and length < best[1]:
                best = (pid, length)
        return best


def build_track(
    gate_zones: int,
    reorder_zones: int | None = None,
    shortcuts: list[float] | tuple[float, ...] = (),
    t: TimingParams = TimingParams(),
) -> TrackLayout:
    """Lay out a racetrack with `gate_zones` bottom zones at zone_gap pitch.

    The effective loop length scales linearly with the gate-zone count so
    lap time is lap_4zone * k / 4; shortcut fractions in (0, 1) close
    sub-loops at the matching fraction of the loop.
    """
    _check_count("gate_zones", gate_zones)
    if reorder_zones is None:
        reorder_zones = gate_zones
    _check_count("reorder_zones", reorder_zones)
    fr = [float(f) for f in shortcuts]
    if any(not (0.0 < f < 1.0) for f in fr):
        raise ValueError("shortcut fractions must lie strictly in (0, 1)")
    if len(set(fr)) != len(fr):
        raise ValueError("overlapping shortcut endpoints")
    loop_length = gate_zones * t.lap_4zone * t.straight_speed / 4.0
    return TrackLayout(
        gate_zones=gate_zones,
        reorder_zones=reorder_zones,
        shortcuts=tuple(fr),
        loop_length=loop_length,
    )


def lap_time(layout: TrackLayout, path_id: int = 0, t: TimingParams = TimingParams()) -> float:
    """Circulation time of one path; linear in calibrated length, anchored
    to lap_4zone for the 4-zone main loop."""
    return layout.path_length(path_id) / t.straight_speed


@dataclass(frozen=True)
class Machine:
    """One simulated device: geometry + timing + fidelity + capacity."""

    layout: TrackLayout
    timing: TimingParams = TimingParams()
    fidelity: FidelityParams = FidelityParams()
    capacity: int = DEFAULT_CAPACITY

    @property
    def gate_zones(self) -> int:
        return self.layout.gate_zones

    def lap(self, path_id: int = 0) -> float:
        return lap_time(self.layout, path_id, self.timing)


def make_machine(
    gate_zones: int = 4,
    reorder_zones: int | None = None,
    shortcuts: list[float] | tuple[float, ...] = (),
    timing: TimingParams | None = None,
    fidelity: FidelityParams | None = None,
    capacity: int = DEFAULT_CAPACITY,
) -> Machine:
    t = timing or TimingParams()
    f = fidelity or FidelityParams()
    t.validate()
    f.validate()
    _check_count("capacity", capacity)
    return Machine(
        layout=build_track(gate_zones, reorder_zones, shortcuts, t),
        timing=t,
        fidelity=f,
        capacity=capacity,
    )


def _apply_overrides(base, overrides: dict):
    known = {f.name for f in fields(base)}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"unknown machine parameter(s): {sorted(unknown)}")
    return replace(base, **overrides)


def machine_from_dict(desc: dict) -> Machine:
    allowed = {"gate_zones", "reorder_zones", "shortcuts", "timing", "fidelity", "capacity"}
    unknown = set(desc) - allowed
    if unknown:
        raise ValueError(f"unknown machine description key(s): {sorted(unknown)}")
    timing = _apply_overrides(TimingParams(), desc.get("timing", {}))
    fid = _apply_overrides(FidelityParams(), desc.get("fidelity", {}))
    return make_machine(
        gate_zones=desc.get("gate_zones", 4),
        reorder_zones=desc.get("reorder_zones"),
        shortcuts=desc.get("shortcuts", ()),
        timing=timing,
        fidelity=fid,
        capacity=desc.get("capacity", DEFAULT_CAPACITY),
    )


def load_machine(path: str | None = None) -> Machine:
    """Load a machine description JSON; falls back to the H2-class default.
    The path may also come from the RACETRACK_MACHINE_FILE variable."""
    path = path or os.environ.get(MACHINE_FILE_ENV)
    if path is None:
        return make_machine()
    with open(path) as fh:
        return machine_from_dict(json.load(fh))
