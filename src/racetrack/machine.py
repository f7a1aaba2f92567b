"""Machine model: one checked record per part of the device.

`Machine` is the racetrack itself, with its gate and reorder zone counts,
its shortcut chords, its `TimingParams`, its `FidelityParams` and its ion
capacity.  Each record checks its fields when it is built, however it is
built: directly, through `make_machine`, `dataclasses.replace` or
`machine_from_dict`.  A bad value raises a `ValueError` that names the
field, so no machine with zero zones, a chord outside (0, 1) or a negative
time exists to be scheduled.  A machine computes its circulation paths
once, when it is built.

All times are microseconds.  Defaults follow the published H2-class
hardware table; every field can be overridden from a JSON machine
description.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

DEFAULT_CAPACITY = 56
# timing fields that must not be zero: a pass stream or a lap that took no
# time would make transport free
_POSITIVE_TIMING = frozenset({"inter_zone_shift", "lap_4zone"})
COOLING_STAGES = 550.0 + 850.0 + 650.0   # us, the three stages after each gate batch


def _check_count(name: str, value) -> None:
    """Zone counts and capacity are integers >= 1.  An exact int >= 1 is
    accepted before the `numbers.Integral` test, which costs about 40
    times as much: `translate.list_layers` checks its cap per call."""
    if type(value) is int and value >= 1:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_type(name: str, value, kind: type) -> None:
    """A record of the wrong type is named here, not met deep in the code."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


def _is_number(value) -> bool:
    """A real number, and not a bool: JSON's true would otherwise read as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class TimingParams:
    """Hardware times.  Cooling follows the gate time: a batch's cooling is
    `COOLING_STAGES` plus its gate time, so it is not a field of its own."""

    init_batch: float = 17000.0        # qubit initialization, per batch
    measure_batch: float = 120.0       # high-fidelity readout, per batch
    one_q_gate: float = 5.0
    two_q_gate: float = 25.0
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

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            positive = f.name in _POSITIVE_TIMING
            if not (_is_number(v) and math.isfinite(v) and (v > 0 if positive else v >= 0)):
                raise ValueError(
                    f"{f.name} must be finite and {'>' if positive else '>='} 0, got {v!r}"
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

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "t1":
                if not (_is_number(v) and v > 0):  # NaN fails this too
                    raise ValueError(f"t1 must be positive, got {v!r}")
            elif not (_is_number(v) and 0.0 <= v < 1.0):
                raise ValueError(f"{f.name} must lie in [0, 1), got {v!r}")


@dataclass(frozen=True)
class Machine:
    """One simulated device: a closed-loop electrode with `gate_zones` zones
    on the bottom straight, `reorder_zones` on top (None: as many as gate
    zones, so `dataclasses.replace` of `gate_zones` changes both) and
    shortcut chords at fractions in (0, 1) of the loop, plus its timing,
    fidelity budget and ion capacity."""

    gate_zones: int = 4
    reorder_zones: int | None = None
    shortcuts: tuple[float, ...] = ()
    timing: TimingParams = TimingParams()
    fidelity: FidelityParams = FidelityParams()
    capacity: int = DEFAULT_CAPACITY
    # (path id, fraction of the main loop); id 0 is the main loop, id i >= 1
    # the sub-loop closed by shortcut i (shorter side of the chord).  The
    # fraction is rounded to 12 places, so chords at f and 1 - f close
    # equal sub-loops (1 - 0.9 is 0.09999999999999998) and a tie between
    # them goes to the lower id.
    circulation_paths: tuple[tuple[int, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_count("gate_zones", self.gate_zones)
        if self.reorder_zones is not None:
            _check_count("reorder_zones", self.reorder_zones)
        sc = self.shortcuts
        if not isinstance(sc, (list, tuple)) or not all(_is_number(f) for f in sc):
            raise ValueError(f"shortcuts must be a list of fractions, got {sc!r}")
        sc = tuple(float(f) for f in sc)
        if any(not (0.0 < f < 1.0) for f in sc):
            raise ValueError("shortcut fractions must lie strictly in (0, 1)")
        if len(set(sc)) != len(sc):
            raise ValueError("overlapping shortcut endpoints")
        _check_type("timing", self.timing, TimingParams)
        _check_type("fidelity", self.fidelity, FidelityParams)
        _check_count("capacity", self.capacity)
        paths = ((0, 1.0),) + tuple((i, round(min(f, 1.0 - f), 12)) for i, f in enumerate(sc, start=1))
        object.__setattr__(self, "shortcuts", sc)
        object.__setattr__(self, "circulation_paths", paths)

    def lap(self, path_id: int = 0) -> float:
        """Circulation time of one path: the main loop's lap grows linearly
        with the gate-zone count from `lap_4zone` on the 4-zone track, and
        a sub-loop takes its fraction of that.  A path id is an int (not a
        bool) from 0 to the shortcut count."""
        if type(path_id) is not int or not 0 <= path_id < len(self.circulation_paths):
            raise ValueError(f"unknown circulation path {path_id!r}")
        return self.circulation_paths[path_id][1] * (self.gate_zones * self.timing.lap_4zone / 4.0)

    def shortest_path(self, min_fraction: float = 0.0) -> int:
        """The shortest circulation path whose fraction of the main loop is
        at least `min_fraction` (e.g. enough bottom span for the chain)."""
        best, best_fraction = 0, 1.0
        # the slack absorbs the rounding of fractions to 12 places
        for pid, fraction in self.circulation_paths:
            if fraction >= min_fraction - 1e-12 and fraction < best_fraction:
                best, best_fraction = pid, fraction
        return best


def make_machine(
    gate_zones: int = 4,
    reorder_zones: int | None = None,
    shortcuts: list[float] | tuple[float, ...] = (),
    timing: TimingParams | None = None,
    fidelity: FidelityParams | None = None,
    capacity: int = DEFAULT_CAPACITY,
) -> Machine:
    """A `Machine`, with None standing for the default timing and fidelity."""
    return Machine(gate_zones, reorder_zones, shortcuts, TimingParams() if timing is None else timing,
                   FidelityParams() if fidelity is None else fidelity, capacity)


def _apply_overrides(base, overrides: dict, key: str):
    if not isinstance(overrides, dict):
        raise ValueError(f"{key} must be an object of parameters, got {overrides!r}")
    known = {f.name for f in fields(base)}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"unknown machine parameter(s): {sorted(unknown)}")
    return replace(base, **overrides)


def machine_from_dict(desc: dict) -> Machine:
    """The machine a JSON description gives: `Machine`'s fields, with
    "timing" and "fidelity" as objects of overrides of the defaults."""
    if not isinstance(desc, dict):
        raise ValueError(f"machine description must be an object, got {desc!r}")
    unknown = set(desc) - {f.name for f in fields(Machine) if f.init}
    if unknown:
        raise ValueError(f"unknown machine description key(s): {sorted(unknown)}")
    return make_machine(**{
        **desc,
        "timing": _apply_overrides(TimingParams(), desc.get("timing", {}), "timing"),
        "fidelity": _apply_overrides(FidelityParams(), desc.get("fidelity", {}), "fidelity"),
    })
