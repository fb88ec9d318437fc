"""Domain types and vehicle parameter handling.

Everything downstream works in strict SI units: m/s for speed, N for force,
kg for mass, rad for slope angles, s for time. Logs recorded in km/h are
converted exactly once, at ingestion. Throttle and brake are dimensionless
integer signals whose valid ranges are part of the vehicle parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, SchemaError

KMH_PER_MPS = 3.6

#: Default gap (s) above which a log is treated as separate segments.
MAX_SAMPLE_GAP_S = 0.5


def kmh_to_mps(v_kmh: float) -> float:
    return v_kmh / KMH_PER_MPS


def mps_to_kmh(v_mps: float) -> float:
    return v_mps * KMH_PER_MPS


class Gear(Enum):
    NEUTRAL = "neutral"
    DRIVE = "drive"


@dataclass(frozen=True)
class Wheel:
    """One wheel's rotating-body properties."""

    inertia_kgm2: float
    radius_m: float

    def __post_init__(self):
        if not self.radius_m > 0:
            raise InvalidParameterError(f"wheel radius must be > 0, got {self.radius_m}")
        if self.inertia_kgm2 < 0:
            raise InvalidParameterError(f"wheel inertia must be >= 0, got {self.inertia_kgm2}")


@dataclass(frozen=True)
class VehicleParams:
    """Masses, gravity, wheel inertias and command-signal ranges.

    ``base_mass_kg`` is the curb mass; ``payload_mass_kg`` covers equipment
    and occupants during the recorded tests. The wheel list feeds the
    equivalent-mass computation; an empty list means rotating bodies are
    neglected.
    """

    base_mass_kg: float
    payload_mass_kg: float = 0.0
    gravity_mps2: float = 9.81
    wheels: tuple[Wheel, ...] = ()
    throttle_range: tuple[int, int] = (0, 186)
    brake_range: tuple[int, int] = (0, 255)

    def __post_init__(self):
        if not self.base_mass_kg > 0:
            raise InvalidParameterError(f"base mass must be > 0, got {self.base_mass_kg}")
        if self.payload_mass_kg < 0:
            raise InvalidParameterError(f"payload mass must be >= 0, got {self.payload_mass_kg}")
        if not self.gravity_mps2 > 0:
            raise InvalidParameterError(f"gravity must be > 0, got {self.gravity_mps2}")
        object.__setattr__(self, "wheels", tuple(self.wheels))
        for name, (lo, hi) in (("throttle_range", self.throttle_range),
                               ("brake_range", self.brake_range)):
            if int(lo) != lo or int(hi) != hi or not lo < hi:
                raise InvalidParameterError(f"{name} must be an integer interval with min < max")
        object.__setattr__(self, "throttle_range", (int(self.throttle_range[0]), int(self.throttle_range[1])))
        object.__setattr__(self, "brake_range", (int(self.brake_range[0]), int(self.brake_range[1])))


def total_mass(params: VehicleParams) -> float:
    """Translational mass in kg: base plus payload."""
    return params.base_mass_kg + params.payload_mass_kg


def equivalent_mass(params: VehicleParams) -> float:
    """Mass seen by the longitudinal force balance, in kg.

    Each wheel in pure rolling adds J/R^2 on top of the translational mass,
    so the kinetic energy of the rotating bodies is accounted for.
    """
    m = total_mass(params)
    for wheel in params.wheels:
        m += wheel.inertia_kgm2 / wheel.radius_m**2
    return m


@dataclass(frozen=True)
class DriveLog:
    """Time-ordered telemetry, stored column-wise as read-only arrays.

    The sample rate is nominally 100 Hz; gaps larger than
    ``MAX_SAMPLE_GAP_S`` split the log into segments during processing
    (see :meth:`segments`). Only forward motion is modeled, so speeds are
    non-negative. Time, speed and slope must be finite: a single NaN would
    spread through the acceleration filter into every fitted force.
    """

    t: np.ndarray
    speed: np.ndarray
    throttle: np.ndarray
    brake: np.ndarray
    slope: np.ndarray
    gear: Gear = Gear.DRIVE
    description: str = ""

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        speed = np.asarray(self.speed, dtype=float)
        throttle = np.asarray(self.throttle, dtype=np.int64)
        brake = np.asarray(self.brake, dtype=np.int64)
        slope = np.asarray(self.slope, dtype=float)
        n = len(t)
        for name, col in (("speed", speed), ("throttle", throttle),
                          ("brake", brake), ("slope", slope)):
            if len(col) != n:
                raise SchemaError(f"column '{name}' has {len(col)} rows, expected {n}")
        for name, col in (("t", t), ("speed", speed), ("slope", slope)):
            finite = np.isfinite(col)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise SchemaError(f"column '{name}' is non-finite at row {bad}: {col[bad]}")
        # A comparison, not np.diff: the difference of two finite stamps can
        # overflow to inf.
        increasing = t[1:] > t[:-1]
        if not increasing.all():
            bad = int(np.argmin(increasing)) + 1
            raise SchemaError(f"time must be strictly increasing; violated at row {bad}")
        if n and float(speed.min()) < 0:
            bad = int(np.argmin(speed))
            raise SchemaError(f"speed must be >= 0; violated at row {bad}")
        for col in (t, speed, throttle, brake, slope):
            col.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "speed", speed)
        object.__setattr__(self, "throttle", throttle)
        object.__setattr__(self, "brake", brake)
        object.__setattr__(self, "slope", slope)

    def __len__(self) -> int:
        return len(self.t)

    def segments(self, max_gap_s: float = MAX_SAMPLE_GAP_S) -> list[slice]:
        """Index ranges of contiguous recording, split at gaps > ``max_gap_s``."""
        n = len(self)
        if n == 0:
            return []
        with np.errstate(over="ignore"):  # an inf gap is a gap
            gaps = np.diff(self.t)
        breaks = np.flatnonzero(gaps > max_gap_s) + 1
        starts = [0, *breaks.tolist()]
        ends = [*breaks.tolist(), n]
        return [slice(a, b) for a, b in zip(starts, ends)]

    def slice(self, sl: slice) -> "DriveLog":
        """A new log holding the given sample range."""
        return DriveLog(self.t[sl], self.speed[sl], self.throttle[sl],
                        self.brake[sl], self.slope[sl], self.gear, self.description)


def read_json(path: str | Path) -> dict:
    """The JSON object stored in the file at ``path``.

    Raises :class:`SchemaError` naming the path when the file is not valid
    UTF-8 JSON or holds any top-level value other than an object; a missing
    or unreadable file raises ``OSError``.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def json_object(obj: dict, key: str) -> dict:
    """The JSON object ``obj[key]``, or ``{}`` when ``key`` is absent.

    Raises ``TypeError`` naming the key when the value is anything else; the
    file readers turn it into a :class:`SchemaError` naming the file.
    """
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise TypeError(f"{key!r} must be a JSON object, got {type(value).__name__}")
    return value


def load_vehicle_params(path: str | Path) -> VehicleParams:
    """Load vehicle parameters from a JSON file."""
    obj = read_json(path)
    try:
        wheels = tuple(Wheel(float(w["inertia_kgm2"]), float(w["radius_m"]))
                       for w in obj.get("wheels", []))
        return VehicleParams(
            base_mass_kg=float(obj["base_mass_kg"]),
            payload_mass_kg=float(obj.get("payload_mass_kg", 0.0)),
            gravity_mps2=float(obj.get("gravity_mps2", 9.81)),
            wheels=wheels,
            throttle_range=tuple(obj.get("throttle_range", (0, 186))),
            brake_range=tuple(obj.get("brake_range", (0, 255))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: invalid vehicle parameter config: {exc}") from exc


def grade_force(params: VehicleParams, slope_rad: float | np.ndarray) -> float | np.ndarray:
    """Ground-tangent weight component m*g*sin(slope), in N.

    ``slope_rad`` is a float or an array. An array takes ``math.sin`` per
    element, because ``np.sin`` may use a SIMD routine that differs from the
    C library in the last bit on some CPUs; each element then equals the
    scalar result bit for bit.
    """
    if isinstance(slope_rad, np.ndarray):
        sin = np.fromiter(map(math.sin, slope_rad.ravel().tolist()), dtype=float,
                          count=slope_rad.size).reshape(slope_rad.shape)
    else:
        sin = math.sin(slope_rad)
    return total_mass(params) * params.gravity_mps2 * sin
