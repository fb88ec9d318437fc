"""Direct and inverse longitudinal dynamics assembled from fitted models.

The direct model turns (speed, throttle, brake, slope) into an acceleration
through the five-force balance; the simulator integrates it with fixed-step
RK4. The inverse model turns a desired acceleration into a throttle or
brake command by inverting the force surfaces, and is meant as the
feedforward block of a speed controller.

Regenerative braking (the braking surface's level-0 curve) is only active
at exactly zero throttle: applying any throttle deactivates it. The
throttle/brake selector never emits both commands at once.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import VehicleParams, file_values, grade_force, grade_force_many
from .errors import InvalidParameterError, SchemaError
from .spline import ForceSurface, Spline1D

#: (throttle, brake, slope_rad) at a given time.
Schedule = Callable[[float], tuple[float, float, float]]

#: Most steps ``duration / dt`` that :func:`simulate` takes: 10 000 000 steps
#: are about 28 h at 10 ms, and its six float64 outputs take 80 MB each. A
#: larger count is refused before anything is allocated.
MAX_SIMULATE_STEPS = 10_000_000


@dataclass(frozen=True)
class ModelSet:
    """The three fitted force models plus the vehicle they belong to."""

    friction: Spline1D
    propulsion: ForceSurface
    braking: ForceSurface
    params: VehicleParams


@dataclass(frozen=True)
class ActuationCommand:
    """A feedforward command: exactly one of throttle/brake may be nonzero.

    Signals are kept real-valued at the inversion tolerance; quantizing to
    the integer wire format is the consumer's last step.
    """

    throttle: float
    brake: float
    saturated: bool = False
    underflow: bool = False

    def __post_init__(self):
        if self.throttle != 0.0 and self.brake != 0.0:
            raise ValueError("throttle and brake must never both be nonzero")


def direct_acceleration(models: ModelSet, v: float, throttle: float, brake: float,
                        slope: float) -> tuple[float, tuple[float, float, float]]:
    """``(accel, (f_p, f_f, f_b))`` at one operating point.

    Braking force: at zero throttle the braking surface applies as-is (its
    level 0 is the regenerative curve); with throttle applied regen is
    deactivated, so only an explicit brake command produces braking force.
    Raises :class:`~longforce.errors.InvalidParameterError` naming a
    non-finite value.
    """
    # The sum is one test on the hot path; it also overflows on finite values
    # near the float limits, which then pass the per-value test.
    if not math.isfinite(v + throttle + brake + slope) and not all(
            map(math.isfinite, (v, throttle, brake, slope))):
        raise InvalidParameterError(
            f"non-finite operating point: v={v}, throttle={throttle}, brake={brake}, "
            f"slope={slope}")
    f_f = models.friction.eval(v)
    f_p = models.propulsion.eval(v, throttle)
    f_b = models.braking.eval(v, brake) if throttle == 0.0 or brake > 0.0 else 0.0
    accel = (f_p - grade_force(models.params, slope) - f_f - f_b) / models.params.m_eq_kg
    return accel, (f_p, f_f, f_b)


def direct_acceleration_many(models: ModelSet, v, throttle, brake,
                             slope) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Array form of :func:`direct_acceleration`: ``(accel, (f_p, f_f, f_b))``, one
    array row per operating point.

    The inputs broadcast against each other. Each row equals the scalar
    result bit for bit, with the same regen rule. Raises
    :class:`~longforce.errors.InvalidParameterError` naming the first row
    with a non-finite value.
    """
    v, throttle, brake, slope = np.broadcast_arrays(
        *(np.asarray(col, dtype=float).ravel() for col in (v, throttle, brake, slope)))
    finite = np.isfinite(v) & np.isfinite(throttle) & np.isfinite(brake) & np.isfinite(slope)
    if not finite.all():
        k = int(finite.argmin())
        raise InvalidParameterError(
            f"non-finite operating point at row {k}: v={v[k]}, throttle={throttle[k]}, "
            f"brake={brake[k]}, slope={slope[k]}")
    f_f = models.friction.eval_many(v)
    f_p = models.propulsion.eval_many(v, throttle)
    f_b = np.zeros(len(v))
    braking = (throttle == 0.0) | (brake > 0.0)
    f_b[braking] = models.braking.eval_many(v[braking], brake[braking])
    grade = grade_force_many(models.params, slope)
    accel = (f_p - grade - f_f - f_b) / models.params.m_eq_kg
    return accel, (f_p, f_f, f_b)


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step simulation output, one row per time step."""

    t: np.ndarray
    speed: np.ndarray
    accel: np.ndarray
    f_p: np.ndarray
    f_f: np.ndarray
    f_b: np.ndarray

    def __post_init__(self):
        for col in (self.t, self.speed, self.accel, self.f_p, self.f_f, self.f_b):
            np.asarray(col).setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)


def simulate(models: ModelSet, schedule: Schedule, v0: float, dt: float,
             duration: float) -> Trajectory:
    """Integrate dv/dt with fixed-step RK4 under a command schedule.

    Speed is clamped at zero: when the vehicle is at rest and the net force
    would push it backward, it stays at rest (static friction implicit);
    the model covers forward motion only.

    Per step, the schedule is called once at each of ``t``, ``t + dt/2``
    (for both mid-step stages) and ``t + dt``; a step at rest, and the last
    row, call it only at ``t``.

    ``duration / dt`` may be at most :data:`MAX_SIMULATE_STEPS`; a longer run
    raises :class:`~longforce.errors.InvalidParameterError`, as a bad ``dt``,
    ``v0`` or ``duration`` does.
    """
    if not 0.0 < dt <= 0.1:
        raise InvalidParameterError(f"dt must be in (0, 0.1] s, got {dt}")
    if v0 < 0:
        raise InvalidParameterError(f"v0 must be >= 0, got {v0}")
    if not 0.0 <= duration < math.inf:
        raise InvalidParameterError(f"duration must be finite and >= 0 s, got {duration}")
    if duration / dt > MAX_SIMULATE_STEPS:
        raise InvalidParameterError(f"duration / dt must be <= {MAX_SIMULATE_STEPS} steps, "
                                    f"got {duration / dt:g}")

    steps = max(int(round(duration / dt)), 0)
    t_out = np.empty(steps + 1)
    v_out = np.empty(steps + 1)
    a_out = np.empty(steps + 1)
    fp_out = np.empty(steps + 1)
    ff_out = np.empty(steps + 1)
    fb_out = np.empty(steps + 1)

    v = float(v0)
    for k in range(steps + 1):
        t = k * dt
        throttle, brake, slope = schedule(t)
        a, (fp_out[k], ff_out[k], fb_out[k]) = direct_acceleration(models, v, throttle,
                                                                   brake, slope)
        at_rest = v == 0.0 and a <= 0.0
        t_out[k] = t
        v_out[k] = v
        a_out[k] = 0.0 if at_rest else a
        if k == steps:
            break
        if at_rest:
            continue
        # Stage speeds are clamped at 0 by max(x, 0.0)'s own rule, without the
        # call: -0.0 and NaN pass through as they did.
        throttle, brake, slope = schedule(t + 0.5 * dt)
        x = v + 0.5 * dt * a
        k2 = direct_acceleration(models, 0.0 if 0.0 > x else x, throttle, brake, slope)[0]
        x = v + 0.5 * dt * k2
        k3 = direct_acceleration(models, 0.0 if 0.0 > x else x, throttle, brake, slope)[0]
        throttle, brake, slope = schedule(t + dt)
        x = v + dt * k3
        k4 = direct_acceleration(models, 0.0 if 0.0 > x else x, throttle, brake, slope)[0]
        x = v + dt / 6.0 * (a + 2.0 * k2 + 2.0 * k3 + k4)
        v = 0.0 if 0.0 > x else x

    return Trajectory(t_out, v_out, a_out, fp_out, ff_out, fb_out)


def inverse_actuation(models: ModelSet, v: float, slope: float,
                      desired_accel: float) -> ActuationCommand:
    """Feedforward throttle/brake command for a desired acceleration.

    The required tractive force is compared to the zero-throttle propulsion
    (creep): at or above it the propulsion surface is inverted for a
    throttle; below it the shortfall ``F_p0 - F_req`` must come from the
    braking surface (whose level 0 is pure regen), which correctly fights
    the creep force with brakes at very low speed. Saturation and underflow
    flags propagate from the surface inversions.
    """
    if not math.isfinite(v + slope + desired_accel) and not all(
            map(math.isfinite, (v, slope, desired_accel))):
        raise InvalidParameterError(
            f"non-finite operating point: v={v}, slope={slope}, "
            f"desired_accel={desired_accel}")
    grade = grade_force(models.params, slope)
    f_req = models.params.m_eq_kg * desired_accel + grade + models.friction.eval(v)
    f_p0 = models.propulsion.eval(v, 0.0)
    if f_req >= f_p0:
        throttle, saturated, underflow = models.propulsion.invert(v, f_req)
        return ActuationCommand(throttle, 0.0, saturated, underflow)
    brake, saturated, underflow = models.braking.invert(v, f_p0 - f_req)
    return ActuationCommand(0.0, brake, saturated, underflow)


def step_hold_schedule(rows: list[tuple[float, float, float, float]]) -> Schedule:
    """Schedule from (t, throttle, brake, slope) rows, holding between rows."""
    if not rows:
        raise SchemaError("a schedule needs at least one row")
    rows = sorted(rows, key=lambda r: r[0])
    times = [r[0] for r in rows]

    def schedule(t: float) -> tuple[float, float, float]:
        i = bisect_right(times, t) - 1
        if i < 0:
            i = 0
        _, throttle, brake, slope = rows[i]
        return throttle, brake, slope

    return schedule


def load_schedule_csv(path: str | Path) -> Schedule:
    """Schedule from a CSV with columns t_s, throttle, brake, slope_rad; each
    value must be finite, and throttle and brake >= 0."""
    required = ("t_s", "throttle", "brake", "slope_rad")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"{path}: schedule is missing column(s) {', '.join(missing)}")
        for i, row in enumerate(reader):
            with file_values(path, f"bad schedule row {i + 1}"):
                values = tuple(float(row[c]) for c in required)
                for name, value in zip(required, values):
                    if not math.isfinite(value):
                        raise ValueError(f"{name} is non-finite: {value}")
                    if value < 0 and name in ("throttle", "brake"):
                        raise ValueError(f"{name} must be >= 0, got {value}")
                rows.append(values)
    with file_values(path, "invalid schedule"):
        return step_hold_schedule(rows)
