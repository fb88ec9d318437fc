"""Force observation extraction from protocol test logs.

The three-step identification rests on a five-force balance along the
road direction:

    F_p - m*g*sin(slope) - F_f - F_b = m_eq * a

Each protocol zeroes out enough terms to solve for one force:

  * coast-down in neutral with pedals released isolates friction,
  * constant-throttle runs in drive with no brake isolate propulsion
    (friction already known),
  * constant-brake runs in drive with no throttle isolate braking
    (friction and zero-throttle propulsion already known).

Logs that violate a protocol's preconditions are rejected with hard
errors: a run with a brake touch in the middle would silently corrupt
the propulsion model if tolerated.
"""

from __future__ import annotations

import numpy as np

from .core import DriveLog, Gear, VehicleParams, grade_force_many
from .errors import InvalidParameterError, ProtocolViolationError, SegmentSplitRequired
from .estimation import AccelSeries, _require_aligned
from .spline import Spline1D

#: Below this speed (m/s) the acceleration estimate is dominated by speed
#: quantization and samples are excluded; anchors supply the low-speed shape.
MIN_EXTRACTION_SPEED = 0.05


def _require_gear(log: DriveLog, gear: Gear, protocol: str) -> None:
    if log.gear is not gear:
        raise ProtocolViolationError(
            f"{protocol} requires gear {gear.value}, log is in {log.gear.value}")


def _require_zero(log: DriveLog, signal: str, protocol: str) -> None:
    values = getattr(log, signal)
    bad = np.flatnonzero(values != 0)
    if len(bad):
        raise ProtocolViolationError(
            f"{protocol} requires {signal} = 0 throughout; nonzero at "
            f"{len(bad)} samples (first indices {bad[:10].tolist()})",
            indices=bad.tolist())


def _require_constant(log: DriveLog, signal: str, protocol: str) -> None:
    values = getattr(log, signal)
    if np.any(values != values[:1]):
        raise SegmentSplitRequired(
            f"{protocol} requires a constant {signal}; split the log into "
            f"constant-{signal} segments first")


def _valid_mask(log: DriveLog, accel: AccelSeries) -> np.ndarray:
    _require_aligned(log, accel)
    return accel.valid & (log.speed >= MIN_EXTRACTION_SPEED)


def extract_friction(log: DriveLog, accel: AccelSeries,
                     params: VehicleParams) -> np.ndarray:
    """Friction observations from a neutral coast-down log: (N, 2) rows of speed
    (m/s) and force (N).

    With propulsion and braking zero the balance gives
    ``F_f = -m*g*sin(slope) - m_eq*a`` per sample.
    """
    _require_gear(log, Gear.NEUTRAL, "friction extraction")
    _require_zero(log, "throttle", "friction extraction")
    _require_zero(log, "brake", "friction extraction")
    keep = _valid_mask(log, accel)
    forces = -grade_force_many(params, log.slope[keep]) - params.m_eq_kg * accel.accel[keep]
    return np.column_stack([log.speed[keep], forces])


def extract_propulsion(log: DriveLog, accel: AccelSeries, friction: Spline1D,
                       params: VehicleParams) -> np.ndarray:
    """Propulsion observations from a constant-throttle run in drive: (N, 2) rows
    of speed (m/s) and force (N).

    With braking zero the balance gives
    ``F_p = F_f(v) + m*g*sin(slope) + m_eq*a``.
    """
    _require_gear(log, Gear.DRIVE, "propulsion extraction")
    _require_zero(log, "brake", "propulsion extraction")
    _require_constant(log, "throttle", "propulsion extraction")
    keep = _valid_mask(log, accel)
    speeds = log.speed[keep]
    forces = (friction.eval_many(speeds)
              + grade_force_many(params, log.slope[keep])
              + params.m_eq_kg * accel.accel[keep])
    return np.column_stack([speeds, forces])


def extract_braking(log: DriveLog, accel: AccelSeries, friction: Spline1D,
                    propulsion_at_zero_throttle: Spline1D,
                    params: VehicleParams) -> np.ndarray:
    """Braking observations from a constant-brake run in drive at zero throttle:
    (N, 2) rows of speed (m/s) and force (N).

    The zero-throttle propulsion curve (creep force) enters the balance:
    ``F_b = F_p0(v) - F_f(v) - m*g*sin(slope) - m_eq*a``.
    """
    _require_gear(log, Gear.DRIVE, "braking extraction")
    _require_zero(log, "throttle", "braking extraction")
    _require_constant(log, "brake", "braking extraction")
    keep = _valid_mask(log, accel)
    speeds = log.speed[keep]
    forces = (propulsion_at_zero_throttle.eval_many(speeds)
              - friction.eval_many(speeds)
              - grade_force_many(params, log.slope[keep])
              - params.m_eq_kg * accel.accel[keep])
    return np.column_stack([speeds, forces])


def split_constant_signal(log: DriveLog, signal: str) -> list[DriveLog]:
    """Split a log into maximal runs where ``signal`` is constant.

    Convenience for callers hitting :class:`SegmentSplitRequired`: each
    returned log satisfies the constant-signal precondition.
    """
    if signal not in ("throttle", "brake"):
        raise InvalidParameterError(f"signal must be 'throttle' or 'brake', got {signal!r}")
    values = getattr(log, signal)
    if len(log) == 0:
        return []
    bounds = [0, *(np.flatnonzero(np.diff(values) != 0) + 1).tolist(), len(log)]
    return [log.slice(slice(a, b)) for a, b in zip(bounds, bounds[1:])]
