#!/usr/bin/env python3
"""Regenerate the packaged reference data files (params, anchors, pipeline).

The anchor values are built from the documented shape features of the
identified car: a 180 N rolling-resistance plateau with a Stribeck bump
below 0.5 km/h and a quadratic aerodynamic rise above 30 km/h; propulsion
plateaus with constant-power tails and a limiter roll-off bringing each
throttle level down through the friction curve just below the 125 km/h top
speed; braking as regen (zero-signal curve, effective above 8 km/h) plus a
disc component proportional to the brake signal with an ABS dip at low
speed. Anchors per model kind share one speed grid, which also serves as
the fitting knot layout, so fitted curves can represent the shapes exactly.

Edit the tables below and re-run to reshape the models.
"""

import json
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "longforce" / "data"

ANCHOR_WEIGHT = 30.0

KMH = 1.0 / 3.6  # m/s per km/h

PLATEAU_N = 180.0
AERO_N_PER_MPS2 = 0.45
AERO_ONSET_MPS = 30.0 * KMH
V_MAX = 125.0 * KMH  # where full throttle balances friction


def friction_force(v_mps: float) -> float:
    if v_mps <= AERO_ONSET_MPS:
        return PLATEAU_N
    return PLATEAU_N + AERO_N_PER_MPS2 * (v_mps**2 - AERO_ONSET_MPS**2)


FRICTION_GRID = [0.1, 0.25, 1.0, 3.0, 30.0 * KMH, 12.0, 16.0, 20.0, 25.0, 30.0,
                 V_MAX, 36.0]
FRICTION_FORCES = [340.0, 185.0] + [friction_force(v) for v in FRICTION_GRID[2:]]

# One shared speed grid for all throttle levels. Key points: 3 km/h (peak
# torque at high throttle), 5 km/h (plateau start), 8 km/h (creep limit),
# 57000/6300 m/s (full-throttle plateau end), 60/80/100 km/h (constant-power
# section), 125 km/h (top speed).
PROPULSION_GRID = [0.1, 0.45, 3.0 * KMH, 5.0 * KMH, 8.0 * KMH, 3.0, 4.5, 6.0, 7.5,
                   57000.0 / 6300.0, 12.0, 60.0 * KMH, 80.0 * KMH, 100.0 * KMH,
                   30.0, 32.0, 34.0, V_MAX, 35.4, 36.0]

PROPULSION_FORCES = {
    0: [700.0, 660.0, 590.0, 390.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    50: [2400.0, 2600.0, 2520.0, 2200.0, 2200.0, 2200.0, 2200.0, 2200.0, 2200.0,
         19000.0 / (57000.0 / 6300.0), 19000.0 / 12.0, 19000.0 / (60.0 * KMH),
         19000.0 / (80.0 * KMH), 19000.0 / (100.0 * KMH), 19000.0 / 30.0,
         500.0, 330.0, 250.0, 160.0, 90.0],
    100: [4800.0, 5100.0, 5000.0, 4300.0, 4300.0, 4300.0, 4300.0, 4300.0, 4300.0,
          36000.0 / (57000.0 / 6300.0), 3000.0, 2160.0, 1620.0, 1296.0, 1200.0,
          1000.0, 700.0, 480.0, 300.0, 190.0],
    150: [6550.0, 6900.0, 7100.0, 6000.0, 6000.0, 6000.0, 6000.0, 6000.0, 6000.0,
          50000.0 / (57000.0 / 6300.0), 50000.0 / 12.0, 3000.0, 2250.0, 1800.0,
          50000.0 / 30.0, 1350.0, 900.0, 600.0, 380.0, 250.0],
    186: [7000.0, 7520.0, 7800.0, 6300.0, 6300.0, 6300.0, 6300.0, 6300.0, 6300.0,
          6300.0, 57000.0 / 12.0, 57000.0 / (60.0 * KMH), 57000.0 / (80.0 * KMH),
          57000.0 / (100.0 * KMH), 57000.0 / 30.0, 1500.0, 1000.0,
          friction_force(V_MAX), 450.0, 300.0],
}

# Braking: regen curve (level 0) plus a disc component scaled by signal/160.
BRAKE_GRID = [0.1, 0.45, 0.8, 1.2, 8.0 * KMH, 3.5, 6.0, 9.0, 15.0, 25.0, 36.0]
REGEN_N = [0.0, 0.0, 0.0, 0.0, 0.0, 500.0, 1050.0, 1300.0, 1400.0, 1400.0, 1400.0]
DISC_N = [4800.0, 2400.0, 3300.0, 3900.0, 4650.0, 4900.0, 5000.0, 5000.0, 5000.0,
          5000.0, 5000.0]
BRAKE_LEVELS = [0, 40, 80, 120, 160]


def anchor(speed: float, force: float) -> dict:
    return {"speed_mps": speed, "force_n": force, "weight": ANCHOR_WEIGHT}


def sorted_anchors(pairs) -> list[dict]:
    return [anchor(v, f) for v, f in sorted(pairs)]


def main() -> None:
    params = {
        "base_mass_kg": 1480.0,
        "payload_mass_kg": 200.0,
        "gravity_mps2": 9.81,
        "wheels": [{"inertia_kgm2": 0.86, "radius_m": 0.29} for _ in range(4)],
    }

    anchors = {
        "friction": sorted_anchors(zip(FRICTION_GRID, FRICTION_FORCES)),
        "propulsion": {str(level): sorted_anchors(zip(PROPULSION_GRID, forces))
                       for level, forces in PROPULSION_FORCES.items()},
        "braking": {str(level): sorted_anchors(
                        (v, regen + level / 160.0 * disc)
                        for v, regen, disc in zip(BRAKE_GRID, REGEN_N, DISC_N))
                    for level in BRAKE_LEVELS},
    }

    pipeline = {
        "params": "zoe_params.json",
        "anchors": "anchors_zoe.json",
        "estimator": {"window": 21, "cutoff_hz": 5.0},
        "bins": {"lo_mps": 0.05, "hi_mps": 40.0, "count": 40},
        "knots_mps": {
            "friction": sorted(FRICTION_GRID),
            "propulsion": sorted(PROPULSION_GRID),
            "braking": sorted(BRAKE_GRID),
        },
    }

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, obj in (("zoe_params.json", params), ("anchors_zoe.json", anchors),
                      ("pipeline_zoe.json", pipeline)):
        path = DATA_DIR / name
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
