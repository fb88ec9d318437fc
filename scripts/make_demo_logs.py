#!/usr/bin/env python3
"""Generate demo telemetry CSVs by simulating the identification protocol.

Uses the packaged reference models to produce raw 100 Hz telemetry (speed in
km/h, with measurement noise) for the three protocol tests plus a mixed
validation drive, along with a self-contained pipeline config and a command
schedule. The output is ready for the CLI walkthrough in the README:

    python scripts/make_demo_logs.py demo/
    longforce ingest demo/telemetry/coast_down.csv --units speed_kmh ...
"""

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from longforce.core import KMH_PER_MPS
from longforce.dynamics import simulate
from longforce.reference import data_path, neutral_model_set, reference_model_set

SPEED_NOISE_MPS = 0.02


def write_csv(path: Path, traj, throttle, brake, slope, rng, cut_below=None) -> None:
    n = len(traj)
    if cut_below is not None:
        below = np.flatnonzero(traj.speed < cut_below)
        if len(below):
            n = int(below[0])
    speed = np.clip(traj.speed[:n] + rng.normal(0.0, SPEED_NOISE_MPS, n), 0.0, None)
    throttle = np.broadcast_to(throttle, n).astype(int) if np.isscalar(throttle) \
        else np.asarray(throttle[:n], dtype=int)
    brake = np.broadcast_to(brake, n).astype(int) if np.isscalar(brake) \
        else np.asarray(brake[:n], dtype=int)
    slope = np.broadcast_to(slope, n) if np.isscalar(slope) else slope[:n]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,speed,throttle,brake,slope\n")
        for k in range(n):
            fh.write(f"{traj.t[k]:.2f},{float(speed[k]) * KMH_PER_MPS:.4f},"
                     f"{int(throttle[k])},{int(brake[k])},{float(slope[k]):.6f}\n")
    print(f"wrote {path} ({n} rows)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="demo")
    args = parser.parse_args(argv)

    out = Path(args.out_dir)
    telemetry = out / "telemetry"
    telemetry.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(2024)

    models = reference_model_set()
    v_max = 125.0 / 3.6

    # step 1: coast-down in neutral until the car stops
    traj = simulate(neutral_model_set(models), lambda t: (0, 0, 0.0), v_max, 0.01, 230.0)
    write_csv(telemetry / "coast_down.csv", traj, 0, 0, 0.0, rng, cut_below=0.02)

    # step 2: constant-throttle runs from standstill
    for level, duration in ((0, 60.0), (50, 150.0), (100, 150.0), (150, 140.0),
                            (186, 130.0)):
        traj = simulate(models, lambda t, lv=level: (lv, 0, 0.0), 0.0, 0.01, duration)
        write_csv(telemetry / f"throttle_{level:03d}.csv", traj, level, 0, 0.0, rng)

    # step 3: constant-brake runs from top speed
    for level, duration in ((0, 80.0), (40, 40.0), (80, 25.0), (120, 18.0),
                            (160, 14.0)):
        traj = simulate(models, lambda t, lv=level: (0, lv, 0.0), v_max, 0.01, duration)
        write_csv(telemetry / f"brake_{level:03d}.csv", traj, 0, level, 0.0, rng,
                  cut_below=0.02)

    # a varied drive with slope changes for the validation stage
    phases = [(0.0, 150, 0), (25.0, 80, 0), (60.0, 50, 0), (90.0, 0, 40),
              (102.0, 100, 0), (132.0, 0, 0), (140.0, 120, 0), (165.0, 60, 0),
              (200.0, 0, 60), (210.0, 90, 0), (240.0, 70, 0)]

    def drive_schedule(t):
        throttle, brake = 0, 0
        for start, th, br in phases:
            if t >= start:
                throttle, brake = th, br
            else:
                break
        return throttle, brake, 0.02 * math.sin(2.0 * math.pi * t / 120.0)

    traj = simulate(models, drive_schedule, 8.0, 0.01, 280.0)
    throttle = np.array([drive_schedule(t)[0] for t in traj.t])
    brake = np.array([drive_schedule(t)[1] for t in traj.t])
    slope = np.array([drive_schedule(t)[2] for t in traj.t])
    write_csv(telemetry / "validation_drive.csv", traj, throttle, brake, slope, rng)

    # command schedule for the simulate subcommand
    (out / "schedule.csv").write_text(
        "t_s,throttle,brake,slope_rad\n"
        "0,120,0,0\n20,60,0,0\n60,0,0,0\n70,0,80,0\n85,40,0,0.01\n",
        encoding="utf-8")
    print(f"wrote {out / 'schedule.csv'}")

    # self-contained pipeline config next to copies of the packaged data
    for name in ("zoe_params.json", "anchors_zoe.json"):
        shutil.copy(data_path(name), out / name)
    pipeline = json.loads(data_path("pipeline_zoe.json").read_text(encoding="utf-8"))
    pipeline["estimator"] = {"window": 51, "cutoff_hz": 2.0}
    (out / "pipeline.json").write_text(json.dumps(pipeline, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    print(f"wrote {out / 'pipeline.json'} (params + anchors copied alongside)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
