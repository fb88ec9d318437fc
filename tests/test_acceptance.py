"""Acceptance suite: one test per criterion, one printed verdict line each.

No real drive data ships with the repository, so acceptance rests on
synthetic round trips against the shipped reference models plus the
documented curve constants, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import math

import numpy as np

from longforce.core import Gear, VehicleParams, Wheel, save_drive_log
from longforce.dynamics import (ModelSet, direct_acceleration, inverse_actuation,
                                simulate)
from longforce.estimation import AccelSeries, bin_by_speed, estimate_acceleration
from longforce.pipeline import (load_pipeline_config, run_fit_brake, run_fit_friction,
                                run_fit_propulsion)
from longforce.reference import data_path
from longforce.spline import ForceSurface, Spline1D, load_model, save_model
from longforce.validation import validate

from conftest import coast_down_log, mixed_drive, protocol_log


def verdict(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_equivalent_mass():
    params = VehicleParams(1480.0, 200.0,
                           wheels=tuple(Wheel(0.86, 0.29) for _ in range(4)))
    # base plus payload, then J/R^2 for each of the four wheels
    formula = 1480.0 + 200.0
    for _ in range(4):
        formula += 0.86 / 0.29**2
    m_eq = params.m_eq_kg
    verdict(m_eq == formula and abs(m_eq - 1720.0) <= 1.0, "criterion 1 (equivalent mass)",
            f"m_eq = {m_eq:.2f} kg vs 1720 +- 1 kg")


def test_criterion_2_pipeline_round_trip(gt_models, tmp_path):
    rng = np.random.default_rng(42)
    noise = 0.02

    cfg = json.loads(data_path("pipeline_zoe.json").read_text())
    cfg["params"] = str(data_path("zoe_params.json"))
    cfg["anchors"] = str(data_path("anchors_zoe.json"))
    cfg["estimator"] = {"window": 51, "cutoff_hz": 2.0}
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg))
    config = load_pipeline_config(cfg_path)

    # three protocol tests at 100 Hz with speed noise
    coast = coast_down_log(gt_models, noise_sigma=noise, rng=rng)
    save_drive_log(tmp_path / "coast.json", coast)
    friction = run_fit_friction([str(tmp_path / "coast.json")], config,
                                tmp_path / "friction.json")

    throttle_runs = {0: 60.0, 50: 150.0, 100: 150.0, 150: 140.0, 186: 130.0}
    throttle_logs = {}
    for level, duration in throttle_runs.items():
        log = protocol_log(gt_models, level, 0, 0.0, duration, Gear.DRIVE,
                           noise_sigma=noise, rng=rng)
        save_drive_log(tmp_path / f"throttle_{level}.json", log)
        throttle_logs[level] = log
    propulsion = run_fit_propulsion(
        [str(tmp_path / f"throttle_{lv}.json") for lv in throttle_runs],
        tmp_path / "friction.json", config, tmp_path / "propulsion.json")

    brake_runs = {0: 80.0, 40: 40.0, 80: 25.0, 120: 18.0, 160: 14.0}
    brake_logs = {}
    for level, duration in brake_runs.items():
        log = protocol_log(gt_models, 0, level, 125.0 / 3.6, duration, Gear.DRIVE,
                           noise_sigma=noise, rng=rng, cut_below=0.02)
        save_drive_log(tmp_path / f"brake_{level}.json", log)
        brake_logs[level] = log
    braking = run_fit_brake(
        [str(tmp_path / f"brake_{lv}.json") for lv in brake_runs],
        tmp_path / "friction.json", tmp_path / "propulsion.json", config,
        tmp_path / "braking.json")

    # fitted forces vs ground truth at every bin center with >= 20 samples,
    # within 5% or 50 N (whichever is larger)
    def check(speeds, fitted, truth, label):
        binned = bin_by_speed(np.column_stack([speeds, np.zeros(len(speeds))]),
                              config.bin_edges)
        worst = 0.0
        compared = 0
        for center, _, count in binned:
            if count < 20 or not 0.1 <= center <= 36.0:
                continue
            got, want = fitted(float(center)), truth(float(center))
            tol = max(0.05 * abs(want), 50.0)
            worst = max(worst, abs(got - want) / tol)
            compared += 1
            assert abs(got - want) <= tol, (
                f"{label} at {center:.2f} m/s: fitted {got:.1f} N vs "
                f"ground truth {want:.1f} N (tol {tol:.1f} N)")
        assert compared > 0
        return worst

    worst = check(coast.speed, friction.eval, gt_models.friction.eval, "friction")
    for level, log in throttle_logs.items():
        worst = max(worst, check(log.speed,
                                 lambda v, lv=level: propulsion.eval(v, lv),
                                 lambda v, lv=level: gt_models.propulsion.eval(v, lv),
                                 f"propulsion level {level}"))
    for level, log in brake_logs.items():
        worst = max(worst, check(log.speed,
                                 lambda v, lv=level: braking.eval(v, lv),
                                 lambda v, lv=level: gt_models.braking.eval(v, lv),
                                 f"braking level {level}"))
    verdict(worst <= 1.0, "criterion 2 (pipeline round trip)",
            f"all populated bins within max(5%, 50 N); worst at "
            f"{100 * worst:.0f}% of tolerance")


def test_criterion_3_validation_statistics(gt_models):
    log, traj, _ = mixed_drive(gt_models, cycles=2)
    distance = float(np.trapezoid(traj.speed, traj.t))
    assert distance >= 10_000.0
    rng = np.random.default_rng(7)
    measured = AccelSeries(traj.accel + rng.normal(0.0, 0.35, len(traj)),
                           np.ones(len(traj), dtype=bool))
    report = validate(gt_models, log, measured, hist_bin=0.1)
    ok = (report.count >= 10_000 and -0.02 <= report.mean <= 0.02
          and 0.33 <= report.std_dev <= 0.37)
    verdict(ok, "criterion 3 (validation statistics)",
            f"mean {report.mean:+.4f} in [-0.02, 0.02], std {report.std_dev:.4f} "
            f"in [0.33, 0.37], n = {report.count}, {distance / 1000:.1f} km")


def test_criterion_4_inverse_direct_identity(gt_models):
    rng = np.random.default_rng(21)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 20_000
        v = float(rng.uniform(0.2, 34.0))
        slope = float(rng.uniform(-0.05, 0.05))
        a_des = float(rng.uniform(-3.0, 3.0))
        cmd = inverse_actuation(gt_models, v, slope, a_des)
        if cmd.saturated or cmd.underflow:
            continue
        a_got, _ = direct_acceleration(gt_models, v, cmd.throttle, cmd.brake, slope)
        worst = max(worst, abs(a_got - a_des))
        checked += 1
    verdict(worst <= 1e-3, "criterion 4 (inverse-direct identity)",
            f"1000 unflagged queries, worst |achieved - desired| = {worst:.2e} m/s^2")


def test_criterion_5_spline_invariants(gt_models, tmp_path):
    rng = np.random.default_rng(14)
    surface = gt_models.propulsion

    # knot interpolation is exact
    for curve in (gt_models.friction, *surface.curves, *gt_models.braking.curves):
        for x, y in zip(curve.knots_x, curve.knots_y):
            assert curve.eval(x) == y

    # non-negativity on dense sweeps
    sweep = np.linspace(0.0, 36.0, 1000)
    assert all(gt_models.friction.eval(float(v)) >= 0.0 for v in sweep)
    for level in surface.levels:
        assert all(surface.eval(float(v), level) >= 0.0 for v in sweep)

    # surface pass-through at defining levels
    for v in rng.uniform(0.0, 36.0, 64):
        for level, curve in zip(surface.levels, surface.curves):
            assert surface.eval(float(v), level) == curve.eval(float(v))

    # inversion round-trip off plateaus
    worst_rt = 0.0
    for _ in range(300):
        v = float(rng.uniform(0.2, 34.0))
        x = float(rng.uniform(0.0, 186.0))
        values = surface.cross_section(v)
        if min(np.diff(values)) < 1.0:
            continue
        signal, _, _ = surface.invert(v, surface.eval(v, x))
        worst_rt = max(worst_rt, abs(signal - x))
    assert worst_rt <= 1e-3

    # serialization round-trip is bit-exact
    path = tmp_path / "model.json"
    save_model(path, "propulsion", surface, {"source_logs": []})
    _, loaded, _ = load_model(path)
    for _ in range(1000):
        v = float(rng.uniform(0.0, 36.0))
        sig = float(rng.uniform(0.0, 186.0))
        assert loaded.eval(v, sig) == surface.eval(v, sig)

    verdict(True, "criterion 5 (spline invariants)",
            f"knot interpolation exact, sweeps non-negative, pass-through exact, "
            f"inversion round-trip worst {worst_rt:.1e}, serialization bit-exact")


def test_criterion_6_reference_shape_regeneration(gt_models):
    surface = gt_models.propulsion

    plateau = [surface.eval(float(v), 186)
               for v in np.linspace(5.0 / 3.6, 30.0 / 3.6, 200)]
    plateau_ok = all(abs(f - 6300.0) <= 63.0 for f in plateau)

    power_ok = True
    powers = []
    for kmh in (60.0, 80.0, 100.0):
        v = kmh / 3.6
        p = surface.eval(v, 186) * v
        powers.append(p / 1000.0)
        power_ok &= abs(p - 57_000.0) <= 0.02 * 57_000.0

    peak = max(surface.eval(float(v), 186) for v in np.linspace(0.3, 1.6, 800))
    peak_ok = abs(peak - 7800.0) <= 0.02 * 7800.0

    verdict(plateau_ok and power_ok and peak_ok,
            "criterion 6 (reference shape regeneration)",
            f"plateau [{min(plateau):.0f}, {max(plateau):.0f}] N vs 6300 +- 1%, "
            f"power {powers[0]:.1f}/{powers[1]:.1f}/{powers[2]:.1f} kW vs 57 +- 2%, "
            f"peak {peak:.0f} N vs 7800 +- 2%")


def test_criterion_7_estimator_correctness():
    t = np.arange(0, 20, 0.01)
    n = len(t)
    zeros = np.zeros(n, dtype=np.int64)

    def log_for(speed):
        from longforce.core import DriveLog
        return DriveLog(t, speed, zeros, zeros, np.zeros(n))

    const = estimate_acceleration(log_for(np.full(n, 10.0)), 21, 5.0)
    const_ok = np.all(np.abs(const.accel[const.valid]) < 1e-9)

    ramp = estimate_acceleration(log_for(2.0 * t), 21, 5.0)
    ramp_err = float(np.max(np.abs(ramp.accel[ramp.valid] - 2.0)))

    quad = estimate_acceleration(log_for(0.5 * t**2), 21, 5.0)
    interior = quad.valid & (t >= 1.0) & (t <= t[-1] - 1.0)
    quad_err = float(np.max(np.abs(quad.accel[interior] - t[interior])))

    rng = np.random.default_rng(6)
    v = np.abs(10 + np.cumsum(rng.normal(0, 0.01, n)))
    fwd = estimate_acceleration(log_for(v), 21, 5.0)
    from longforce.core import DriveLog
    rev_log = DriveLog(t[-1] - t[::-1], v[::-1], zeros, zeros, np.zeros(n))
    rev = estimate_acceleration(rev_log, 21, 5.0)
    sym_err = float(np.nanmax(np.abs(rev.accel[::-1] + fwd.accel)))

    ok = const_ok and ramp_err <= 1e-9 and quad_err <= 1e-9 and sym_err <= 1e-9
    verdict(ok, "criterion 7 (estimator correctness)",
            f"constant exact, ramp err {ramp_err:.1e} <= 1e-9, quadratic interior "
            f"err {quad_err:.1e} <= 1e-9, reversal asymmetry {sym_err:.1e} <= 1e-9")


def test_criterion_8_simulator_order(flat_params, gt_models):
    # RK4 convergence on a smooth single-segment model
    friction = Spline1D.interpolate([0.0, 40.0], [100.0, 500.0])
    propulsion = ForceSurface(
        (0, 100), (Spline1D.interpolate([0.0, 40.0], [0.0, 0.0]),
                   Spline1D.interpolate([0.0, 40.0], [3000.0, 2000.0])))
    braking = ForceSurface((0,), (Spline1D.interpolate([0.0, 40.0], [0.0, 0.0]),))
    smooth = ModelSet(friction, propulsion, braking, flat_params)

    def schedule(t):
        return (50.0 + 30.0 * math.sin(0.5 * t), 0.0, 0.02 * math.sin(0.3 * t))

    ref = simulate(smooth, schedule, 10.0, 0.1 / 128.0, 20.0)

    def final_error(dt):
        return abs(simulate(smooth, schedule, 10.0, dt, 20.0).speed[-1] - ref.speed[-1])

    ratio = final_error(0.1) / final_error(0.05)
    order_ok = 12.0 <= ratio <= 20.0

    # coast-down against a dt/100 reference
    from longforce.reference import neutral_model_set
    coasting = neutral_model_set(gt_models)
    v0 = 125.0 / 3.6
    coarse = simulate(coasting, lambda t: (0, 0, 0.0), v0, 0.01, 30.0)
    fine = simulate(coasting, lambda t: (0, 0, 0.0), v0, 0.0001, 30.0)
    coast_err = float(np.max(np.abs(coarse.speed - fine.speed[::100])))

    verdict(order_ok and coast_err <= 0.01, "criterion 8 (simulator order)",
            f"halving dt shrinks the error {ratio:.1f}x (expect ~16x), coast-down "
            f"vs dt/100 reference differs {coast_err:.1e} m/s <= 0.01")
