"""The pipeline stages: fit, export, simulate, validate, reference models.

Each stage reads and writes files rather than passing objects in memory:
the identification method is inherently staged (friction feeds the
propulsion and brake fits) and practitioners re-run later stages after
editing anchors. All outputs are deterministic for identical inputs; the
model provenance timestamp honors ``SOURCE_DATE_EPOCH``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (VehicleParams, file_values, json_integers, json_numbers, json_object,
                   kmh_to_mps, load_drive_log, load_vehicle_params, read_json)
from .dynamics import ModelSet, load_schedule_csv, simulate
from .errors import (EmptySeriesError, FitError, InvalidParameterError,
                     ProtocolViolationError, SchemaError)
from .estimation import (DEFAULT_CUTOFF_HZ, DEFAULT_WINDOW, BinnedPoints, bin_by_speed,
                         check_estimator, estimate_acceleration, log_spaced_edges)
from .extraction import (extract_braking, extract_friction, extract_propulsion,
                         split_constant_signal)
from .reference import load_anchor_file, reference_model_set
from .spline import (DEFAULT_KNOTS_MPS, MODEL_KINDS, Anchor, ForceSurface, Spline1D,
                     check_signal_monotone, fit_curve, load_model, load_typed_model,
                     prune_unsupported_knots, save_model)
from .validation import render_table, report_to_dict, validate


# --- pipeline configuration ----------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """Everything the fit stages need: vehicle, anchors, estimator, bins, knots.

    ``knots_mps`` holds one knot layout per model kind. In the config file
    the layouts may differ per kind, or a single list applies to all three.
    """

    params: VehicleParams
    anchors: dict[str, dict[int | None, tuple[Anchor, ...]]]
    window: int
    cutoff_hz: float
    bin_edges: np.ndarray
    knots_mps: dict[str, tuple[float, ...]]


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """The config at ``path``; a value the stages cannot use is a SchemaError naming the file."""
    path = Path(path)
    obj = read_json(path)
    with file_values(path, "invalid pipeline config"):
        params_path, anchors_path = (path.parent / obj[key] for key in ("params", "anchors"))
        est = json_object(obj, "estimator")
        window = int(json_integers(est, "window", DEFAULT_WINDOW))
        cutoff = float(json_numbers(est, "cutoff_hz", DEFAULT_CUTOFF_HZ))
        check_estimator(window, cutoff)
        bins = json_object(obj, "bins")
        edges = log_spaced_edges(**{arg: cast(read(bins, key)) for key, arg, read, cast in (
            ("lo_mps", "lo", json_numbers, float), ("hi_mps", "hi", json_numbers, float),
            ("count", "count", json_integers, int)) if key in bins})
        layout = obj.get("knots_mps", list(DEFAULT_KNOTS_MPS))
        if not isinstance(layout, dict):
            layout = dict.fromkeys(MODEL_KINDS, layout)
        missing = [kind for kind in MODEL_KINDS if kind not in layout]
        if missing:
            raise ValueError(f"knots_mps has no layout for {missing[0]}")
        knots = {kind: tuple(map(float, json_numbers(layout, kind))) for kind in MODEL_KINDS}
        for kind, ks in knots.items():
            if not (len(ks) >= 2 and all(map(math.isfinite, ks))
                    and all(a < b for a, b in zip(ks, ks[1:]))):
                raise ValueError(f"knots_mps for {kind} must hold >= 2 finite, strictly "
                                 f"increasing speeds, got {list(ks)}")
    # Read outside the block, so that their errors name their own file once.
    return PipelineConfig(load_vehicle_params(params_path), load_anchor_file(anchors_path),
                          window, cutoff, edges, knots)


def _provenance(source_logs: list[str]) -> dict:
    stamp = os.environ.get("SOURCE_DATE_EPOCH", "")
    try:
        timestamp = int(stamp)
    except ValueError:
        timestamp = int(time.time())
    return {
        "source_logs": [str(p) for p in source_logs],
        "fit_timestamp": timestamp,
    }


def _binned_within_knots(points, knots: tuple[float, ...], bin_edges, label: str):
    binned = bin_by_speed(points, bin_edges)
    lo, hi = knots[0], knots[-1]
    inside = (binned.bin_centers >= lo) & (binned.bin_centers <= hi)
    dropped = int((~inside).sum())
    if dropped:
        print(f"{label}: dropped {dropped} bin(s) outside the knot span [{lo}, {hi}] m/s")
    return BinnedPoints(binned.bin_centers[inside], binned.values[inside],
                        binned.counts[inside])


def _fit_level_curve(points, anchors, knots, bin_edges, label: str) -> tuple[Spline1D, BinnedPoints]:
    """Bin the points, prune knots the data cannot support, fit the curve."""
    binned = _binned_within_knots(points, knots, bin_edges, label)
    xs = list(binned.bin_centers) + [a.speed_mps for a in anchors]
    kept = prune_unsupported_knots(knots, xs)
    if len(kept) < len(knots):
        print(f"{label}: pruned {len(knots) - len(kept)} unsupported knot(s)")
    curve = fit_curve(binned, anchors, kept)
    rms = _fit_rms(curve, binned)
    print(f"{label}: {len(points)} points in {len(binned)} bins, "
          f"fit residual RMS {rms:.1f} N")
    return curve, binned


def _fit_rms(curve: Spline1D, binned) -> float:
    if len(binned) == 0:
        return 0.0
    resid = binned.values - curve.eval_many(binned.bin_centers)
    return float(np.sqrt(np.mean(resid**2)))


def run_fit_friction(log_paths: list[str], config: PipelineConfig,
                     out_path: str | Path) -> Spline1D:
    """Chain estimation, friction extraction and curve fitting; write the model."""
    parts = [np.empty((0, 2))]  # (speed, force) rows, one array per log
    for path in log_paths:
        log = load_drive_log(path)
        accel = estimate_acceleration(log, config.window, config.cutoff_hz)
        try:
            obs = extract_friction(log, accel, config.params)
        except ProtocolViolationError as exc:
            raise ProtocolViolationError(f"{path}: {exc}", exc.indices) from exc
        parts.append(obs.points())
    anchors = config.anchors.get("friction", {}).get(None, ())
    curve, _ = _fit_level_curve(np.concatenate(parts), anchors,
                                config.knots_mps["friction"], config.bin_edges, "friction")
    save_model(out_path, "friction", curve, _provenance(log_paths))
    return curve


def _fit_surface(kind: str, signal: str, log_paths: list[str], config: PipelineConfig,
                 out_path: str | Path, extract) -> ForceSurface:
    """Fit one ``kind`` curve per constant-``signal`` level; ``extract(run, accel)``
    gives a run's force observations."""
    points_by_level: dict[int, list[np.ndarray]] = {}
    for path in log_paths:
        for part in split_constant_signal(load_drive_log(path), signal):
            if len(part) < config.window:
                continue
            accel = estimate_acceleration(part, config.window, config.cutoff_hz)
            try:
                obs = extract(part, accel)
            except ProtocolViolationError as exc:
                raise ProtocolViolationError(f"{path}: {exc}", exc.indices) from exc
            points_by_level.setdefault(obs.level, []).append(obs.points())
    if not points_by_level:
        raise EmptySeriesError(f"no usable constant-{signal} segments in the given logs")
    anchors = config.anchors.get(kind, {})
    knots = config.knots_mps[kind]
    levels = sorted(points_by_level)
    curves = []
    for level in levels:
        try:
            curve, _ = _fit_level_curve(np.concatenate(points_by_level[level]),
                                        anchors.get(level, ()), knots,
                                        config.bin_edges, f"{kind} level {level}")
        except FitError as exc:
            raise FitError(f"{kind} level {level}: {exc}") from exc
        curves.append(curve)
    surface = ForceSurface(tuple(levels), tuple(curves))
    check_signal_monotone(surface)
    save_model(out_path, kind, surface, _provenance(log_paths))
    return surface


def run_fit_propulsion(log_paths: list[str], friction_path: str | Path,
                       config: PipelineConfig, out_path: str | Path) -> ForceSurface:
    """Fit one propulsion curve per constant throttle level and assemble the surface."""
    friction = load_typed_model(friction_path, "friction")
    return _fit_surface("propulsion", "throttle", log_paths, config, out_path,
                        lambda part, accel: extract_propulsion(part, accel, friction,
                                                               config.params))


def run_fit_brake(log_paths: list[str], friction_path: str | Path,
                  propulsion_path: str | Path, config: PipelineConfig,
                  out_path: str | Path) -> ForceSurface:
    """Fit one braking curve per constant brake level and assemble the surface."""
    friction = load_typed_model(friction_path, "friction")
    propulsion = load_typed_model(propulsion_path, "propulsion")
    creep = propulsion.curve_at(0)
    return _fit_surface("braking", "brake", log_paths, config, out_path,
                        lambda part, accel: extract_braking(part, accel, friction, creep,
                                                            config.params))


# --- plot data export ----------------------------------------------------------

#: Speed range (km/h) of the exported grid.
EXPORT_LO_KMH, EXPORT_HI_KMH = 0.1, 130.0


def run_export(model_path: str | Path, out_path: str | Path,
               levels: list[int] | None = None, log_axes: bool = False,
               points: int = 500) -> None:
    """Dense per-level evaluation grid as CSV (speed_kmh, force_N, level)."""
    if points < 1:
        raise InvalidParameterError(f"points must be >= 1, got {points}")
    kind, model, _ = load_model(model_path)
    grid = np.geomspace if log_axes else np.linspace
    grid_kmh = grid(EXPORT_LO_KMH, EXPORT_HI_KMH, points)
    if kind == "friction":
        if levels:
            raise SchemaError("a friction model has no levels")
        level_list: list[int | None] = [None]
    else:
        available = list(model.levels)
        level_list = levels if levels else available
        unknown = [lv for lv in level_list if lv not in available]
        if unknown:
            raise SchemaError(
                f"unknown level(s) {unknown}; available levels: {available}")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["speed_kmh", "force_N", "level"])
        for level in level_list:
            v = kmh_to_mps(grid_kmh)
            forces = model.eval_many(v) if level is None else model.eval_many(v, level)
            label = "" if level is None else level
            writer.writerows([repr(v_kmh), repr(force), label]
                             for v_kmh, force in zip(grid_kmh.tolist(), forces.tolist()))
    print(f"wrote {points * len(level_list)} rows to {out_path}")


# --- simulation & validation ---------------------------------------------------

def load_model_set(friction_path, propulsion_path, braking_path, params_path) -> ModelSet:
    return ModelSet(load_typed_model(friction_path, "friction"),
                    load_typed_model(propulsion_path, "propulsion"),
                    load_typed_model(braking_path, "braking"),
                    load_vehicle_params(params_path))


def run_simulate(models: ModelSet, schedule_path: str | Path, v0: float, dt: float,
                 duration: float, out_path: str | Path) -> None:
    schedule = load_schedule_csv(schedule_path)
    traj = simulate(models, schedule, v0, dt, duration)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "speed_mps", "accel_mps2", "F_p_N", "F_f_N", "F_b_N"])
        columns = (traj.t, traj.speed, traj.accel, traj.f_p, traj.f_f, traj.f_b)
        writer.writerows(zip(*(map(repr, col.tolist()) for col in columns)))
    print(f"wrote {len(traj)} trajectory rows to {out_path}")


def run_validate(models: ModelSet, log_path: str | Path, window: int, cutoff_hz: float,
                 hist_bin: float, out_path: str | Path | None) -> None:
    log = load_drive_log(log_path)
    accel = estimate_acceleration(log, window, cutoff_hz)
    report = validate(models, log, accel, hist_bin)
    print(render_table(report))
    if out_path is not None:
        Path(out_path).write_text(
            json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote report to {out_path}")


def run_reference(out_dir: str | Path) -> None:
    """Write model files interpolated from the packaged reference anchors."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    models = reference_model_set()
    provenance = {"source_logs": [], "fit_timestamp": 0,
                  "note": "interpolated from packaged reference anchors"}
    save_model(out / "friction.json", "friction", models.friction, provenance)
    save_model(out / "propulsion.json", "propulsion", models.propulsion, provenance)
    save_model(out / "braking.json", "braking", models.braking, provenance)
    print(f"wrote friction.json, propulsion.json, braking.json to {out}")
