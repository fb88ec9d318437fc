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
from .estimation import (DEFAULT_CUTOFF_HZ, DEFAULT_WINDOW, bin_by_speed, check_estimator,
                         estimate_acceleration, log_spaced_edges)
from .extraction import (extract_braking, extract_friction, extract_propulsion,
                         split_constant_signal)
from .reference import load_anchor_file, reference_model_set
from .spline import (DEFAULT_KNOTS_MPS, MODEL_KINDS, ForceSurface, Spline1D,
                     _knot_positions, check_signal_monotone, fit_curve, load_model,
                     load_typed_model, save_model)
from .validation import render_table, report_to_dict, validate


# --- pipeline configuration ----------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """Everything the fit stages need: vehicle, anchors, estimator, bins, knots.

    ``knots_mps`` holds one knot layout per model kind. In the config file
    the layouts may differ per kind, or a single list applies to all three.
    """

    params: VehicleParams
    anchors: dict[str, dict[int | None, np.ndarray]]
    window: int
    cutoff_hz: float
    bin_edges: np.ndarray
    knots_mps: dict[str, tuple[float, ...]]


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """The config at ``path``; a value the stages cannot use is a SchemaError naming the file.
    Each ``knots_mps`` layout must pass the curves' knot-layout rule, ``_knot_positions``,
    and span every anchor of its kind."""
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
            try:
                _knot_positions(ks)
            except FitError as exc:
                raise FitError(f"knots_mps for {kind}: {exc}") from None
    # Read outside the block, so that their errors name their own file once.
    params, anchors = load_vehicle_params(params_path), load_anchor_file(anchors_path)
    with file_values(anchors_path, "invalid anchor config"):
        for kind, by_level in anchors.items():
            lo, hi = knots[kind][0], knots[kind][-1]
            for level, rows in by_level.items():
                outside = (rows[:, 0] < lo) | (rows[:, 0] > hi)
                if outside.any():
                    i = int(outside.argmax())
                    name = kind if level is None else f"{kind} level {level}"
                    raise ValueError(f"{name} anchor {i} at {rows[i, 0]} m/s lies outside "
                                     f"the {kind} knot span [{lo}, {hi}] m/s")
    return PipelineConfig(params, anchors, window, cutoff, edges, knots)


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


def _fit_level_curve(points, anchors, knots, bin_edges, label: str) -> Spline1D:
    """Bin the points and keep the bins inside the knot span, add the anchors as
    (speed, force, weight) rows after them, fit the curve on the knots they support."""
    binned = bin_by_speed(points, bin_edges)
    lo, hi = knots[0], knots[-1]
    inside = (binned[:, 0] >= lo) & (binned[:, 0] <= hi)
    dropped = int((~inside).sum())
    if dropped:
        print(f"{label}: dropped {dropped} bin(s) outside the knot span [{lo}, {hi}] m/s")
    binned = binned[inside]
    rows = np.concatenate([binned, np.reshape(anchors, (-1, 3))])
    curve = fit_curve(rows, knots)
    if len(curve.knots_x) < len(knots):
        print(f"{label}: pruned {len(knots) - len(curve.knots_x)} unsupported knot(s)")
    rms = _fit_rms(curve, binned)
    print(f"{label}: {len(points)} points in {len(binned)} bins, "
          f"fit residual RMS {rms:.1f} N")
    return curve


def _fit_rms(curve: Spline1D, binned: np.ndarray) -> float:
    if len(binned) == 0:
        return 0.0
    resid = binned[:, 1] - curve.eval_many(binned[:, 0])
    return float(np.sqrt(np.mean(resid**2)))


def _points_by_level(runs, config: PipelineConfig, extract) -> dict[int | None, list[np.ndarray]]:
    """Each ``(path, level, log)`` run's ``extract(log, accel)`` rows, grouped by level,
    estimated and extracted in run order; a protocol violation names the run's file."""
    points: dict[int | None, list[np.ndarray]] = {}
    for path, level, log in runs:
        accel = estimate_acceleration(log, config.window, config.cutoff_hz)
        try:
            rows = extract(log, accel)
        except ProtocolViolationError as exc:
            raise ProtocolViolationError(f"{path}: {exc}", exc.indices) from exc
        points.setdefault(level, []).append(rows)
    return points


def run_fit_friction(log_paths: list[str], config: PipelineConfig,
                     out_path: str | Path) -> Spline1D:
    """Chain estimation, friction extraction and curve fitting; write the model."""
    runs = ((path, None, load_drive_log(path)) for path in log_paths)  # read one at a time
    points = _points_by_level(runs, config,
                              lambda log, accel: extract_friction(log, accel, config.params))
    anchors = config.anchors.get("friction", {}).get(None, ())
    rows = np.concatenate(points[None]) if points else np.empty((0, 2))  # no logs: anchors only
    curve = _fit_level_curve(rows, anchors, config.knots_mps["friction"], config.bin_edges,
                             "friction")
    save_model(out_path, "friction", curve, _provenance(log_paths))
    return curve


def _fit_surface(kind: str, signal: str, log_paths: list[str], config: PipelineConfig,
                 out_path: str | Path, extract) -> ForceSurface:
    """Fit one ``kind`` curve per constant-``signal`` level; ``extract(run, accel)``
    gives a run's (speed, force) rows.

    The levels are known once the logs are split, so a level set without 0,
    which :class:`ForceSurface` refuses, is refused there with ``FitError``,
    before any estimation or fit.
    """
    runs = [(path, int(getattr(part, signal)[0]), part) for path in log_paths
            for part in split_constant_signal(load_drive_log(path), signal)
            if len(part) >= config.window]
    if not runs:
        raise EmptySeriesError(f"no usable constant-{signal} segments in the given logs")
    levels = sorted({level for _, level, _ in runs})
    if levels[0] != 0:
        raise FitError(f"{kind}: the lowest level must be 0 (the released pedal), got "
                       f"levels {levels} in {', '.join(map(str, log_paths))}")
    points = _points_by_level(runs, config, extract)
    anchors = config.anchors.get(kind, {})
    knots = config.knots_mps[kind]
    curves = []
    for level in levels:
        try:
            curve = _fit_level_curve(np.concatenate(points[level]), anchors.get(level, ()),
                                     knots, config.bin_edges, f"{kind} level {level}")
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
    creep = propulsion.curves[0]
    return _fit_surface("braking", "brake", log_paths, config, out_path,
                        lambda part, accel: extract_braking(part, accel, friction, creep,
                                                            config.params))


# --- plot data export ----------------------------------------------------------

#: Speed range (km/h) of the exported grid.
EXPORT_LO_KMH, EXPORT_HI_KMH = 0.1, 130.0
#: Most grid points per level ``run_export`` writes.
MAX_EXPORT_POINTS = 1_000_000


def run_export(model_path: str | Path, out_path: str | Path,
               levels: list[int] | None = None, log_axes: bool = False,
               points: int = 500) -> None:
    """Dense per-level evaluation grid as CSV (speed_kmh, force_N, level)."""
    if points < 1:
        raise InvalidParameterError(f"points must be >= 1, got {points}")
    if points > MAX_EXPORT_POINTS:
        raise InvalidParameterError(f"points must be <= {MAX_EXPORT_POINTS}, got {points}")
    kind, model, _ = load_model(model_path)
    grid = np.geomspace if log_axes else np.linspace
    grid_kmh = grid(EXPORT_LO_KMH, EXPORT_HI_KMH, points)
    if kind == "friction":
        if levels:
            raise SchemaError(f"{model_path}: a friction model has no levels")
        level_list: list[int | None] = [None]
    else:
        available = list(model.levels)
        level_list = levels if levels else available
        unknown = [lv for lv in level_list if lv not in available]
        if unknown:
            raise SchemaError(
                f"{model_path}: unknown level(s) {unknown}; available levels: {available}")
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
