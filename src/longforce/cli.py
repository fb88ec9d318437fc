"""Command-line pipeline: ingest, fit, export, simulate, validate.

Each stage reads and writes files rather than passing objects in memory:
the identification method is inherently staged (friction feeds the
propulsion and brake fits) and practitioners re-run later stages after
editing anchors. All outputs are deterministic for identical inputs; the
model provenance timestamp honors ``SOURCE_DATE_EPOCH``.

Exit codes: 0 on success, 2 for schema or protocol errors and for input
files that are missing or cannot be read, 3 for numerical or fit errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import (DriveLog, Gear, VehicleParams, json_object, kmh_to_mps,
                   load_vehicle_params, read_json)
from .dynamics import ModelSet, load_schedule_csv, simulate
from .errors import (EmptySeriesError, FitError, InvalidParameterError, LongforceError,
                     ProtocolViolationError, SchemaError, SegmentSplitRequired)
from .estimation import (BinnedPoints, bin_by_speed, estimate_acceleration,
                         log_spaced_edges)
from .extraction import (extract_braking, extract_friction, extract_propulsion,
                         split_constant_signal)
from .reference import load_anchor_file, reference_model_set
from .spline import (DEFAULT_KNOTS_MPS, Anchor, ForceSurface, Spline1D,
                     check_signal_monotone, fit_curve, load_model, load_typed_model,
                     prune_unsupported_knots, save_model)
from .validation import render_table, report_to_dict, validate

DRIVELOG_FORMAT = "longforce-drivelog-v1"


# --- drive log files ----------------------------------------------------------

def save_drive_log(path: str | Path, log: DriveLog, extra_meta: dict | None = None) -> None:
    """Write ``log`` as a ``longforce-drivelog-v1`` JSON file.

    The bytes are exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``
    of the object with keys ``brake``, ``format``, ``metadata``,
    ``slope_rad``, ``speed_mps``, ``t_s`` and ``throttle``, so the format
    does not depend on how it is written. The data columns are joined from
    ``repr`` of each value, which is JSON's spelling of an int and of a
    finite float; this needs every float to be finite, and :class:`DriveLog`
    refuses non-finite time, speed and slope. Only the metadata goes
    through ``json.dumps``.
    """
    meta = {"gear": log.gear.value, "description": log.description, **(extra_meta or {})}
    members = {  # in sort_keys order
        "brake": _json_array(log.brake.tolist()),
        "format": json.dumps(DRIVELOG_FORMAT),
        "metadata": json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  "),
        "slope_rad": _json_array(log.slope.tolist()),
        "speed_mps": _json_array(log.speed.tolist()),
        "t_s": _json_array(log.t.tolist()),
        "throttle": _json_array(log.throttle.tolist()),
    }
    body = ",\n  ".join(f'"{name}": {text}' for name, text in members.items())
    Path(path).write_text("{\n  " + body + "\n}\n", encoding="utf-8")


def _json_array(values: list) -> str:
    """``values`` as ``json.dumps`` spells a list nested one level deep, indent 2."""
    if not values:
        return "[]"
    return "[\n    " + ",\n    ".join(map(repr, values)) + "\n  ]"


def load_drive_log(path: str | Path) -> DriveLog:
    obj = read_json(path)
    if obj.get("format") != DRIVELOG_FORMAT:
        raise SchemaError(f"{path}: not a {DRIVELOG_FORMAT} file")
    try:
        meta = json_object(obj, "metadata")
        return DriveLog(
            t=np.array(obj["t_s"], dtype=float),
            speed=np.array(obj["speed_mps"], dtype=float),
            throttle=np.array(obj["throttle"], dtype=np.int64),
            brake=np.array(obj["brake"], dtype=np.int64),
            slope=np.array(obj["slope_rad"], dtype=float),
            gear=Gear(meta.get("gear", "drive")),
            description=meta.get("description", ""),
        )
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise SchemaError(f"{path}: malformed drive log: {exc}") from exc


# --- CSV ingestion ------------------------------------------------------------

INGEST_COLUMNS = ("t", "speed", "throttle", "brake", "slope")
UNIT_SPECS = ("speed_kmh", "speed_mps")
_REJECT_REASONS = ("", "unparseable number", "non-finite value", "negative speed",
                   "non-integer command signal", "command signal out of range")
_INT64_SPAN = 2.0**63


def ingest_csv(csv_path: str | Path, units: str, gear: Gear = Gear.DRIVE,
               description: str = "") -> tuple[DriveLog, dict]:
    """Parse a telemetry CSV into a normalized SI DriveLog.

    Rows with unparseable or non-finite values, negative speeds, or command
    signals that are not integers in the int64 range are rejected (counted,
    not fatal); non-monotone time stamps are a hard error naming the
    offending row. Blank lines are skipped and not numbered, fields past
    the header are ignored, and a header name given twice names its last
    column.
    """
    if units not in UNIT_SPECS:
        raise SchemaError(f"unknown unit spec {units!r}; expected one of {UNIT_SPECS}")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in INGEST_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{csv_path}: missing column(s) {', '.join(missing)}")
        records = list(filter(None, reader))
    last = {name: i for i, name in enumerate(header)}
    indices = [last[c] for c in INGEST_COLUMNS]
    # Pad short rows so that a missing field parses as None, which float()
    # refuses like any other unparseable value.
    width = max(indices) + 1
    for k in np.flatnonzero(np.fromiter(map(len, records), np.intp, len(records)) < width):
        records[k] = records[k] + [None] * (width - len(records[k]))
    parsed = [_parse_floats(list(map(itemgetter(i), records))) for i in indices]
    t, speed, throttle, brake, slope = (values for values, _ in parsed)
    unparseable = np.logical_or.reduce([bad for _, bad in parsed])
    non_finite = ~np.logical_and.reduce([np.isfinite(values) for values, _ in parsed])
    if units == "speed_kmh":
        speed = kmh_to_mps(speed)
    signals = np.stack([throttle, brake])
    fractional = (signals != np.trunc(signals)).any(axis=0)
    out_of_range = ((signals < -_INT64_SPAN) | (signals >= _INT64_SPAN)).any(axis=0)
    # The first reason that applies, in this order, is the one reported.
    reasons = np.select([unparseable, non_finite, speed < 0, fractional, out_of_range],
                        [1, 2, 3, 4, 5], 0)
    rejected_at = np.flatnonzero(reasons)
    keep = reasons == 0
    t = t[keep]
    late = np.flatnonzero(t[1:] <= t[:-1])
    if len(late):
        k = int(late[0]) + 1
        raise SchemaError(
            f"{csv_path}: time not strictly increasing at data row {k + 1} "
            f"(t={float(t[k])} after t={float(t[k - 1])})")
    log = DriveLog(
        t=t,
        speed=speed[keep],
        throttle=throttle[keep].astype(np.int64),
        brake=brake[keep].astype(np.int64),
        slope=slope[keep],
        gear=gear,
        description=description,
    )
    report = {
        "rows": len(log),
        "rejected": len(rejected_at),
        "rejected_rows": [(int(k) + 1, _REJECT_REASONS[reasons[k]])
                          for k in rejected_at[:20]],
        "segments": len(log.segments()),
    }
    return log, report


def _parse_floats(cells: list) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of every cell, and a mask of the cells it refuses (read as NaN)."""
    try:
        return np.array(list(map(float, cells))), np.zeros(len(cells), dtype=bool)
    except (TypeError, ValueError):
        values = np.full(len(cells), np.nan)
        bad = np.zeros(len(cells), dtype=bool)
        for k, cell in enumerate(cells):
            try:
                values[k] = float(cell)
            except (TypeError, ValueError):
                bad[k] = True
        return values, bad


# --- pipeline configuration ----------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """Everything the fit stages need: vehicle, anchors, estimator, bins, knots.

    Knot layouts may differ per model kind; a single list in the config
    applies to all three.
    """

    params: VehicleParams
    anchors: dict[str, dict[int | None, tuple[Anchor, ...]]]
    window: int
    cutoff_hz: float
    bin_edges: np.ndarray
    knots_mps: dict[str, tuple[float, ...]]

    def knots_for(self, kind: str) -> tuple[float, ...]:
        try:
            return self.knots_mps[kind]
        except KeyError:
            raise SchemaError(f"no knot layout configured for {kind!r}") from None


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    obj = read_json(path)
    try:
        params = load_vehicle_params(path.parent / obj["params"])
        anchors = load_anchor_file(path.parent / obj["anchors"])
        est = json_object(obj, "estimator")
        window = int(est.get("window", 21))
        cutoff = float(est.get("cutoff_hz", 5.0))
        bins = json_object(obj, "bins")
        edges = log_spaced_edges(float(bins.get("lo_mps", 0.05)),
                                 float(bins.get("hi_mps", 40.0)),
                                 int(bins.get("count", 40)))
        layout = obj.get("knots_mps", DEFAULT_KNOTS_MPS)
        if isinstance(layout, dict):
            knots = {kind: tuple(float(k) for k in ks) for kind, ks in layout.items()}
        else:
            shared = tuple(float(k) for k in layout)
            knots = {kind: shared for kind in ("friction", "propulsion", "braking")}
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: invalid pipeline config: {exc}") from exc
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
                                config.knots_for("friction"), config.bin_edges, "friction")
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
    knots = config.knots_for(kind)
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
    if 0 not in propulsion.levels:
        raise SchemaError(f"{propulsion_path}: propulsion surface must include level 0 "
                          "(the creep curve)")
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
    friction = load_typed_model(friction_path, "friction")
    propulsion = load_typed_model(propulsion_path, "propulsion")
    braking = load_typed_model(braking_path, "braking")
    params = load_vehicle_params(params_path)
    try:
        return ModelSet(friction, propulsion, braking, params)
    except ValueError as exc:
        path = propulsion_path if 0 not in propulsion.levels else braking_path
        raise SchemaError(f"{path}: {exc}") from exc


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


# --- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longforce",
        description="Identify longitudinal force models from drive logs and "
                    "assemble direct/inverse dynamic models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a telemetry CSV into a drive log file")
    p.add_argument("csv_path")
    p.add_argument("--units", choices=UNIT_SPECS, required=True)
    p.add_argument("--gear", choices=[g.value for g in Gear], default=Gear.DRIVE.value)
    p.add_argument("--description", default="")
    p.add_argument("--out", required=True)

    for name, help_text in (("fit-friction", "fit the friction curve from coast-down logs"),
                            ("fit-propulsion", "fit the propulsion surface"),
                            ("fit-brake", "fit the braking surface")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("logs", nargs="+")
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        if name in ("fit-propulsion", "fit-brake"):
            p.add_argument("--friction", required=True)
        if name == "fit-brake":
            p.add_argument("--propulsion", required=True)

    p = sub.add_parser("export-plot-data", help="densely evaluate a model into CSV")
    p.add_argument("model")
    p.add_argument("--out", required=True)
    p.add_argument("--level", type=int, action="append")
    p.add_argument("--log-axes", action="store_true")
    p.add_argument("--points", type=int, default=500)

    p = sub.add_parser("simulate", help="integrate the direct model under a schedule")
    p.add_argument("--friction", required=True)
    p.add_argument("--propulsion", required=True)
    p.add_argument("--braking", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--v0", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="compare model-estimated vs measured acceleration")
    p.add_argument("--friction", required=True)
    p.add_argument("--propulsion", required=True)
    p.add_argument("--braking", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--window", type=int, default=21)
    p.add_argument("--cutoff", type=float, default=5.0)
    p.add_argument("--hist-bin", type=float, default=0.1)
    p.add_argument("--out")

    p = sub.add_parser("reference", help="write reference models from packaged anchors")
    p.add_argument("--out-dir", required=True)

    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "ingest":
        log, report = ingest_csv(args.csv_path, args.units, Gear(args.gear),
                                 args.description)
        save_drive_log(args.out, log, {"source_csv": str(args.csv_path),
                                       "speed_unit_in": args.units})
        print(f"ingested {report['rows']} rows ({report['rejected']} rejected), "
              f"{report['segments']} segment(s) -> {args.out}")
        for idx, reason in report["rejected_rows"]:
            print(f"  rejected row {idx}: {reason}")
    elif args.command == "fit-friction":
        run_fit_friction(args.logs, load_pipeline_config(args.config), args.out)
    elif args.command == "fit-propulsion":
        run_fit_propulsion(args.logs, args.friction, load_pipeline_config(args.config),
                           args.out)
    elif args.command == "fit-brake":
        run_fit_brake(args.logs, args.friction, args.propulsion,
                      load_pipeline_config(args.config), args.out)
    elif args.command == "export-plot-data":
        run_export(args.model, args.out, args.level, args.log_axes, args.points)
    elif args.command == "simulate":
        models = load_model_set(args.friction, args.propulsion, args.braking, args.params)
        run_simulate(models, args.schedule, args.v0, args.dt, args.duration, args.out)
    elif args.command == "validate":
        models = load_model_set(args.friction, args.propulsion, args.braking, args.params)
        run_validate(models, args.log, args.window, args.cutoff, args.hist_bin, args.out)
    elif args.command == "reference":
        run_reference(args.out_dir)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except (SchemaError, ProtocolViolationError, InvalidParameterError,
            SegmentSplitRequired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LongforceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
