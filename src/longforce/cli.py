"""Command-line entry point: argument parsing and dispatch to the pipeline stages.

Exit codes: 0 on success, 2 for schema or protocol errors, out-of-range
arguments, and input files that are missing or cannot be read, 3 for
numerical or fit errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import UNIT_SPECS, Gear, ingest_csv, save_drive_log
# Not used here: the benchmark harness reads drive logs as cli.load_drive_log.
from .core import load_drive_log  # noqa: F401
from .errors import (InvalidParameterError, LongforceError, ProtocolViolationError,
                     SchemaError, SegmentSplitRequired)
from .estimation import DEFAULT_CUTOFF_HZ, DEFAULT_WINDOW
from .pipeline import (load_model_set, load_pipeline_config, run_export, run_fit_brake,
                       run_fit_friction, run_fit_propulsion, run_reference, run_simulate,
                       run_validate)
from .validation import DEFAULT_HIST_BIN


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

    models = argparse.ArgumentParser(add_help=False)
    for flag in ("--friction", "--propulsion", "--braking", "--params"):
        models.add_argument(flag, required=True)

    p = sub.add_parser("simulate", parents=[models],
                       help="integrate the direct model under a schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--v0", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", parents=[models],
                       help="compare model-estimated vs measured acceleration")
    p.add_argument("--log", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF_HZ)
    p.add_argument("--hist-bin", type=float, default=DEFAULT_HIST_BIN)
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
        # Input that passes the loaders can still overflow the arithmetic;
        # that is a numerical failure, reported like any other.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return run(argv)
    except (SchemaError, ProtocolViolationError, InvalidParameterError,
            SegmentSplitRequired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LongforceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
