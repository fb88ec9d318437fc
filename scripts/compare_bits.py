#!/usr/bin/env python3
"""Check that the evaluated results of a base commit and this checkout are equal bit for bit.

    python3 scripts/compare_bits.py BASE_REF [--seed 11]

The base side is the committed tree of ``BASE_REF``, exported with ``git
archive`` as ``scripts/bench_ab.py`` does; the other side is this checkout's
``src``, uncommitted changes included. Each side runs this script's query
code in a fresh interpreter with its own ``src`` first on the path, so both
answer the same seeded queries. Per public evaluation it hashes, with
SHA-256, the float64 bytes of every result, and the type and message of
every error raised:

* ``Spline1D.eval`` and ``eval_many`` on the reference curves;
* ``ForceSurface.eval``, ``eval_many`` and ``invert`` on the reference
  propulsion and braking surfaces (shared knot grids) and on a propulsion
  surface with one grid per level;
* ``inverse_actuation`` on the reference models;
* ``simulate`` on the four scenarios of the ``simulate`` benchmark;
* ``ingest_csv`` on the telemetry CSVs that ``scripts/make_demo_logs.py``
  writes, and on a copy of its validation drive with rejected rows, quoted
  cells and a blank line (the arrays' bytes and the report). The CSVs are
  written once, and both sides read the same files.

It prints each digest pair and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUERIES = 4000  # queries per evaluation and model
SPECIAL_SPEEDS = (0.0, -0.0, 1e-300, -1.0, math.inf, -math.inf, math.nan)


def export(ref: str, dest: Path) -> None:
    """The committed tree of ``ref``, unpacked at ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def write_ingest_inputs(dest: Path) -> Path:
    """Write the ingest digest's CSVs under ``dest``; returns their directory.

    The validation-drive copy gets a rejected row every 997 data rows, one
    per reject reason in turn, every cell quoted in every 1009th row, and a
    blank line in the middle, so that it takes the block path.
    """
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_logs.py"), str(dest)],
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
                   capture_output=True)
    telemetry = dest / "telemetry"
    lines = (telemetry / "validation_drive.csv").read_text(encoding="utf-8").splitlines()
    # (column, cell): unparseable, negative speed, fractional, out of range, non-finite
    bad = ((0, "abc"), (1, "-1"), (2, "0.5"), (3, "1e20"), (4, "nan"))
    for n, k in enumerate(range(1, len(lines), 997)):
        cells = lines[k].split(",")
        column, cell = bad[n % len(bad)]
        cells[column] = cell
        lines[k] = ",".join(cells)
    for k in range(2, len(lines), 1009):
        lines[k] = ",".join(f'"{cell}"' for cell in lines[k].split(","))
    lines.insert(len(lines) // 2, "")
    (telemetry / "validation_drive_edited.csv").write_text("\n".join(lines) + "\n",
                                                          encoding="utf-8")
    return telemetry


class Digest:
    """SHA-256 over floats (their IEEE-754 bytes) and raised errors (type and message)."""

    def __init__(self):
        self.h = hashlib.sha256()

    def floats(self, values) -> None:
        values = list(values)
        self.h.update(struct.pack(f"<{len(values)}d", *values))

    def call(self, fn, *args) -> None:
        try:
            result = fn(*args)
        except Exception as exc:  # the error is part of the answer
            self.h.update(f"{type(exc).__name__}: {exc}".encode())
            return
        if hasattr(result, "signal"):    # InversionResult
            self.floats((result.signal, result.saturated, result.underflow))
        elif hasattr(result, "throttle"):  # ActuationCommand
            self.floats((result.throttle, result.brake, result.saturated, result.underflow))
        elif hasattr(result, "speed"):   # Trajectory
            for column in (result.t, result.speed, result.accel, result.f_p, result.f_f,
                           result.f_b):
                self.floats(column.tolist())
        elif isinstance(result, tuple):  # ingest_csv's (DriveLog, report)
            log, report = result
            for column in (log.t, log.speed, log.throttle, log.brake, log.slope):
                self.h.update(column.dtype.str.encode() + column.tobytes())
            self.h.update(repr(report).encode())
        elif isinstance(result, float):
            self.floats([result])
        else:                            # an array
            self.floats(result.tolist())

    def hexdigest(self) -> str:
        return self.h.hexdigest()


def digests(seed: int, queries: int = QUERIES, scale: float = 1.0,
            csv_dir: Path | None = None) -> dict[str, str]:
    """The digest of each evaluation's answers to ``queries`` seeded queries, of
    ``simulate`` on the benchmark's scenarios at ``scale`` of their length, and,
    given ``csv_dir``, of ``ingest_csv`` on every CSV in it."""
    import numpy as np

    import longforce as lf
    from longforce.core import ingest_csv

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    rng = np.random.default_rng(seed)
    models = lf.reference_model_set()
    prop = models.propulsion
    per_level = lf.ForceSurface(prop.levels, tuple(
        lf.Spline1D.interpolate([x * (1.0 + 0.01 * k) for x in c.knots_x], c.knots_y)
        for k, c in enumerate(prop.curves)))
    surfaces = {"propulsion": prop, "braking": models.braking, "per_level_grid": per_level}

    def speeds():
        return [*SPECIAL_SPEEDS, *rng.uniform(-1.0, 45.0, queries).tolist()]

    out = {}
    curve_digests = {"Spline1D.eval": Digest(), "Spline1D.eval_many": Digest()}
    for curve in (models.friction, *prop.curves, *models.braking.curves, *per_level.curves):
        v = speeds()
        for x in v:
            curve_digests["Spline1D.eval"].call(curve.eval, x)
        curve_digests["Spline1D.eval_many"].call(curve.eval_many, [x for x in v if x == x])
        curve_digests["Spline1D.eval_many"].call(curve.eval_many, v)  # names the NaN row
    out.update(curve_digests)

    for name, surface in surfaces.items():
        levels = surface.levels
        v = speeds()
        signal = [*levels, -math.inf, math.inf, math.nan, -0.0,
                  *rng.uniform(levels[0] - 10.0, levels[-1] + 10.0, len(v) - len(levels) - 4)]
        evals, many, inverts = Digest(), Digest(), Digest()
        for x, s in zip(v, signal):
            evals.call(surface.eval, x, s)
        finite = [(x, s) for x, s in zip(v, signal) if x == x and s == s]
        many.call(surface.eval_many, [x for x, _ in finite], [s for _, s in finite])
        many.call(surface.eval_many, v, signal)  # names the first NaN row
        top = max(surface.cross_section(20.0))
        forces = [math.nan, -math.inf, math.inf, 0.0, -1.0,
                  *rng.uniform(-100.0, top * 1.1, len(v) - 5)]
        for x, f in zip(v, forces):
            inverts.call(surface.invert, x, f)
        for x, s in finite[:queries // 4]:  # forces the surface itself reaches
            if surface.levels[0] < s < surface.levels[-1]:
                inverts.call(surface.invert, x, surface.eval(x, s))
        out[f"ForceSurface.eval {name}"] = evals
        out[f"ForceSurface.eval_many {name}"] = many
        out[f"ForceSurface.invert {name}"] = inverts

    inverse = Digest()
    for x, slope, accel in zip(rng.uniform(0.0, 40.0, queries).tolist(),
                               rng.uniform(-0.12, 0.12, queries).tolist(),
                               rng.uniform(-5.0, 3.5, queries).tolist()):
        inverse.call(lf.inverse_actuation, models, x, slope, accel)
    out["inverse_actuation"] = inverse

    # The benchmark's scenarios, drawn as bench/workloads.py generates them.
    neutral = lf.neutral_model_set(models)
    scenarios = workloads.simulate_scenarios(
        np.random.default_rng([seed, workloads.WORKLOADS.index("simulate")]), scale)
    for spec in scenarios:
        schedule = workloads.StepHold(spec["phases"], spec["slope_amp"],
                                      spec["slope_period"], spec["slope_phase"])
        sim = Digest()
        sim.call(lf.simulate, neutral if spec["neutral"] else models, schedule,
                 float(spec["v0"]), workloads.DT, float(spec["duration"]))
        out[f"simulate {spec['name']}"] = sim

    if csv_dir is not None:
        ingest = out["ingest_csv"] = Digest()
        for path in sorted(Path(csv_dir).glob("*.csv")):
            ingest.call(ingest_csv, path, "speed_kmh")
    return {name: d.hexdigest() for name, d in out.items()}


def run_side(tree: Path, seed: int, queries: int = QUERIES, scale: float = 1.0,
             csv_dir: Path | None = None) -> dict:
    """:func:`digests` in a fresh interpreter that imports longforce from ``tree/src``."""
    src = (tree / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    csv_args = [] if csv_dir is None else ["--csv-dir", str(Path(csv_dir).resolve())]
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--digests",
                           "--seed", str(seed), "--queries", str(queries),
                           "--scale", repr(scale), *csv_args],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    side = json.loads(proc.stdout)
    if not Path(side["package"]).resolve().is_relative_to(src):
        raise RuntimeError(f"imported longforce from {side['package']}, not from {src}")
    return side["digests"]


def compare(base: dict, head: dict) -> int:
    """Print each digest pair; 1 if any differs or is missing on one side, else 0."""
    differ = 0
    for name in dict.fromkeys([*base, *head]):
        b, h = base.get(name, "-"), head.get(name, "-")
        same = b == h
        differ += not same
        print(f"{'same' if same else 'DIFF'}  {name:<36} {b[:16]}  {h[:16]}")
    print(f"{len(base)} digests, {differ} differ")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE_REF", nargs="?",
                        help="the commit to compare this checkout with")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--queries", type=int, default=QUERIES, help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--csv-dir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--digests", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digests:  # one side, run by run_side
        import longforce
        print(json.dumps({"package": longforce.__file__,
                          "digests": digests(args.seed, args.queries, args.scale,
                                             args.csv_dir)}))
        return 0
    if args.base is None:
        parser.error("BASE_REF is required")
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          f"{args.base}^{{commit}}"], check=True, capture_output=True,
                         text=True).stdout.strip()
    print(f"base {sha}, head {ROOT} (working tree), seed {args.seed}")
    with tempfile.TemporaryDirectory(prefix="compare_bits-") as tmp:
        csv_dir = write_ingest_inputs(Path(tmp) / "demo")
        export(sha, Path(tmp) / "base")
        base = run_side(Path(tmp) / "base", args.seed, args.queries, args.scale, csv_dir)
        head = run_side(ROOT, args.seed, args.queries, args.scale, csv_dir)
    return compare(base, head)


if __name__ == "__main__":
    sys.exit(main())
