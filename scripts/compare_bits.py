#!/usr/bin/env python3
"""Check that the evaluated results of a base commit and this checkout are equal bit for bit.

    python3 scripts/compare_bits.py BASE_REF [--seed 11]

The base side is the committed tree of ``BASE_REF``, exported with ``git
archive`` by ``scripts/bench_ab.py``'s ``export``; the other side is this
checkout's ``src``, uncommitted changes included. Each side runs this
script's query code in a fresh interpreter with its own ``src`` first on
the path, so both answer the same seeded queries. Per public evaluation it
hashes, with SHA-256, the float64 bytes of every result, and the type and
message of every error raised:

* ``Spline1D.eval`` and ``eval_many`` on the reference curves;
* ``ForceSurface.eval``, ``eval_many`` and ``invert`` on the reference
  propulsion and braking surfaces (shared knot grids) and on a propulsion
  surface with one grid per level;
* ``direct_acceleration`` and ``direct_acceleration_many`` on the reference
  models (the acceleration and the three forces), at the special speeds too;
* ``inverse_actuation`` on the reference models;
* ``simulate`` on the four scenarios of the ``simulate`` benchmark;
* ``fit_curve`` on seeded random knot layouts, bins and anchors (the
  knots it keeps, their fitted values and tangents);
* ``bin_by_speed`` on seeded random edges and points, some on an edge, on
  the top edge or outside the span, and on an empty input (each bin's
  median speed, median value and count);
* ``load_anchor_file`` on the shipped ``anchors_zoe.json`` and on seeded
  random anchor files (each level's (speed, force, weight) rows);
* ``load_model`` on the reference models and on curves through seeded
  values at the ``fit_curve`` knot layouts, each written with
  ``save_model`` and read back (the knots and the tangents derived from
  them);
* ``ingest_csv`` on the telemetry CSVs that ``scripts/make_demo_logs.py``
  writes, and on a copy of its validation drive with rejected rows, quoted
  cells and a blank line (the arrays' bytes and the report);
* the fit stages: ``cli.main`` ingests the twelve demo CSVs, fits friction,
  propulsion and braking with the demo ``pipeline.json`` and validates on
  the validation drive (each model's knots as ``load_model`` reads them
  back, the report's figures, the exit codes and the output with the work
  directory's path replaced; not the provenance, which holds paths and a
  timestamp).

The CSVs are written once, and both sides read the same files.

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


def load_module(path: Path):
    """The Python file at ``path``, imported as a module of its own."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fit_case(rng):
    """Random strictly increasing knots, bins and anchors for ``fit_curve``.

    Points fall inside the knot span, save one case in ten that reaches past
    it; a third of the cases put a bin exactly on the last knot, a quarter
    have no bins, and where points are few a fit is underdetermined or
    leaves a knot unsupported. Returns the knots and the bins' and the
    anchors' (speed, value, weight) rows.
    """
    import numpy as np

    n = int(rng.integers(2, 9))
    knots = np.cumsum([rng.uniform(0.0, 5.0), *rng.uniform(0.05, 8.0, n - 1)])
    reach = 0.1 * (knots[-1] - knots[0]) if rng.random() < 0.1 else 0.0
    bins = 0 if rng.random() < 0.25 else int(rng.integers(1, 4 * n))
    centers = np.sort(rng.uniform(knots[0] - reach, knots[-1] + reach, bins))
    if bins and rng.random() < 1 / 3:
        centers[-1] = knots[-1]
    binned = np.column_stack([centers, rng.normal(400.0, 300.0, bins),
                              rng.integers(1, 200, bins)])
    speeds = rng.uniform(knots[0], knots[-1], int(rng.integers(0, n + 1)))
    anchors = np.column_stack([speeds, rng.normal(400.0, 300.0, n)[:len(speeds)],
                               rng.uniform(0.5, 100.0, n)[:len(speeds)]])
    return knots.tolist(), binned, anchors


def fit(knots, binned, anchors):
    """``fit_curve`` on the bins' rows followed by the anchors' rows."""
    import numpy as np

    import longforce as lf

    return lf.fit_curve(np.concatenate([binned, anchors]), knots)


def bin_case(rng):
    """Random edges and (speed, value) points for ``bin_by_speed``: 1 to 60 bins,
    points on an edge, on the top edge and outside the span; one case in ten has
    no points."""
    import numpy as np

    edges = np.cumsum([rng.uniform(0.0, 2.0), *rng.uniform(0.01, 3.0, int(rng.integers(1, 61)))])
    n = 0 if rng.random() < 0.1 else int(rng.integers(1, 400))
    speeds = rng.uniform(edges[0] - 1.0, edges[-1] + 1.0, n)
    where = rng.random(n)
    on_edge, on_top = where < 0.2, (where >= 0.2) & (where < 0.3)
    speeds[on_edge] = rng.choice(edges, int(on_edge.sum()))
    speeds[on_top] = edges[-1]
    return np.column_stack([speeds, rng.normal(400.0, 300.0, n)]), edges


def binned_rows(points, edges):
    """``bin_by_speed``'s (K, 3) rows, raveled."""
    import longforce as lf

    return lf.bin_by_speed(points, edges).ravel()


def write_anchor_file(rng, path: Path) -> Path:
    """Write a seeded random anchor file at ``path``: friction and one to five
    levels, in random order, for propulsion and braking, with 0 to 12 anchors each;
    speeds from 0 to 40 m/s, forces of either sign, some of them JSON integers, and
    weights from 0.5 to 100 or, for one anchor in five, none (which reads as 1)."""
    def anchors():
        n = int(rng.integers(0, 13))
        speeds, forces = rng.uniform(0.0, 40.0, n), rng.normal(2000.0, 1500.0, n)
        weights, whole, unweighted = rng.uniform(0.5, 100.0, n), rng.random(n), rng.random(n)
        return [{"speed_mps": v, "force_n": round(f) if w < 0.2 else f,
                 **({} if u < 0.2 else {"weight": wt})}
                for v, f, wt, w, u in zip(speeds.tolist(), forces.tolist(), weights.tolist(),
                                          whole.tolist(), unweighted.tolist())]

    obj = {"friction": anchors(), **{
        kind: {str(level): anchors()
               for level in rng.choice(200, int(rng.integers(1, 6)), replace=False).tolist()}
        for kind in ("propulsion", "braking")}}
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def anchor_rows(path):
    """``load_anchor_file``'s rows as one float array: per level, in file order, its
    kind's index, its level (-1 for friction's), its row count and its rows."""
    import numpy as np

    from longforce.reference import load_anchor_file

    kinds = ("friction", "propulsion", "braking")
    out = []
    for kind, by_level in load_anchor_file(path).items():
        for level, rows in by_level.items():
            rows = np.reshape(rows, (-1, 3))
            out += [kinds.index(kind), -1 if level is None else level, len(rows), *rows.ravel()]
    return np.array(out, dtype=float)


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


def fit_stages(telemetry: Path) -> "Digest":
    """The digest of the CLI walkthrough on the demo CSVs in ``telemetry``.

    In a temporary directory, ``cli.main`` ingests the twelve demo CSVs, runs
    ``fit-friction``, ``fit-propulsion`` and ``fit-brake`` with the demo
    ``pipeline.json``, and ``validate`` on the validation drive. It hashes each
    model's knots as ``load_model`` reads them back, the report's figures, and
    the exit codes and output with the directory's path replaced; the models'
    provenance, with its paths and timestamp, is left out.
    """
    import contextlib
    import io

    import numpy as np

    import longforce as lf
    from longforce.cli import main

    digest = Digest()
    demo = telemetry.parent
    config = str(demo / "pipeline.json")
    with tempfile.TemporaryDirectory(prefix="compare_bits-fits-") as tmp:
        logs = {csv.stem: f"{tmp}/{csv.stem}.json" for csv in sorted(telemetry.glob("*.csv"))
                if csv.stem != "validation_drive_edited"}
        models = {kind: f"{tmp}/{kind}.json" for kind in ("friction", "propulsion", "braking")}
        report = f"{tmp}/report.json"

        def runs(prefix):
            return [path for name, path in logs.items() if name.startswith(prefix)]

        commands = [["ingest", str(telemetry / f"{name}.csv"), "--units", "speed_kmh",
                     "--gear", "neutral" if name == "coast_down" else "drive", "--out", path]
                    for name, path in logs.items()]
        commands += [
            ["fit-friction", *runs("coast_down"), "--config", config,
             "--out", models["friction"]],
            ["fit-propulsion", *runs("throttle_"), "--friction", models["friction"],
             "--config", config, "--out", models["propulsion"]],
            ["fit-brake", *runs("brake_"), "--friction", models["friction"],
             "--propulsion", models["propulsion"], "--config", config,
             "--out", models["braking"]],
            ["validate", "--friction", models["friction"], "--propulsion", models["propulsion"],
             "--braking", models["braking"], "--params", str(demo / "zoe_params.json"),
             "--log", logs["validation_drive"], "--window", "51", "--cutoff", "2",
             "--out", report]]
        output = io.StringIO()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            digest.floats([main(argv) for argv in commands])
        digest.h.update(output.getvalue().replace(tmp, "WORK").encode())

        def knots(path):
            _, model, _ = lf.load_model(path)
            return np.array([*getattr(model, "levels", ()), *(
                v for curve in getattr(model, "curves", (model,))
                for v in (*curve.knots_x, *curve.knots_y, *curve.tangents))])

        def figures(path):
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
            return np.array([*(obj[key] for key in sorted(obj) if key != "histogram"), *(
                v for row in obj["histogram"] for v in (row["center_mps2"], row["count"]))],
                dtype=float)

        for path in models.values():
            digest.call(knots, path)
        digest.call(figures, report)
    return digest


def direct_model(result):
    """A direct model's ``(accel, (f_p, f_f, f_b))`` as one float array, accel first."""
    import numpy as np

    accel, forces = result
    return np.concatenate([np.ravel(accel), *map(np.ravel, forces)])


def inversion(result):
    """``ForceSurface.invert``'s ``(signal, saturated, underflow)`` as a float array."""
    import numpy as np

    return np.array(result, dtype=float)


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
        if hasattr(result, "throttle"):  # ActuationCommand
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
        elif hasattr(result, "knots_x"):  # Spline1D
            self.floats((*result.knots_x, *result.knots_y, *result.tangents))
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

    workloads = load_module(ROOT / "bench" / "workloads.py")

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

        def invert(x, f, surface=surface):
            return inversion(surface.invert(x, f))

        for x, f in zip(v, forces):
            inverts.call(invert, x, f)
        for x, s in finite[:queries // 4]:  # forces the surface itself reaches
            if surface.levels[0] < s < surface.levels[-1]:
                inverts.call(invert, x, surface.eval(x, s))
        out[f"ForceSurface.eval {name}"] = evals
        out[f"ForceSurface.eval_many {name}"] = many
        out[f"ForceSurface.invert {name}"] = inverts

    # Zero throttle (regen on) and zero brake in a third of the rows each.
    v = speeds()
    pedals = [[0.0 if rng.random() < 1 / 3 else rng.uniform(-10.0, surface.levels[-1] + 10.0)
               for _ in v] for surface in (prop, models.braking)]
    rows = list(zip(v, *pedals, rng.uniform(-0.12, 0.12, len(v)).tolist()))
    direct = out["direct_acceleration"] = Digest()
    for row in rows:
        direct.call(lambda row: direct_model(lf.direct_acceleration(models, *row)), row)
    direct_many = out["direct_acceleration_many"] = Digest()
    # The finite rows, then all rows, which names the first non-finite one.
    for chosen in ([row for row in rows if math.isfinite(row[0])], rows):
        direct_many.call(lambda: direct_model(lf.direct_acceleration_many(models, *zip(*chosen))))

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

    fits = out["fit_curve"] = Digest()
    layouts = []
    for _ in range(max(20, queries // 20)):
        knots, binned, anchors = fit_case(rng)
        layouts.append(knots)
        fits.call(fit, knots, binned, anchors)

    loaded = out["load_model"] = Digest()
    saved = [("friction", models.friction), ("propulsion", prop), ("braking", models.braking),
             *(("friction", lf.Spline1D.interpolate(knots, rng.normal(400.0, 300.0, len(knots))))
               for knots in layouts)]
    with tempfile.TemporaryDirectory(prefix="compare_bits-models-") as tmp:
        for k, (kind, model) in enumerate(saved):
            path = Path(tmp) / f"{k}.json"
            lf.save_model(path, kind, model)
            _, back, _ = lf.load_model(path)
            for curve in getattr(back, "curves", (back,)):
                loaded.floats((*curve.knots_x, *curve.knots_y, *curve.tangents))

    binning = out["bin_by_speed"] = Digest()
    for _ in range(max(20, queries // 20)):
        binning.call(binned_rows, *bin_case(rng))
    binning.call(binned_rows, np.empty((0, 2)), [0.0, 1.0, 2.0])

    anchor_files = out["load_anchor_file"] = Digest()
    anchor_files.call(anchor_rows, lf.reference.data_path("anchors_zoe.json"))
    with tempfile.TemporaryDirectory(prefix="compare_bits-anchors-") as tmp:
        for k in range(max(5, queries // 400)):
            anchor_files.call(anchor_rows, write_anchor_file(rng, Path(tmp) / f"{k}.json"))

    if csv_dir is not None:
        ingest = out["ingest_csv"] = Digest()
        for path in sorted(Path(csv_dir).glob("*.csv")):
            ingest.call(ingest_csv, path, "speed_kmh")
        out["fit stages"] = fit_stages(Path(csv_dir))
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
        load_module(ROOT / "scripts" / "bench_ab.py").export(sha, Path(tmp) / "base")
        base = run_side(Path(tmp) / "base", args.seed, args.queries, args.scale, csv_dir)
        head = run_side(ROOT, args.seed, args.queries, args.scale, csv_dir)
    return compare(base, head)


if __name__ == "__main__":
    sys.exit(main())
