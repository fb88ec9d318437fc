"""Call tracing for the benchmark's traced run, installed from outside the package.

``Tracer.install`` replaces every public function and method object of the
loaded ``longforce.*`` modules wherever it is bound -- module globals,
re-exports in other modules, class attributes -- matched by object identity,
so a name imported into another module (``from .estimation import
estimate_acceleration`` in ``cli``) is caught as well, wherever a later change
moves the code. ``uninstall`` puts the originals back.

* Stage-level calls record a span each: (id, parent id, operation id, name,
  start, end). Spans stay in memory and are written out when the run ends.
* Hot kernels (``HOT``, each called 10^5 times or more per run) record only a
  call count and cumulative time, attributed to the innermost enclosing span,
  which keeps the overhead bounded.

Every wrapper tracks the time its wrapped callees took, so each call's self
time -- its duration minus the part its callees cover -- is charged to the
layer (the module) that defines the function. What is left of the traced wall
time is the harness's own (layer ``bench``), so the self times add up to it.
"""

from __future__ import annotations

import enum
import functools
import json
import os
import sys
import time
import types
from contextlib import contextmanager

import numpy as np

PACKAGE = "longforce"
LAYERS = ("cli", "core", "estimation", "extraction", "spline", "dynamics",
          "validation", "reference")

# Qualified names called per sample, per step or per surface evaluation.
HOT = frozenset({"Spline1D.eval", "ForceSurface.eval", "limited_tangents",
                 "direct_acceleration", "DriveLog.sample"})
# Steps inside a hot kernel and one-line arithmetic helpers called per sample,
# left unwrapped to bound the overhead: their time is their caller's self time.
UNWRAPPED = frozenset({"ForceSurface.eval_clamped", "ForceSurface.cross_section",
                       "total_mass", "equivalent_mass", "grade_force", "kmh_to_mps",
                       "mps_to_kmh"})
# Dunder methods traced besides the public ones: the DriveLog constructor.
CONSTRUCTORS = frozenset({"DriveLog.__init__"})
MAX_SPANS = 2_000_000


# Counters read off a stage call's arguments and result: qualname -> probe.
PROBES = {
    "ingest_csv": lambda a, r: {"ingest_csv.rows": r[1]["rows"],
                                "ingest_csv.rejected": r[1]["rejected"]},
    "save_drive_log": lambda a, r: {"save_drive_log.bytes": os.path.getsize(a[0])},
    "DriveLog.__init__": lambda a, r: {"DriveLog.rows": len(a[0])},
    "estimate_acceleration": lambda a, r: {"estimate_acceleration.samples": len(r),
                                           "estimate_acceleration.valid": int(np.sum(r.valid))},
    "bin_by_speed": lambda a, r: {"bin_by_speed.points": len(a[0])},
    "extract_friction": lambda a, r: {"extract.samples_in": len(a[0]),
                                      "extract.points_out": len(r)},
    "extract_propulsion": lambda a, r: {"extract.samples_in": len(a[0]),
                                        "extract.points_out": len(r)},
    "extract_braking": lambda a, r: {"extract.samples_in": len(a[0]),
                                     "extract.points_out": len(r)},
    "save_model": lambda a, r: {"save_model.bytes": os.path.getsize(a[0])},
    "Spline1D.eval_many": lambda a, r: {"Spline1D.eval_many.points": int(np.size(a[1]))},
    "simulate": lambda a, r: {
        "simulate.steps": len(r) - 1,
        "simulate.at_rest": int(np.count_nonzero((np.asarray(r.speed)[:-1] == 0.0)
                                                 & (np.asarray(r.accel)[:-1] == 0.0)))},
    "inverse_actuation": lambda a, r: {"inverse_actuation.saturated": int(r.saturated),
                                       "inverse_actuation.underflow": int(r.underflow),
                                       "inverse_actuation.brake_branch": int(r.throttle == 0.0)},
    "validate": lambda a, r: {"validate.samples": r.count},
}


class Tracer:
    """Spans, per-function statistics, kernel counts and probe counters of one run."""

    def __init__(self):
        self.op = 0                 # operation id, advanced by the harness
        self.spans = []             # (id, parent, op, name, start, end)
        self.dropped_spans = 0
        self.stats = {}             # qualname -> [calls, inclusive s, self s]
        self.layer_of = {}          # qualname -> layer
        self.kernels = {}           # hot qualname -> {enclosing span: [calls, s]}
        self.counters = {}          # probe counter -> total
        self.probe_errors = {}      # qualname -> first error seen
        self.wrapped = set()
        self._patches = []
        self._span, self._span_name, self._child, self._next = 0, "", 0.0, 0

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the loaded package modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        replace = {}    # id(original) -> wrapper
        classes = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if name.startswith("_") or not _ours(obj) or \
                        getattr(obj, "__qualname__", "") in UNWRAPPED:
                    continue
                if isinstance(obj, types.FunctionType):
                    if id(obj) not in replace:
                        replace[id(obj)] = self._wrap(obj)
                elif isinstance(obj, type) and not issubclass(obj, (enum.Enum, BaseException)):
                    classes[id(obj)] = obj
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in replace:
                    self._patch(mod, name, replace[id(obj)])
        for cls in classes.values():
            for name, attr in list(vars(cls).items()):
                qual = f"{cls.__qualname__}.{name}"
                if (name.startswith("_") and qual not in CONSTRUCTORS) or qual in UNWRAPPED:
                    continue
                if isinstance(attr, types.FunctionType):
                    self._patch(cls, name, self._wrap(attr))
                elif isinstance(attr, (classmethod, staticmethod)):
                    self._patch(cls, name, type(attr)(self._wrap(attr.__func__)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # --- wrappers ---------------------------------------------------------------

    def _wrap(self, fn):
        qual = fn.__qualname__
        layer = fn.__module__.rpartition(".")[2]
        self.wrapped.add(qual)
        self.layer_of[qual] = layer
        stat = self.stats.setdefault(qual, [0, 0.0, 0.0])
        clock = time.perf_counter
        tr = self

        if qual in HOT:
            per_span = self.kernels.setdefault(qual, {})

            def wrapper(*args, **kwargs):
                saved = tr._child
                tr._child = 0.0
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - start
                    own = dt - tr._child
                    tr._child = saved + dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += own
                    cell = per_span.get(tr._span_name)
                    if cell is None:
                        cell = per_span[tr._span_name] = [0, 0.0]
                    cell[0] += 1
                    cell[1] += dt
        else:
            probe = PROBES.get(qual)

            def wrapper(*args, **kwargs):
                frame = tr._enter(qual)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tr._exit(frame, qual, stat)
                if probe is not None:
                    tr._probe(qual, probe, args, result)
                return result

        return functools.wraps(fn)(wrapper)

    def _enter(self, name: str):
        frame = (self._span, self._span_name, self._child)
        self._next += 1
        self._span, self._span_name, self._child = self._next, name, 0.0
        return frame + (self._next, time.perf_counter())

    def _exit(self, frame, name: str, stat) -> None:
        end = time.perf_counter()
        parent, parent_name, saved, sid, start = frame
        dt = end - start
        own = dt - self._child
        self._span, self._span_name, self._child = parent, parent_name, saved + dt
        stat[0] += 1
        stat[1] += dt
        stat[2] += own
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, self.op, name, start, end))
        else:
            self.dropped_spans += 1

    def _probe(self, qual, probe, args, result) -> None:
        try:
            counts = probe(args, result)
        except Exception as exc:  # a changed signature must not crash the run
            self.probe_errors.setdefault(qual, repr(exc))
            return
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        """A harness span around a call into the program (layer ``bench``)."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = "bench"
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, name, stat)

    def self_seconds(self) -> dict:
        """Self time per layer."""
        out = {}
        for qual, stat in self.stats.items():
            layer = self.layer_of[qual]
            out[layer] = out.get(layer, 0.0) + stat[2]
        return out

    # --- output -----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent id, op id, name, start s, end s."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, op, name, start - origin, end - origin]))
                fh.write("\n")

    def summary(self) -> dict:
        return {
            "functions": {q: {"layer": self.layer_of.get(q, "bench"), "calls": s[0],
                              "incl_s": s[1], "self_s": s[2]}
                          for q, s in sorted(self.stats.items()) if s[0]},
            "kernels_by_span": {k: {span or "(none)": {"calls": c[0], "s": c[1]}
                                    for span, c in v.items()}
                                for k, v in sorted(self.kernels.items()) if v},
            "counters": dict(sorted(self.counters.items())),
            "probe_errors": self.probe_errors,
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }


def _ours(obj) -> bool:
    return (getattr(obj, "__module__", None) or "").startswith(PACKAGE)


# --- per-layer metrics ------------------------------------------------------------

class _View:
    """Sums over the set-up tracer (once) and the work tracer (per work unit)."""

    def __init__(self, setup: Tracer, work: Tracer, units: int):
        self.parts = ((setup, 1), (work, units))
        self.work, self.units = work, units
        self.missing = False

    def span_s(self, name: str) -> float:
        """Inclusive time of a harness span; zero where the workload has none."""
        return self.work.stats.get(name, (0, 0.0))[1] / self.units

    def _known(self, qual: str) -> bool:
        known = any(qual in t.wrapped for t, _ in self.parts)
        self.missing |= not known
        return known

    def calls(self, *quals) -> float:
        return sum(t.stats.get(q, (0,))[0] / d
                   for q in quals if self._known(q) for t, d in self.parts)

    def secs(self, *quals) -> float:
        return sum(t.stats.get(q, (0, 0.0))[1] / d
                   for q in quals if self._known(q) for t, d in self.parts)

    def count(self, key: str, qual: str) -> float:
        if not self._known(qual) or qual in self.work.probe_errors:
            self.missing = True
            return 0.0
        return sum(t.counters.get(key, 0) / d for t, d in self.parts)

    def in_span(self, kernel: str, span: str) -> float:
        self._known(kernel)
        self._known(span)
        cell = self.work.kernels.get(kernel, {}).get(span)
        return cell[0] / self.units if cell else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, getter over a _View); counts and times are per work unit.
LAYER_METRICS = [
    ("cli.ingest.s", "s", lambda v: v.span_s("cli.ingest")),
    ("cli.fit_friction.s", "s", lambda v: v.span_s("cli.fit_friction")),
    ("cli.fit_propulsion.s", "s", lambda v: v.span_s("cli.fit_propulsion")),
    ("cli.fit_brake.s", "s", lambda v: v.span_s("cli.fit_brake")),
    ("cli.validate.s", "s", lambda v: v.span_s("cli.validate")),
    ("cli.ingest_csv.rows", "count", lambda v: v.count("ingest_csv.rows", "ingest_csv")),
    ("cli.ingest_csv.rejected", "count",
     lambda v: v.count("ingest_csv.rejected", "ingest_csv")),
    ("cli.load_drive_log.calls", "count", lambda v: v.calls("load_drive_log")),
    ("cli.load_drive_log.s", "s", lambda v: v.secs("load_drive_log")),
    ("cli.save_drive_log.s", "s", lambda v: v.secs("save_drive_log")),
    ("cli.log_bytes", "B", lambda v: v.count("save_drive_log.bytes", "save_drive_log")),
    ("core.DriveLog.calls", "count", lambda v: v.calls("DriveLog.__init__")),
    ("core.DriveLog.rows", "count", lambda v: v.count("DriveLog.rows", "DriveLog.__init__")),
    ("core.DriveLog.s", "s", lambda v: v.secs("DriveLog.__init__")),
    ("estimation.estimate_acceleration.calls", "count",
     lambda v: v.calls("estimate_acceleration")),
    ("estimation.estimate_acceleration.samples", "count",
     lambda v: v.count("estimate_acceleration.samples", "estimate_acceleration")),
    ("estimation.estimate_acceleration.s", "s", lambda v: v.secs("estimate_acceleration")),
    ("estimation.estimate_acceleration.valid_frac", "ratio",
     lambda v: _ratio(v.count("estimate_acceleration.valid", "estimate_acceleration"),
                      v.count("estimate_acceleration.samples", "estimate_acceleration"))),
    ("estimation.bin_by_speed.calls", "count", lambda v: v.calls("bin_by_speed")),
    ("estimation.bin_by_speed.points", "count",
     lambda v: v.count("bin_by_speed.points", "bin_by_speed")),
    ("estimation.bin_by_speed.s", "s", lambda v: v.secs("bin_by_speed")),
    ("extraction.extract.calls", "count",
     lambda v: v.calls("extract_friction", "extract_propulsion", "extract_braking")),
    ("extraction.extract.samples_in", "count",
     lambda v: v.count("extract.samples_in", "extract_friction")),
    ("extraction.extract.points_out", "count",
     lambda v: v.count("extract.points_out", "extract_friction")),
    ("extraction.extract.s", "s",
     lambda v: v.secs("extract_friction", "extract_propulsion", "extract_braking")),
    ("spline.fit_curve.calls", "count", lambda v: v.calls("fit_curve")),
    ("spline.fit_curve.s", "s", lambda v: v.secs("fit_curve")),
    ("spline.check_signal_monotone.s", "s", lambda v: v.secs("check_signal_monotone")),
    ("spline.save_model.s", "s", lambda v: v.secs("save_model")),
    ("spline.model_bytes", "B", lambda v: v.count("save_model.bytes", "save_model")),
    ("spline.load_model.s", "s", lambda v: v.secs("load_model")),
    ("spline.Spline1D.eval.calls", "count", lambda v: v.calls("Spline1D.eval")),
    ("spline.Spline1D.eval_many.points", "count",
     lambda v: v.count("Spline1D.eval_many.points", "Spline1D.eval_many")),
    ("spline.ForceSurface.eval.calls", "count", lambda v: v.calls("ForceSurface.eval")),
    ("spline.limited_tangents.calls", "count", lambda v: v.calls("limited_tangents")),
    ("spline.ForceSurface.invert.calls", "count", lambda v: v.calls("ForceSurface.invert")),
    ("spline.ForceSurface.invert.s", "s", lambda v: v.secs("ForceSurface.invert")),
    ("spline.surface_evals_per_invert", "evals/call",
     lambda v: _ratio(v.in_span("ForceSurface.eval", "ForceSurface.invert"),
                      v.calls("ForceSurface.invert"))),
    ("dynamics.simulate.calls", "count", lambda v: v.calls("simulate")),
    ("dynamics.simulate.s", "s", lambda v: v.secs("simulate")),
    ("dynamics.rk4_steps", "count", lambda v: v.count("simulate.steps", "simulate")),
    ("dynamics.at_rest_steps", "count", lambda v: v.count("simulate.at_rest", "simulate")),
    ("dynamics.direct_acceleration.calls", "count", lambda v: v.calls("direct_acceleration")),
    ("dynamics.direct_acceleration.s", "s", lambda v: v.secs("direct_acceleration")),
    ("dynamics.direct_calls_per_step", "calls/step",
     lambda v: _ratio(v.in_span("direct_acceleration", "simulate"),
                      v.count("simulate.steps", "simulate"))),
    ("dynamics.inverse_actuation.calls", "count", lambda v: v.calls("inverse_actuation")),
    ("dynamics.inverse_actuation.s", "s", lambda v: v.secs("inverse_actuation")),
    ("dynamics.inverse_actuation.saturated", "count",
     lambda v: v.count("inverse_actuation.saturated", "inverse_actuation")),
    ("dynamics.inverse_actuation.underflow", "count",
     lambda v: v.count("inverse_actuation.underflow", "inverse_actuation")),
    ("dynamics.inverse_actuation.brake_branch", "count",
     lambda v: v.count("inverse_actuation.brake_branch", "inverse_actuation")),
    ("validation.validate.calls", "count", lambda v: v.calls("validate")),
    ("validation.validate.samples", "count", lambda v: v.count("validate.samples", "validate")),
    ("validation.validate.s", "s", lambda v: v.secs("validate")),
    ("validation.direct_calls_per_sample", "calls/sample",
     lambda v: _ratio(v.in_span("direct_acceleration", "validate"),
                      v.count("validate.samples", "validate"))),
]
OTHER_METRICS = [
    ("setup.import_s", "s"), ("setup.load_models_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"),
    *((f"self.{layer}.s", "s") for layer in (*LAYERS, "other", "bench")),
]
UNITS = dict([(name, unit) for name, unit, _ in LAYER_METRICS] + OTHER_METRICS)


def layer_metrics(setup: Tracer, work: Tracer, units: int, traced_wall: float,
                  untraced_wall: float, import_s: float, load_s: float):
    """Every per-layer metric, and the names whose function could not be found.

    Counts and times are per work unit, plus the one-time set-up (model
    loading) where it calls the same functions. ``trace.overhead_frac`` is the
    traced wall time over the untraced wall time of the same units, minus 1.
    """
    values, missing = {}, []
    for name, _, getter in LAYER_METRICS:
        view = _View(setup, work, units)
        values[name] = float(getter(view))
        if view.missing:
            missing.append(name)
    wall = traced_wall / units
    program = {layer: s / units for layer, s in work.self_seconds().items() if layer != "bench"}
    for layer in LAYERS:
        values[f"self.{layer}.s"] = program.get(layer, 0.0)
    values["self.other.s"] = sum(s for layer, s in program.items() if layer not in LAYERS)
    values["self.bench.s"] = wall - sum(program.values())
    values.update({"setup.import_s": import_s, "setup.load_models_s": load_s,
                   "trace.wall_s": wall,
                   "trace.overhead_frac": traced_wall / untraced_wall - 1.0})
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    return metrics, missing
