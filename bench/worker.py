"""Child process of the benchmark: one role per process.

    python3 bench/worker.py ROLE '<json arguments>'

Roles:

* ``generate``: write a workload's inputs from its seed (untimed).
* ``setup``: time ``import longforce`` plus the workload's one-time loading
  in this fresh interpreter, and exit.
* ``run``: set up, then run whole work units until the requested seconds have
  passed (tracing off), then check the outputs.
* ``trace``: set up, run work units untraced for half the requested time, run
  the same number of units again with the tracer installed, check the outputs
  and report the per-layer metrics.

``run.py`` starts it with ``src`` first on ``PYTHONPATH`` and the BLAS thread
variables pinned to 1. The result is one JSON object on the last stdout line.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path


SETUP_CAL_SAMPLES = 5


def set_up(workload: str, inputs: Path, src: Path, tracer_cls=None):
    """Import longforce and load what the workload needs once; returns timings
    in CPU seconds, as the workloads time their operations."""
    start = time.process_time()
    import longforce
    if workload == "identify":
        import longforce.cli  # noqa: F401  (the identify user runs the CLI)
    imported = time.process_time()
    if not Path(longforce.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported longforce from {longforce.__file__}, not from {src}")
    import workloads

    tracer = None
    if tracer_cls is not None:
        tracer = tracer_cls()
        tracer.install()
    loaded_at = time.process_time()
    models = None if workload == "identify" else workloads.load_models(inputs)
    ready = time.process_time()
    if tracer is not None:
        tracer.uninstall()
    # scaled to the reference host by the calibration kernel, timed right after
    # in the same process, as the workloads scale their operations
    cpu_s = (imported - start) + (ready - loaded_at)
    cal_s = statistics.median(workloads.calibration_kernel() for _ in range(SETUP_CAL_SAMPLES))
    return {"setup_s": cpu_s * workloads.CAL_REF_S / cal_s, "import_s": imported - start,
            "load_s": ready - loaded_at}, models, tracer


def run_units(wl, seconds: float, units: int | None = None, tracer=None):
    """Whole work units until ``seconds`` have passed, or exactly ``units``."""
    done = 0
    start = time.perf_counter()
    while True:
        wl.unit(tracer)
        done += 1
        elapsed = time.perf_counter() - start
        if (done >= units) if units is not None else (elapsed >= seconds):
            return done, elapsed


def main(argv: list[str]) -> int:
    role, args = argv[0], json.loads(argv[1])
    workload = args["workload"]
    inputs, work, src = Path(args["inputs"]), Path(args["work"]), Path(args["src"]).resolve()

    if role == "generate":
        import numpy
        import longforce.cli  # noqa: F401
        import workloads
        info = workloads.generate(workload, args["seed"], inputs, args["size"])
        info["numpy"] = numpy.__version__
        print(json.dumps(info))
        return 0

    tracer_cls = None
    if role == "trace":
        from tracer import Tracer
        tracer_cls = Tracer
    timings, models, setup_tracer = set_up(workload, inputs, src, tracer_cls)
    if role == "trace":
        import longforce.cli  # noqa: F401  (so every module's functions get wrapped)
    if role == "setup":
        print(json.dumps(timings))
        return 0

    import workloads
    wl = workloads.CLASSES[workload](inputs, work, models)
    seconds = float(args["seconds"])
    out = {"timings": timings}
    if role == "run":
        gc.collect()
        units, elapsed = run_units(wl, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timing = wl.timing()
        out["metrics"] = {name: timing.pop(name) for name in ("ops_per_s", "op_p50_us",
                                                               "op_p99_us")}
        out["metrics"]["peak_rss_mb"] = peak_rss_mb
        out["timing"] = dict(timing, wall_ops_per_s=wl.rows * units / elapsed)
    else:
        from tracer import Tracer, layer_metrics
        gc.collect()
        units, untraced = run_units(wl, seconds / 2)
        work_tracer = Tracer()
        work_tracer.install()
        gc.collect()
        try:
            _, traced = run_units(wl, 0.0, units=units, tracer=work_tracer)
        finally:
            work_tracer.uninstall()
        metrics, missing = layer_metrics(setup_tracer, work_tracer, units, traced, untraced,
                                         timings["import_s"], timings["load_s"])
        out["metrics"] = metrics
        out["missing"] = missing
        out["trace"] = work_tracer.summary()
        spans = Path(args["spans"])
        spans.parent.mkdir(parents=True, exist_ok=True)
        work_tracer.write_spans(spans)
        out["spans_file"] = str(spans)
    problems, quality = wl.check()
    out.update({"units": units, "elapsed_s": elapsed if role == "run" else traced,
                "rows_per_unit": wl.rows, "attempted": wl.attempted, "failed": wl.failed,
                "problems": problems, "quality": quality})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
