#!/usr/bin/env python3
"""Run one longforce benchmark workload and print its metrics.

    python3 bench/run.py --workload identify|simulate|control --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere inside a source checkout: the program is imported from the
checkout's ``src``. Every input is generated from ``--seed`` in a separate
process before anything is timed. Each workload then runs in fresh processes
with the BLAS thread variables pinned to 1:

* ``--trace 0``: the timed run between two sets of four set-up probes
  (import plus one-time loading); prints the end-to-end metrics.
* ``--trace 1``: the traced run; prints the per-layer metrics.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the details (inputs digest, environment, quality
figures, sample counts, tracing summary). A wrong answer exits 1, a failure
to run exits 2 without the result line. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("identify", "simulate", "control")
SETUP_PROBES = 8
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_us": "us", "op_p99_us": "us",
             "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run to the end."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["SOURCE_DATE_EPOCH"] = "0"   # model files must not embed the wall clock
    return env


class Worker:
    """Starts ``worker.py`` roles one at a time against a shared deadline."""

    def __init__(self, payload: dict):
        self.payload = payload
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, role: str) -> dict:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"out of time before the {role} step")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), role, json.dumps(self.payload)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{role} step killed after {exc.timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{role} step exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(numpy_version: str) -> dict:
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "blas_threads_pinned": list(BLAS_VARS)}


def run(args) -> tuple[dict, dict]:
    scratch = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    payload = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "size": args.size, "src": str(SRC), "inputs": str(scratch / "inputs"),
               "work": str(scratch / "work"),
               "spans": str(ROOT / ".bench_work" / "traces"
                            / f"{args.workload}-seed{args.seed}.spans.jsonl")}
    worker = Worker(payload)
    try:
        gen = worker("generate")
        if args.trace:
            res = worker("trace")
            metrics = res["metrics"]
        else:
            # probes before and after the timed run, so a burst of host noise
            # rarely covers them all
            setups = [worker("setup")["setup_s"] for _ in range(SETUP_PROBES // 2)]
            res = worker("run")
            setups.append(res["timings"]["setup_s"])
            setups += [worker("setup")["setup_s"] for _ in range(SETUP_PROBES // 2)]
            values = dict(res["metrics"], setup_s=statistics.median(setups))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in E2E_UNITS.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    digest, numpy_version = gen.pop("inputs_sha256"), gen.pop("numpy")
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace,
        "inputs_sha256": digest, "inputs": gen, "environment": environment(numpy_version),
        "units": res["units"], "elapsed_s": res["elapsed_s"],
        "rows_per_unit": res["rows_per_unit"],
        "failed_frac": res["failed"] / max(res["attempted"], 1),
        "problems": res["problems"], "quality": res["quality"],
    }
    if args.trace:
        details.update(missing=res["missing"], spans_file=res["spans_file"],
                       trace=res["trace"])
    else:
        details.update(setup_samples_s=setups, timing=res["timing"])
    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the simulate and control inputs (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "longforce" / "__init__.py").is_file():
        print(f"error: no longforce sources under {SRC}", file=sys.stderr)
        return 2
    try:
        details, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
