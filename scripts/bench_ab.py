#!/usr/bin/env python3
"""Compare the benchmark of a base commit against HEAD in alternating pairs.

    python3 scripts/bench_ab.py BASE_REF --out BENCH_<n>.json \\
        [--workload simulate ...] [--seeds 11 29]

Both sides run from a clean copy of their committed tree (``git archive``),
so uncommitted changes are not measured. For each workload and seed, pair k
of ``PAIRS`` runs ``bench/run.py --trace 0`` once on each side, for the
``run_seconds`` that ``BENCHMARK.json`` sets, the base first in odd pairs and
HEAD first in even ones, so that a drift of the host's speed favours neither
side. A run fails when it crashes, when it reports a wrong answer
(``correct`` false), or, on HEAD, when more of its operations failed than in
its base partner; a pair with a failed run is left out of every figure. The
script prints, per workload, seed and end-to-end metric, each side's median
and quartiles, HEAD's median over the base's and the pairs HEAD won; a pair
is won when HEAD's value is better in the direction ``BENCHMARK.json`` gives.
Beside the metrics it gives each side's median and quartiles of the work
units completed, from the same pairs: a ``peak_rss_mb`` that grows with the
units run can be checked against them.
It writes every raw result line, with the summary, to ``--out``, and exits 1
if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("identify", "simulate", "control")
PAIRS = 10   # alternating pairs per workload and seed


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(ref: str, dest: Path) -> None:
    """The committed tree of ``ref``, unpacked at ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``tree``: its details and result lines, or its error."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    details = json.loads(lines[-2])["details"]
    run = {"inputs_sha256": details["inputs_sha256"], "quality": details["quality"],
           "units": details["units"], "environment": details["environment"],
           "result": json.loads(lines[-1])}
    if not run["result"]["correct"]:
        run["error"] = f"wrong answer: {details['problems']}"
    return run


def mark_failed_operations(base: dict, head: dict) -> None:
    """Mark ``head`` failed when more of its operations failed than in ``base``."""
    if "result" in base and "result" in head and "error" not in head:
        if head["result"]["failed"] > base["result"]["failed"]:
            head["error"] = (f"{head['result']['failed']} failed operations, "
                             f"{base['result']['failed']} at the base")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def quartile_stats(values: list[float]) -> dict[str, float]:
    return dict(zip(("q1", "median", "q3"), quartiles(values)))


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and seed: each metric's quartiles per side, the ratio of
    medians and the pairs HEAD won; the quartiles of the units completed per
    side; and whether inputs and quality matched."""
    summary = {}
    for key in dict.fromkeys((r["workload"], r["seed"]) for r in runs):
        group = [r for r in runs if (r["workload"], r["seed"]) == key]
        pairs = {}
        for r in group:
            pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in pairs.values()
                 if len(p) == 2 and not any("error" in r for r in p.values())]
        entry = {"pairs": len(pairs), "failed_runs": sum(1 for r in group if "error" in r)}
        if pairs:
            entry["units"] = {side: quartile_stats([p[side]["units"] for p in pairs])
                              for side in ("base", "head")}
        for name, direction in better.items() if pairs else ():
            sides = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                     for side in ("base", "head")}
            stats = {side: quartile_stats(values) for side, values in sides.items()}
            sign = 1.0 if direction == "higher" else -1.0
            stats["head_over_base"] = stats["head"]["median"] / stats["base"]["median"]
            stats["pairs_won"] = sum(1 for b, h in zip(sides["base"], sides["head"])
                                     if sign * (h - b) > 0)
            entry[name] = stats
        entry["quality_identical"] = all(p["base"]["quality"] == p["head"]["quality"]
                                         for p in pairs)
        entry["inputs_identical"] = all(
            p["base"]["inputs_sha256"] == p["head"]["inputs_sha256"] for p in pairs)
        summary[f"{key[0]} seed {key[1]}"] = entry
    return summary


def print_summary(summary: dict, better: dict[str, str]) -> None:
    for key, entry in summary.items():
        print(f"\n{key}: {entry['pairs']} pairs, {entry['failed_runs']} failed runs, "
              f"quality identical: {entry['quality_identical']}, "
              f"inputs identical: {entry['inputs_identical']}")
        print(f"  {'metric':<12} {'base q1':>12} {'median':>12} {'q3':>12}"
              f" {'head q1':>12} {'median':>12} {'q3':>12} {'head/base':>9} {'won':>4}")
        for name in better:
            if name not in entry:
                continue
            s = entry[name]
            print(_quartile_row(name, s["base"], s["head"])
                  + f" {s['head_over_base']:>9.4f} {s['pairs_won']:>4}")
        if "units" in entry:
            b, h = entry["units"]["base"], entry["units"]["head"]
            print(_quartile_row("units", b, h) + f" {h['median'] / b['median']:>9.4f}")


def _quartile_row(name: str, base: dict, head: dict) -> str:
    return (f"  {name:<12} {base['q1']:>12.6g} {base['median']:>12.6g} {base['q3']:>12.6g}"
            f" {head['q1']:>12.6g} {head['median']:>12.6g} {head['q3']:>12.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE_REF", help="the commit to compare HEAD with")
    parser.add_argument("--out", required=True, type=Path,
                        help="where to write the raw result lines (BENCH_<n>.json)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable; default: all three)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 29])
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    refs = {"base": git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
            "head": git("rev-parse", "HEAD")}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        trees = {}
        for side, sha in refs.items():
            trees[side] = Path(tmp) / side
            export(sha, trees[side])
        for workload in args.workload or WORKLOADS:
            for seed in args.seeds:
                for pair in range(1, PAIRS + 1):
                    order = ("base", "head") if pair % 2 else ("head", "base")
                    sides = {}
                    for side in order:
                        sides[side] = {"side": side, "pair": pair, "workload": workload,
                                       "seed": seed,
                                       **bench(trees[side], workload, seed, seconds)}
                    mark_failed_operations(sides["base"], sides["head"])
                    for side in order:
                        run = sides[side]
                        runs.append(run)
                        value = (run["error"] if "error" in run
                                 else run["result"]["metrics"]["ops_per_s"]["value"])
                        print(f"{workload} seed {seed} pair {pair} {side}: ops_per_s {value}",
                              file=sys.stderr, flush=True)

    summary = summarise(runs, better)
    print_summary(summary, better)
    hosts = [r.pop("environment") for r in runs if "environment" in r]
    record = {
        "change": git("log", "-1", "--format=%s", refs["head"]),
        "base": refs["base"], "head": refs["head"],
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": "alternating base/HEAD pairs (odd pairs base first), each side from a "
                    "clean copy of its committed tree",
        "host": {k: hosts[0][k] for k in ("python", "numpy", "cpu", "nproc")} if hosts else {},
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    return 1 if any("error" in r for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
